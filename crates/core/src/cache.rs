//! The hot-root cache: start finds at a recently observed root instead of
//! walking from the element.
//!
//! On skewed workloads (Zipf endpoints, burst arrivals, graph hubs) a few
//! roots absorb most of the traffic, and every operation on a hot set pays
//! the same serial pointer chase to rediscover the same root. PR 3's
//! sharded A/B measured how expensive that chase is: one extra *dependent*
//! load per hop cost 0.6x throughput, because the walk is the one part of
//! the operation the memory system cannot overlap. The cheapest way to
//! shorten it is to remember where it ended last time — the practical win
//! Alistarh, Fedorov & Koval report across machines in *In Search of the
//! Fastest Concurrent Union-Find Algorithm*.
//!
//! [`RootCache`] is a small, direct-mapped, thread-private table mapping
//! `element → the root it was last observed under`. A cached find probes
//! it first; on a hit it performs **one** load — the cached root's current
//! word — and validates it:
//!
//! * still a root (`parent == self`): the walk is over before it started.
//!   The load is the find's linearization point, exactly as if a normal
//!   walk had just arrived at the root; the word it returned is the
//!   observation any link CAS is issued against, so nothing downstream
//!   can act on staleness the CAS would not catch.
//! * demoted or re-parented since: the entry is dropped
//!   ([`StatsSink::cache_stale`]) and the find falls back to the normal
//!   walk, whose result replaces the entry.
//!
//! # Why acting on a cache entry is sound
//!
//! A cache entry is nothing but an *older observation* of the forest —
//! "at some past moment, `r` was `x`'s root". Roots only stop being roots
//! by being linked under a larger-id node (Jayanti–Tarjan Lemma 3.1), and
//! `x`'s tree only changes by other roots linking *into* it or by its own
//! root being demoted. So if the validation load still shows `r` as a
//! root, `r` is *still* `x`'s root at that load — the entry being old is
//! invisible. If `r` was demoted meanwhile, validation fails and we never
//! act on the entry. Either way, callers that link still CAS against the
//! exact word the validation load returned, the same
//! observe-then-CAS-the-observation discipline every other path in this
//! crate follows; a single-threaded cached execution therefore returns
//! verdicts bit-identical to an uncached one (proptested in
//! `tests/cache_semantics.rs` on all three layouts), and concurrent
//! executions stay linearizable for free.
//!
//! The cache stores only `(element, root)` index pairs — no words. The
//! validation load has to happen anyway (it *is* the linearization point),
//! and it returns a fresher word than any stored one, so storing words
//! would buy nothing and tie the table to one store's word type. Keeping
//! it word-agnostic lets one cache type serve every layout, which is what
//! allows [`ConcurrentUnionFind::unite_batch_cached`] to exist on the
//! trait rather than on each structure.
//!
//! # Using it
//!
//! Per-op loops hold a session handle ([`Dsu::cached`] /
//! [`GrowableDsu::cached`]); batch ingestion threads pass a cache to
//! [`unite_batch_cached`] or
//! [`Dsu::unite_batch_tuned_with`](crate::Dsu::unite_batch_tuned_with).
//! Every surface is **opt-in**: plain `Dsu::unite_batch` runs *without* a
//! cache (its gather waves already preload the levels a hit would skip,
//! and the cache measured as a loss there — `BENCH_PR4.json` and the
//! [`store`](crate::store) module's "when does the root cache pay"
//! section). The table is deliberately tiny (8 KB at the default 512
//! slots — safely L1-resident; `DSU_CACHE_SLOTS` overrides) and
//! direct-mapped: a wrong-slot collision just overwrites, costing a
//! future miss, never correctness.
//!
//! [`ConcurrentUnionFind::unite_batch_cached`]:
//!     crate::ConcurrentUnionFind::unite_batch_cached
//! [`unite_batch_cached`]: crate::ConcurrentUnionFind::unite_batch_cached
//! [`Dsu::cached`]: crate::Dsu::cached
//! [`GrowableDsu::cached`]: crate::GrowableDsu::cached
//! [`StatsSink::cache_stale`]: crate::stats::StatsSink::cache_stale

use crate::find::FindPolicy;
use crate::order::LinkPolicy;
use crate::stats::StatsSink;
use crate::store::ParentStore;

/// Sentinel key marking an empty cache slot (no element can be
/// `usize::MAX`: stores address at most `2^32` or `isize::MAX` elements).
const EMPTY: usize = usize::MAX;

/// A direct-mapped, thread-private table of `element → last observed root`
/// entries (see the [module docs](self) for semantics and soundness).
///
/// Deliberately word-agnostic — entries are index pairs — so one cache
/// type serves every [`ParentStore`] layout and can travel through the
/// [`ConcurrentUnionFind`](crate::ConcurrentUnionFind) trait.
///
/// **A cache belongs to one structure as well as one thread.** Entries
/// are observations of a *particular* forest; validation only re-checks
/// "is the cached root still a root", which a different structure can
/// satisfy by coincidence (wrong results) or violate by bounds (panic).
/// Never feed a cache populated against one union-find into another —
/// the session handles ([`Dsu::cached`](crate::Dsu::cached)) enforce this
/// by owning their cache; callers of the raw
/// [`unite_batch_cached`](crate::ConcurrentUnionFind::unite_batch_cached)
/// surface must keep one cache per `(thread, structure)` pair, or
/// [`clear`](RootCache::clear) between structures.
#[derive(Debug, Clone)]
pub struct RootCache {
    /// `(key, root)` per slot; `key == EMPTY` marks a free slot.
    slots: Box<[(usize, usize)]>,
    /// `slots.len() - 1` (capacity is a power of two).
    mask: usize,
    /// Right-shift that maps the Fibonacci-hashed key to a slot index.
    shift: u32,
}

impl Default for RootCache {
    /// [`RootCache::DEFAULT_CAPACITY`] slots, overridable with the
    /// `DSU_CACHE_SLOTS` environment variable (a positive integer) — the
    /// same deployment-tuning escape hatch `DSU_SHARDS` gives the sharded
    /// store, so the capacity/footprint trade can be swept without a code
    /// change.
    fn default() -> Self {
        let slots = std::env::var("DSU_CACHE_SLOTS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&s| s > 0)
            .unwrap_or(Self::DEFAULT_CAPACITY);
        Self::with_capacity(slots)
    }
}

impl RootCache {
    /// Default slot count: 512 slots x 16 B = 8 KB, small enough to stay
    /// L1-resident next to the wave scratch yet wide enough that a Zipf
    /// burst's hot set maps without pathological thrashing.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// A cache with `capacity` slots, rounded up to a power of two
    /// (minimum 1). Capacity trades hit rate against the cache's own
    /// footprint; it never affects results.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        RootCache {
            slots: vec![(EMPTY, 0); capacity].into_boxed_slice(),
            mask: capacity - 1,
            shift: 64 - capacity.trailing_zeros(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot_of(&self, x: usize) -> usize {
        // Fibonacci hashing: consecutive element indices (the common
        // graph-pipeline shape) spread across slots instead of marching
        // through them in lockstep with their neighbors. The `& 63` keeps
        // the degenerate 1-slot cache (shift 64) defined — its mask sends
        // everything to slot 0 anyway.
        ((x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (self.shift & 63)) as usize & self.mask
    }

    /// The root `x` was last observed under, if the entry survives.
    /// **Unvalidated**: callers must re-load the root's word and check it
    /// is still a root before acting (that load is the linearization
    /// point — see [`find_cached`]).
    #[inline]
    pub fn get(&self, x: usize) -> Option<usize> {
        let (key, root) = self.slots[self.slot_of(x)];
        (key == x).then_some(root)
    }

    /// Records that `x` was just observed to have root `root`, evicting
    /// whatever shared the slot.
    #[inline]
    pub fn insert(&mut self, x: usize, root: usize) {
        self.slots[self.slot_of(x)] = (x, root);
    }

    /// Drops `x`'s entry if present (used when validation fails; a
    /// subsequent [`insert`](RootCache::insert) would overwrite anyway,
    /// but dropping eagerly keeps a stale entry from being re-validated
    /// by a retry loop that aborts between the two).
    #[inline]
    pub fn evict(&mut self, x: usize) {
        let slot = self.slot_of(x);
        if self.slots[slot].0 == x {
            self.slots[slot] = (EMPTY, 0);
        }
    }

    /// Empties the cache (e.g. between phases whose hot sets differ).
    pub fn clear(&mut self) {
        self.slots.fill((EMPTY, 0));
    }
}

/// [`FindPolicy::find`] accelerated by a [`RootCache`]: on a validated hit
/// the find is a single load of the cached root's word; otherwise the
/// policy's normal walk runs and its result is cached. Returns the root
/// *and the word it was observed with*, exactly like `F::find`, so callers
/// CAS against the validated observation.
///
/// Same contract as the uncached find: the returned node was a root at the
/// moment its word was read, and `x` was in its tree at that moment (the
/// module docs give the argument for why an old entry cannot break this).
#[inline]
pub fn find_cached<F, P, S>(
    store: &P,
    cache: &mut RootCache,
    x: usize,
    stats: &mut S,
) -> (usize, P::Word)
where
    F: FindPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    if let Some(r) = cache.get(x) {
        let w = store.load_word(r);
        stats.read();
        if P::parent_of(w) == r {
            stats.cache_hit();
            return (r, w);
        }
        stats.cache_stale();
        cache.evict(x);
    }
    let (r, w) = F::find(store, x, stats);
    cache.insert(x, r);
    (r, w)
}

/// Paper Algorithm 2 (`SameSet`) with cached finds — the body of
/// [`CachedHandle::same_set`](crate::dsu::CachedHandle::same_set). Verdict
/// semantics are identical to [`ops::same_set`](crate::ops::same_set): the
/// cache only changes where each find *starts*.
pub fn same_set_cached<F, P, S>(
    store: &P,
    cache: &mut RootCache,
    x: usize,
    y: usize,
    stats: &mut S,
) -> bool
where
    F: FindPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    stats.op_start();
    let mut u = x;
    let mut v = y;
    loop {
        u = find_cached::<F, P, S>(store, cache, u, stats).0;
        v = find_cached::<F, P, S>(store, cache, v, stats).0;
        if u == v {
            return true;
        }
        // u was a root during its (possibly cached) find; if it still is,
        // u and v were simultaneously roots of different trees.
        let up = store.load_parent(u);
        stats.read();
        if up == u {
            return false;
        }
    }
}

/// Paper Algorithm 3 (`Unite`) with cached finds — the body of
/// [`CachedHandle::unite`](crate::dsu::CachedHandle::unite). The link CAS
/// expects the exact word the cached find's validation load returned, so a
/// stale entry can fail a CAS (and retry with fresh finds) but never
/// corrupt a link. Link direction follows the handle's [`LinkPolicy`],
/// keyed off those validated words — the same word-exactness the uncached
/// [`ops::unite`](crate::ops::unite) relies on.
pub fn unite_cached<F, L, P, S>(
    store: &P,
    cache: &mut RootCache,
    x: usize,
    y: usize,
    stats: &mut S,
    record_link: impl Fn(usize, usize),
) -> bool
where
    F: FindPolicy,
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    stats.op_start();
    let mut u = x;
    let mut v = y;
    loop {
        let (ru, wu) = find_cached::<F, P, S>(store, cache, u, stats);
        let (rv, wv) = find_cached::<F, P, S>(store, cache, v, stats);
        u = ru;
        v = rv;
        if u == v {
            return false;
        }
        let (child, wc, parent) =
            if L::key(store, u, wu) < L::key(store, v, wv) { (u, wu, v) } else { (v, wv, u) };
        if store.cas_from(child, wc, parent) {
            stats.link_ok();
            record_link(child, parent);
            L::on_linked(store, wc, parent);
            // The loser of the link is no longer a root; keep the cache
            // from offering it for validation again (validation would
            // catch it, but the evict saves that wasted load).
            cache.evict(child);
            return true;
        }
        stats.link_fail();
        cache.evict(child);
        stats.cas_retry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find::TwoTrySplit;
    use crate::order::RandomLink;
    use crate::store::{DsuStore, FlatStore, PackedStore};
    use crate::OpStats;
    use std::sync::atomic::Ordering;

    #[test]
    fn capacity_rounds_up_and_indexes_in_bounds() {
        for cap in [0, 1, 3, 64, 100] {
            let c = RootCache::with_capacity(cap);
            assert!(c.capacity().is_power_of_two());
            assert!(c.capacity() >= cap.max(1));
            for x in 0..10_000 {
                assert!(c.slot_of(x) < c.capacity());
            }
        }
        assert_eq!(RootCache::default().capacity(), RootCache::DEFAULT_CAPACITY);
    }

    #[test]
    fn insert_get_evict_clear() {
        let mut c = RootCache::with_capacity(8);
        assert_eq!(c.get(3), None);
        c.insert(3, 7);
        assert_eq!(c.get(3), Some(7));
        c.insert(3, 9);
        assert_eq!(c.get(3), Some(9), "re-insert overwrites");
        c.evict(3);
        assert_eq!(c.get(3), None);
        c.evict(3); // evicting a missing key is a no-op
        c.insert(1, 1);
        c.clear();
        assert_eq!(c.get(1), None);
    }

    #[test]
    fn colliding_keys_overwrite_not_corrupt() {
        let mut c = RootCache::with_capacity(1); // every key collides
        c.insert(10, 11);
        c.insert(20, 21);
        assert_eq!(c.get(10), None, "evicted by the collision");
        assert_eq!(c.get(20), Some(21));
    }

    #[test]
    fn cached_find_hits_after_first_walk() {
        let store = FlatStore::new(8);
        // Path 0 -> 1 -> 2 (2 is root).
        store.parent_cell(0).store(1, Ordering::Relaxed);
        store.parent_cell(1).store(2, Ordering::Relaxed);
        let mut cache = RootCache::default();
        let mut stats = OpStats::default();
        let (r, _) = find_cached::<TwoTrySplit, _, _>(&store, &mut cache, 0, &mut stats);
        assert_eq!(r, 2);
        assert_eq!(stats.cache_hits, 0);
        // Second find: one validation load, no walk.
        let before = stats.reads;
        let (r2, _) = find_cached::<TwoTrySplit, _, _>(&store, &mut cache, 0, &mut stats);
        assert_eq!(r2, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.reads, before + 1, "a hit costs exactly one load");
    }

    #[test]
    fn demoted_root_invalidates_entry() {
        let store = PackedStore::with_seed(8, 42);
        let mut cache = RootCache::default();
        let mut stats = OpStats::default();
        let (r, w) = find_cached::<TwoTrySplit, _, _>(&store, &mut cache, 0, &mut stats);
        assert_eq!(r, 0);
        // Demote the cached root by linking it under another node, as a
        // concurrent unite would.
        assert!(store.cas_from(r, w, 5));
        let (r2, _) = find_cached::<TwoTrySplit, _, _>(&store, &mut cache, 0, &mut stats);
        assert_eq!(r2, 5, "stale entry dropped, walk found the new root");
        assert_eq!(stats.cache_stale, 1);
        assert_eq!(cache.get(0), Some(5), "fallback result re-cached");
    }

    #[test]
    fn cached_ops_agree_with_uncached_single_threaded() {
        use crate::ops;
        let n = 64;
        let cached_store = PackedStore::with_seed(n, 9);
        let plain_store = PackedStore::with_seed(n, 9);
        let mut cache = RootCache::with_capacity(16); // tiny: force evictions
        let mut s = ();
        for i in 0..200usize {
            let x = (i * 37) % n;
            let y = (i * 101 + 3) % n;
            if i % 3 == 0 {
                let a = unite_cached::<TwoTrySplit, RandomLink, _, _>(
                    &cached_store,
                    &mut cache,
                    x,
                    y,
                    &mut s,
                    |_, _| {},
                );
                let b = ops::unite::<TwoTrySplit, RandomLink, _, _>(
                    &plain_store,
                    x,
                    y,
                    &mut s,
                    |_, _| {},
                );
                assert_eq!(a, b, "unite diverged at step {i}");
            } else {
                let a =
                    same_set_cached::<TwoTrySplit, _, _>(&cached_store, &mut cache, x, y, &mut s);
                let b = ops::same_set::<TwoTrySplit, _, _>(&plain_store, x, y, &mut s);
                assert_eq!(a, b, "same_set diverged at step {i}");
            }
        }
        // Same partition at the end (roots may differ in *where* paths
        // point, never in membership).
        for x in 0..n {
            for y in 0..n {
                assert_eq!(
                    same_set_cached::<TwoTrySplit, _, _>(&cached_store, &mut cache, x, y, &mut s),
                    ops::same_set::<TwoTrySplit, _, _>(&plain_store, x, y, &mut s),
                );
            }
        }
    }

    #[test]
    fn link_ids_still_increase_under_cached_unites() {
        let n = 256;
        let store = PackedStore::with_seed(n, 5);
        let mut cache = RootCache::default();
        let mut s = ();
        for i in 0..n - 1 {
            unite_cached::<TwoTrySplit, RandomLink, _, _>(
                &store,
                &mut cache,
                i,
                i + 1,
                &mut s,
                |c, p| {
                    assert!((DsuStore::id_of(&store, c), c) < (DsuStore::id_of(&store, p), p));
                },
            );
        }
        for x in 0..n {
            let p = store.load_parent(x);
            if p != x {
                assert!((DsuStore::id_of(&store, x), x) < (DsuStore::id_of(&store, p), p));
            }
        }
    }
}
