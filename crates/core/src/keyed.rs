//! Keyed entity resolution: arbitrary hashable keys over the packed core.
//!
//! Production consumers of union-find are *keyed*: they unite records by
//! row key or plan-group id, usually through a lock around a hash map, and
//! that facade — not the union-find underneath — is their bottleneck.
//! [`KeyedDsu`] replaces it with a **lock-free sharded id table**: keys
//! hash to dense element indices of a [`GrowableDsu`], and all set
//! operations run on the packed word store.
//!
//! # The id table
//!
//! The table maps each key to a dense id (assigned by
//! [`make_set`](crate::GrowableDsu::make_set) in insertion order) and never
//! deletes. It is sharded by the **high bits** of a seeded 64-bit hash.
//! Each shard is a directory of *segments* growing ×4 (256, 1024, 4096, …
//! slots); a segment is an array of 64-byte **buckets** of eight one-word
//! slots, each an `AtomicU64`:
//!
//! ```text
//! | tag: bits 63..34 | id: bits 33..2 | state: bits 1..0 (EMPTY / BUSY / FULL) |
//! ```
//!
//! The tag is the hash's low 30 bits, disjoint from the shard bits, so a
//! probe skips other keys' slots without touching key storage. The keys
//! live in an append-only arena of `OnceLock<K>` cells indexed by id; ids
//! made directly through [`dsu().make_set()`](crate::GrowableDsu::make_set)
//! have no key, and no slot names them. Entries **never move or rehash**:
//! growth allocates a fresh segment (counted as
//! [`id_table_resizes`](crate::OpStats::id_table_resizes)).
//!
//! A key's probe path is fixed: **one** hashed bucket per segment, in
//! segment order, and the eight words of each bucket in order — one cache
//! line (one probe step) per allocated segment. Inserts claim the **first
//! `EMPTY` word** on the path with a CAS.
//!
//! **Why one key never gets two ids.** A word only goes from `EMPTY` to
//! occupied, and its tag is fixed by its claim. Suppose inserts A and B of
//! one key claim path positions `i < j`. B passed `i`, so it saw `i`
//! occupied (by a load or its own failed CAS) by a different tag, or by a
//! matching tag that it waited out to `FULL` and whose key differed.
//! Occupancy is permanent, so `i` holds that other key forever. But A's
//! CAS at `i` found it `EMPTY`, after which it holds A's key — B's key —
//! forever: a contradiction. So at most one claim per key, and every
//! resolver converges on the winner's id. The winner fills the arena cell
//! before its release store of `FULL`, so a reader whose acquire load sees
//! `FULL` finds the key. Stress-tested in `tests/keyed_semantics.rs`.
//!
//! The one wait: a thread that meets a `BUSY` word with its tag spins
//! while the winner runs between its claim CAS and its release store. The
//! operations are lock-free in aggregate, not wait-free — the paper's own
//! caveat for unbounded universes.
//!
//! # Pipelined resolution
//!
//! [`merge_keys_batch`](KeyedDsu::merge_keys_batch) and
//! [`same_set_batch`](KeyedDsu::same_set_batch) first hash the whole
//! burst, then resolve key `i` while issuing read hints for the path
//! buckets of key `i + 8`, so the cache misses of several keys overlap.
//! The per-key entry points run the same routine as a batch of one.
//! Batched merges then route the dense edges through [`unite_batch`]'s
//! waves.
//!
//! # When to use which layer
//!
//! | your elements are | use |
//! |---|---|
//! | dense `0..n`, known up front | [`Dsu`](crate::Dsu) |
//! | dense, created on the fly | [`GrowableDsu`] |
//! | strings, sparse u64s, uuids, row keys | [`KeyedDsu`] |
//!
//! [`unite_batch`]: crate::GrowableDsu::unite_batch

use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::OnceLock;

use crate::find::{FindPolicy, TwoTrySplit};
use crate::growable::{locate, GrowableDsu, GrowableStore};
use crate::order::splitmix64;
use crate::stats::{ShardSkew, StatsSink};
use crate::store::{prefetch_read, ShardSpec};

/// Slot states, in the low bits of a slot word.
const STATUS_MASK: u64 = 0b11;
const EMPTY: u64 = 0;
const BUSY: u64 = 0b01;
const FULL: u64 = 0b10;
/// The id field sits above the state; the tag fills the rest of the word.
const ID_SHIFT: u32 = 2;
const TAG_SHIFT: u32 = ID_SHIFT + u32::BITS;
const TAG_MASK: u64 = !0 << TAG_SHIFT;

/// Slots per bucket: eight words, one 64-byte cache line.
const BUCKET: usize = 8;
/// log2 of the first segment's bucket count per shard (32 buckets = 256
/// slots); each later segment has four times the buckets of the one before.
const BASE_BUCKET_BITS: u32 = 5;
/// Maximum segments per shard; the last one alone would hold 2^38 slots.
const KEY_SEGMENTS: usize = 16;
/// How many keys ahead of the one being resolved the pipeline prefetches.
const LOOKAHEAD: usize = 8;

/// One odd multiplier per segment for the multiply-shift bucket hash, so a
/// key's buckets in different segments are chosen independently.
const MULTIPLIERS: [u64; KEY_SEGMENTS] = {
    let mut m = [0; KEY_SEGMENTS];
    let mut s = 0;
    while s < KEY_SEGMENTS {
        m[s] = splitmix64(s as u64) | 1;
        s += 1;
    }
    m
};

/// Eight slot words sharing one cache line.
#[derive(Default)]
#[repr(align(64))]
struct Bucket([AtomicU64; BUCKET]);

/// One shard of the id table: a directory of ×4 segments of buckets plus
/// its local bookkeeping, padded so neighboring shards' headers never
/// share a cache line.
#[derive(Default)]
#[repr(align(128))]
struct KeyShard {
    segments: [OnceLock<Box<[Bucket]>>; KEY_SEGMENTS],
    /// Published keys in this shard (incremented by claim winners after
    /// their release store, so it may momentarily trail a racing reader's
    /// view — a report counter, not a synchronization point).
    keys: AtomicUsize,
    /// Segments allocated after construction.
    resizes: AtomicUsize,
}

impl KeyShard {
    fn new() -> Self {
        let shard = KeyShard::default();
        // Pre-allocate the first segment: the common case never pays the
        // directory's OnceLock initialization race, and `id_table_resizes`
        // cleanly means "growth", not "first touch".
        shard.segments[0].get_or_init(|| Self::alloc_segment(0));
        shard
    }

    fn alloc_segment(s: usize) -> Box<[Bucket]> {
        std::iter::repeat_with(Bucket::default)
            .take(1 << (BASE_BUCKET_BITS as usize + 2 * s))
            .collect()
    }

    /// Segment `s`, allocating it if no other thread has (inserts only).
    #[cold]
    fn grow<Sk: StatsSink>(&self, s: usize, stats: &mut Sk) -> &[Bucket] {
        let mut allocated = false;
        let seg = self.segments[s].get_or_init(|| {
            allocated = true;
            Self::alloc_segment(s)
        });
        if allocated {
            self.resizes.fetch_add(1, Relaxed);
            stats.id_table_resize();
        }
        seg
    }

    /// The bucket of segment `s` on the probe path of hash `h`.
    #[inline]
    fn bucket(seg: &[Bucket], s: usize, h: u64) -> &Bucket {
        let bits = BASE_BUCKET_BITS + 2 * s as u32;
        &seg[(h.wrapping_mul(MULTIPLIERS[s]) >> (64 - bits)) as usize]
    }

    /// Read hints for every allocated bucket on the path of hash `h`.
    #[inline]
    fn prefetch_path(&self, h: u64) {
        for (s, seg) in self.segments.iter().map_while(OnceLock::get).enumerate() {
            prefetch_read(Self::bucket(seg, s, h));
        }
    }
}

/// Keys by dense id: an append-only directory of doubling segments of
/// write-once cells (segment `s` holds ids `2^s - 1 ..= 2^(s+1) - 2`, so
/// 32 segments cover every id below `u32::MAX`).
struct KeyArena<K> {
    segments: [OnceLock<Box<[OnceLock<K>]>>; u32::BITS as usize],
}

impl<K> KeyArena<K> {
    /// Stores the key of a freshly made id. Only the id's claim winner
    /// calls this, once.
    fn set(&self, id: usize, key: K) {
        let (s, off) = locate(id);
        let seg = self.segments[s]
            .get_or_init(|| std::iter::repeat_with(OnceLock::new).take(1 << s).collect());
        assert!(seg[off].set(key).is_ok(), "id {id} was given a key twice");
    }

    fn get(&self, id: usize) -> Option<&K> {
        let (s, off) = locate(id);
        self.segments[s].get()?[off].get()
    }
}

/// A concurrent union-find over **arbitrary hashable keys**: a lock-free
/// sharded id table in front of a [`GrowableDsu`].
///
/// Records arrive identified by row keys, uuids, or sparse 64-bit ids, get
/// mapped to dense indices exactly once, and all merge/query traffic runs
/// on the packed parent-word core. See the [module docs](self) for the id
/// table's design and the race-freedom argument.
///
/// # Example
///
/// ```
/// use concurrent_dsu::KeyedDsu;
///
/// let dsu: KeyedDsu<String> = KeyedDsu::new();
/// let a = dsu.insert(&"alice@example.com".to_string());
/// assert_eq!(dsu.insert(&"alice@example.com".to_string()), a); // idempotent
///
/// dsu.merge_keys(&"alice@example.com".to_string(), &"a.smith@work.test".to_string());
/// assert!(dsu.same_set(&"a.smith@work.test".to_string(), &"alice@example.com".to_string()));
/// // Unseen keys are implicit singletons: equal keys are trivially together,
/// // distinct ones are not.
/// assert!(dsu.same_set(&"nobody".to_string(), &"nobody".to_string()));
/// assert!(!dsu.same_set(&"nobody".to_string(), &"alice@example.com".to_string()));
/// assert_eq!(dsu.key_count(), 2);
/// ```
///
/// Batched ingestion resolves a burst of keys in one pipelined pass and
/// routes the dense edges through the batch waves:
///
/// ```
/// use concurrent_dsu::KeyedDsu;
///
/// let dsu: KeyedDsu<u64> = KeyedDsu::new();
/// // Sparse 64-bit keys — the universe never materializes.
/// let burst: Vec<(u64, u64)> = (0..99).map(|i| (i << 40, (i + 1) << 40)).collect();
/// assert_eq!(dsu.merge_keys_batch(&burst), 99);
/// assert_eq!(dsu.set_count(), 1);
/// assert_eq!(dsu.key_count(), 100);
/// ```
pub struct KeyedDsu<K, F: FindPolicy = TwoTrySplit, S: GrowableStore = crate::DefaultGrowableStore>
{
    dsu: GrowableDsu<F, S>,
    shards: Box<[KeyShard]>,
    keys: KeyArena<K>,
    shard_bits: u32,
    salt: u64,
}

impl<K: Hash + Eq, F: FindPolicy, S: GrowableStore> std::fmt::Debug for KeyedDsu<K, F, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedDsu")
            .field("keys", &self.key_count())
            .field("set_count", &self.set_count())
            .field("key_shards", &self.shards.len())
            .field("policy", &F::NAME)
            .field("store", &S::NAME)
            .finish()
    }
}

impl<K: Hash + Eq, F: FindPolicy, S: GrowableStore> Default for KeyedDsu<K, F, S> {
    fn default() -> Self {
        Self::new()
    }
}

/// The id-table shard count: `DSU_KEY_SHARDS` if set (a positive integer,
/// rounded up to a power of two), else one shard per hardware thread —
/// the same derivation [`ShardSpec::auto`] uses for parent-store shards,
/// under a separate knob because the two tables have independent
/// contention profiles.
fn key_shard_spec() -> ShardSpec {
    if let Some(s) = std::env::var("DSU_KEY_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&s| s > 0)
    {
        return ShardSpec::with_shards(s);
    }
    ShardSpec::with_shards(std::thread::available_parallelism().map_or(1, |p| p.get()))
}

impl<K: Hash + Eq, F: FindPolicy, S: GrowableStore> KeyedDsu<K, F, S> {
    /// Default seed for the key hash and the underlying id order.
    pub const DEFAULT_SEED: u64 = 0x6b65_7973; // "keys"

    /// An empty keyed structure with the default seed and an id-table
    /// shard count derived from the machine (override with the
    /// `DSU_KEY_SHARDS` environment variable).
    pub fn new() -> Self {
        Self::with_seed(Self::DEFAULT_SEED)
    }

    /// An empty keyed structure whose key hash and id order are salted by
    /// `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self::with_spec(seed, key_shard_spec())
    }

    /// An empty keyed structure with an explicit id-table [`ShardSpec`].
    pub fn with_spec(seed: u64, spec: ShardSpec) -> Self {
        Self::from_store(S::with_seed(seed), seed, spec)
    }

    /// Wraps an already-constructed (still empty) growable store — the
    /// entry point for stores whose constructors take more than a seed,
    /// such as a [`ShardedSegmentedStore`](crate::ShardedSegmentedStore)
    /// with its own [`ShardSpec`].
    pub fn from_store(store: S, seed: u64, spec: ShardSpec) -> Self {
        KeyedDsu {
            dsu: GrowableDsu::from_store(store),
            shards: (0..spec.shards()).map(|_| KeyShard::new()).collect(),
            keys: KeyArena { segments: Default::default() },
            shard_bits: spec.shards().trailing_zeros(),
            salt: seed,
        }
    }

    /// The seeded 64-bit hash all table geometry derives from.
    fn hash_key(&self, key: &K) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.salt.hash(&mut h);
        key.hash(&mut h);
        h.finish()
    }

    #[inline]
    fn shard(&self, h: u64) -> &KeyShard {
        // `checked_shr` maps the single-shard case (a 64-bit shift) to 0.
        &self.shards[h.checked_shr(64 - self.shard_bits).unwrap_or(0) as usize]
    }

    /// Resolves `key`, whose hash is `h`, to its dense id: walks the probe
    /// path and either finds the key, claims the first `EMPTY` word with a
    /// fresh id and the key made by `claim`, or (lookups, `claim == None`)
    /// answers `None` at the first `EMPTY` word. See the module docs for
    /// why a key never gets two ids.
    fn resolve<Sk: StatsSink>(
        &self,
        key: &K,
        h: u64,
        claim: Option<fn(&K) -> K>,
        stats: &mut Sk,
    ) -> Option<usize> {
        let shard = self.shard(h);
        let tag = h << TAG_SHIFT;
        for s in 0..KEY_SEGMENTS {
            let seg = match (shard.segments[s].get(), claim) {
                (Some(seg), _) => seg,
                (None, Some(_)) => shard.grow(s, stats),
                // Lookup-only: an unallocated segment cannot hold the key,
                // and later segments only exist if this one does — miss.
                (None, None) => {
                    stats.key_probe_steps(s);
                    return None;
                }
            };
            for slot in &KeyShard::bucket(seg, s, h).0 {
                let word = loop {
                    let word = slot.load(Acquire);
                    match word & STATUS_MASK {
                        EMPTY => {
                            let Some(make_key) = claim else {
                                // A completed insert would have claimed this
                                // word or an earlier one on the path: miss.
                                stats.key_probe_steps(s + 1);
                                return None;
                            };
                            if slot.compare_exchange(EMPTY, tag | BUSY, Acquire, Relaxed).is_ok() {
                                let id = self.dsu.make_set();
                                assert!(id < u32::MAX as usize, "KeyedDsu ids fit in 32 bits");
                                self.keys.set(id, make_key(key));
                                slot.store(tag | (id as u64) << ID_SHIFT | FULL, Release);
                                shard.keys.fetch_add(1, Relaxed);
                                stats.key_inserted();
                                stats.key_probe_steps(s + 1);
                                return Some(id);
                            }
                            // Lost the claim: re-read the word, it may
                            // carry this very key.
                        }
                        // A matching claim is between its CAS and its
                        // release store — the structure's one wait.
                        BUSY if word & TAG_MASK == tag => std::hint::spin_loop(),
                        _ => break word,
                    }
                };
                // FULL with a matching tag: the acquire load synchronized
                // with the winner's release store, so the arena cell is set.
                let id = (word >> ID_SHIFT) as u32 as usize;
                if word & TAG_MASK == tag && self.keys.get(id) == Some(key) {
                    stats.key_probe_steps(s + 1);
                    return Some(id);
                }
            }
        }
        // Only an *insert* that found no empty word in any segment
        // indicates a broken table; a lookup simply missed.
        assert!(
            claim.is_none(),
            "KeyedDsu id table exhausted all {KEY_SEGMENTS} segments in one shard; check the key \
             type's Hash for degenerate output"
        );
        stats.key_probe_steps(KEY_SEGMENTS);
        None
    }

    /// The pipeline behind the batch paths: hashes every key of the burst
    /// (`a`, `b` of each pair in order), then resolves key `i` while
    /// issuing read hints for the path buckets of key `i + LOOKAHEAD`.
    fn resolve_pairs<Sk: StatsSink>(
        &self,
        pairs: &[(K, K)],
        claim: Option<fn(&K) -> K>,
        stats: &mut Sk,
    ) -> Vec<Option<usize>> {
        let hashed: Vec<(&K, u64)> =
            pairs.iter().flat_map(|(a, b)| [a, b]).map(|k| (k, self.hash_key(k))).collect();
        hashed
            .iter()
            .enumerate()
            .map(|(i, &(key, h))| {
                if let Some(&(_, ahead)) = hashed.get(i + LOOKAHEAD) {
                    self.shard(ahead).prefetch_path(ahead);
                }
                self.resolve(key, h, claim, stats)
            })
            .collect()
    }

    /// Maps `key` to its dense id, inserting it as a fresh singleton if
    /// unseen. Idempotent and race-free: every call with equal keys — on
    /// any thread, at any interleaving — returns the same id, and exactly
    /// one [`make_set`](crate::GrowableDsu::make_set) ever runs per
    /// distinct key.
    pub fn insert(&self, key: &K) -> usize
    where
        K: Clone,
    {
        self.insert_with(key, &mut ())
    }

    /// [`insert`](KeyedDsu::insert) reporting work (probe steps, claim
    /// wins, table growth) into `stats`.
    pub fn insert_with<Sk: StatsSink>(&self, key: &K, stats: &mut Sk) -> usize
    where
        K: Clone,
    {
        self.resolve(key, self.hash_key(key), Some(K::clone), stats)
            .expect("insert always resolves")
    }

    /// The dense id of `key`, or `None` if it was never inserted. Never
    /// allocates or claims anything.
    pub fn get(&self, key: &K) -> Option<usize> {
        self.get_with(key, &mut ())
    }

    /// [`get`](KeyedDsu::get) reporting probe work into `stats`.
    pub fn get_with<Sk: StatsSink>(&self, key: &K, stats: &mut Sk) -> Option<usize> {
        self.resolve(key, self.hash_key(key), None, stats)
    }

    /// Unites the sets containing `a` and `b`, inserting unseen keys as
    /// singletons first; `true` iff **this call** performed the link (the
    /// two sets were distinct at its linearization point).
    pub fn merge_keys(&self, a: &K, b: &K) -> bool
    where
        K: Clone,
    {
        self.merge_keys_with(a, b, &mut ())
    }

    /// [`merge_keys`](KeyedDsu::merge_keys) reporting work into `stats`.
    pub fn merge_keys_with<Sk: StatsSink>(&self, a: &K, b: &K, stats: &mut Sk) -> bool
    where
        K: Clone,
    {
        let ia = self.insert_with(a, stats);
        let ib = self.insert_with(b, stats);
        self.dsu.unite_with(ia, ib, stats)
    }

    /// `true` iff `a` and `b` are in the same set at the operation's
    /// linearization point. Never inserts: unseen keys are implicit
    /// singletons, so two equal unseen keys are together and any other
    /// pairing with an unseen key is not.
    pub fn same_set(&self, a: &K, b: &K) -> bool {
        self.same_set_with(a, b, &mut ())
    }

    /// [`same_set`](KeyedDsu::same_set) reporting work into `stats`.
    pub fn same_set_with<Sk: StatsSink>(&self, a: &K, b: &K, stats: &mut Sk) -> bool {
        let ids = [self.get_with(a, stats), self.get_with(b, stats)];
        self.verdict(a, b, &ids, stats)
    }

    /// A query's verdict from its resolved ids.
    fn verdict<Sk: StatsSink>(&self, a: &K, b: &K, ids: &[Option<usize>], stats: &mut Sk) -> bool {
        match *ids {
            [Some(ia), Some(ib)] => self.dsu.same_set_with(ia, ib, stats),
            // At most one key exists: same set exactly when both name the
            // same implicit singleton.
            _ => a == b,
        }
    }

    /// Batched [`merge_keys`](KeyedDsu::merge_keys): resolves every key of
    /// the burst to a dense id in one pipelined pass (inserting unseen
    /// keys), then routes the resolved edge list through the batch
    /// ingestion waves (`bulk`). Returns the number of edges that
    /// performed a link.
    pub fn merge_keys_batch(&self, pairs: &[(K, K)]) -> usize
    where
        K: Clone,
    {
        self.merge_keys_batch_with(pairs, &mut ())
    }

    /// [`merge_keys_batch`](KeyedDsu::merge_keys_batch) reporting both the
    /// resolution work (probes, claims, growth) and the batch-wave work
    /// into `stats`.
    pub fn merge_keys_batch_with<Sk: StatsSink>(&self, pairs: &[(K, K)], stats: &mut Sk) -> usize
    where
        K: Clone,
    {
        let ids = self.resolve_pairs(pairs, Some(K::clone), stats);
        let resolved = |id: Option<usize>| id.expect("inserts always resolve");
        let edges: Vec<(usize, usize)> =
            ids.chunks_exact(2).map(|p| (resolved(p[0]), resolved(p[1]))).collect();
        self.dsu.unite_batch_with(&edges, stats)
    }

    /// Batched [`same_set`](KeyedDsu::same_set): one verdict per pair,
    /// resolved in one pipelined pass without inserting.
    pub fn same_set_batch(&self, pairs: &[(K, K)]) -> Vec<bool> {
        self.same_set_batch_with(pairs, &mut ())
    }

    /// [`same_set_batch`](KeyedDsu::same_set_batch) reporting work into
    /// `stats`.
    pub fn same_set_batch_with<Sk: StatsSink>(
        &self,
        pairs: &[(K, K)],
        stats: &mut Sk,
    ) -> Vec<bool> {
        let ids = self.resolve_pairs(pairs, None, stats);
        pairs
            .iter()
            .zip(ids.chunks_exact(2))
            .map(|((a, b), p)| self.verdict(a, b, p, stats))
            .collect()
    }

    /// Number of distinct keys inserted so far.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.keys.load(Relaxed)).sum()
    }

    /// `true` before the first insert.
    pub fn is_empty(&self) -> bool {
        self.key_count() == 0
    }

    /// Number of disjoint sets right now (each unseen key would be one
    /// more).
    pub fn set_count(&self) -> usize {
        self.dsu.set_count()
    }

    /// Number of id-table shards.
    pub fn key_shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total id-table segments allocated after construction, summed over
    /// shards — the table-growth half of
    /// [`OpStats::id_table_resizes`](crate::OpStats::id_table_resizes),
    /// readable at quiescence without a sink.
    pub fn id_table_resizes(&self) -> usize {
        self.shards.iter().map(|s| s.resizes.load(Relaxed)).sum()
    }

    /// How evenly keys spread across the id-table shards (uniform hash ⇒
    /// imbalance near 1.0; a hot shard means a degenerate `Hash`).
    pub fn key_skew(&self) -> ShardSkew {
        ShardSkew::from_counts(self.shards.iter().map(|s| s.keys.load(Relaxed) as u64))
    }

    /// The underlying dense-id structure. Ids returned by
    /// [`insert`](KeyedDsu::insert)/[`get`](KeyedDsu::get) are its element
    /// indices, so mixed-mode pipelines (keyed ingest, dense analytics)
    /// can drop to the array API at any time.
    pub fn dsu(&self) -> &GrowableDsu<F, S> {
        &self.dsu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpStats;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn keyed_dsu_is_send_and_sync() {
        assert_send_sync::<KeyedDsu<String>>();
        assert_send_sync::<KeyedDsu<u64>>();
    }

    #[test]
    fn insert_is_idempotent_and_dense() {
        let dsu: KeyedDsu<String> = KeyedDsu::new();
        let ids: Vec<usize> = (0..100).map(|i| dsu.insert(&format!("k{i}"))).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "ids are dense 0..n");
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(dsu.insert(&format!("k{i}")), *id, "re-insert returns the same id");
            assert_eq!(dsu.get(&format!("k{i}")), Some(*id));
        }
        assert_eq!(dsu.key_count(), 100);
        assert_eq!(dsu.set_count(), 100);
        assert_eq!(dsu.get(&"unseen".to_string()), None);
    }

    #[test]
    fn merge_and_query_semantics() {
        let dsu: KeyedDsu<u64> = KeyedDsu::new();
        assert!(dsu.merge_keys(&10, &20));
        assert!(!dsu.merge_keys(&20, &10), "already united");
        assert!(dsu.same_set(&10, &20));
        assert!(!dsu.same_set(&10, &30), "30 is an unseen singleton");
        assert!(dsu.same_set(&99, &99), "an unseen key is together with itself");
        assert!(!dsu.same_set(&98, &99), "two distinct unseen keys are not");
        assert!(!dsu.merge_keys(&7, &7), "self-merge inserts but never links");
        assert_eq!(dsu.key_count(), 3);
        assert_eq!(dsu.set_count(), 2);
    }

    #[test]
    fn batch_matches_per_op() {
        let pairs: Vec<(u64, u64)> =
            (0..200).map(|i| (splitmix64(i) % 64, splitmix64(i + 1000) % 64)).collect();
        let batched: KeyedDsu<u64> = KeyedDsu::with_seed(7);
        let per_op: KeyedDsu<u64> = KeyedDsu::with_seed(7);
        let links = batched.merge_keys_batch(&pairs);
        let expected = pairs.iter().filter(|(a, b)| per_op.merge_keys(a, b)).count();
        assert_eq!(links, expected);
        assert_eq!(batched.key_count(), per_op.key_count());
        assert_eq!(batched.set_count(), per_op.set_count());
        let queries: Vec<(u64, u64)> = (0..64).map(|i| (i, (i * 7) % 64)).collect();
        let lhs = batched.same_set_batch(&queries);
        let rhs: Vec<bool> = queries.iter().map(|(a, b)| per_op.same_set(a, b)).collect();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn counters_attribute_the_keyed_work() {
        let dsu: KeyedDsu<String> = KeyedDsu::with_spec(3, ShardSpec::with_shards(2));
        let mut stats = OpStats::default();
        for i in 0..500 {
            dsu.insert_with(&format!("key-{i}"), &mut stats);
        }
        assert_eq!(stats.keys_inserted, 500);
        assert!(stats.key_probe_steps >= 500, "every resolve probes at least once");
        // 500 keys over 2 shards × 32 base buckets of 8 slots must have
        // overflowed some bucket into a fresh segment.
        assert!(stats.id_table_resizes > 0);
        assert_eq!(stats.id_table_resizes as usize, dsu.id_table_resizes());
        let mut lookups = OpStats::default();
        for i in 0..500 {
            assert!(dsu.get_with(&format!("key-{i}"), &mut lookups).is_some());
        }
        assert_eq!(lookups.keys_inserted, 0, "lookups never claim");
        assert_eq!(lookups.id_table_resizes, 0, "lookups never grow the table");
        assert!(lookups.key_probe_steps >= 500);
    }

    #[test]
    fn absent_lookups_miss_cleanly_at_any_fill() {
        // Regression: a miss whose probe path runs past the last allocated
        // segment (or through full buckets) must return None, not panic.
        // Fill a single-shard table well past segment 0 so absent probes
        // regularly traverse full buckets and hit the unallocated tail.
        let dsu: KeyedDsu<String> = KeyedDsu::with_spec(9, ShardSpec::with_shards(1));
        for i in 0..2_000 {
            dsu.insert(&format!("present-{i}"));
        }
        for i in 0..2_000 {
            assert_eq!(dsu.get(&format!("absent-{i}")), None);
            assert!(!dsu.same_set(&format!("absent-{i}"), &"present-0".to_string()));
        }
        assert_eq!(dsu.key_count(), 2_000);
    }

    #[test]
    fn colliding_hashes_still_resolve_by_key() {
        // Every key hashes alike: one probe path, one tag. Matching tags
        // must fall through to the key comparison and on to the next word
        // (40 keys fill the one bucket of each of the first 5 segments).
        #[derive(Clone, PartialEq, Eq)]
        struct Collide(u32);
        impl Hash for Collide {
            fn hash<H: Hasher>(&self, h: &mut H) {
                7u8.hash(h);
            }
        }
        let dsu: KeyedDsu<Collide> = KeyedDsu::with_spec(1, ShardSpec::with_shards(1));
        let ids: Vec<usize> = (0..40).map(|i| dsu.insert(&Collide(i))).collect();
        assert_eq!(ids, (0..40).collect::<Vec<_>>(), "each key claims its own word");
        for i in 0..40 {
            assert_eq!(dsu.get(&Collide(i)), Some(i as usize));
        }
        assert_eq!(dsu.get(&Collide(40)), None);
        let raw = dsu.dsu().make_set();
        assert!((0..=40).all(|i| dsu.get(&Collide(i)) != Some(raw)), "key-less ids never match");
    }

    #[test]
    fn shard_spec_and_skew() {
        let dsu: KeyedDsu<u64> = KeyedDsu::with_spec(0, ShardSpec::with_shards(8));
        assert_eq!(dsu.key_shard_count(), 8);
        for i in 0..4096 {
            dsu.insert(&splitmix64(i));
        }
        let skew = dsu.key_skew();
        assert_eq!(skew.shards, 8);
        assert!(skew.imbalance < 1.5, "uniform keys must spread across high-bit shards: {skew:?}");
    }

    #[test]
    fn single_shard_still_works() {
        let dsu: KeyedDsu<String> = KeyedDsu::with_spec(0, ShardSpec::with_shards(1));
        assert_eq!(dsu.key_shard_count(), 1);
        assert!(dsu.merge_keys(&"a".into(), &"b".into()));
        assert!(dsu.same_set(&"b".into(), &"a".into()));
    }

    #[test]
    fn dense_ids_interoperate_with_the_array_api() {
        let dsu: KeyedDsu<String> = KeyedDsu::new();
        let a = dsu.insert(&"a".to_string());
        let b = dsu.insert(&"b".to_string());
        assert!(dsu.dsu().unite(a, b));
        assert!(dsu.same_set(&"a".to_string(), &"b".to_string()));
    }

    #[test]
    fn debug_format() {
        let dsu: KeyedDsu<u64> = KeyedDsu::new();
        dsu.insert(&42);
        let s = format!("{dsu:?}");
        assert!(s.contains("KeyedDsu") && s.contains("two-try"), "{s}");
    }

    #[test]
    fn drop_runs_key_destructors() {
        // Miri-style sanity: dropping the table drops exactly the owned
        // keys (Arc counts return to 1).
        use std::sync::Arc;
        let probe = Arc::new(());
        #[derive(Clone, PartialEq, Eq, Hash)]
        struct Tracked(usize, Arc<()>);
        {
            let dsu: KeyedDsu<Tracked> = KeyedDsu::new();
            for i in 0..64 {
                dsu.insert(&Tracked(i, probe.clone()));
            }
            assert!(Arc::strong_count(&probe) >= 65);
        }
        assert_eq!(Arc::strong_count(&probe), 1, "drop leaked or double-freed keys");
    }
}
