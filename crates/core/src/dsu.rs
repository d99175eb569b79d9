//! The fixed-universe concurrent union-find ([`Dsu`]).

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::bulk;
use crate::find::{FindPolicy, TwoTrySplit};
use crate::flatten::{self, FlattenPolicy, FlattenTrigger};
use crate::ops;
use crate::order::LinkPolicy;
use crate::stats::{OpStats, StatsSink};
use crate::store::{DsuStore, ScanRun};
use crate::ConcurrentUnionFind;

/// A wait-free concurrent disjoint-set union over the fixed universe
/// `0..n`, parameterized by the find compaction policy `F` (default:
/// [`TwoTrySplit`], the paper's best variant), the parent storage layout
/// `S` (default: [`DefaultStore`](crate::DefaultStore) —
/// [`PackedStore`](crate::PackedStore) unless a `default-store-*` feature
/// retargets it; see the layout-selection guide in the
/// [`store`](crate::store) module docs; universes larger than `2^32` must
/// pick [`FlatStore`](crate::store::FlatStore) explicitly), and the link
/// policy `L` (default: [`DefaultLink`](crate::DefaultLink) —
/// [`RandomLink`](crate::RandomLink), the paper's randomized linking,
/// unless the `default-link-index` feature retargets it; the axis and its
/// acyclicity contract live in the [`order`](crate::order) module docs).
///
/// All operations take `&self` and may be called from any number of threads
/// simultaneously; results are linearizable (paper Lemma 3.2 — on
/// multi-copy-atomic hardware such as x86-64/ARMv8 under the default
/// orderings, on every machine under `strict-sc`; see the
/// [`store`](crate::store) module docs) and every operation finishes in
/// `O(log n)` steps w.h.p. (Theorem 4.3) regardless of scheduling
/// (wait-freedom, Lemma 3.3).
///
/// # Example
///
/// ```
/// use concurrent_dsu::{Dsu, FlatStore, OneTrySplit};
///
/// let dsu: Dsu<OneTrySplit> = Dsu::with_seed(10, 42);
/// assert!(dsu.unite(3, 4));
/// assert!(dsu.same_set(3, 4));
/// assert_eq!(dsu.set_count(), 9);
///
/// // Same semantics on the flat reference layout:
/// let flat: Dsu<OneTrySplit, FlatStore> = Dsu::with_seed(10, 42);
/// assert!(flat.unite(3, 4));
/// assert_eq!(flat.set_count(), 9);
/// ```
pub struct Dsu<
    F: FindPolicy = TwoTrySplit,
    S: DsuStore = crate::DefaultStore,
    L: LinkPolicy = crate::DefaultLink,
> {
    store: S,
    /// Number of successful links ever; `set_count = n - links`.
    links: AtomicUsize,
    /// Adaptive flatten trigger, consulted after every ingested batch
    /// (configured by `DSU_FLATTEN` at construction; default off).
    flatten: FlattenTrigger,
    _policy: std::marker::PhantomData<(F, L)>,
}

impl<F: FindPolicy, S: DsuStore, L: LinkPolicy> std::fmt::Debug for Dsu<F, S, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dsu")
            .field("len", &self.len())
            .field("set_count", &self.set_count())
            .field("policy", &F::NAME)
            .field("store", &S::NAME)
            .field("link", &L::NAME)
            .finish()
    }
}

impl<F: FindPolicy, S: DsuStore, L: LinkPolicy> Dsu<F, S, L> {
    /// Default seed for the random node order; fixed so runs are
    /// reproducible unless a seed is supplied via [`Dsu::with_seed`].
    pub const DEFAULT_SEED: u64 = 0x7461_726a_616e_2016; // "tarjan 2016"

    /// Creates `n` singleton sets with a deterministic default seed for the
    /// random node order.
    pub fn new(n: usize) -> Self {
        Self::with_seed(n, Self::DEFAULT_SEED)
    }

    /// Creates `n` singleton sets; `seed` drives the uniformly random node
    /// order that randomized linking requires.
    ///
    /// # Panics
    ///
    /// Panics if the storage layout cannot address `n` elements (the
    /// default [`PackedStore`](crate::PackedStore) supports at most `2^32`).
    pub fn with_seed(n: usize, seed: u64) -> Self {
        Self::from_store(S::with_seed(n, seed))
    }

    /// Wraps an already-constructed store — the entry point for stores
    /// whose constructors take more than `(n, seed)`, such as a
    /// [`ShardedStore`](crate::ShardedStore) with an explicit
    /// [`ShardSpec`](crate::ShardSpec):
    ///
    /// ```
    /// use concurrent_dsu::{Dsu, ShardSpec, ShardedStore, TwoTrySplit};
    ///
    /// let store = ShardedStore::with_spec(100, 42, ShardSpec::with_shards(8));
    /// let dsu: Dsu<TwoTrySplit, ShardedStore> = Dsu::from_store(store);
    /// assert!(dsu.unite(3, 4));
    /// ```
    ///
    /// The store must be freshly constructed (all singletons): `Dsu`
    /// counts links, and so sets, from zero. The store is the whole
    /// structure — `Dsu` adds no per-element state of its own.
    pub fn from_store(store: S) -> Self {
        Dsu {
            store,
            links: AtomicUsize::new(0),
            flatten: FlattenTrigger::from_env(),
            _policy: std::marker::PhantomData,
        }
    }

    /// Number of elements in the universe.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of disjoint sets (`n` minus successful links). The counter
    /// is maintained with relaxed atomics: exact at quiescence and
    /// monotonically non-increasing, but a concurrent reader may observe
    /// it lag links that are already visible through `find` (under
    /// `strict-sc` the counter is sequentially consistent).
    pub fn set_count(&self) -> usize {
        self.len() - self.links.load(crate::store::STAT)
    }

    /// The random id of element `x` — a 32-bit hash of its index, not a
    /// position in `0..n`; the order is the `(id, index)` key (see
    /// [`DsuStore::id_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn id_of(&self, x: usize) -> u64 {
        self.store.id_of(x)
    }

    /// The name of the find policy (e.g. `"two-try"`), for reports.
    pub fn policy_name(&self) -> &'static str {
        F::NAME
    }

    /// The name of the storage layout (e.g. `"packed"`), for reports.
    pub fn store_name(&self) -> &'static str {
        S::NAME
    }

    /// The name of the link policy (e.g. `"random"`), for reports.
    pub fn link_name(&self) -> &'static str {
        L::NAME
    }

    /// The underlying store — for layout-specific inspection (a sharded
    /// store's [`ShardReport`](crate::ShardReport), a
    /// [`FaultyStore`](crate::FaultyStore)'s fault report). Read-only: the
    /// forest is only ever mutated through the operations.
    pub fn store(&self) -> &S {
        &self.store
    }

    fn check(&self, x: usize) {
        assert!(x < self.len(), "element {x} out of range (len {})", self.len());
    }

    /// Returns the root of the tree containing `x`, compacting the find
    /// path per the policy. See
    /// [`ConcurrentUnionFind::find`](crate::ConcurrentUnionFind::find) for
    /// the staleness caveat.
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn find(&self, x: usize) -> usize {
        self.find_with(x, &mut ())
    }

    /// [`find`](Dsu::find) reporting work into `stats`.
    pub fn find_with<Sk: StatsSink>(&self, x: usize, stats: &mut Sk) -> usize {
        self.check(x);
        F::find(&self.store, x, stats).0
    }

    /// Returns `true` iff `x` and `y` are in the same set at the operation's
    /// linearization point (paper Algorithm 2).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn same_set(&self, x: usize, y: usize) -> bool {
        self.same_set_with(x, y, &mut ())
    }

    /// [`same_set`](Dsu::same_set) reporting work into `stats`.
    pub fn same_set_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
        self.check(x);
        self.check(y);
        ops::same_set::<F, _, _>(&self.store, x, y, stats)
    }

    /// Unites the sets containing `x` and `y` (paper Algorithm 3). Returns
    /// `true` iff this call performed the link.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn unite(&self, x: usize, y: usize) -> bool {
        self.unite_with(x, y, &mut ())
    }

    /// [`unite`](Dsu::unite) reporting work into `stats`.
    pub fn unite_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
        self.check(x);
        self.check(y);
        ops::unite::<F, L, _, _>(&self.store, x, y, stats, |_, _| self.record_link())
    }

    /// `SameSet` with early termination (paper Algorithm 6): walks only the
    /// smaller of the two find paths and stops as soon as the answer is
    /// certain. Same linearizable semantics as [`same_set`](Dsu::same_set).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn same_set_early(&self, x: usize, y: usize) -> bool {
        self.same_set_early_with(x, y, &mut ())
    }

    /// [`same_set_early`](Dsu::same_set_early) reporting work into `stats`.
    pub fn same_set_early_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
        self.check(x);
        self.check(y);
        ops::same_set_early::<F, L, _, _>(&self.store, x, y, stats)
    }

    /// `Unite` with early termination (paper Algorithm 7). Same semantics
    /// as [`unite`](Dsu::unite).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn unite_early(&self, x: usize, y: usize) -> bool {
        self.unite_early_with(x, y, &mut ())
    }

    /// [`unite_early`](Dsu::unite_early) reporting work into `stats`.
    pub fn unite_early_with<Sk: StatsSink>(&self, x: usize, y: usize, stats: &mut Sk) -> bool {
        self.check(x);
        self.check(y);
        ops::unite_early::<F, L, _, _>(&self.store, x, y, stats, |_, _| self.record_link())
    }

    /// Batched [`unite`](Dsu::unite) over an edge slice (see the
    /// [`bulk`](crate::bulk) module): a read-mostly filter pass drops
    /// already-connected edges via early-termination same-set walks, then a
    /// link pass CASes each survivor's root straight from the word the
    /// filter observed. Returns the number of successful links.
    ///
    /// Single-threaded, the final partition, the set count, and the
    /// returned link count are exactly those of calling
    /// [`unite`](Dsu::unite) one edge at a time; concurrent callers get
    /// the usual linearizable semantics per edge. Per-edge verdicts come
    /// from [`unite_batch_results`](Dsu::unite_batch_results).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        self.unite_batch_with(edges, &mut ())
    }

    /// [`unite_batch`](Dsu::unite_batch) reporting work into `stats`.
    pub fn unite_batch_with<Sk: StatsSink>(
        &self,
        edges: &[(usize, usize)],
        stats: &mut Sk,
    ) -> usize {
        for &(x, y) in edges {
            self.check(x);
            self.check(y);
        }
        let linked = bulk::unite_batch_sink::<L, _, _>(
            &self.store,
            edges,
            stats,
            |_, _| self.record_link(),
            |_, _| {},
        );
        self.maybe_flatten(stats);
        linked
    }

    /// [`unite_batch`](Dsu::unite_batch) that also reports, per edge,
    /// whether this batch performed the link — for clients (Borůvka, cycle
    /// classification) that need the edge-level verdicts.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn unite_batch_results(&self, edges: &[(usize, usize)]) -> Vec<bool> {
        for &(x, y) in edges {
            self.check(x);
            self.check(y);
        }
        let mut results = vec![false; edges.len()];
        bulk::unite_batch_sink::<L, _, _>(
            &self.store,
            edges,
            &mut (),
            |_, _| self.record_link(),
            |i, linked| results[i] = linked,
        );
        self.maybe_flatten(&mut ());
        results
    }

    // ----- Flatten maintenance pass (see the [`flatten`] module) -----

    /// One sequential store-ordered flatten sweep: pointer-jumps every
    /// element until the whole forest has depth ≤ 1. Safe to run
    /// concurrently with ongoing operations (a lost CAS just means someone
    /// moved the root); at quiescence one sweep leaves every subsequent
    /// find O(1).
    pub fn flatten(&self) {
        self.flatten_with(&mut ());
    }

    /// [`flatten`](Dsu::flatten) reporting work into a [`StatsSink`]
    /// (loads as `read`, jumps as `compact_cas_*` plus the
    /// `flatten_*` attribution counters).
    pub fn flatten_with<Sk: StatsSink>(&self, stats: &mut Sk) {
        flatten::flatten_runs(&self.store, &self.scan_runs(), stats);
    }

    /// Parallel flatten sweep over `threads` workers using the same
    /// dynamic chunk-cursor scheduling as the parallel batch ingest.
    /// Returns the merged per-worker counters.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn flatten_parallel(&self, threads: usize) -> OpStats {
        flatten::flatten_runs_parallel(&self.store, &self.scan_runs(), threads)
    }

    /// The active [`FlattenPolicy`] (from `DSU_FLATTEN` at construction
    /// unless overridden by [`set_flatten_policy`](Dsu::set_flatten_policy)).
    pub fn flatten_policy(&self) -> FlattenPolicy {
        self.flatten.policy()
    }

    /// Replaces the flatten policy (e.g. to enable the adaptive trigger
    /// on a handle built with the knob unset).
    pub fn set_flatten_policy(&mut self, policy: FlattenPolicy) {
        self.flatten.set_policy(policy);
    }

    /// Store-ordered scan chunks for this store's layout (slab-local for
    /// sharded stores).
    fn scan_runs(&self) -> Vec<ScanRun> {
        self.store.scan_ranges().into_iter().map(ScanRun::contiguous).collect()
    }

    /// Consulted after every ingested batch: runs a sequential flatten
    /// sweep when the configured policy says the forest is deep enough to
    /// pay for one. `Off` (the default) is a single branch.
    fn maybe_flatten<Sk: StatsSink>(&self, stats: &mut Sk) {
        if self.flatten.batch_done(|| flatten::trigger_probe(&self.store, self.len())) {
            self.flatten_with(stats);
        }
    }

    fn record_link(&self) {
        // Relaxed is enough: `links` is a statistic whose own atomicity
        // suffices for set_count.
        self.links.fetch_add(1, Ordering::Relaxed);
    }

    // ----- Offline analysis (call only at quiescence) -----

    /// Snapshot of the current parent pointers. Meaningful only when no
    /// other thread is operating.
    ///
    /// # Measuring the union forest
    ///
    /// The union forest (paper Section 3: links only, compaction ignored)
    /// is an analysis device no operation reads, so `Dsu` does not record
    /// it. It does not need to: [`unite`](Dsu::unite) links root under
    /// root, roots do not depend on compaction, and the ids are fixed, so
    /// the parent forest of a [`NoCompaction`](crate::NoCompaction) run is
    /// its union forest, and a single-threaded run under any find policy
    /// builds the same union forest as a `NoCompaction` twin (same seed,
    /// layout and link policy) given the same ops. To measure the union
    /// forest, run the ops on such a twin and snapshot its parents:
    ///
    /// ```
    /// use concurrent_dsu::{viz, Dsu, NoCompaction};
    ///
    /// let twin: Dsu<NoCompaction> = Dsu::with_seed(8, 7);
    /// for i in 0..7 {
    ///     twin.unite(i, i + 1);
    /// }
    /// let height = viz::depth_histogram(&twin.parents_snapshot()).max;
    /// assert!(height >= 1);
    /// ```
    ///
    /// What the twin's parent forest is *not*, and why:
    ///
    /// * [`unite_early`](Dsu::unite_early) (Algorithm 7) links a root under
    ///   whichever larger node its walk reached, and how far the walk gets
    ///   depends on compaction. A twin's early unites build the union forest
    ///   of the twin's own run, not of a compacting one.
    /// * The batch path ([`unite_batch`](Dsu::unite_batch) and friends) and
    ///   flatten sweeps ([`flatten`](Dsu::flatten), the `DSU_FLATTEN`
    ///   trigger) compact under every find policy, so after them the twin's
    ///   parents are no longer its union forest.
    pub fn parents_snapshot(&self) -> Vec<usize> {
        self.store.snapshot()
    }

    /// Canonical labels (root of each element, fully compacted): suitable
    /// for building a `Partition`. Call only at quiescence; compacts as a
    /// side effect.
    pub fn labels_snapshot(&self) -> Vec<usize> {
        let mut labels: Vec<usize> = (0..self.len()).map(|i| self.find(i)).collect();
        // One more pass: find() already returns roots, but a concurrent-free
        // second resolution makes labels idempotent even if compaction
        // changed roots mid-scan (it cannot at quiescence; belt and braces).
        for i in 0..labels.len() {
            labels[i] = labels[labels[i]];
        }
        labels
    }
}

impl<F: FindPolicy, S: DsuStore, L: LinkPolicy> ConcurrentUnionFind for Dsu<F, S, L> {
    fn len(&self) -> usize {
        Dsu::len(self)
    }

    fn same_set(&self, x: usize, y: usize) -> bool {
        Dsu::same_set(self, x, y)
    }

    fn unite(&self, x: usize, y: usize) -> bool {
        Dsu::unite(self, x, y)
    }

    fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        Dsu::unite_batch(self, edges)
    }

    fn find(&self, x: usize) -> usize {
        Dsu::find(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find::{Halving, NoCompaction, OneTrySplit};
    use crate::order::{IndexLink, RandomLink, RankLink};
    use crate::store::{ParentStore, RankedStore};
    use crate::OpStats;
    use sequential_dsu::{NaiveDsu, Partition};

    /// The paper's linking, pinned explicitly: tests that assert *random-id*
    /// semantics (Lemma 3.1 on ids, the log-height theorem) must not float
    /// with the `default-link-index` feature the CI variants cell flips.
    type RandomDsu<F = TwoTrySplit> = Dsu<F, crate::DefaultStore, RandomLink>;

    fn exercise_basic<F: FindPolicy>() {
        let dsu: Dsu<F> = Dsu::new(10);
        assert_eq!(dsu.len(), 10);
        assert_eq!(dsu.set_count(), 10);
        assert!(!dsu.same_set(0, 9));
        assert!(dsu.unite(0, 9));
        assert!(dsu.same_set(0, 9));
        assert!(!dsu.unite(9, 0));
        assert_eq!(dsu.set_count(), 9);
        assert!(dsu.same_set_early(0, 9));
        assert!(dsu.unite_early(1, 2));
        assert!(!dsu.unite_early(2, 1));
        assert_eq!(dsu.set_count(), 8);
    }

    #[test]
    fn basics_all_policies() {
        exercise_basic::<NoCompaction>();
        exercise_basic::<OneTrySplit>();
        exercise_basic::<TwoTrySplit>();
        exercise_basic::<Halving>();
    }

    #[test]
    fn debug_is_informative() {
        let dsu: RandomDsu = Dsu::new(3);
        let s = format!("{dsu:?}");
        assert!(s.contains("two-try"), "{s}");
        assert!(s.contains("len"), "{s}");
        assert!(s.contains("random"), "{s}");
        assert_eq!(dsu.link_name(), "random");
    }

    #[test]
    fn single_threaded_matches_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(77);
        let n = 64;
        let dsu: Dsu = Dsu::with_seed(n, 5);
        let mut oracle = NaiveDsu::new(n);
        for _ in 0..500 {
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            match rng.gen_range(0..4) {
                0 => assert_eq!(dsu.unite(x, y), oracle.unite(x, y)),
                1 => assert_eq!(dsu.same_set(x, y), oracle.same_set(x, y)),
                2 => assert_eq!(dsu.unite_early(x, y), oracle.unite(x, y)),
                _ => assert_eq!(dsu.same_set_early(x, y), oracle.same_set(x, y)),
            }
        }
        assert_eq!(dsu.set_count(), oracle.set_count());
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
    }

    #[test]
    fn concurrent_final_state_is_order_independent() {
        // Set union is confluent: the final partition equals the connected
        // components of all unite pairs, however the threads interleaved.
        let n = 512;
        let pairs: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, (i * 7919 + 13) % n)).collect();
        let dsu: Dsu = Dsu::new(n);
        std::thread::scope(|s| {
            for t in 0..8 {
                let dsu = &dsu;
                let pairs = &pairs;
                s.spawn(move || {
                    for (i, &(x, y)) in pairs.iter().enumerate() {
                        if i % 8 == t {
                            dsu.unite(x, y);
                        } else {
                            dsu.same_set(x, y);
                        }
                    }
                });
            }
        });
        let mut oracle = NaiveDsu::new(n);
        for &(x, y) in &pairs {
            oracle.unite(x, y);
        }
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
        assert_eq!(dsu.set_count(), oracle.set_count());
    }

    #[test]
    fn true_unite_returns_equal_links() {
        // Across all threads, the number of `unite` calls returning true
        // must equal n - (final number of sets): each successful link
        // reduces the set count by exactly one.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 1024;
        let dsu: Dsu<OneTrySplit> = Dsu::new(n);
        let trues = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let dsu = &dsu;
                let trues = &trues;
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(t as u64);
                    let mut local = 0;
                    for _ in 0..2000 {
                        let x = rng.gen_range(0..n);
                        let y = rng.gen_range(0..n);
                        if dsu.unite(x, y) {
                            local += 1;
                        }
                    }
                    trues.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(trues.load(Ordering::Relaxed), n - dsu.set_count());
    }

    /// Eight threads of random unites over `0..n`.
    fn hammer_unites<F: FindPolicy>(dsu: &RandomDsu<F>) {
        let n = dsu.len();
        std::thread::scope(|s| {
            for t in 0..8usize {
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(100 + t as u64);
                    for _ in 0..4000 {
                        dsu.unite(rng.gen_range(0..n), rng.gen_range(0..n));
                    }
                });
            }
        });
    }

    /// The `(id, index)` order key: ids are hashes and may tie, and the
    /// index breaks the tie (paper Section 7).
    fn key<F: FindPolicy>(dsu: &RandomDsu<F>, x: usize) -> (u64, usize) {
        (dsu.id_of(x), x)
    }

    #[test]
    fn parent_ids_strictly_increase_along_paths() {
        // Lemma 3.1 under real concurrency.
        let n = 2048;
        let dsu: RandomDsu = Dsu::new(n);
        hammer_unites(&dsu);
        let parents = dsu.parents_snapshot();
        for (x, &p) in parents.iter().enumerate() {
            if p != x {
                assert!(key(&dsu, x) < key(&dsu, p));
            }
        }
        // The union forest — the parent forest of a NoCompaction twin under
        // the same concurrent unites — has the same property, and is
        // acyclic (walking up terminates within n steps).
        let twin: RandomDsu<NoCompaction> = Dsu::new(n);
        hammer_unites(&twin);
        let forest = twin.parents_snapshot();
        for x in 0..n {
            let mut u = x;
            let mut steps = 0;
            while forest[u] != u {
                assert!(key(&twin, u) < key(&twin, forest[u]));
                u = forest[u];
                steps += 1;
                assert!(steps <= n, "cycle in union forest");
            }
        }
    }

    #[test]
    fn union_forest_height_is_logarithmic() {
        // Corollary 4.2.1 (statistical): height = O(log n) w.h.p. Use a
        // generous constant so the test never flakes: c = 6 over 3 seeds.
        // The unites are sequential, so the NoCompaction twin's forest is
        // exactly the union forest a compacting run would have built.
        for seed in [1, 2, 3] {
            let n = 1 << 14;
            let dsu: RandomDsu<NoCompaction> = Dsu::with_seed(n, seed);
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed ^ 0xABCD);
            for _ in 0..2 * n {
                dsu.unite(rng.gen_range(0..n), rng.gen_range(0..n));
            }
            let h = crate::viz::depth_histogram(&dsu.parents_snapshot()).max;
            let bound = 6 * (n as f64).log2() as usize;
            assert!(h <= bound, "height {h} > {bound} for seed {seed}");
        }
    }

    /// One per-op step of a twin-claim script: 0 = unite, 1 = same_set,
    /// 2 = same_set_early. `unite_early` is left out on purpose: Algorithm
    /// 7 links a root under whichever larger node its walk reached, and
    /// the walk's reach depends on compaction, so its union forest is not
    /// the twin's (see [`Dsu::parents_snapshot`]).
    type Step = (u8, usize, usize);

    fn twin_script(n: usize, len: usize, seed: u64) -> Vec<Step> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        (0..len).map(|_| (rng.gen_range(0..3), rng.gen_range(0..n), rng.gen_range(0..n))).collect()
    }

    /// Runs `script` through the raw operations under find policy `F`,
    /// recording every link into `forest` (a node is linked at most once).
    fn record_script<F: FindPolicy, P: ParentStore>(
        store: &P,
        script: &[Step],
        forest: &[std::cell::Cell<usize>],
    ) {
        let record = |child: usize, parent: usize| {
            assert_eq!(forest[child].replace(parent), child, "{child} linked twice");
        };
        for &(kind, x, y) in script {
            match kind {
                0 => {
                    ops::unite::<F, RandomLink, _, _>(store, x, y, &mut (), record);
                }
                1 => {
                    ops::same_set::<F, _, _>(store, x, y, &mut ());
                }
                _ => {
                    ops::same_set_early::<F, RandomLink, _, _>(store, x, y, &mut ());
                }
            }
        }
    }

    /// Runs `script` through a `Dsu`'s per-op methods.
    fn run_script<F: FindPolicy>(dsu: &RandomDsu<F>, script: &[Step]) {
        for &(kind, x, y) in script {
            match kind {
                0 => {
                    dsu.unite(x, y);
                }
                1 => {
                    dsu.same_set(x, y);
                }
                _ => {
                    dsu.same_set_early(x, y);
                }
            }
        }
    }

    fn singletons(n: usize) -> Vec<std::cell::Cell<usize>> {
        (0..n).map(std::cell::Cell::new).collect()
    }

    fn cells(forest: &[std::cell::Cell<usize>]) -> Vec<usize> {
        forest.iter().map(std::cell::Cell::get).collect()
    }

    /// The claim behind measuring the union forest on a twin: the union
    /// forest recorded from the links of a run under *any* find policy is
    /// exactly the parent forest of a `NoCompaction` twin given the same
    /// seed and ops, because links depend only on roots and ids.
    #[test]
    fn recorded_union_forest_is_the_no_compaction_twin() {
        fn check<F: FindPolicy>(n: usize, seed: u64, script: &[Step]) {
            let store = crate::DefaultStore::with_seed(n, seed);
            let forest = singletons(n);
            record_script::<F, _>(&store, script, &forest);
            let twin: RandomDsu<NoCompaction> = Dsu::with_seed(n, seed);
            run_script(&twin, script);
            assert_eq!(cells(&forest), twin.parents_snapshot(), "{} seed {seed}", F::NAME);
            if F::NAME == TwoTrySplit::NAME {
                // Not vacuous: the compacting run's own parents moved away
                // from the union forest.
                assert_ne!(cells(&forest), DsuStore::snapshot(&store), "seed {seed}");
            }
        }
        for seed in [1u64, 2, 3] {
            let (n, script) = (64, twin_script(64, 400, seed));
            check::<NoCompaction>(n, seed, &script);
            check::<OneTrySplit>(n, seed, &script);
            check::<TwoTrySplit>(n, seed, &script);
            check::<Halving>(n, seed, &script);
            check::<crate::find::Compress>(n, seed, &script);
        }
    }

    /// The batch path compacts by seeded splitting under every find
    /// policy, so a twin fed batches has no compaction-free parent forest.
    /// What the union forest needs still holds: the links a batch records
    /// depend only on roots and ids, so they are identical whichever find
    /// policy compacted the forest before it, and after a per-op prefix
    /// they extend exactly the `NoCompaction` twin's parent forest.
    #[test]
    fn batch_links_do_not_depend_on_compaction() {
        fn record<F: FindPolicy>(
            n: usize,
            seed: u64,
            prefix: &[Step],
            edges: &[(usize, usize)],
        ) -> (Vec<usize>, Vec<usize>) {
            let store = crate::DefaultStore::with_seed(n, seed);
            let forest = singletons(n);
            record_script::<F, _>(&store, prefix, &forest);
            let before = cells(&forest);
            bulk::unite_batch_sink::<RandomLink, _, _>(
                &store,
                edges,
                &mut (),
                |child, parent| {
                    assert_eq!(forest[child].replace(parent), child, "{child} linked twice");
                },
                |_, _| {},
            );
            (before, cells(&forest))
        }
        for seed in [4u64, 5, 6] {
            let n = 64;
            let prefix = twin_script(n, 150, seed);
            let edges: Vec<(usize, usize)> =
                twin_script(n, 200, !seed).iter().map(|&(_, x, y)| (x, y)).collect();
            let twin: RandomDsu<NoCompaction> = Dsu::with_seed(n, seed);
            run_script(&twin, &prefix);
            let (before, after) = record::<NoCompaction>(n, seed, &prefix, &edges);
            assert_eq!(before, twin.parents_snapshot(), "seed {seed}");
            assert_ne!(before, after, "the batch must link something");
            type Recorder = fn(usize, u64, &[Step], &[(usize, usize)]) -> (Vec<usize>, Vec<usize>);
            let compacting: [Recorder; 4] = [
                record::<OneTrySplit>,
                record::<TwoTrySplit>,
                record::<Halving>,
                record::<crate::find::Compress>,
            ];
            for record in compacting {
                assert_eq!(record(n, seed, &prefix, &edges), (before.clone(), after.clone()));
            }
        }
    }

    #[test]
    fn stats_capture_work() {
        let dsu: Dsu = Dsu::new(128);
        let mut stats = OpStats::default();
        for i in 0..127 {
            dsu.unite_with(i, i + 1, &mut stats);
        }
        assert_eq!(stats.links_ok, 127);
        assert_eq!(stats.ops, 127);
        assert!(stats.reads >= 2 * 127); // at least two reads per unite
        let mut qstats = OpStats::default();
        dsu.same_set_with(0, 127, &mut qstats);
        assert_eq!(qstats.ops, 1);
        assert!(qstats.loop_iters >= 1);
    }

    #[test]
    fn wait_freedom_smoke_bounded_steps() {
        // Not a proof, a tripwire: no operation should ever take more than
        // a few hundred loop iterations at this scale (union forest height
        // is O(log n) w.h.p.; find sequences are bounded by it).
        let n = 1 << 12;
        let dsu: Dsu = Dsu::new(n);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let dsu = &dsu;
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7 + t as u64);
                    for _ in 0..5000 {
                        let mut stats = OpStats::default();
                        let x = rng.gen_range(0..n);
                        let y = rng.gen_range(0..n);
                        if rng.gen_bool(0.5) {
                            dsu.unite_with(x, y, &mut stats);
                        } else {
                            dsu.same_set_with(x, y, &mut stats);
                        }
                        assert!(
                            stats.loop_iters < 600,
                            "operation took {} iterations",
                            stats.loop_iters
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn unite_batch_matches_per_op_sequence() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(404);
        let n = 48;
        let edges: Vec<(usize, usize)> =
            (0..300).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
        let batched: Dsu = Dsu::with_seed(n, 8);
        let per_op: Dsu = Dsu::with_seed(n, 8);
        let results = batched.unite_batch_results(&edges);
        let expected: Vec<bool> = edges.iter().map(|&(x, y)| per_op.unite(x, y)).collect();
        assert_eq!(results, expected);
        assert_eq!(batched.set_count(), per_op.set_count());
        assert_eq!(
            Partition::from_labels(&batched.labels_snapshot()),
            Partition::from_labels(&per_op.labels_snapshot())
        );
        // Count view agrees with the per-edge view.
        let recount: Dsu = Dsu::with_seed(n, 8);
        assert_eq!(recount.unite_batch(&edges), results.iter().filter(|&&b| b).count());
    }

    #[test]
    fn unite_batch_concurrent_chunks_match_oracle() {
        let n = 1024;
        let edges: Vec<(usize, usize)> =
            (0..2 * n).map(|i| ((i * 2654435761) % n, (i * 911 + 3) % n)).collect();
        let dsu: Dsu = Dsu::new(n);
        std::thread::scope(|s| {
            for chunk in edges.chunks(edges.len() / 8 + 1) {
                let dsu = &dsu;
                s.spawn(move || dsu.unite_batch(chunk));
            }
        });
        let mut oracle = NaiveDsu::new(n);
        for &(x, y) in &edges {
            oracle.unite(x, y);
        }
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
        assert_eq!(dsu.set_count(), oracle.set_count());
    }

    #[test]
    fn unite_batch_with_reports_stats() {
        let dsu: Dsu = Dsu::new(8);
        let mut stats = OpStats::default();
        let links = dsu.unite_batch_with(&[(0, 1), (1, 0), (2, 3)], &mut stats);
        assert_eq!(links, 2);
        assert_eq!(stats.ops, 3);
        assert_eq!(stats.links_ok, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unite_batch_rejects_out_of_range() {
        let dsu: Dsu = Dsu::new(4);
        dsu.unite_batch(&[(0, 1), (2, 4)]);
    }

    #[test]
    fn link_axis_variants_match_oracle_and_each_other() {
        // Every link policy is a different tree shape, never a different
        // partition: index linking on the default layout and rank linking
        // on the ranked layout must return the oracle's verdicts and agree
        // on the final sets — single-threaded, per-op AND batched.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(2025);
        let n = 96;
        let random: RandomDsu = Dsu::with_seed(n, 12);
        let index: Dsu<TwoTrySplit, crate::DefaultStore, IndexLink> = Dsu::with_seed(n, 12);
        let rank: Dsu<TwoTrySplit, RankedStore, RankLink> = Dsu::with_seed(n, 12);
        let mut oracle = NaiveDsu::new(n);
        for i in 0..600 {
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            match i % 3 {
                0 => {
                    let want = oracle.unite(x, y);
                    assert_eq!(random.unite(x, y), want);
                    assert_eq!(index.unite(x, y), want);
                    assert_eq!(rank.unite(x, y), want);
                }
                1 => {
                    let want = oracle.same_set(x, y);
                    assert_eq!(random.same_set(x, y), want);
                    assert_eq!(index.same_set_early(x, y), want);
                    assert_eq!(rank.same_set_early(x, y), want);
                }
                _ => {
                    let batch = [(x, y), (y, x)];
                    let want = oracle.unite(x, y) as usize;
                    assert_eq!(random.unite_batch(&batch), want);
                    assert_eq!(index.unite_batch(&batch), want);
                    assert_eq!(rank.unite_batch(&batch), want);
                }
            }
        }
        let want = oracle.partition();
        assert_eq!(Partition::from_labels(&random.labels_snapshot()), want);
        assert_eq!(Partition::from_labels(&index.labels_snapshot()), want);
        assert_eq!(Partition::from_labels(&rank.labels_snapshot()), want);
        // Index linking's invariant: parents are index-upward.
        for (x, &p) in index.parents_snapshot().iter().enumerate() {
            assert!(p == x || x < p, "index linking let {x} point down at {p}");
        }
    }

    #[test]
    fn link_axis_concurrent_partitions_match_oracle() {
        // Lemma 3.1's acyclicity (and hence termination + correct sets)
        // must survive real concurrency on the non-default policies too —
        // rank linking's mutable keys are exactly the risky case.
        fn hammer<S: DsuStore + Sync, L: LinkPolicy>() {
            let n = 1024;
            let pairs: Vec<(usize, usize)> =
                (0..2 * n).map(|i| ((i * 2654435761) % n, (i * 421 + 9) % n)).collect();
            let dsu: Dsu<TwoTrySplit, S, L> = Dsu::new(n);
            std::thread::scope(|s| {
                for t in 0..4usize {
                    let dsu = &dsu;
                    let pairs = &pairs;
                    s.spawn(move || {
                        for (i, &(x, y)) in pairs.iter().enumerate() {
                            if i % 4 == t {
                                dsu.unite(x, y);
                            } else {
                                dsu.same_set(x, y);
                            }
                        }
                    });
                }
            });
            let mut oracle = NaiveDsu::new(n);
            for &(x, y) in &pairs {
                oracle.unite(x, y);
            }
            assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
            assert_eq!(dsu.set_count(), oracle.set_count());
        }
        hammer::<crate::DefaultStore, IndexLink>();
        hammer::<RankedStore, RankLink>();
        hammer::<RankedStore, RandomLink>(); // ranked layout, paper linking
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let dsu: Dsu = Dsu::new(4);
        dsu.unite(0, 4);
    }

    #[test]
    fn zero_and_one_element_universes() {
        let empty: Dsu = Dsu::new(0);
        assert!(empty.is_empty());
        assert_eq!(empty.set_count(), 0);
        let one: Dsu = Dsu::new(1);
        assert!(one.same_set(0, 0));
        assert!(!one.unite(0, 0));
        assert_eq!(one.set_count(), 1);
    }

    fn height<S: DsuStore, L: LinkPolicy>(dsu: &Dsu<NoCompaction, S, L>) -> usize {
        crate::viz::depth_histogram(&dsu.parents_snapshot()).max
    }

    /// Deterministic deep tree: NoCompaction + index linking over chain
    /// unites leaves the path 0→1→…→n-1 intact, so the pre-flatten depth
    /// is provably n-1, not a w.h.p. accident.
    fn deep_chain<S: DsuStore>(n: usize) -> Dsu<NoCompaction, S, IndexLink> {
        let dsu: Dsu<NoCompaction, S, IndexLink> = Dsu::with_seed(n, 7);
        for i in 1..n {
            dsu.unite(0, i);
        }
        assert!(height(&dsu) > 1, "{}: chain workload failed to build depth", S::NAME);
        dsu
    }

    #[test]
    fn quiesced_flatten_reaches_depth_one_on_every_layout() {
        fn check<S: DsuStore>() {
            let n = 128;
            let dsu = deep_chain::<S>(n);
            dsu.flatten();
            assert!(height(&dsu) <= 1, "{}: flatten left depth > 1", S::NAME);
            assert_eq!(dsu.set_count(), 1, "{}: flatten changed the partition", S::NAME);
            assert!(dsu.same_set(0, n - 1));
        }
        check::<crate::PackedStore>();
        check::<crate::store::FlatStore>();
        check::<crate::ShardedStore>();
        check::<RankedStore>();
    }

    #[test]
    fn parallel_flatten_flattens_and_reports() {
        let n = 256;
        let dsu = deep_chain::<crate::DefaultStore>(n);
        let before = Partition::from_labels(&dsu.labels_snapshot());
        let stats = dsu.flatten_parallel(4);
        assert_eq!(stats.flatten_passes, 1);
        assert!(stats.flatten_jumps > 0, "a depth-{} path must need jumps", n - 1);
        assert!(height(&dsu) <= 1);
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), before);
    }

    #[test]
    fn flatten_trigger_fires_through_batch_ingest() {
        // Depth is built per-op (batch ingest may compact internally);
        // the empty batch then just ticks the trigger.
        let mut dsu = deep_chain::<crate::store::FlatStore>(96);
        dsu.set_flatten_policy(FlattenPolicy::EveryKBatches(1));
        dsu.unite_batch(&[]);
        assert!(height(&dsu) <= 1, "every-1 trigger did not fire");

        let mut dsu = deep_chain::<crate::store::FlatStore>(96);
        dsu.set_flatten_policy(FlattenPolicy::HopsThreshold(1.0));
        dsu.unite_batch(&[]);
        assert!(height(&dsu) <= 1, "hops-threshold trigger did not fire on a deep chain");

        // Off is inert: the same empty batch leaves the chain deep.
        let mut dsu = deep_chain::<crate::store::FlatStore>(96);
        dsu.set_flatten_policy(FlattenPolicy::Off);
        dsu.unite_batch(&[]);
        assert!(height(&dsu) > 1, "Off must never flatten");
    }

    #[test]
    fn flatten_policy_accessors() {
        let mut dsu: Dsu = Dsu::new(4);
        dsu.set_flatten_policy(FlattenPolicy::EveryKBatches(3));
        assert_eq!(dsu.flatten_policy(), FlattenPolicy::EveryKBatches(3));
    }
}
