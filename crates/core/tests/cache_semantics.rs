//! Hot-root cache semantics: cached finds agree with uncached finds.
//!
//! The cache layer (`src/cache.rs`) may change *where* a find starts —
//! never what any operation returns. Single-threaded, a cached execution's
//! per-op verdicts must be bit-identical to an uncached one's, on all
//! three fixed-universe layouts (packed, flat, sharded), under the default
//! per-access orderings and under `--features strict-sc` (CI runs every
//! combination via the store/ordering matrix). Under concurrency, cached
//! results must stay linearizable even while other threads' links
//! invalidate cache entries mid-batch — the adversarial tests at the
//! bottom exercise exactly that race.

use concurrent_dsu::bulk::{unite_batch_sink_tuned, BatchTuning, WaveDepth};
use concurrent_dsu::{
    Dsu, DsuStore, FlatStore, GrowableDsu, PackedStore, RootCache, ShardedStore, TwoTrySplit,
};
use proptest::prelude::*;
use sequential_dsu::{NaiveDsu, Partition};

fn edges_strategy(n: usize, max_len: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..max_len)
}

/// Per-edge verdicts of the tuned batch path on a raw store, under an
/// explicit tuning and cache.
fn batch_verdicts<S: DsuStore>(
    store: &S,
    edges: &[(usize, usize)],
    tuning: BatchTuning,
    cache: Option<&mut RootCache>,
) -> Vec<bool> {
    let mut verdicts = vec![false; edges.len()];
    // DefaultLink, not a pinned policy: the per-op reference this is
    // compared against is a default `Dsu`, which floats with the
    // `default-link-index` feature — both sides must float together.
    unite_batch_sink_tuned::<concurrent_dsu::DefaultLink, _, _>(
        store,
        edges,
        tuning,
        cache,
        &mut (),
        |_, _| {},
        |i, linked| verdicts[i] = linked,
    );
    verdicts
}

/// Single-threaded cached-vs-uncached agreement on one layout: per-op
/// session verdicts, batch verdicts at every tuning, and the final
/// partition all match the uncached per-op execution bit for bit.
fn exercise_layout<S: DsuStore>(edges: &[(usize, usize)], n: usize, seed: u64) {
    // Uncached per-op reference.
    let per_op: Dsu<TwoTrySplit, S> = Dsu::with_seed(n, seed);
    let expected: Vec<bool> = edges.iter().map(|&(x, y)| per_op.unite(x, y)).collect();

    // Cached per-op session (tiny cache: evictions and collisions on).
    let cached: Dsu<TwoTrySplit, S> = Dsu::with_seed(n, seed);
    let mut session = cached.cached_with_capacity(16);
    let got: Vec<bool> = edges.iter().map(|&(x, y)| session.unite(x, y)).collect();
    assert_eq!(got, expected, "cached per-op verdicts diverged");
    assert_eq!(cached.set_count(), per_op.set_count());
    assert_eq!(
        Partition::from_labels(&cached.labels_snapshot()),
        Partition::from_labels(&per_op.labels_snapshot())
    );
    // Cached same_set agrees everywhere afterwards.
    for x in (0..n).step_by(3) {
        for y in (0..n).step_by(5) {
            assert_eq!(session.same_set(x, y), per_op.same_set(x, y));
        }
    }

    // Batch path: every (depth, cache) tuning returns the same per-edge
    // verdicts as uncached per-op unite.
    for depth in [WaveDepth::Two, WaveDepth::Three] {
        for cache_on in [false, true] {
            let store = S::with_seed(n, seed);
            let mut cache = RootCache::with_capacity(32);
            let verdicts = batch_verdicts(
                &store,
                edges,
                BatchTuning::new().wave_depth(depth),
                cache_on.then_some(&mut cache),
            );
            assert_eq!(
                verdicts, expected,
                "batch verdicts diverged at depth {depth:?}, cache {cache_on}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cached executions are observationally identical to uncached ones on
    /// all three layouts — arbitrary edge lists, arbitrary seeds.
    #[test]
    fn cached_matches_uncached_all_layouts(edges in edges_strategy(24, 160), seed in any::<u64>()) {
        exercise_layout::<PackedStore>(&edges, 24, seed);
        exercise_layout::<FlatStore>(&edges, 24, seed);
        exercise_layout::<ShardedStore>(&edges, 24, seed);
    }

    /// A cached session interleaving queries and unites agrees with the
    /// naive oracle op for op (the strongest single-threaded statement:
    /// verdicts are partition-determined and the cache must not perturb
    /// the partition mid-stream).
    #[test]
    fn cached_session_tracks_oracle(ops in prop::collection::vec((0..20usize, 0..20usize, any::<bool>()), 0..150)) {
        let dsu: Dsu = Dsu::with_seed(20, 7);
        let mut session = dsu.cached_with_capacity(8);
        let mut oracle = NaiveDsu::new(20);
        for (i, &(x, y, is_unite)) in ops.iter().enumerate() {
            if is_unite {
                prop_assert_eq!(session.unite(x, y), oracle.unite(x, y), "unite diverged at op {}", i);
            } else {
                prop_assert_eq!(session.same_set(x, y), oracle.same_set(x, y), "same_set diverged at op {}", i);
            }
        }
        prop_assert_eq!(dsu.set_count(), oracle.set_count());
    }

    /// The growable structure's cached session agrees with its uncached
    /// per-op path (both segmented layouts run via the CI feature matrix).
    #[test]
    fn growable_cached_matches_per_op(edges in edges_strategy(16, 100), seed in any::<u64>()) {
        let cached: GrowableDsu = GrowableDsu::with_seed(seed);
        let per_op: GrowableDsu = GrowableDsu::with_seed(seed);
        for _ in 0..16 {
            cached.make_set();
            per_op.make_set();
        }
        let mut session = cached.cached_with_capacity(8);
        for &(x, y) in &edges {
            prop_assert_eq!(session.unite(x, y), per_op.unite(x, y));
        }
        prop_assert_eq!(cached.set_count(), per_op.set_count());
        let batch: GrowableDsu = GrowableDsu::with_seed(seed);
        for _ in 0..16 {
            batch.make_set();
        }
        let mut bsession = batch.cached();
        bsession.unite_batch(&edges);
        prop_assert_eq!(batch.set_count(), per_op.set_count());
    }
}

/// Adversarial invalidation: one thread ingests bursts through a cached
/// session while other threads race per-op unites over the *same* hot
/// elements, demoting cached roots mid-batch. Every validation that
/// passes is a genuine root observation, so the final partition must equal
/// the connected components of all edges combined, and the link counts
/// must balance exactly.
#[test]
fn concurrent_unites_invalidate_cache_mid_batch() {
    let _wd = concurrent_dsu::TestWatchdog::arm(
        "concurrent_unites_invalidate_cache_mid_batch",
        std::time::Duration::from_secs(120),
    );
    let n = 1 << 10;
    // Zipf-flavored: low indices are hot, so the cached session and the
    // adversary threads keep fighting over the same roots.
    let hot = |i: usize| (i * i) % 61;
    let session_edges: Vec<(usize, usize)> =
        (0..4 * n).map(|i| (hot(i), (i * 2654435761) % n)).collect();
    let adversary_edges: Vec<(usize, usize)> =
        (0..4 * n).map(|i| (hot(i + 7), (i * 40503 + 11) % n)).collect();
    fn run<S: DsuStore>(
        n: usize,
        session_edges: &[(usize, usize)],
        adversary_edges: &[(usize, usize)],
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // RandomLink pinned: the Lemma 3.1 assert below is about *random
        // ids*, which the `default-link-index` CI cell would otherwise
        // retarget.
        let dsu: Dsu<TwoTrySplit, S, concurrent_dsu::RandomLink> = Dsu::with_seed(n, 3);
        let links = AtomicUsize::new(0);
        std::thread::scope(|s| {
            // The cached ingester: bursts of 100 through a persistent
            // session cache that the adversaries keep invalidating.
            {
                let dsu = &dsu;
                let links = &links;
                s.spawn(move || {
                    let mut session = dsu.cached();
                    let mut local = 0;
                    for burst in session_edges.chunks(100) {
                        local += session.unite_batch(burst);
                    }
                    links.fetch_add(local, Ordering::Relaxed);
                });
            }
            // Adversaries: per-op unites (and cached per-op unites) over
            // overlapping hot elements.
            for (t, chunk) in adversary_edges.chunks(adversary_edges.len() / 4 + 1).enumerate() {
                let dsu = &dsu;
                let links = &links;
                s.spawn(move || {
                    let mut local = 0;
                    if t % 2 == 0 {
                        for &(x, y) in chunk {
                            local += dsu.unite(x, y) as usize;
                        }
                    } else {
                        let mut session = dsu.cached_with_capacity(64);
                        for &(x, y) in chunk {
                            local += session.unite(x, y) as usize;
                        }
                    }
                    links.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        let mut oracle = NaiveDsu::new(n);
        for &(x, y) in session_edges.iter().chain(adversary_edges) {
            oracle.unite(x, y);
        }
        assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
        assert_eq!(dsu.set_count(), oracle.set_count());
        // Exactly one `true` per performed link, across every path.
        assert_eq!(links.load(Ordering::Relaxed), n - oracle.set_count());
        // Lemma 3.1 survives cached links.
        let parents = dsu.parents_snapshot();
        for (x, &p) in parents.iter().enumerate() {
            if p != x {
                assert!((dsu.id_of(x), x) < (dsu.id_of(p), p));
            }
        }
    }
    run::<PackedStore>(n, &session_edges, &adversary_edges);
    run::<FlatStore>(n, &session_edges, &adversary_edges);
    run::<ShardedStore>(n, &session_edges, &adversary_edges);
}

/// Stress: every thread owns a cached session over the same structure;
/// confluence must hold exactly as for plain operations.
#[test]
fn many_cached_sessions_stress() {
    let _wd = concurrent_dsu::TestWatchdog::arm(
        "many_cached_sessions_stress",
        std::time::Duration::from_secs(120),
    );
    let n = 1 << 11;
    let dsu: Dsu = Dsu::new(n);
    let edges: Vec<(usize, usize)> =
        (0..6 * n).map(|i| ((i * 7919) % n, (i * 104729 + 5) % n)).collect();
    std::thread::scope(|s| {
        for chunk in edges.chunks(edges.len() / 8 + 1) {
            let dsu = &dsu;
            s.spawn(move || {
                let mut session = dsu.cached();
                for (i, &(x, y)) in chunk.iter().enumerate() {
                    if i % 3 == 0 {
                        session.same_set(x, y);
                    } else {
                        session.unite(x, y);
                    }
                    if i % 511 == 0 {
                        session.clear_cache();
                    }
                }
            });
        }
    });
    // Finish the merge single-threaded so the oracle comparison is exact.
    let mut session = dsu.cached();
    for &(x, y) in &edges {
        session.unite(x, y);
    }
    let mut oracle = NaiveDsu::new(n);
    for &(x, y) in &edges {
        oracle.unite(x, y);
    }
    assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
    assert_eq!(dsu.set_count(), oracle.set_count());
}
