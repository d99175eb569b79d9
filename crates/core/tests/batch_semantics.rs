//! Batch-ingestion semantics: `unite_batch` is observationally identical to
//! a one-at-a-time `unite` loop.
//!
//! The batch path (`src/bulk.rs`) reorders work internally — gather waves,
//! a filter step, seeded link CASes, a retry fallback — but almost none of
//! that may be visible: single-threaded, the per-edge verdicts, the link
//! count, the set count, and the final partition must match the per-op
//! execution edge for edge, on both parent-store layouts. (The one
//! permitted difference is the union forest's shape — see the note inside
//! `batch_matches_sequential_unite`.) These tests run under the default
//! per-access orderings and under `--features strict-sc` (CI runs both),
//! the same dual configuration the packed-vs-flat cross-checks use.

use concurrent_dsu::{
    BatchPlan, DefaultLink, Dsu, DsuStore, FlatStore, GrowableDsu, PackedStore, PlanTuning,
    RandomLink, ShardedStore, TwoTrySplit,
};
use proptest::prelude::*;
use sequential_dsu::{NaiveDsu, Partition};

fn edges_strategy(n: usize, max_len: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..max_len)
}

/// The planned path's verdict oracle: per-op `unite` over the plan's
/// deterministic execution order (buckets ascending, then spill), with
/// every dropped duplicate reporting `false` — the contract stated in
/// `concurrent_dsu::ingest`. Returns per-edge verdicts indexed as in the
/// original slice.
fn plan_order_oracle<S: DsuStore>(
    per_op: &Dsu<TwoTrySplit, S>,
    edges: &[(usize, usize)],
    tuning: PlanTuning,
) -> Vec<bool> {
    let plan = BatchPlan::build(edges, tuning);
    let mut expected = vec![false; edges.len()];
    for (orig, (x, y)) in plan.execution_order() {
        expected[orig] = per_op.unite(x, y);
    }
    for &i in plan.dropped() {
        expected[i] = false;
    }
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary edge lists, batched ingestion produces the same
    /// per-edge verdicts and the same partition as sequential per-op
    /// `unite`, on all three layouts (packed, flat, sharded).
    #[test]
    fn batch_matches_sequential_unite(edges in edges_strategy(24, 200), seed in any::<u64>()) {
        let n = 24;
        // RandomLink pinned throughout (reference and batch sides alike):
        // the id asserts at the bottom are about *random ids*, which the
        // `default-link-index` CI cell would otherwise retarget.
        let packed_batch: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, seed);
        let flat_batch: Dsu<TwoTrySplit, FlatStore, RandomLink> = Dsu::with_seed(n, seed);
        let sharded_batch: Dsu<TwoTrySplit, ShardedStore, RandomLink> = Dsu::with_seed(n, seed);
        let per_op: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, seed);
        let mut oracle = NaiveDsu::new(n);

        let packed_results = packed_batch.unite_batch_results(&edges);
        let flat_results = flat_batch.unite_batch_results(&edges);
        let sharded_results = sharded_batch.unite_batch_results(&edges);
        let expected: Vec<bool> = edges.iter().map(|&(x, y)| per_op.unite(x, y)).collect();
        let oracle_results: Vec<bool> = edges.iter().map(|&(x, y)| oracle.unite(x, y)).collect();

        prop_assert_eq!(&packed_results, &expected, "packed batch diverged from per-op");
        prop_assert_eq!(&flat_results, &expected, "flat batch diverged from per-op");
        prop_assert_eq!(&sharded_results, &expected, "sharded batch diverged from per-op");
        prop_assert_eq!(&expected, &oracle_results, "per-op diverged from the naive oracle");

        prop_assert_eq!(packed_batch.set_count(), oracle.set_count());
        prop_assert_eq!(flat_batch.set_count(), oracle.set_count());
        prop_assert_eq!(sharded_batch.set_count(), oracle.set_count());
        prop_assert_eq!(
            Partition::from_labels(&packed_batch.labels_snapshot()),
            oracle.partition()
        );
        prop_assert_eq!(
            Partition::from_labels(&flat_batch.labels_snapshot()),
            oracle.partition()
        );
        prop_assert_eq!(
            Partition::from_labels(&sharded_batch.labels_snapshot()),
            oracle.partition()
        );
        // Identical ids and the same deterministic batch schedule imply
        // identical link *and* compaction decisions across *layouts*, so
        // the parent forests match exactly (stricter than matching union
        // forests). (The forest may differ from the per-op run's: a batch
        // link may attach a root under a node an earlier link of the same
        // wave already demoted — paper Algorithm 7's "link under any
        // larger-id node" case — which changes the forest shape but never
        // the partition.)
        let parents = packed_batch.parents_snapshot();
        prop_assert_eq!(&parents, &flat_batch.parents_snapshot());
        prop_assert_eq!(&parents, &sharded_batch.parents_snapshot());
        // (id, index) keys still strictly increase along every batch-built
        // parent path.
        for (x, &p) in parents.iter().enumerate() {
            if p != x {
                prop_assert!((packed_batch.id_of(x), x) < (packed_batch.id_of(p), p));
            }
        }
    }

    /// The link count returned by `unite_batch` equals the number of `true`
    /// verdicts, however the edges are split into sub-batches.
    #[test]
    fn batch_splitting_is_invisible(edges in edges_strategy(16, 120), split in 1..40usize) {
        let n = 16;
        let whole: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, 7);
        let split_dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, 7);
        let whole_links = whole.unite_batch(&edges);
        let mut split_links = 0;
        for chunk in edges.chunks(split) {
            split_links += split_dsu.unite_batch(chunk);
        }
        prop_assert_eq!(whole_links, split_links);
        prop_assert_eq!(whole.set_count(), split_dsu.set_count());
        prop_assert_eq!(
            Partition::from_labels(&whole.labels_snapshot()),
            Partition::from_labels(&split_dsu.labels_snapshot())
        );
    }

    /// Planned batch ingestion, for arbitrary edge lists: per-edge
    /// verdicts bit-identical to per-op `unite` over the plan's
    /// deterministic execution order on all three layouts (CI runs this
    /// file under `strict-sc` too), and the order-invariant quantities —
    /// final partition, set count, link count — identical to the
    /// *original-order* naive oracle.
    #[test]
    fn planned_batch_matches_per_op_over_plan_order(
        edges in edges_strategy(24, 200),
        seed in any::<u64>(),
        bucket_bits in 0u32..6,
    ) {
        let n = 24;
        // Small explicit buckets so tiny universes still exercise
        // multi-bucket plans and the spillover pass.
        let tuning = PlanTuning::new().bucket_elems_log2(bucket_bits);
        let batch_tuning =
            concurrent_dsu::BatchTuning::new().planned(tuning);

        let oracle_dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
        let expected = plan_order_oracle(&oracle_dsu, &edges, tuning);
        let mut naive = NaiveDsu::new(n);
        for &(x, y) in &edges {
            naive.unite(x, y);
        }

        macro_rules! check_layout {
            ($store:ty, $label:literal) => {{
                use concurrent_dsu::find::FindPolicy;
                let store = <$store as DsuStore>::with_seed(n, seed);
                let mut results = vec![false; edges.len()];
                let links = concurrent_dsu::bulk::unite_batch_sink_tuned::<DefaultLink, _, _>(
                    &store,
                    &edges,
                    batch_tuning,
                    None,
                    &mut (),
                    |_, _| {},
                    |i, linked| results[i] = linked,
                );
                prop_assert_eq!(&results, &expected, concat!($label, " planned verdicts"));
                prop_assert_eq!(
                    links,
                    expected.iter().filter(|&&b| b).count(),
                    concat!($label, " link count")
                );
                let mut labels: Vec<usize> =
                    (0..n).map(|i| TwoTrySplit::find(&store, i, &mut ()).0).collect();
                for i in 0..n {
                    labels[i] = labels[labels[i]];
                }
                prop_assert_eq!(
                    Partition::from_labels(&labels),
                    naive.partition(),
                    concat!($label, " partition")
                );
            }};
        }
        check_layout!(PackedStore, "packed");
        check_layout!(FlatStore, "flat");
        check_layout!(ShardedStore, "sharded");

        // The verdict-reporting planned surface agrees with the oracle
        // bit for bit (default tuning this time — the public entry point).
        let dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
        let planned_results = dsu.unite_batch_planned_results(&edges);
        let oracle2: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
        let expected_default = plan_order_oracle(&oracle2, &edges, PlanTuning::new());
        prop_assert_eq!(&planned_results, &expected_default, "default-tuning planned results");
        prop_assert_eq!(
            Partition::from_labels(&dsu.labels_snapshot()),
            naive.partition(),
            "default-tuning partition"
        );
    }

    /// The growable structure's batch path agrees with its per-op path on
    /// both segmented layouts.
    #[test]
    fn growable_batch_matches_per_op(edges in edges_strategy(16, 100), seed in any::<u64>()) {
        let batched: GrowableDsu = GrowableDsu::with_seed(seed);
        let per_op: GrowableDsu = GrowableDsu::with_seed(seed);
        for _ in 0..16 {
            batched.make_set();
            per_op.make_set();
        }
        let results = batched.unite_batch_results(&edges);
        let expected: Vec<bool> = edges.iter().map(|&(x, y)| per_op.unite(x, y)).collect();
        prop_assert_eq!(results, expected);
        prop_assert_eq!(batched.set_count(), per_op.set_count());
    }
}

/// Concurrent batch ingestion: threads race `unite_batch` calls over
/// shuffled sub-batches; the final partition must equal the connected
/// components of the whole edge set (set union is confluent), on both
/// layouts, and the returned link counts must sum to the total number of
/// links performed.
#[test]
fn concurrent_batches_match_components_oracle() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let _wd = concurrent_dsu::TestWatchdog::arm(
        "concurrent_batches_match_components_oracle",
        std::time::Duration::from_secs(120),
    );
    let n = 1 << 11;
    let edges: Vec<(usize, usize)> =
        (0..4 * n).map(|i| ((i * 2654435761) % n, (i * 40503 + 11) % n)).collect();
    // RandomLink pinned: the Lemma 3.1 id assert below must not float with
    // the `default-link-index` feature.
    let packed: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, 3);
    let flat: Dsu<TwoTrySplit, FlatStore, RandomLink> = Dsu::with_seed(n, 3);
    let links = AtomicUsize::new(0);
    for run in 0..2 {
        std::thread::scope(|s| {
            for chunk in edges.chunks(edges.len() / 8 + 1) {
                let packed = &packed;
                let flat = &flat;
                let links = &links;
                s.spawn(move || {
                    let l =
                        if run == 0 { packed.unite_batch(chunk) } else { flat.unite_batch(chunk) };
                    links.fetch_add(l, Ordering::Relaxed);
                });
            }
        });
    }
    let mut oracle = NaiveDsu::new(n);
    for &(x, y) in &edges {
        oracle.unite(x, y);
    }
    assert_eq!(Partition::from_labels(&packed.labels_snapshot()), oracle.partition());
    assert_eq!(Partition::from_labels(&flat.labels_snapshot()), oracle.partition());
    assert_eq!(packed.set_count(), oracle.set_count());
    assert_eq!(flat.set_count(), oracle.set_count());
    // Each layout's run performed exactly n - set_count links in total.
    assert_eq!(links.load(Ordering::Relaxed), 2 * (n - oracle.set_count()));
    // Lemma 3.1 survives the batch path's seeded CASes.
    let parents = packed.parents_snapshot();
    for (x, &p) in parents.iter().enumerate() {
        if p != x {
            assert!((packed.id_of(x), x) < (packed.id_of(p), p));
        }
    }
}

/// Planned ingestion degenerate shapes: the empty batch, the all-duplicate
/// batch, the single-bucket plan (which must reproduce the unplanned
/// execution verbatim), and the all-spill plan (width-zero buckets:
/// every distinct pair crosses, so the spill pass *is* the batch, in
/// original order).
#[test]
fn planned_degenerate_shapes() {
    let n = 64;
    let seed = 0xD15C;

    // Empty batch: no links, no counters, no panic.
    let dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
    let mut stats = concurrent_dsu::OpStats::default();
    assert_eq!(dsu.unite_batch_planned_with(&[], &mut stats), 0);
    assert_eq!(
        (stats.ops, stats.dup_edges_dropped, stats.bucket_count, stats.spill_edges),
        (0, 0, 0, 0)
    );

    // All-dup batch: one link at most, every later copy reports false.
    let dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
    let mut stats = concurrent_dsu::OpStats::default();
    let dups = [(3, 9); 10];
    assert_eq!(dsu.unite_batch_planned_with(&dups, &mut stats), 1);
    assert_eq!(stats.dup_edges_dropped, 9);
    assert_eq!(stats.ops, 10);
    let results_dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
    let results = results_dsu.unite_batch_planned_results(&dups);
    assert!(results[0]);
    assert!(results[1..].iter().all(|&b| !b), "{results:?}");

    let edges: Vec<(usize, usize)> =
        (0..300).map(|i| ((i * 7919) % n, (i * 104729 + 5) % n)).collect();
    let unplanned: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
    let unplanned_results = unplanned.unite_batch_results(&edges);

    // Single bucket (width covers the universe), dedup off: the plan is
    // the identity, so verdicts match the unplanned original-order run
    // bit for bit.
    let one_bucket: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
    let tuning = concurrent_dsu::BatchTuning::new()
        .planned(PlanTuning::new().bucket_elems_log2(32).dedup(false));
    let mut results = vec![false; edges.len()];
    one_bucket.unite_batch_tuned_with(&edges, tuning, None, &mut ());
    concurrent_dsu::bulk::unite_batch_sink_tuned::<DefaultLink, _, _>(
        &PackedStore::with_seed(n, seed),
        &edges,
        tuning,
        None,
        &mut (),
        |_, _| {},
        |i, linked| results[i] = linked,
    );
    assert_eq!(results, unplanned_results, "one-bucket plan must be the identity");
    assert_eq!(one_bucket.labels_snapshot(), unplanned.labels_snapshot());

    // All-spill (width 0, dedup off): every distinct pair crosses buckets,
    // the spill segment preserves original order — again identical to the
    // unplanned run.
    let tuning = concurrent_dsu::BatchTuning::new()
        .planned(PlanTuning::new().bucket_elems_log2(0).dedup(false));
    let mut results = vec![false; edges.len()];
    let mut stats = concurrent_dsu::OpStats::default();
    concurrent_dsu::bulk::unite_batch_sink_tuned::<DefaultLink, _, _>(
        &PackedStore::with_seed(n, seed),
        &edges,
        tuning,
        None,
        &mut stats,
        |_, _| {},
        |i, linked| results[i] = linked,
    );
    assert_eq!(results, unplanned_results, "all-spill plan must preserve arrival order");
    assert!(stats.spill_edges > 0);
}

/// Concurrent planned ingestion: racing planned batches still produce the
/// components-oracle partition (plans are per-call and thread-private;
/// the store sees only ordinary filter/link traffic).
#[test]
fn concurrent_planned_batches_match_components_oracle() {
    let _wd = concurrent_dsu::TestWatchdog::arm(
        "concurrent_planned_batches_match_components_oracle",
        std::time::Duration::from_secs(120),
    );
    let n = 1 << 10;
    let edges: Vec<(usize, usize)> =
        (0..4 * n).map(|i| ((i * 2654435761) % n, (i * 40503 + 11) % n)).collect();
    // RandomLink pinned for the id assert at the bottom.
    let dsu: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, 5);
    std::thread::scope(|s| {
        for chunk in edges.chunks(edges.len() / 8 + 1) {
            let dsu = &dsu;
            s.spawn(move || dsu.unite_batch_planned(chunk));
        }
    });
    let mut oracle = NaiveDsu::new(n);
    for &(x, y) in &edges {
        oracle.unite(x, y);
    }
    assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
    assert_eq!(dsu.set_count(), oracle.set_count());
    // Lemma 3.1 survives the planned path's seeded CASes.
    let parents = dsu.parents_snapshot();
    for (x, &p) in parents.iter().enumerate() {
        if p != x {
            assert!((dsu.id_of(x), x) < (dsu.id_of(p), p));
        }
    }
}

/// Mixed ingestion: per-op and batched calls racing on the same structure
/// still yield the oracle partition.
#[test]
fn mixed_per_op_and_batched_ingestion() {
    let _wd = concurrent_dsu::TestWatchdog::arm(
        "mixed_per_op_and_batched_ingestion",
        std::time::Duration::from_secs(120),
    );
    let n = 1 << 10;
    let edges: Vec<(usize, usize)> =
        (0..3 * n).map(|i| ((i * 7919) % n, (i * 104729 + 5) % n)).collect();
    let dsu: Dsu<TwoTrySplit, PackedStore> = Dsu::new(n);
    std::thread::scope(|s| {
        for (t, chunk) in edges.chunks(edges.len() / 6 + 1).enumerate() {
            let dsu = &dsu;
            s.spawn(move || {
                if t % 2 == 0 {
                    dsu.unite_batch(chunk);
                } else {
                    for &(x, y) in chunk {
                        dsu.unite(x, y);
                    }
                }
            });
        }
    });
    let mut oracle = NaiveDsu::new(n);
    for &(x, y) in &edges {
        oracle.unite(x, y);
    }
    assert_eq!(Partition::from_labels(&dsu.labels_snapshot()), oracle.partition());
    assert_eq!(dsu.set_count(), oracle.set_count());
}
