//! Layout cross-checks: `Dsu<_, PackedStore>`, `Dsu<_, FlatStore>`, and
//! `Dsu<_, ShardedStore>` are observationally identical.
//!
//! All three layouts draw ids from the same seeded hash of the index, so
//! for any seed and single-threaded operation sequence every return value,
//! the set count, and the final partition must agree *exactly* — packing
//! and sharding are layout optimizations, never semantic ones. The packed
//! growable layout draws from the same hash, so a `GrowableDsu` grown to
//! `n` agrees with a `Dsu` of `n` too. These tests run
//! under both the default per-access orderings and `--features strict-sc`
//! (CI's matrix runs every layout under both), which is what justifies the
//! relaxed orderings empirically on top of the argument in
//! `src/store/mod.rs`.
//!
//! The multi-threaded stress tests exercise the relaxed link / compaction
//! CAS paths specifically: concurrent unites force link CASes to race with
//! splitting CASes on the same words, and the confluence of set union lets
//! us check the final partition against a sequential oracle no matter how
//! the interleaving went.

use concurrent_dsu::{
    Dsu, DsuStore, FindPolicy, FlatStore, GrowableDsu, LinkPolicy, PackedSegmentedStore,
    PackedStore, ParentStore, RandomLink, SegmentedStore, ShardSpec, ShardedSegmentedStore,
    ShardedStore, TestWatchdog, TwoTrySplit,
};
use proptest::prelude::*;
use sequential_dsu::{NaiveDsu, Partition};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy)]
enum Op {
    Unite(usize, usize),
    SameSet(usize, usize),
    UniteEarly(usize, usize),
    SameSetEarly(usize, usize),
}

fn ops_strategy(n: usize, max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..n, 0..n, 0..4usize).prop_map(|(x, y, k)| match k {
            0 => Op::Unite(x, y),
            1 => Op::SameSet(x, y),
            2 => Op::UniteEarly(x, y),
            _ => Op::SameSetEarly(x, y),
        }),
        1..max_len,
    )
}

fn apply<F: FindPolicy, S: DsuStore, L: LinkPolicy>(dsu: &Dsu<F, S, L>, op: Op) -> bool {
    match op {
        Op::Unite(x, y) => dsu.unite(x, y),
        Op::SameSet(x, y) => dsu.same_set(x, y),
        Op::UniteEarly(x, y) => dsu.unite_early(x, y),
        Op::SameSetEarly(x, y) => dsu.same_set_early(x, y),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed, flat, and sharded layouts agree with each other and
    /// with the sequential oracle on every observable of every operation —
    /// find roots, same-set verdicts, unite verdicts, set counts,
    /// partitions, and parent forests.
    #[test]
    fn all_layouts_agree(ops in ops_strategy(24, 120), seed in any::<u64>()) {
        let n = 24;
        let packed: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
        let flat: Dsu<TwoTrySplit, FlatStore> = Dsu::with_seed(n, seed);
        // A shard count that actually splits 24 elements (auto() would
        // too, but pin it so every machine runs the same shape).
        let sharded: Dsu<TwoTrySplit, ShardedStore> =
            Dsu::from_store(ShardedStore::with_spec(n, seed, ShardSpec::with_shards(4)));
        let mut oracle = NaiveDsu::new(n);
        for &op in &ops {
            let (p, f, s) = (apply(&packed, op), apply(&flat, op), apply(&sharded, op));
            prop_assert_eq!(p, f, "{:?} diverged between packed and flat", op);
            prop_assert_eq!(p, s, "{:?} diverged between packed and sharded", op);
            let expected = match op {
                Op::Unite(x, y) | Op::UniteEarly(x, y) => oracle.unite(x, y),
                Op::SameSet(x, y) | Op::SameSetEarly(x, y) => oracle.same_set(x, y),
            };
            prop_assert_eq!(p, expected, "{:?} diverged from the oracle", op);
        }
        prop_assert_eq!(packed.set_count(), oracle.set_count());
        prop_assert_eq!(flat.set_count(), oracle.set_count());
        prop_assert_eq!(sharded.set_count(), oracle.set_count());
        // Same find roots for every element at quiescence.
        for x in 0..n {
            prop_assert_eq!(packed.find(x), flat.find(x));
            prop_assert_eq!(packed.find(x), sharded.find(x));
        }
        let canonical = Partition::from_labels(&packed.labels_snapshot());
        prop_assert_eq!(&canonical, &Partition::from_labels(&flat.labels_snapshot()));
        prop_assert_eq!(&canonical, &Partition::from_labels(&sharded.labels_snapshot()));
        // Identical ids imply identical linking and compaction decisions,
        // hence identical parent forests (stricter than identical union
        // forests), not just identical partitions.
        prop_assert_eq!(packed.parents_snapshot(), flat.parents_snapshot());
        prop_assert_eq!(packed.parents_snapshot(), sharded.parents_snapshot());
    }

    /// The fixed-universe and growable packed layouts share one order: a
    /// `Dsu` of `n` and a `GrowableDsu` grown to `n` with the same seed give
    /// every element the same id, and then make the same linking and
    /// compaction decisions — equal verdicts and equal parent forests after
    /// every operation.
    #[test]
    fn fixed_and_growable_packed_share_one_order(
        ops in ops_strategy(24, 120),
        seed in any::<u64>(),
    ) {
        let n = 24;
        let fixed: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, seed);
        let grown: GrowableDsu<TwoTrySplit, PackedSegmentedStore, RandomLink> =
            GrowableDsu::with_seed(seed);
        for x in 0..n {
            prop_assert_eq!(grown.make_set(), x);
        }
        let grown_id = |x: usize| grown.store().priority(x, grown.store().load_word(x));
        for x in 0..n {
            prop_assert_eq!(fixed.id_of(x), grown_id(x), "id of {}", x);
        }
        let grown_parents = || (0..n).map(|x| grown.store().load_parent(x)).collect::<Vec<_>>();
        for &op in &ops {
            let g = match op {
                Op::Unite(x, y) => grown.unite(x, y),
                Op::SameSet(x, y) => grown.same_set(x, y),
                Op::UniteEarly(x, y) => grown.unite_early(x, y),
                Op::SameSetEarly(x, y) => grown.same_set_early(x, y),
            };
            prop_assert_eq!(apply(&fixed, op), g, "{:?} diverged", op);
            prop_assert_eq!(fixed.parents_snapshot(), grown_parents(), "after {:?}", op);
        }
    }

    /// All three growable layouts match the oracle. The two packed
    /// growable layouts share the id hash, so their forests match exactly;
    /// the flat one computes full-width ids (packed truncates to 32 bits),
    /// so only observables are compared there.
    #[test]
    fn growable_layouts_agree(ops in ops_strategy(16, 100), seed in any::<u64>()) {
        let n = 16;
        let packed: GrowableDsu<TwoTrySplit, PackedSegmentedStore> = GrowableDsu::with_seed(seed);
        let flat: GrowableDsu<TwoTrySplit, SegmentedStore> = GrowableDsu::with_seed(seed);
        let sharded: GrowableDsu<TwoTrySplit, ShardedSegmentedStore> =
            GrowableDsu::from_store(ShardedSegmentedStore::with_spec(seed, ShardSpec::with_shards(4)));
        let mut oracle = NaiveDsu::new(n);
        for _ in 0..n {
            packed.make_set();
            flat.make_set();
            sharded.make_set();
        }
        for &op in &ops {
            let (expected, x, y) = match op {
                Op::Unite(x, y) | Op::UniteEarly(x, y) => (oracle.unite(x, y), x, y),
                Op::SameSet(x, y) | Op::SameSetEarly(x, y) => (oracle.same_set(x, y), x, y),
            };
            let (p, f, s) = match op {
                Op::Unite(..) => (packed.unite(x, y), flat.unite(x, y), sharded.unite(x, y)),
                Op::UniteEarly(..) =>
                    (packed.unite_early(x, y), flat.unite_early(x, y), sharded.unite_early(x, y)),
                Op::SameSet(..) =>
                    (packed.same_set(x, y), flat.same_set(x, y), sharded.same_set(x, y)),
                Op::SameSetEarly(..) => (
                    packed.same_set_early(x, y),
                    flat.same_set_early(x, y),
                    sharded.same_set_early(x, y),
                ),
            };
            prop_assert_eq!(p, expected, "packed growable diverged on {:?}", op);
            prop_assert_eq!(f, expected, "flat growable diverged on {:?}", op);
            prop_assert_eq!(s, expected, "sharded growable diverged on {:?}", op);
        }
        prop_assert_eq!(packed.set_count(), oracle.set_count());
        prop_assert_eq!(flat.set_count(), oracle.set_count());
        prop_assert_eq!(sharded.set_count(), oracle.set_count());
        // packed-seg and sharded-seg hash ids identically, so they agree
        // on find roots too, not just verdicts.
        for x in 0..n {
            prop_assert_eq!(packed.find(x), sharded.find(x));
        }
    }
}

/// A one-shard `ShardedStore` must be bit-identical to `PackedStore`
/// through a whole `Dsu` operation sequence: identical parent words after
/// every operation, not merely the same answers. (The unit test in
/// `store/sharded.rs` checks raw CAS histories; this covers the real
/// link/compaction traffic.)
#[test]
fn one_shard_dsu_is_bit_identical_to_packed() {
    let n = 200;
    let seed = 0x51AB;
    let packed: Dsu<TwoTrySplit, PackedStore> = Dsu::with_seed(n, seed);
    let sharded: Dsu<TwoTrySplit, ShardedStore> =
        Dsu::from_store(ShardedStore::with_spec(n, seed, ShardSpec::with_shards(1)));
    let edges: Vec<(usize, usize)> =
        (0..3 * n).map(|i| ((i * 7919) % n, (i * 263 + 5) % n)).collect();
    // The id halves are fixed at construction; check them once.
    for u in 0..n {
        assert_eq!(packed.id_of(u), sharded.id_of(u), "id half of word {u}");
    }
    for (i, &(x, y)) in edges.iter().enumerate() {
        match i % 3 {
            0 => assert_eq!(packed.unite(x, y), sharded.unite(x, y)),
            1 => assert_eq!(packed.same_set(x, y), sharded.same_set(x, y)),
            _ => assert_eq!(packed.unite_early(x, y), sharded.unite_early(x, y)),
        }
        // The parent halves must match after *every* operation — same
        // links and same compaction CASes, not just the same answers.
        assert_eq!(packed.parents_snapshot(), sharded.parents_snapshot(), "after op {i}");
    }
}

/// Concurrent stress on the relaxed link/compaction CASes of all three
/// layouts: the final partition must equal the connected components of the
/// unite pairs (set union is confluent), and ids must still strictly
/// increase along every parent path (Lemma 3.1).
#[test]
fn concurrent_stress_matches_components_all_layouts() {
    let n = 1 << 12;
    let threads = 8;
    // A progress bug (livelocked retry loop, lost wakeup) should hang for
    // seconds and dump progress, not eat the CI job's whole time limit.
    let progress = Arc::new(AtomicUsize::new(0));
    let _wd = TestWatchdog::arm_with(
        "concurrent_stress_matches_components_all_layouts",
        Duration::from_secs(120),
        {
            let progress = Arc::clone(&progress);
            move || format!("ops completed before hang: {}", progress.load(Ordering::Relaxed))
        },
    );
    let pairs: Vec<(usize, usize)> =
        (0..2 * n).map(|i| ((i * 2654435761) % n, (i * 40503 + 7) % n)).collect();
    // RandomLink pinned: the Lemma 3.1 id asserts at the bottom are about
    // *random ids*, which the `default-link-index` CI cell would otherwise
    // retarget.
    use concurrent_dsu::RandomLink;
    let packed: Dsu<TwoTrySplit, PackedStore, RandomLink> = Dsu::with_seed(n, 99);
    let flat: Dsu<TwoTrySplit, FlatStore, RandomLink> = Dsu::with_seed(n, 99);
    let sharded: Dsu<TwoTrySplit, ShardedStore, RandomLink> =
        Dsu::from_store(ShardedStore::with_spec(n, 99, ShardSpec::with_shards(8)));
    for dsu_run in 0..3 {
        std::thread::scope(|s| {
            for t in 0..threads {
                let packed = &packed;
                let flat = &flat;
                let sharded = &sharded;
                let pairs = &pairs;
                let progress = &progress;
                s.spawn(move || {
                    for (i, &(x, y)) in pairs.iter().enumerate() {
                        if i % threads != t {
                            continue;
                        }
                        progress.fetch_add(1, Ordering::Relaxed);
                        // Mix queries in so compaction CASes race links.
                        match dsu_run {
                            0 => {
                                packed.unite(x, y);
                                packed.same_set(y, x);
                            }
                            1 => {
                                flat.unite(x, y);
                                flat.same_set(y, x);
                            }
                            _ => {
                                sharded.unite(x, y);
                                sharded.same_set(y, x);
                            }
                        }
                    }
                });
            }
        });
    }
    let mut oracle = NaiveDsu::new(n);
    for &(x, y) in &pairs {
        oracle.unite(x, y);
    }
    assert_eq!(Partition::from_labels(&packed.labels_snapshot()), oracle.partition());
    assert_eq!(Partition::from_labels(&flat.labels_snapshot()), oracle.partition());
    assert_eq!(Partition::from_labels(&sharded.labels_snapshot()), oracle.partition());
    assert_eq!(packed.set_count(), oracle.set_count());
    assert_eq!(flat.set_count(), oracle.set_count());
    assert_eq!(sharded.set_count(), oracle.set_count());
    // Lemma 3.1 on the packed words of both packed layouts: every
    // non-root's (id, index) key is below its parent's, whatever
    // interleaving the relaxed CASes went through.
    fn ids_increase<S: DsuStore>(dsu: &Dsu<TwoTrySplit, S, concurrent_dsu::RandomLink>) {
        for (x, &p) in dsu.parents_snapshot().iter().enumerate() {
            if p != x {
                assert!((dsu.id_of(x), x) < (dsu.id_of(p), p));
            }
        }
    }
    ids_increase(&packed);
    ids_increase(&sharded);
}

/// Concurrent growth + churn on both packed growable layouts.
#[test]
fn packed_growable_concurrent_stress() {
    let _wd = TestWatchdog::arm("packed_growable_concurrent_stress", Duration::from_secs(120));
    let dsu: GrowableDsu<TwoTrySplit, PackedSegmentedStore> = GrowableDsu::new();
    let sharded: GrowableDsu<TwoTrySplit, ShardedSegmentedStore> =
        GrowableDsu::from_store(ShardedSegmentedStore::with_spec(
            GrowableDsu::<TwoTrySplit, ShardedSegmentedStore>::DEFAULT_SEED,
            ShardSpec::with_shards(4),
        ));
    let threads = 8;
    let per_thread = 1500;
    fn churn<S: concurrent_dsu::GrowableStore>(
        dsu: &GrowableDsu<TwoTrySplit, S>,
        threads: usize,
        per_thread: usize,
    ) {
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..per_thread {
                        let e = dsu.make_set();
                        mine.push(e);
                        if mine.len() >= 2 {
                            let a = mine[(i * 31 + t) % mine.len()];
                            let b = mine[(i * 17 + 1) % mine.len()];
                            dsu.unite(a, b);
                            dsu.same_set(b, a);
                        }
                    }
                });
            }
        });
    }
    churn(&dsu, threads, per_thread);
    churn(&sharded, threads, per_thread);
    for (name, len, labels) in [
        ("packed-seg", dsu.len(), dsu.labels_snapshot()),
        ("sharded-seg", sharded.len(), sharded.labels_snapshot()),
    ] {
        assert_eq!(len, threads * per_thread, "{name}");
        // Labels must form a consistent partition.
        let _ = Partition::from_labels(&labels);
    }
    assert!(dsu.set_count() >= 1 && dsu.set_count() <= dsu.len());
    assert!(sharded.set_count() >= 1 && sharded.set_count() <= sharded.len());
}
