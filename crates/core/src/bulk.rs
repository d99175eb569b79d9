//! Batched edge ingestion: `unite_batch` (the bulk counterpart of `unite`).
//!
//! Applications that maintain connected components rarely insert one edge at
//! a time — edges arrive in bursts (a scanned adjacency chunk, a network
//! batch, a Borůvka round). Dispatching each edge through a full `Unite`
//! wastes work on two fronts:
//!
//! 1. **Serialized loads.** Each operation's find is a dependent pointer
//!    chase, and a per-op loop starts the next edge's first load only
//!    after the previous edge retires. A batch knows every future
//!    endpoint, so the filter pass front-loads each group's parent words
//!    in **gather waves** of mutually independent loads the memory system
//!    overlaps — memory-level parallelism per-op dispatch cannot express.
//!    [`WaveDepth`] selects how many parent levels are front-loaded (two
//!    or three).
//! 2. **Redundant work per edge.** The walks then run *seeded*: the word
//!    in hand is carried from step to step (one fresh load per visited
//!    node, where the standalone find policies pay two), same-set edges
//!    are dropped with no validation re-read and no CAS, and each
//!    surviving edge's link CAS is issued against the exact root word the
//!    filter observed — no re-traversal between deciding and linking.
//!    Callers can additionally thread a [`RootCache`] through the filter
//!    ([`unite_batch_sink_tuned`], [`Dsu::cached`](crate::Dsu::cached),
//!    [`unite_batch_cached`](crate::ConcurrentUnionFind::unite_batch_cached)):
//!    a memoized endpoint re-resolves with a single validated load of its
//!    cached root, and even that load rides the overlapped wave (the
//!    endpoint's wave-1 gather slot loads the *root's* word instead of the
//!    endpoint's). This is deliberately **opt-in**, not the `unite_batch`
//!    default — see the measured negative on [`unite_batch_sink`].
//!
//! `unite_batch` structures this as a **filter pass** (gather waves, then
//! seeded root walks, recording for each survivor the `(root, word,
//! target)` observation that nominated the link) and a **link pass** (one
//! seeded CAS per survivor, falling back to the full retry loop only when
//! another link moved the root first).
//!
//! # Ingestion-plan selection
//!
//! On top of the wave structure, [`BatchTuning::planned`] routes a batch
//! through the **ingestion planner** ([`ingest`](crate::ingest)): dedup
//! intra-batch duplicate edges, radix-partition the rest into power-of-two
//! index buckets by endpoint high bits, and drain one bucket at a time
//! through these gather waves — so each wave's loads land in a small,
//! resident index range instead of sampling the whole universe — with
//! cross-bucket edges deferred to a spillover pass. Pick it the way the
//! [`store`](crate::store) docs pick layouts:
//!
//! * **plan when the store is much larger than the LLC** (`n ≥ 2^22`) and
//!   batches are big enough that a bucket's edges re-touch its block, or
//!   when the stream is duplicate-heavy (each drop saves two root walks);
//! * **don't plan cache-resident stores or tiny batches** — the hash probe
//!   and counting sort per edge buy no locality there
//!   (`BENCH_PR5.json` records the measured verdict either way).
//!
//! Planning reorders execution, which reorders which edge of a cycle
//! reports the link — the planner docs ([`ingest`](crate::ingest)) state
//! the exact verdict contract. Count-only callers observe no difference;
//! the `DSU_BATCH_PLAN` environment variable flips their default path to
//! planned ([`runtime_default_tuning`]).
//!
//! # Why the seeded CAS is still linearizable
//!
//! A recorded survivor `(r, w, v)` has `key(r) < key(v)` under the batch's
//! [`LinkPolicy`], with `r`'s key computed from the very
//! word `w` the CAS expects (immutable outright for random/index linking;
//! frozen by the word-exact CAS for rank linking — a concurrent rank bump
//! changes the word and fails the CAS). If the link CAS succeeds, `r` was
//! still a root — and a root has the largest observed key of its tree
//! (Lemma 3.1's invariant, which every policy preserves; see
//! [`order`](crate::order)), so `v`, with its larger key, cannot be inside
//! `r`'s tree: the two sets were distinct at the CAS, which is therefore a
//! correct link at its linearization point, exactly the argument behind
//! Algorithm 7.
//! Any staleness (the root moved, the sets merged meanwhile) makes the CAS
//! fail, and the fallback loop re-establishes the answer from fresh reads.
//! A hot-root cache entry adds no new kind of staleness: it is only an
//! older observation whose validation load *is* the find's linearization
//! point (see the [`cache`](crate::cache) module docs for the argument).
//! Consequently a single-threaded `unite_batch` returns, edge by edge, the
//! *same* booleans a one-at-a-time `unite` sequence would — the property
//! `tests/batch_semantics.rs` and `tests/cache_semantics.rs` check
//! exhaustively. (The union *forest* may shape differently than per-op's:
//! a batch link can attach a root under a node an earlier link of the same
//! wave already demoted — Algorithm 7's "link under any larger-id node"
//! case. The partition, the verdicts, and Lemma 3.1's id ordering are
//! unaffected.)
//!
//! The batch path's climb always compacts by *seeded one-try splitting*
//! (the carried word doubles as the CAS expectation), independent of the
//! structure's [`FindPolicy`](crate::find::FindPolicy): compaction is a
//! performance-only effect — it never moves a node out of its set and
//! never changes a root — so no operation's result depends on it, and the
//! splitting step is the one whose operands the filter already holds.

use crate::cache::RootCache;
use crate::ingest::{BatchPlan, PlanTuning};
use crate::order::LinkPolicy;
use crate::stats::StatsSink;
use crate::store::ParentStore;

/// Edges per gather wave (one filter-then-link round). Each wave issues a
/// group's parent-word loads back to back; the loads are mutually
/// independent, so the memory system overlaps the misses — the
/// memory-level parallelism a per-op `unite` loop cannot express, because
/// each operation's find chain is a dependent pointer chase. 128 edges
/// keeps the wave's scratch a few KB (L1-resident) while giving the
/// hardware far more outstanding misses than it can retire; empirically
/// (A/B on the Zipf ingestion workload, store larger than cache) 128 beat
/// 16/32/64 and 256 on the benchmark host.
pub const GATHER: usize = 128;

/// How many parent levels a gather wave front-loads before the seeded
/// walks start (the `cache_ab` example sweeps the two settings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaveDepth {
    /// Front-load each endpoint's word and its parent's word (the PR 2
    /// shape): walks start with one unrolled step in hand. The default:
    /// on the tracked Zipf ingestion workload the third wave measured
    /// 0.93–0.99x (a consistent slight loss) on the bench host — at all
    /// sizes and thread counts, and in deep-forest (`m ≥ n`) probes too —
    /// because splitting keeps almost every endpoint within the first two
    /// levels, so wave 3 adds ~45% more gather loads to save a serial
    /// tail that is already only ~2% of reads (`BENCH_PR4.json`
    /// counters).
    #[default]
    Two,
    /// Additionally front-load the grandparent's word, unrolling a second
    /// walk step. A candidate only where paths regularly exceed two hops
    /// *and* memory latency dwarfs the extra wave's cost — unverified on
    /// the 1-vCPU bench box (every measured regime lost slightly);
    /// re-evaluate on real multi-core hardware (ROADMAP) before
    /// defaulting to it.
    Three,
}

/// Tuning knobs for the batch path. `Default` is the measured-best
/// configuration; the A/B examples construct explicit variants.
///
/// # Example
///
/// ```
/// use concurrent_dsu::bulk::{BatchTuning, WaveDepth};
/// use concurrent_dsu::ingest::PlanTuning;
///
/// let t = BatchTuning::new().wave_depth(WaveDepth::Three).planned(PlanTuning::new());
/// assert_eq!(t.wave_depth, WaveDepth::Three);
/// assert!(t.planner.is_some());
/// assert_eq!(BatchTuning::default().wave_depth, WaveDepth::Two);
/// assert!(BatchTuning::default().planner.is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchTuning {
    /// Parent levels front-loaded per gather wave.
    pub wave_depth: WaveDepth,
    /// Route the batch through the ingestion planner first
    /// ([`ingest`](crate::ingest): intra-batch dedup + radix-bucketed
    /// waves + spillover pass). `None` (the default) feeds the edges to
    /// the gather waves in their original order; `Some` executes the
    /// deterministic plan order instead — see the verdict-semantics
    /// section of the [`ingest`](crate::ingest) module docs.
    pub planner: Option<PlanTuning>,
}

impl BatchTuning {
    /// The default tuning (same as `Default::default()`, usable in const
    /// contexts).
    pub const fn new() -> Self {
        BatchTuning { wave_depth: WaveDepth::Two, planner: None }
    }

    /// Replaces the wave depth.
    pub fn wave_depth(mut self, depth: WaveDepth) -> Self {
        self.wave_depth = depth;
        self
    }

    /// Routes the batch through the ingestion planner with `plan`.
    pub fn planned(mut self, plan: PlanTuning) -> Self {
        self.planner = Some(plan);
        self
    }
}

/// The tuning the count-only default entry points
/// ([`Dsu::unite_batch`](crate::Dsu::unite_batch),
/// [`GrowableDsu::unite_batch`](crate::GrowableDsu::unite_batch)) run
/// with: wave depth two, and the planner switched by the `DSU_BATCH_PLAN`
/// environment variable ([`ingest::env_planner`](crate::ingest::env_planner)).
/// Planning changes none of what those entry points report — link counts
/// and the final partition are order-invariant — so the env knob lets a
/// deployment (or a CI matrix cell) flip the default ingestion path
/// without a code change. Verdict-reporting entry points
/// ([`Dsu::unite_batch_results`](crate::Dsu::unite_batch_results)) ignore
/// it and keep the original-order contract.
pub fn runtime_default_tuning() -> BatchTuning {
    BatchTuning { wave_depth: WaveDepth::Two, planner: crate::ingest::env_planner() }
}

/// The climb at the heart of the filter: walk from `u` — whose word `wu`
/// the caller already holds — to a node observed as a root, compacting by
/// *seeded splitting*: each step probes the grandparent with the
/// iteration's single load and tries to swing `u`'s parent to it, CASing
/// against the carried word. One load per visited node (the probe doubles
/// as the next carried word), where the standalone find policies pay two.
///
/// The carried word can be stale under concurrency; that is harmless. A
/// stale parent still names a same-set node of strictly larger id (every
/// value a cell ever holds does, Lemma 3.1), so the climb stays in-set and
/// makes progress; a stale compaction CAS just fails; and a stale "root"
/// observation is caught by whichever CAS the caller issues against the
/// returned word.
fn find_from<P, S>(store: &P, mut u: usize, mut wu: P::Word, stats: &mut S) -> (usize, P::Word)
where
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    loop {
        stats.loop_iter();
        let z = P::parent_of(wu);
        if z == u {
            return (u, wu);
        }
        let wz = store.load_word(z);
        stats.read();
        let w = P::parent_of(wz);
        if z != w {
            if store.cas_from(u, wu, w) {
                stats.compact_cas_ok();
            } else {
                stats.compact_cas_fail();
            }
        }
        u = z;
        wu = wz;
    }
}

/// Resolves one endpoint to its observed root given the gather waves'
/// words: `wx` is `x`'s word, `wp` the word of `parent(wx)`, and — at
/// [`WaveDepth::Three`] — `wpp` the word of `parent(wp)`. Each preloaded
/// level unrolls one climb step against words already in hand; with
/// compaction keeping almost every node within two hops of its root, most
/// endpoints resolve here without issuing a single serial load, and the
/// remainder falls through to [`find_from`].
#[inline]
fn resolve<P, S>(
    store: &P,
    x: usize,
    wx: P::Word,
    wp: P::Word,
    wpp: Option<P::Word>,
    stats: &mut S,
) -> (usize, P::Word)
where
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    stats.loop_iter();
    let z = P::parent_of(wx);
    if z == x {
        return (x, wx);
    }
    let w = P::parent_of(wp);
    if z != w {
        if store.cas_from(x, wx, w) {
            stats.compact_cas_ok();
        } else {
            stats.compact_cas_fail();
        }
    }
    let Some(wpp) = wpp else {
        return find_from(store, z, wp, stats);
    };
    // Third-level unroll: [`find_from`]'s first iteration at `z` with its
    // grandparent load replaced by the wave-3 word.
    stats.loop_iter();
    if w == z {
        return (z, wp);
    }
    let w2 = P::parent_of(wpp);
    if w != w2 {
        if store.cas_from(z, wp, w2) {
            stats.compact_cas_ok();
        } else {
            stats.compact_cas_fail();
        }
    }
    find_from(store, w, wpp, stats)
}

/// Resolves the endpoint whose wave-1 slot was seeded from the hot-root
/// cache: `r` is the cached root, `w` the wave-1 word loaded *from `r`*.
/// A passing validation (still a root) costs nothing beyond that
/// overlapped load; a failed one falls back to a fresh seeded walk from
/// the node itself (the gather loaded the stale root's words, not the
/// node's). Either way the cache ends up holding the current root.
fn resolve_seeded<P, S>(
    store: &P,
    cache: &mut RootCache,
    node: usize,
    r: usize,
    w: P::Word,
    stats: &mut S,
) -> (usize, P::Word)
where
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    if P::parent_of(w) == r {
        stats.cache_hit();
        return (r, w); // entry already present and correct
    }
    stats.cache_stale();
    let wx = store.load_word(node);
    stats.read();
    let (root, word) = find_from(store, node, wx, stats);
    cache.insert(node, root);
    (root, word)
}

/// Retry loop for survivors whose seeded CAS lost a race: paper
/// Algorithm 3's loop (re-find both roots, link the smaller, retry on CAS
/// failure), built on the word-carrying climb. No `op_start` — the edge
/// was already counted by its filter.
fn unite_from<L, P, S>(
    store: &P,
    mut u: usize,
    mut v: usize,
    stats: &mut S,
    record_link: impl Fn(usize, usize),
) -> bool
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    loop {
        let wu = store.load_word(u);
        let wv = store.load_word(v);
        stats.read();
        stats.read();
        let (ru, wru) = find_from(store, u, wu, stats);
        let (rv, wrv) = find_from(store, v, wv, stats);
        if ru == rv {
            return false;
        }
        let (child, wc, parent) = if L::key(store, ru, wru) < L::key(store, rv, wrv) {
            (ru, wru, rv)
        } else {
            (rv, wrv, ru)
        };
        if store.cas_from(child, wc, parent) {
            stats.link_ok();
            record_link(child, parent);
            L::on_linked(store, wc, parent);
            return true;
        }
        stats.link_fail();
        stats.cas_retry();
        // The loser's root moved: restart the finds from the roots just
        // observed (they are ancestors of the originals, so nothing below
        // them needs re-walking).
        u = ru;
        v = rv;
    }
}

/// Batched `unite` over `edges` with explicit [`BatchTuning`] and an
/// optional caller-owned hot-root cache (`None` disables memoization — the
/// cache-off arm of the A/B). Reports each edge's outcome (its index and
/// whether *this batch* performed the link) into `outcome`; returns the
/// number of successful links.
///
/// Processes the slice in [`GATHER`]-sized waves: gather the group's
/// parent-word levels (wave-1 slots of cached endpoints load the cached
/// root's word instead — the validation load, overlapped with everything
/// else), filter every edge (read-mostly — same-set drops cost no link
/// CAS), then link the group's survivors from their recorded observations.
/// Outcomes are reported exactly once per edge but *not* in index order
/// (same-set edges report during the filter step of their wave).
pub fn unite_batch_sink_tuned<L, P, S>(
    store: &P,
    edges: &[(usize, usize)],
    tuning: BatchTuning,
    cache: Option<&mut RootCache>,
    stats: &mut S,
    record_link: impl Fn(usize, usize),
    outcome: impl FnMut(usize, bool),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    if tuning.planner.is_some() {
        return batch_planned::<L, P, S>(store, edges, tuning, cache, stats, record_link, outcome);
    }
    batch_unplanned::<L, P, S>(store, edges, tuning, cache, stats, record_link, outcome)
}

/// The unplanned batch dispatcher — two monomorphic loops rather than one
/// cache-optional loop: threading `Option<&mut RootCache>` through every
/// endpoint taxed the cache-off filter ~3x on the quick ingestion shape
/// (per-endpoint Option checks, target bookkeeping, and an outlined
/// resolve), and the cache-off path is the default everyone pays.
/// (Separate from [`unite_batch_sink_tuned`] so the planned loop can call
/// it per segment without re-entering the planner dispatch, which would
/// monomorphize without bound.)
fn batch_unplanned<L, P, S>(
    store: &P,
    edges: &[(usize, usize)],
    tuning: BatchTuning,
    cache: Option<&mut RootCache>,
    stats: &mut S,
    record_link: impl Fn(usize, usize),
    outcome: impl FnMut(usize, bool),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    match cache {
        None => batch_plain::<L, P, S>(store, edges, tuning, stats, record_link, outcome),
        Some(cache) => {
            batch_cached::<L, P, S>(store, edges, tuning, cache, stats, record_link, outcome)
        }
    }
}

/// The planned batch loop: build the [`BatchPlan`] (dedup + radix
/// partition — no parent word touched), then drain each planned segment —
/// the block-local buckets in ascending order, the cross-bucket spillover
/// last — through the unplanned gather-wave loop, so every segment's loads
/// land in one small index range. Dropped duplicates report `false` after
/// the segments drain (their first occurrence has executed by then, which
/// is what justifies the verdict — see [`ingest`](crate::ingest)). Each
/// dropped edge still counts as one operation, so `OpStats::ops` keeps
/// meaning "edges ingested" across planned and unplanned runs.
fn batch_planned<L, P, S>(
    store: &P,
    edges: &[(usize, usize)],
    tuning: BatchTuning,
    mut cache: Option<&mut RootCache>,
    stats: &mut S,
    record_link: impl Fn(usize, usize),
    mut outcome: impl FnMut(usize, bool),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    let plan = BatchPlan::build(edges, tuning.planner.expect("routed here by Some planner"));
    stats.dup_edges_dropped(plan.dup_edges());
    stats.plan_buckets(plan.bucket_count());
    stats.spill_edges(plan.spill_edges());
    let inner = BatchTuning { planner: None, ..tuning };
    let mut links = 0;
    for (segment, orig) in plan.segments() {
        links += batch_unplanned::<L, P, _>(
            store,
            segment,
            inner,
            cache.as_deref_mut(),
            stats,
            &record_link,
            |local, linked| outcome(orig[local], linked),
        );
    }
    for &i in plan.dropped() {
        stats.op_start();
        outcome(i, false);
    }
    links
}

/// Nominates the link direction for two distinct observed roots: the
/// smaller-key root (under the batch's [`LinkPolicy`]) goes under the
/// other, the same choice `Unite` makes (index breaks ties). Unlike
/// `SameSet` (paper Algorithm 2), no validation re-read happens at
/// nomination: the filter does not claim the sets are distinct, it only
/// nominates a link for the link pass, whose CAS against the recorded word
/// is the validation (see the module docs).
#[inline]
fn nominate<L, P>(
    store: &P,
    ru: usize,
    wru: P::Word,
    rv: usize,
    wrv: P::Word,
) -> (usize, P::Word, usize)
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
{
    if L::key(store, ru, wru) < L::key(store, rv, wrv) {
        (ru, wru, rv)
    } else {
        (rv, wrv, ru)
    }
}

/// The link pass over one group's survivors: one seeded CAS per survivor
/// on the common path, the full retry loop on a lost race.
fn link_survivors<L, P, S>(
    store: &P,
    survivors: &[(usize, usize, P::Word, usize)],
    stats: &mut S,
    record_link: &impl Fn(usize, usize),
    outcome: &mut impl FnMut(usize, bool),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    let mut links = 0;
    for &(i, root, word, under) in survivors {
        let linked = if store.cas_from(root, word, under) {
            stats.link_ok();
            record_link(root, under);
            L::on_linked(store, word, under);
            true
        } else {
            stats.link_fail();
            stats.cas_retry();
            unite_from::<L, P, S>(store, root, under, stats, record_link)
        };
        links += linked as usize;
        outcome(i, linked);
    }
    links
}

/// The cache-less batch loop (the default path): gather waves straight
/// from the endpoints, unrolled resolves, link pass.
fn batch_plain<L, P, S>(
    store: &P,
    edges: &[(usize, usize)],
    tuning: BatchTuning,
    stats: &mut S,
    record_link: impl Fn(usize, usize),
    mut outcome: impl FnMut(usize, bool),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    let mut links = 0;
    let depth3 = tuning.wave_depth == WaveDepth::Three;
    let mut words: Vec<(P::Word, P::Word)> = Vec::with_capacity(GATHER);
    let mut parents: Vec<(P::Word, P::Word)> = Vec::with_capacity(GATHER);
    // Depth-2 (the default) never touches the third-level scratch; don't
    // make every call pay its allocation.
    let mut grands: Vec<(P::Word, P::Word)> =
        if depth3 { Vec::with_capacity(GATHER) } else { Vec::new() };
    let mut survivors: Vec<(usize, usize, P::Word, usize)> = Vec::with_capacity(GATHER);
    for (g, group) in edges.chunks(GATHER).enumerate() {
        let base = g * GATHER;
        // Gather wave 1: the group's first-level words.
        words.clear();
        words.extend(group.iter().map(|&(x, y)| (store.load_word(x), store.load_word(y))));
        stats.reads(2 * group.len());
        // Gather wave 2: the words of those words' parents (a root's
        // "parent" is itself — that re-load stays in L1). Still mutually
        // independent, so the second level of every walk overlaps too.
        parents.clear();
        parents.extend(words.iter().map(|&(wx, wy)| {
            (store.load_word(P::parent_of(wx)), store.load_word(P::parent_of(wy)))
        }));
        stats.reads(2 * group.len());
        // Gather wave 3 (depth three): the grandparents' words.
        if depth3 {
            grands.clear();
            grands.extend(parents.iter().map(|&(wpx, wpy)| {
                (store.load_word(P::parent_of(wpx)), store.load_word(P::parent_of(wpy)))
            }));
            stats.reads(2 * group.len());
        }
        // Filter: seeded root walks from the gathered words.
        survivors.clear();
        for (k, &(x, y)) in group.iter().enumerate() {
            stats.op_start();
            if x == y {
                outcome(base + k, false);
                continue;
            }
            let (wx, wy) = words[k];
            let (wpx, wpy) = parents[k];
            let (wppx, wppy) =
                if depth3 { (Some(grands[k].0), Some(grands[k].1)) } else { (None, None) };
            let (ru, wru) = resolve(store, x, wx, wpx, wppx, stats);
            let (rv, wrv) = resolve(store, y, wy, wpy, wppy, stats);
            if ru == rv {
                outcome(base + k, false);
                continue;
            }
            let (root, word, under) = nominate::<L, P>(store, ru, wru, rv, wrv);
            survivors.push((base + k, root, word, under));
        }
        links += link_survivors::<L, P, S>(store, &survivors, stats, &record_link, &mut outcome);
    }
    links
}

/// The cache-carrying batch loop: each endpoint's wave-1 slot loads its
/// cached root's word when an entry exists (the validation load rides the
/// overlapped wave), resolutions are memoized, and the cache persists for
/// whatever scope the caller gave it (per-batch, per-thread session, ...).
fn batch_cached<L, P, S>(
    store: &P,
    edges: &[(usize, usize)],
    tuning: BatchTuning,
    cache: &mut RootCache,
    stats: &mut S,
    record_link: impl Fn(usize, usize),
    mut outcome: impl FnMut(usize, bool),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    let mut links = 0;
    let depth3 = tuning.wave_depth == WaveDepth::Three;
    // Per endpoint: the wave-1 gather target — `Some(root)` when seeded
    // from the cache, `None` for the endpoint itself (an entry can map an
    // element to itself, so an index alone could not encode "seeded").
    let mut targets: Vec<Option<usize>> = Vec::with_capacity(2 * GATHER);
    let mut w1: Vec<P::Word> = Vec::with_capacity(2 * GATHER);
    let mut w2: Vec<P::Word> = Vec::with_capacity(2 * GATHER);
    // Unused at depth 2: allocate nothing there.
    let mut w3: Vec<P::Word> = if depth3 { Vec::with_capacity(2 * GATHER) } else { Vec::new() };
    let mut survivors: Vec<(usize, usize, P::Word, usize)> = Vec::with_capacity(GATHER);
    for (g, group) in edges.chunks(GATHER).enumerate() {
        let base = g * GATHER;
        // Decide each endpoint's gather target: cached root or itself.
        targets.clear();
        for &(x, y) in group {
            targets.push(cache.get(x));
            targets.push(cache.get(y));
        }
        // Gather wave 1 (seeded): the endpoint's word, or the cached
        // root's word — its validation load rides the wave.
        w1.clear();
        w1.extend(group.iter().zip(targets.chunks_exact(2)).flat_map(|(&(x, y), t)| {
            [store.load_word(t[0].unwrap_or(x)), store.load_word(t[1].unwrap_or(y))]
        }));
        stats.reads(w1.len());
        // Gather waves 2 and 3 — for *unseeded* slots only: a seeded
        // slot's deeper words are never read (a validated hit uses just
        // w1, and the stale fallback restarts from the node), so loading
        // them would waste exactly the hot-endpoint loads the cache
        // exists to save and pad the read counters the A/B attributes
        // with. Seeded slots carry their w1 word down as a placeholder.
        let mut fresh = 0usize;
        w2.clear();
        w2.extend(w1.iter().zip(&targets).map(|(&w, t)| {
            if t.is_some() {
                w
            } else {
                fresh += 1;
                store.load_word(P::parent_of(w))
            }
        }));
        stats.reads(fresh);
        if depth3 {
            let mut fresh = 0usize;
            w3.clear();
            w3.extend(w2.iter().zip(&targets).map(|(&w, t)| {
                if t.is_some() {
                    w
                } else {
                    fresh += 1;
                    store.load_word(P::parent_of(w))
                }
            }));
            stats.reads(fresh);
        }
        // Filter: validate seeded slots, walk the rest, memoize results.
        survivors.clear();
        for (k, &(x, y)) in group.iter().enumerate() {
            stats.op_start();
            if x == y {
                outcome(base + k, false);
                continue;
            }
            let mut resolve_at = |j: usize, node: usize, stats: &mut S| match targets[j] {
                Some(r) => resolve_seeded(store, cache, node, r, w1[j], stats),
                None => {
                    let wpp = if depth3 { Some(w3[j]) } else { None };
                    let (root, word) = resolve(store, node, w1[j], w2[j], wpp, stats);
                    cache.insert(node, root);
                    (root, word)
                }
            };
            let (ru, wru) = resolve_at(2 * k, x, stats);
            let (rv, wrv) = resolve_at(2 * k + 1, y, stats);
            if ru == rv {
                outcome(base + k, false);
                continue;
            }
            let (root, word, under) = nominate::<L, P>(store, ru, wru, rv, wrv);
            survivors.push((base + k, root, word, under));
        }
        links += link_survivors::<L, P, S>(store, &survivors, stats, &record_link, &mut outcome);
    }
    links
}

/// Batched `unite` over `edges`, reporting each edge's outcome into
/// `outcome` — [`unite_batch_sink_tuned`] at the default tuning, with
/// **no** hot-root cache: on the bench box the intra-batch memoization is
/// a measured loss for the wave-fed filter (the gather waves already
/// preload the levels a hit would skip, so the probe's bookkeeping and
/// its 50/50-unpredictable validation branch buy nothing —
/// `BENCH_PR4.json` attributes it via the `cache_hits`/read counters,
/// echoing the PR 2 Algorithm-6 branch lesson). Callers whose workloads
/// re-hit endpoints across bursts opt in explicitly via
/// [`Dsu::cached`](crate::Dsu::cached) or
/// [`unite_batch_cached`](crate::ConcurrentUnionFind::unite_batch_cached).
/// Returns the number of successful links.
pub fn unite_batch_sink<L, P, S>(
    store: &P,
    edges: &[(usize, usize)],
    stats: &mut S,
    record_link: impl Fn(usize, usize),
    outcome: impl FnMut(usize, bool),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    unite_batch_sink_tuned::<L, P, S>(
        store,
        edges,
        BatchTuning::default(),
        None,
        stats,
        record_link,
        outcome,
    )
}

/// Batched `unite` over `edges`; returns the number of successful links.
/// See [`unite_batch_sink`] for the two-pass structure.
pub fn unite_batch<L, P, S>(
    store: &P,
    edges: &[(usize, usize)],
    stats: &mut S,
    record_link: impl Fn(usize, usize),
) -> usize
where
    L: LinkPolicy,
    P: ParentStore + ?Sized,
    S: StatsSink,
{
    unite_batch_sink::<L, P, S>(store, edges, stats, record_link, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find::TwoTrySplit;
    use crate::ops;
    use crate::order::RandomLink;
    use crate::store::{DsuStore, FlatStore, PackedStore};

    fn batch_on<P: ParentStore + DsuStore>(store: &P, edges: &[(usize, usize)]) -> usize {
        unite_batch::<RandomLink, _, _>(store, edges, &mut (), |_, _| {})
    }

    #[test]
    fn batch_links_and_filters_both_layouts() {
        let flat = FlatStore::with_seed(8, 11);
        assert_eq!(batch_on(&flat, &[(0, 1), (1, 2), (0, 2), (3, 3)]), 2);
        assert!(ops::same_set::<TwoTrySplit, _, _>(&flat, 0, 2, &mut ()));
        assert!(!ops::same_set::<TwoTrySplit, _, _>(&flat, 0, 3, &mut ()));
        let packed = PackedStore::with_seed(8, 11);
        assert_eq!(batch_on(&packed, &[(0, 1), (1, 2), (0, 2), (3, 3)]), 2);
        assert!(ops::same_set::<TwoTrySplit, _, _>(&packed, 0, 2, &mut ()));
    }

    #[test]
    fn duplicate_edges_in_one_batch_link_once() {
        let store = PackedStore::with_seed(4, 7);
        // Both duplicates survive the filter pass (no links happen during
        // it); the link pass CAS-succeeds once and falls back to a same-set
        // verdict for the second copy.
        assert_eq!(batch_on(&store, &[(0, 1), (0, 1), (1, 0)]), 1);
    }

    #[test]
    fn empty_and_self_loop_batches() {
        let store = PackedStore::with_seed(4, 1);
        assert_eq!(batch_on(&store, &[]), 0);
        assert_eq!(batch_on(&store, &[(2, 2), (0, 0)]), 0);
        assert_eq!(store.snapshot(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn outcomes_report_every_edge_exactly_once() {
        let store = FlatStore::with_seed(6, 3);
        let edges = [(0, 1), (1, 0), (2, 3), (4, 4), (3, 2), (0, 5)];
        let mut seen = vec![0u32; edges.len()];
        let mut bools = vec![false; edges.len()];
        let links = unite_batch_sink::<RandomLink, _, _>(
            &store,
            &edges,
            &mut (),
            |_, _| {},
            |i, linked| {
                seen[i] += 1;
                bools[i] = linked;
            },
        );
        assert!(seen.iter().all(|&c| c == 1), "each edge reported once: {seen:?}");
        assert_eq!(bools, vec![true, false, true, false, false, true]);
        assert_eq!(links, 3);
    }

    #[test]
    fn record_link_fires_per_successful_link() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let store = PackedStore::with_seed(16, 5);
        let count = AtomicUsize::new(0);
        let edges: Vec<(usize, usize)> = (0..15).map(|i| (i, i + 1)).collect();
        let links = unite_batch::<RandomLink, _, _>(&store, &edges, &mut (), |child, parent| {
            assert!(
                (DsuStore::id_of(&store, child), child) < (DsuStore::id_of(&store, parent), parent)
            );
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(links, 15);
        assert_eq!(count.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn stats_count_each_edge_as_one_op() {
        let store = FlatStore::with_seed(8, 2);
        let mut stats = crate::OpStats::default();
        unite_batch::<RandomLink, _, _>(&store, &[(0, 1), (0, 1), (2, 2)], &mut stats, |_, _| {});
        assert_eq!(stats.ops, 3);
        assert_eq!(stats.links_ok, 1);
    }

    #[test]
    fn batches_larger_than_gather_wave() {
        // A path over many gather waves, one edge per hop: every wave
        // boundary must carry the partial forest over.
        let n = 40 * GATHER + 1;
        let store = FlatStore::with_seed(n, 9);
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        assert_eq!(batch_on(&store, &edges), n - 1);
        assert!(ops::same_set::<TwoTrySplit, _, _>(&store, 0, n - 1, &mut ()));
    }

    /// Every `(wave depth, cache on/off, planner on/off)` tuning
    /// combination produces the same link count and the same final
    /// partition — tuning is performance only. (Per-edge verdicts under
    /// the planner follow the plan order; the partition and the count are
    /// the order-invariant quantities this test pins.)
    #[test]
    fn tunings_are_semantically_invisible() {
        use crate::find::FindPolicy;
        let n = 300;
        let edges: Vec<(usize, usize)> =
            (0..1000).map(|i| ((i * 7919) % n, (i * 104729 + 5) % n)).collect();
        let mut snapshots = Vec::new();
        for depth in [WaveDepth::Two, WaveDepth::Three] {
            for cached in [false, true] {
                for planner in [None, Some(PlanTuning::new().bucket_elems_log2(6))] {
                    let store = PackedStore::with_seed(n, 4);
                    let mut cache = RootCache::with_capacity(32);
                    let mut tuning = BatchTuning::new().wave_depth(depth);
                    tuning.planner = planner;
                    let links = unite_batch_sink_tuned::<RandomLink, _, _>(
                        &store,
                        &edges,
                        tuning,
                        cached.then_some(&mut cache),
                        &mut (),
                        |_, _| {},
                        |_, _| {},
                    );
                    let labels: Vec<usize> =
                        (0..n).map(|i| TwoTrySplit::find(&store, i, &mut ()).0).collect();
                    snapshots.push((links, labels));
                }
            }
        }
        for s in &snapshots[1..] {
            assert_eq!(s.0, snapshots[0].0, "link counts diverged across tunings");
            assert_eq!(s.1, snapshots[0].1, "partitions diverged across tunings");
        }
    }

    /// The planned loop reports every edge exactly once — bucketed,
    /// spilled, and dropped-duplicate edges alike — and dropped
    /// duplicates report `false`.
    #[test]
    fn planned_outcomes_cover_every_edge_once() {
        let store = PackedStore::with_seed(64, 3);
        // Blocks of 8: (0,1)/(1,2) in block 0, (40,41) in block 5,
        // (3, 60) spills, (1,0) and (41,40) are duplicates.
        let edges = [(0, 1), (1, 0), (40, 41), (3, 60), (41, 40), (1, 2), (9, 9)];
        let mut stats = crate::OpStats::default();
        let mut seen = vec![0u32; edges.len()];
        let mut verdicts = vec![false; edges.len()];
        let links = unite_batch_sink_tuned::<RandomLink, _, _>(
            &store,
            &edges,
            BatchTuning::new().planned(PlanTuning::new().bucket_elems_log2(3)),
            None,
            &mut stats,
            |_, _| {},
            |i, linked| {
                seen[i] += 1;
                verdicts[i] = linked;
            },
        );
        assert!(seen.iter().all(|&c| c == 1), "each edge reported once: {seen:?}");
        assert_eq!(links, 4);
        assert_eq!(verdicts, vec![true, false, true, true, false, true, false]);
        assert_eq!(stats.ops, edges.len() as u64);
        assert_eq!(stats.dup_edges_dropped, 2);
        assert_eq!(stats.spill_edges, 1);
        // Blocks 0 (with the self-loop's block 1) and 5 — self-loop (9,9)
        // lands in block 1, so three non-empty buckets.
        assert_eq!(stats.bucket_count, 3);
    }

    /// The intra-batch cache actually fires on hot-endpoint batches (and
    /// goes stale when the hot root is demoted by the batch's own links);
    /// the default path, which opts out of the cache, must not touch it.
    #[test]
    fn hot_endpoints_hit_the_cache_across_waves() {
        let n = 4 * GATHER;
        let store = PackedStore::with_seed(n, 77);
        // Every edge shares endpoint 0: later waves should validate 0's
        // cached root instead of re-walking.
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        let mut stats = crate::OpStats::default();
        let mut cache = RootCache::default();
        let links = unite_batch_sink_tuned::<RandomLink, _, _>(
            &store,
            &edges,
            BatchTuning::default(),
            Some(&mut cache),
            &mut stats,
            |_, _| {},
            |_, _| {},
        );
        assert_eq!(links, n - 1);
        assert!(stats.cache_hits > 0, "hot endpoint never hit: {stats:?}");
        // Links demote roots between waves, so some validations must have
        // gone stale too (0's root changes as its set grows).
        assert!(stats.cache_hits + stats.cache_stale >= (n - GATHER) as u64 / 2);

        // The cache-less default path reports no cache traffic at all.
        let store = PackedStore::with_seed(n, 77);
        let mut plain = crate::OpStats::default();
        unite_batch::<RandomLink, _, _>(&store, &edges, &mut plain, |_, _| {});
        assert_eq!(plain.cache_hits + plain.cache_stale, 0);
    }
}
