//! `versioned-checkpoints`: `VersionedDsu` ingesting Zipf(1.0) bursts at a
//! checkpoint cadence. The run is cut into intervals of `INTERVAL` bursts.
//! At each interval's start (a quiescent point) it takes a `snapshot()`
//! and keeps the last `RETAINED`; workers then claim the interval's bursts
//! from a shared cursor, ingest each through `&self`, and ask one
//! `same_set_at` per burst against the oldest retained snapshot. Each
//! interval ends with one `try_unite_batch` whose validator rejects one
//! interval in four.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use concurrent_dsu::bulk::runtime_default_tuning;
use concurrent_dsu::{BatchOutcome, EpochStore, OpStats, ParentStore, VersionedDsu};
use dsu_workloads::{EdgeBatchSpec, ElementDist};

use super::{
    run_workers, time_chase, timed_setup, BurstClock, Elapsed, Layers, Rep, Sample, Stopwatch,
    Workload, BURST,
};
use crate::check::{final_gate, Oracle, Tally};
use crate::stats::rss_mib;
use crate::trace::{Recorder, Tracer, ROOT};

/// Bursts between snapshots.
const INTERVAL: usize = 64;
/// Snapshots retained.
const RETAINED: usize = 4;

type Edges = Vec<(usize, usize)>;

pub struct Versioned {
    n: usize,
    /// `INTERVAL` bursts per interval.
    bursts: Vec<Edges>,
    /// One speculative batch per interval.
    tries: Vec<Edges>,
    /// One time-travel query per burst.
    queries: Vec<(usize, usize)>,
}

impl Versioned {
    pub fn generate(seed: u64) -> Self {
        // 2^17 elements: the 1 MiB store fits the per-core L2. A store that
        // needs the shared L3 runs as fast as the host's other tenants leave
        // room for it (see the README's noise section).
        let (n, intervals) = (1 << 17, 16);
        let mut all = EdgeBatchSpec::new(n, intervals * (INTERVAL + 1), BURST)
            .element_dist(ElementDist::Zipf(1.0))
            .generate(seed)
            .batches;
        let tries = all.split_off(intervals * INTERVAL);
        // Each query pairs the burst's first endpoint with its last: hubs and
        // tail vertices alike.
        let queries = all.iter().map(|b| (b[0].0, b[b.len() - 1].1)).collect();
        Versioned { n, bursts: all, tries, queries }
    }

    fn rejects(interval: usize) -> bool {
        interval % 4 == 3
    }
}

/// One worker's share of an interval.
#[derive(Default)]
struct Part {
    /// `(burst index within the interval, latency)`.
    bursts_ms: Vec<(usize, f64)>,
    /// `(burst index, same_set_at answer)`.
    answers: Vec<(usize, bool)>,
    links: usize,
    layers: Layers,
    time_travel_ns: f64,
}

/// Per-interval record the checker needs.
struct IntervalLog {
    /// Interval index of the snapshot this interval's queries asked.
    target: usize,
    /// `(burst index, same_set_at answer)` for every burst.
    answers: Vec<(usize, bool)>,
    committed: bool,
}

impl Workload for Versioned {
    fn cycle(&self, configs: [(usize, bool); 2]) -> [Rep; 2] {
        configs.map(|(p, traced)| self.rep(p, traced))
    }
}

impl Versioned {
    fn rep(&self, p: usize, traced: bool) -> Rep {
        let (mut v, setup_s) =
            timed_setup(|| -> VersionedDsu { VersionedDsu::with_initial(self.n) });
        let tracer = Tracer::default();
        let mut rec = tracer.worker(u32::MAX);
        let mut l = Layers::default();
        let mut tally = Tally::default();
        let (mut time, mut links) = (Elapsed::default(), 0usize);
        let mut bursts_ms = Vec::with_capacity(self.bursts.len());
        let (mut snapshot_ns, mut rollback_ns, mut post_snapshot_ms) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut time_travel_ns = 0.0;
        let mut retained = Vec::new();
        let mut logs = Vec::new();
        for (i, (bursts, try_edges)) in self.bursts.chunks(INTERVAL).zip(&self.tries).enumerate() {
            // Quiescent point: checkpoint, keep the newest RETAINED.
            let watch = Stopwatch::start();
            let t = Instant::now();
            let snap = if traced {
                rec.span("epoch.snapshot", ROOT, i as u64, |_, _| v.snapshot())
            } else {
                v.snapshot()
            };
            snapshot_ns.push(t.elapsed().as_nanos() as f64);
            retained.push((i, snap));
            if retained.len() > RETAINED {
                v.drop_snapshot(retained.remove(0).1);
            }
            time += watch.stop(1);
            let (target, oldest) = retained[0];

            let cursor = AtomicUsize::new(0);
            let vr = &v;
            let (parts, elapsed) = run_workers(p, |w| {
                let mut rec = tracer.worker(w as u32);
                let mut part = Part::default();
                loop {
                    let j = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(burst) = bursts.get(j) else { break };
                    let b = i * INTERVAL + j;
                    let (x, y) = self.queries[b];
                    let t = BurstClock::start();
                    let (linked, answer) = if traced {
                        traced_burst(vr, burst, b as u64, oldest, (x, y), &mut rec, &mut part)
                    } else {
                        (vr.unite_batch(burst), vr.same_set_at(oldest, x, y))
                    };
                    part.bursts_ms.push((j, t.ms()));
                    part.answers.push((b, answer));
                    part.links += linked;
                }
                part
            });
            time += elapsed;
            let mut answers = Vec::with_capacity(INTERVAL);
            for part in parts {
                for (j, ms) in part.bursts_ms {
                    bursts_ms.push(ms);
                    if j == 0 {
                        post_snapshot_ms.push(ms);
                    }
                }
                answers.extend(part.answers);
                links += part.links;
                l.add_bulk(&part.layers.bulk, part.layers.bulk_edges, part.layers.bulk_links);
                time_travel_ns += part.time_travel_ns;
            }

            // Quiescent point: the speculative batch. A rejected batch must
            // leave every parent word bit-identical.
            let reject = Self::rejects(i);
            let store: &EpochStore = v.dsu().store();
            let before: Vec<_> = if reject {
                (0..v.len()).map(|e| store.load_word(e)).collect()
            } else {
                Vec::new()
            };
            let watch = Stopwatch::start();
            let outcome = if traced {
                traced_try(&mut v, try_edges, reject, i as u64, &mut rec, &mut l, &mut rollback_ns)
            } else {
                v.try_unite_batch(try_edges, |_, _| !reject)
            };
            time += watch.stop(1);
            match outcome {
                BatchOutcome::Committed { linked } => links += linked,
                BatchOutcome::RolledBack => {
                    let store: &EpochStore = v.dsu().store();
                    let same = before.len() == v.len()
                        && (0..v.len()).all(|e| store.load_word(e) == before[e]);
                    if !same {
                        tally.fail(try_edges.len() as u64, || {
                            format!("interval {i}: rollback is not bit-identical")
                        });
                    }
                }
            }
            if outcome.is_committed() == reject {
                tally.fail(try_edges.len() as u64, || {
                    format!("interval {i}: validator verdict ignored")
                });
            }
            logs.push(IntervalLog { target, answers, committed: outcome.is_committed() });
        }
        let rss = rss_mib();

        // Epoch counters are lifetime totals read at quiescence.
        let layers = traced.then(|| {
            v.report_into(&mut l.all);
            l.probes.insert("epoch.time_travel_ns", time_travel_ns / self.queries.len() as f64);
            l.probes.insert("epoch.snapshot_ns", crate::stats::median(&snapshot_ns));
            l.probes.insert("epoch.rollback_ns", crate::stats::median(&rollback_ns));
            l.probes
                .insert("epoch.post_snapshot_batch_ms", crate::stats::median(&post_snapshot_ms));
            let dsu = v.dsu();
            let n = dsu.len() as u64;
            let store: &EpochStore = dsu.store();
            l.probes.insert(
                "store.load_ns",
                time_chase(1 << 20, 1, |x| {
                    EpochStore::parent_of(store.load_word((x % n) as usize)) as u64
                }),
            );
            l.probes.insert(
                "growable.find_ns",
                time_chase(1 << 20, 2, |x| dsu.find((x % n) as usize) as u64),
            );
            l
        });
        drop::<Recorder>(rec);

        self.check(&v, &logs, links, &mut tally);
        let ops =
            self.bursts.iter().chain(&self.tries).map(Vec::len).sum::<usize>() + self.queries.len();
        Rep {
            setup_s,
            samples: vec![Sample { ops: ops as u64, time, bursts_ms }],
            rss_mib: rss,
            tally,
            layers: layers.map(|l| Layers { spans: tracer.into_spans(), ..l }),
        }
    }
}

impl Versioned {
    /// Replays the committed edges interval by interval: each snapshot's
    /// time-travel answers must equal the oracle at that snapshot exactly,
    /// and the final partition must equal the oracle's.
    fn check(&self, v: &VersionedDsu, logs: &[IntervalLog], links: usize, tally: &mut Tally) {
        let edges: usize = self.bursts.iter().chain(&self.tries).map(Vec::len).sum();
        tally.attempted += (edges + self.queries.len()) as u64;
        let mut o = Oracle::new(self.n);
        for (s, bursts) in self.bursts.chunks(INTERVAL).enumerate() {
            // The oracle now holds exactly what snapshot `s` froze.
            for log in logs.iter().filter(|l| l.target == s) {
                for &(b, answer) in &log.answers {
                    let (x, y) = self.queries[b];
                    let truth = o.same_set(x, y);
                    if answer != truth {
                        tally.fail(1, || {
                            format!(
                                "same_set_at(snapshot {s}, {x}, {y}) = {answer}, oracle {truth}"
                            )
                        });
                    }
                }
            }
            for &(x, y) in bursts.iter().flatten() {
                o.unite(x, y);
            }
            if logs[s].committed {
                for &(x, y) in &self.tries[s] {
                    o.unite(x, y);
                }
            }
        }
        let labels = v.labels_snapshot();
        final_gate(&mut o, &labels, v.set_count(), links, tally);
    }
}

/// One burst in the traced run: the same calls as the untraced run's
/// `unite_batch` and `same_set_at`, through the counted twin, in spans.
fn traced_burst(
    v: &VersionedDsu,
    burst: &Edges,
    id: u64,
    at: concurrent_dsu::Epoch,
    (x, y): (usize, usize),
    rec: &mut Recorder,
    part: &mut Part,
) -> (usize, bool) {
    rec.span("burst", ROOT, id, |rec, root| {
        let mut st = OpStats::default();
        let linked = rec.span("bulk.unite_batch", root, id, |_, _| {
            v.dsu().unite_batch_tuned_with(burst, runtime_default_tuning(), None, &mut st)
        });
        part.layers.add_bulk(&st, burst.len() as u64, linked as u64);
        let t = Instant::now();
        let answer = rec.span("epoch.time_travel", root, id, |_, _| v.same_set_at(at, x, y));
        part.time_travel_ns += t.elapsed().as_nanos() as f64;
        (linked, answer)
    })
}

/// The traced run's speculative batch: `try_unite_batch`'s own steps
/// (snapshot, batch ingest, validate, rollback or commit, drop the
/// snapshot) through the public twins, so the rollback gets its own span.
fn traced_try(
    v: &mut VersionedDsu,
    edges: &Edges,
    reject: bool,
    id: u64,
    rec: &mut Recorder,
    l: &mut Layers,
    rollback_ns: &mut Vec<f64>,
) -> BatchOutcome {
    rec.span("epoch.try_batch", ROOT, id, |rec, root| {
        let at = rec.span("epoch.snapshot", root, id, |_, _| v.snapshot());
        let mut bulk = OpStats::default();
        let linked = rec.span("bulk.unite_batch", root, id, |_, _| {
            v.dsu().unite_batch_tuned_with(edges, runtime_default_tuning(), None, &mut bulk)
        });
        l.add_bulk(&bulk, edges.len() as u64, linked as u64);
        let outcome = if reject {
            let t = Instant::now();
            rec.span("epoch.rollback", root, id, |_, _| v.rollback(at));
            rollback_ns.push(t.elapsed().as_nanos() as f64);
            BatchOutcome::RolledBack
        } else {
            BatchOutcome::Committed { linked }
        };
        v.drop_snapshot(at);
        outcome
    })
}
