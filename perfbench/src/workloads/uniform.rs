//! `uniform-ops`: the paper's own experiment. Half `unite`, half
//! `same_set`, uniform endpoints over a universe whose packed store is
//! more than twice the last-level cache; each worker owns a contiguous
//! shard and issues one call at a time.
//!
//! Building a structure this size takes seconds, so one structure serves a
//! whole cycle: its ops run in `ROUNDS` rounds separated by barriers, and
//! the rounds alternate between the two configurations. Each round is one
//! timed sample; both configurations see the forest at every stage. Each
//! round is checked right after it ran (untimed), which also spreads the
//! timed rounds over the cycle instead of bunching them at its start.

use concurrent_dsu::{DefaultStore, Dsu, OpStats, ParentStore};

use super::{
    run_workers, time_chase, timed_setup, BurstClock, Layers, Rep, Sample, Workload, BURST,
    SAMPLE_EVERY,
};
use crate::check::{check_round, final_gate, HistOp, Oracle, Tally};
use crate::rng::Rng;
use crate::stats::rss_mib;
use crate::trace::{Recorder, Tracer, ROOT};

const UNITE: u64 = 1 << 63;
const ROUNDS: usize = 16;

pub struct Uniform {
    n: usize,
    /// `unite flag << 63 | x << 32 | y`.
    ops: Vec<u64>,
}

fn decode(op: u64) -> (bool, usize, usize) {
    (op & UNITE != 0, (op >> 32 & 0x7fff_ffff) as usize, (op & 0xffff_ffff) as usize)
}

impl Uniform {
    pub fn generate(seed: u64) -> Self {
        let (n, m) = (1 << 25, 1 << 24);
        let mut rng = Rng::new(seed);
        let ops = (0..m)
            .map(|_| {
                let unite = if rng.next_u64() & 1 == 1 { UNITE } else { 0 };
                unite | (rng.below(n) as u64) << 32 | rng.below(n) as u64
            })
            .collect();
        Uniform { n, ops }
    }

    /// The ops worker `w` of `p` owns in round `r`.
    fn shard(&self, r: usize, p: usize, w: usize) -> std::ops::Range<usize> {
        let len = self.ops.len() / ROUNDS;
        (r * len + w * len / p)..(r * len + (w + 1) * len / p)
    }
}

/// One worker's share of a round.
#[derive(Default)]
struct Part {
    results: Vec<bool>,
    bursts_ms: Vec<f64>,
    stats: OpStats,
    unite_calls: u64,
    unite_links: u64,
}

impl Workload for Uniform {
    fn cycle(&self, configs: [(usize, bool); 2]) -> [Rep; 2] {
        let (dsu, setup_s) = timed_setup(|| -> Dsu { Dsu::new(self.n) });
        let tracer = Tracer::default();
        let mut reps: [Rep; 2] = Default::default();
        let mut results = vec![false; self.ops.len()];
        let mut oracle = None;
        let mut tally = Tally::default();
        for r in 0..ROUNDS {
            let (p, traced) = configs[r % 2];
            let (parts, elapsed) = run_workers(p, |w| {
                let range = self.shard(r, p, w);
                let base = range.start;
                let ops = &self.ops[range];
                let mut part = Part { results: Vec::with_capacity(ops.len()), ..Part::default() };
                let mut rec = tracer.worker(w as u32);
                for (c, chunk) in ops.chunks(BURST).enumerate() {
                    let t = BurstClock::start();
                    for (j, &op) in chunk.iter().enumerate() {
                        let (unite, x, y) = decode(op);
                        let r = if traced {
                            traced_op(
                                &dsu,
                                (unite, x, y),
                                (base + c * BURST + j) as u64,
                                &mut rec,
                                &mut part,
                            )
                        } else if unite {
                            dsu.unite(x, y)
                        } else {
                            dsu.same_set(x, y)
                        };
                        part.results.push(r);
                    }
                    part.bursts_ms.push(t.ms());
                }
                part
            });
            let rep = &mut reps[r % 2];
            let mut sample = Sample {
                ops: (self.ops.len() / ROUNDS) as u64,
                time: elapsed,
                bursts_ms: Vec::new(),
            };
            for (w, part) in parts.into_iter().enumerate() {
                results[self.shard(r, p, w)].copy_from_slice(&part.results);
                sample.bursts_ms.extend(part.bursts_ms);
                if traced {
                    let l = rep.layers.get_or_insert_with(Layers::default);
                    l.all.merge(&part.stats);
                    l.unite_calls += part.unite_calls;
                    l.unite_links += part.unite_links;
                }
            }
            rep.samples.push(sample);
            // The structure is fully allocated at set-up; read its footprint
            // before the oracle exists.
            let oracle = oracle.get_or_insert_with(|| {
                let rss = rss_mib();
                reps.iter_mut().for_each(|rep| rep.rss_mib = rss);
                Oracle::new(self.n)
            });
            let history = |w| {
                let range = self.shard(r, p, w);
                self.ops[range.clone()].iter().zip(&results[range]).map(|(&op, &r)| {
                    let (unite, x, y) = decode(op);
                    HistOp { unite, x: x as u32, y: y as u32, result: Some(r) }
                })
            };
            check_round(oracle, p, history, &mut tally);
        }
        if let Some(i) = configs.iter().position(|&(_, traced)| traced) {
            let l = reps[i].layers.get_or_insert_with(Layers::default);
            let n = self.n as u64;
            let store = dsu.store();
            l.probes.insert(
                "store.load_ns",
                time_chase(1 << 20, 1, |x| {
                    DefaultStore::parent_of(store.load_word((x % n) as usize)) as u64
                }),
            );
            l.probes
                .insert("find.ns", time_chase(1 << 20, 2, |x| dsu.find((x % n) as usize) as u64));
            l.spans = tracer.into_spans();
        }

        let links = results.iter().zip(&self.ops).filter(|&(&r, &op)| r && op & UNITE != 0).count();
        let sets = dsu.set_count();
        let labels = dsu.labels_snapshot();
        drop(dsu);
        let oracle = oracle.as_mut().expect("a cycle runs at least one round");
        final_gate(oracle, &labels, sets, links, &mut tally);
        reps[0].setup_s = setup_s;
        reps[0].tally = tally;
        reps
    }

    /// A cycle times only about 2 s of ops among its set-up and checks, so
    /// a run needs more of them to sample the host's speed fairly.
    fn min_cycles(&self) -> usize {
        3
    }
}

/// One op in a traced round: counted through the `_with` twins, and
/// wrapped in a span for 1 op in `SAMPLE_EVERY`.
fn traced_op(
    dsu: &Dsu,
    (unite, x, y): (bool, usize, usize),
    id: u64,
    rec: &mut Recorder,
    part: &mut Part,
) -> bool {
    let st = &mut part.stats;
    let mut call = |_: &mut Recorder, _: u64| {
        if unite {
            dsu.unite_with(x, y, st)
        } else {
            dsu.same_set_with(x, y, st)
        }
    };
    let name = if unite { "ops.unite" } else { "ops.same_set" };
    let r = if id.is_multiple_of(SAMPLE_EVERY as u64) {
        rec.weighted(name, ROOT, id, SAMPLE_EVERY as u32, call)
    } else {
        call(rec, 0)
    };
    part.unite_calls += unite as u64;
    part.unite_links += (unite && r) as u64;
    r
}
