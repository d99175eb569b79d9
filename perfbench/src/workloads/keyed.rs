//! `keyed-stream`: the end-to-end entity-resolution stream on
//! `KeyedDsu<String>`. The trace is cut into bursts of `BURST` ops; a
//! worker claims the next burst from a shared cursor and issues one
//! `merge_keys_batch` for its merges, then one `same_set_batch` for its
//! queries.

use std::sync::atomic::{AtomicUsize, Ordering};

use concurrent_dsu::bulk::runtime_default_tuning;
use concurrent_dsu::{DefaultGrowableStore, KeyedDsu, OpStats, ParentStore};
use dsu_workloads::{KeyedOp, KeyedSpec};

use super::{
    run_workers, time_chase, timed_setup, BurstClock, Layers, Rep, Sample, Workload, BURST,
};
use crate::check::{check_round, final_gate, HistOp, Oracle, Tally};
use crate::stats::rss_mib;
use crate::trace::{Recorder, Tracer, ROOT};

type Pairs = Vec<(String, String)>;

#[derive(Default)]
struct Burst {
    merges: Pairs,
    queries: Pairs,
    /// The same ops over dense key indices, for the checker.
    merge_idx: Vec<(u32, u32)>,
    query_idx: Vec<(u32, u32)>,
}

pub struct Keyed {
    bursts: Vec<Burst>,
    /// Key string of each dense key index.
    keys: Vec<String>,
    ops: u64,
}

impl Keyed {
    pub fn generate(seed: u64) -> Self {
        // 3 x 2^18 ops insert about 5.4e5 keys. Every seed then makes the
        // id table grow the same number of segments; at 2^20 ops half of
        // the seeds grow one more (80 MiB), which splits the footprint and
        // the speed of runs into two levels.
        let m = 3 << 18;
        let trace = KeyedSpec::new(m)
            .merge_fraction(0.7)
            .fresh_fraction(0.4)
            .revisit_window(4096)
            .generate(seed);
        // The key strings are moved into the bursts, with one copy kept per
        // distinct key, so little garbage is left for the allocator to reuse.
        let strings = trace.into_strings("user", seed).ops;
        let mut keys = vec![String::new(); trace.distinct_keys];
        let mut bursts: Vec<Burst> = Vec::with_capacity(m.div_ceil(BURST));
        for (i, (idx, op)) in trace.ops.iter().zip(strings).enumerate() {
            if i % BURST == 0 {
                bursts.push(Burst::default());
            }
            let b = bursts.last_mut().expect("a burst was just pushed");
            let (&a, &c) = idx.keys();
            let pair = (a as u32, c as u32);
            let (sa, sc) = match op {
                KeyedOp::Merge(sa, sc) => {
                    b.merge_idx.push(pair);
                    b.merges.push((sa, sc));
                    b.merges.last().expect("just pushed")
                }
                KeyedOp::SameSet(sa, sc) => {
                    b.query_idx.push(pair);
                    b.queries.push((sa, sc));
                    b.queries.last().expect("just pushed")
                }
            };
            for (k, s) in [(a, sa), (c, sc)] {
                if keys[k].is_empty() {
                    keys[k] = s.clone();
                }
            }
        }
        Keyed { bursts, keys, ops: m as u64 }
    }
}

/// One worker's outcome: the bursts it ran, in order, with their verdicts.
#[derive(Default)]
struct Part {
    done: Vec<(usize, Vec<bool>)>,
    links: usize,
    bursts_ms: Vec<f64>,
    layers: Layers,
}

/// One burst through the public entry points.
fn burst(k: &KeyedDsu<String>, b: &Burst) -> (usize, Vec<bool>) {
    (k.merge_keys_batch(&b.merges), k.same_set_batch(&b.queries))
}

/// One burst in the traced run: the same work as [`burst`], spelled out
/// through the public twins these entry points are made of, so key
/// resolution (`insert`/`get`) and the union-find calls on the resolved
/// ids get spans of their own.
fn traced_burst(
    k: &KeyedDsu<String>,
    b: &Burst,
    id: u64,
    rec: &mut Recorder,
    l: &mut Layers,
) -> (usize, Vec<bool>) {
    rec.span("burst", ROOT, id, |rec, root| {
        let mut st = OpStats::default();
        let edges: Vec<(usize, usize)> = rec.span("keyed.resolve", root, id, |_, _| {
            b.merges
                .iter()
                .map(|(x, y)| (k.insert_with(x, &mut st), k.insert_with(y, &mut st)))
                .collect()
        });
        l.all.merge(&st);
        let mut bulk = OpStats::default();
        let linked = rec.span("keyed.dsu", root, id, |rec, kid| {
            rec.span("bulk.unite_batch", kid, id, |_, _| {
                k.dsu().unite_batch_tuned_with(&edges, runtime_default_tuning(), None, &mut bulk)
            })
        });
        l.add_bulk(&bulk, edges.len() as u64, linked as u64);
        let mut st = OpStats::default();
        let ids: Vec<_> = rec.span("keyed.resolve", root, id, |_, _| {
            b.queries
                .iter()
                .map(|(x, y)| (k.get_with(x, &mut st), k.get_with(y, &mut st)))
                .collect()
        });
        let verdicts = rec.span("keyed.dsu", root, id, |_, _| {
            ids.iter()
                .zip(&b.queries)
                .map(|(ids, (x, y))| match *ids {
                    (Some(ix), Some(iy)) => k.dsu().same_set_with(ix, iy, &mut st),
                    _ => x == y,
                })
                .collect()
        });
        l.all.merge(&st);
        l.keys_resolved += 2 * (b.merges.len() + b.queries.len()) as u64;
        (linked, verdicts)
    })
}

impl Workload for Keyed {
    fn cycle(&self, configs: [(usize, bool); 2]) -> [Rep; 2] {
        configs.map(|(p, traced)| self.rep(p, traced))
    }
}

impl Keyed {
    fn rep(&self, p: usize, traced: bool) -> Rep {
        let (k, setup_s) = timed_setup(KeyedDsu::<String>::new);
        let tracer = Tracer::default();
        let cursor = AtomicUsize::new(0);
        let (mut parts, elapsed) = run_workers(p, |w| {
            let mut part = Part::default();
            let mut rec = tracer.worker(w as u32);
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(b) = self.bursts.get(i) else { break };
                let t = BurstClock::start();
                let (linked, verdicts) = if traced {
                    traced_burst(&k, b, i as u64, &mut rec, &mut part.layers)
                } else {
                    burst(&k, b)
                };
                part.bursts_ms.push(t.ms());
                part.links += linked;
                part.done.push((i, verdicts));
            }
            part
        });
        let rss = rss_mib();

        let mut layers = None;
        if traced {
            let mut l = Layers::default();
            for part in &mut parts {
                let p = std::mem::take(&mut part.layers);
                l.all.merge(&p.all);
                l.add_bulk(&p.bulk, p.bulk_edges, p.bulk_links);
                l.keys_resolved += p.keys_resolved;
            }
            let dsu = k.dsu();
            let n = dsu.len() as u64;
            let store = dsu.store();
            l.probes.insert(
                "store.load_ns",
                time_chase(1 << 20, 1, |x| {
                    DefaultGrowableStore::parent_of(store.load_word((x % n) as usize)) as u64
                }),
            );
            l.probes.insert(
                "growable.find_ns",
                time_chase(1 << 20, 2, |x| dsu.find((x % n) as usize) as u64),
            );
            l.spans = tracer.into_spans();
            layers = Some(l);
        }

        // Final partition over dense key indices: each inserted key is
        // represented by the first key found at its root; keys that were
        // never inserted are singletons.
        let dsu = k.dsu();
        let mut root_key = vec![u32::MAX; dsu.len()];
        let rep: Vec<usize> = (0..self.keys.len())
            .map(|i| match k.get(&self.keys[i]) {
                Some(id) => {
                    let r = dsu.find(id);
                    if root_key[r] == u32::MAX {
                        root_key[r] = i as u32;
                    }
                    root_key[r] as usize
                }
                None => i,
            })
            .collect();
        let sets = k.set_count() + (self.keys.len() - k.key_count());
        let links: usize = parts.iter().map(|p| p.links).sum();
        let mut oracle = Oracle::new(self.keys.len());
        let mut tally = Tally::default();
        check_round(
            &mut oracle,
            p,
            |w| {
                parts[w].done.iter().flat_map(|(i, verdicts)| {
                    let b = &self.bursts[*i];
                    let merges = b.merge_idx.iter().map(|&(x, y)| HistOp {
                        unite: true,
                        x,
                        y,
                        result: None,
                    });
                    let queries = b.query_idx.iter().zip(verdicts).map(|(&(x, y), &r)| HistOp {
                        unite: false,
                        x,
                        y,
                        result: Some(r),
                    });
                    merges.chain(queries)
                })
            },
            &mut tally,
        );
        final_gate(&mut oracle, &rep, sets, links, &mut tally);
        Rep {
            setup_s,
            samples: vec![Sample {
                ops: self.ops,
                time: elapsed,
                bursts_ms: parts.into_iter().flat_map(|p| p.bursts_ms).collect(),
            }],
            rss_mib: rss,
            tally,
            layers,
        }
    }
}
