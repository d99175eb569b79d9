//! `rmat-components`: connected components of power-law R-MAT graphs,
//! run as `Dsu::new`, then `components::unite_edges_parallel` (the default
//! chunked `unite_batch` path), then `labels_snapshot`. Writes only, no
//! queries; the store fits the per-core L2.
//!
//! A run generates `GRAPHS` graphs from its seed and gives each cycle the
//! next one, so its figures describe the graph family, not one draw of it:
//! at this size two draws can differ by a fifth in speed.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use concurrent_dsu::{ConcurrentUnionFind, DefaultStore, Dsu, OpStats, ParentStore};
use dsu_graph::components::{sequential_components, unite_edges_parallel};
use dsu_graph::gen::rmat_standard;
use dsu_graph::EdgeList;

use super::{time_chase, timed_setup, BurstClock, Layers, Rep, Sample, Stopwatch, Workload};
use crate::check::Tally;
use crate::rng::splitmix;
use crate::stats::rss_mib;
use crate::trace::{Recorder, Span, Tracer, ROOT};

/// log2 of the vertex count: an 8-byte-per-vertex store of 1 MiB.
const SCALE: u32 = 17;
/// Edges drawn per graph (four per vertex).
const EDGES: usize = 1 << 19;
/// Graphs per run.
const GRAPHS: usize = 8;

pub struct Rmat {
    graphs: Vec<Graph>,
    /// Cycles run so far; cycle `c` uses graph `c % GRAPHS`.
    cycles: AtomicUsize,
}

struct Graph {
    edges: EdgeList,
    /// `sequential_components` of the graph: the oracle's labels.
    truth: Vec<usize>,
    truth_sets: usize,
}

impl Rmat {
    pub fn generate(seed: u64) -> Self {
        let graphs = (0..GRAPHS as u64)
            .map(|g| {
                let edges = rmat_standard(SCALE, EDGES, splitmix(seed ^ (g << 56)));
                let truth = sequential_components(&edges);
                let truth_sets = (0..truth.len()).filter(|&i| truth[i] == i).count();
                Graph { edges, truth, truth_sets }
            })
            .collect();
        Rmat { graphs, cycles: AtomicUsize::new(0) }
    }
}

thread_local! {
    static WORKER: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// The structure handed to `unite_edges_parallel`: a `Dsu` whose
/// `unite_batch` calls (one per claimed chunk) are timed and, in the
/// traced run, counted and wrapped in spans.
struct Timed<'a> {
    dsu: Dsu,
    traced: bool,
    tracer: &'a Tracer,
    /// The `components.ingest` span the chunk spans belong to.
    parent: AtomicU64,
    chunks: AtomicU64,
    /// Per-op calls (`unite`, `same_set`, `find`) the library made through
    /// the trait; `unite_edges_parallel` is predicted to make none.
    per_op_calls: AtomicU64,
    workers: AtomicU32,
    links: AtomicUsize,
    bursts_ms: Mutex<Vec<f64>>,
    stats: Mutex<(OpStats, u64)>,
}

impl ConcurrentUnionFind for Timed<'_> {
    fn len(&self) -> usize {
        self.dsu.len()
    }
    fn same_set(&self, x: usize, y: usize) -> bool {
        self.per_op_calls.fetch_add(1, Ordering::Relaxed);
        self.dsu.same_set(x, y)
    }
    fn unite(&self, x: usize, y: usize) -> bool {
        self.per_op_calls.fetch_add(1, Ordering::Relaxed);
        self.dsu.unite(x, y)
    }
    fn find(&self, x: usize) -> usize {
        self.per_op_calls.fetch_add(1, Ordering::Relaxed);
        self.dsu.find(x)
    }
    fn unite_batch(&self, edges: &[(usize, usize)]) -> usize {
        let t = BurstClock::start();
        let linked = if self.traced {
            let worker = WORKER.with(|w| {
                if w.get() == u32::MAX {
                    w.set(self.workers.fetch_add(1, Ordering::Relaxed));
                }
                w.get()
            });
            let chunk = self.chunks.fetch_add(1, Ordering::Relaxed);
            let parent = self.parent.load(Ordering::Relaxed);
            let mut st = OpStats::default();
            let mut rec = self.tracer.worker(worker);
            let linked = rec.span("bulk.unite_batch", parent, chunk, |_, _| {
                self.dsu.unite_batch_with(edges, &mut st)
            });
            let mut acc = self.stats.lock().expect("a worker panicked");
            acc.0.merge(&st);
            acc.1 += edges.len() as u64;
            linked
        } else {
            self.dsu.unite_batch(edges)
        };
        let ms = t.ms();
        self.bursts_ms.lock().expect("a worker panicked").push(ms);
        self.links.fetch_add(linked, Ordering::Relaxed);
        linked
    }
}

impl Workload for Rmat {
    fn cycle(&self, configs: [(usize, bool); 2]) -> [Rep; 2] {
        let g = &self.graphs[self.cycles.fetch_add(1, Ordering::Relaxed) % GRAPHS];
        configs.map(|(p, traced)| g.rep(p, traced))
    }
}

impl Graph {
    fn rep(&self, p: usize, traced: bool) -> Rep {
        let (dsu, setup_s) = timed_setup(|| -> Dsu { Dsu::new(self.edges.n()) });
        let tracer = Tracer::default();
        let timed = Timed {
            dsu,
            traced,
            tracer: &tracer,
            parent: AtomicU64::new(ROOT),
            chunks: AtomicU64::new(0),
            per_op_calls: AtomicU64::new(0),
            workers: AtomicU32::new(0),
            links: AtomicUsize::new(0),
            bursts_ms: Mutex::new(Vec::new()),
            stats: Mutex::new((OpStats::default(), 0)),
        };
        let mut rec = tracer.worker(u32::MAX);
        let watch = Stopwatch::start();
        rec.span("components.ingest", ROOT, 0, |_, id| {
            timed.parent.store(id, Ordering::Relaxed);
            unite_edges_parallel(&timed, &self.edges, p);
        });
        let mut time = watch.stop(p);
        let watch = Stopwatch::start();
        let labels = rec.span("components.labels", ROOT, 0, |_, _| timed.dsu.labels_snapshot());
        time += watch.stop(1);
        let rss = rss_mib();
        drop::<Recorder>(rec);

        let dsu = &timed.dsu;
        let links = timed.links.load(Ordering::Relaxed);
        let mut tally = Tally { attempted: self.edges.len() as u64, ..Tally::default() };
        let n = self.edges.n();
        if links != self.edges.n() - self.truth_sets
            || dsu.set_count() != self.truth_sets
            || !same_partition(&labels, &self.truth)
        {
            let sets = dsu.set_count();
            let want = self.truth_sets;
            tally.fail(tally.attempted, || {
                format!("components differ from sequential_components: {sets} sets and {links} links over {n} vertices, want {want} sets")
            });
        }

        let layers = traced.then(|| {
            let mut l = Layers::default();
            let (stats, edges) = *timed.stats.lock().expect("a worker panicked");
            l.add_bulk(&stats, edges, links as u64);
            l.per_op_calls = timed.per_op_calls.load(Ordering::Relaxed);
            let n = n as u64;
            let store = dsu.store();
            l.probes.insert(
                "store.load_ns",
                time_chase(1 << 20, 1, |x| {
                    DefaultStore::parent_of(store.load_word((x % n) as usize)) as u64
                }),
            );
            l.probes
                .insert("find.ns", time_chase(1 << 20, 2, |x| dsu.find((x % n) as usize) as u64));
            l
        });
        let bursts_ms = timed.bursts_ms.into_inner().expect("a worker panicked");
        let spans: Vec<Span> = tracer.into_spans();
        Rep {
            setup_s,
            samples: vec![Sample { ops: self.edges.len() as u64, time, bursts_ms }],
            rss_mib: rss,
            tally,
            layers: layers.map(|l| Layers { spans, ..l }),
        }
    }
}

/// `true` iff the two label vectors induce the same partition: the map
/// from one's labels to the other's is a well-defined bijection.
fn same_partition(a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let (mut fwd, mut back) = (vec![usize::MAX; a.len()], vec![usize::MAX; a.len()]);
    a.iter().zip(b).all(|(&x, &y)| {
        if x >= a.len() || y >= b.len() {
            return false;
        }
        if fwd[x] == usize::MAX && back[y] == usize::MAX {
            fwd[x] = y;
            back[y] = x;
        }
        fwd[x] == y && back[y] == x
    })
}

#[cfg(test)]
mod tests {
    use super::same_partition;

    #[test]
    fn partitions_compare_up_to_relabeling() {
        assert!(same_partition(&[0, 0, 2], &[1, 1, 0]));
        assert!(!same_partition(&[0, 0, 2], &[0, 1, 2])); // split
        assert!(!same_partition(&[0, 1, 2], &[0, 0, 2])); // merged
    }
}
