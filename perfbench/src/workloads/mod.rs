//! The four workloads. Each is generated once per run from the seed and
//! then measured in repetitions; a repetition builds a fresh structure
//! (timed as set-up), runs every op of the workload through it as a closed
//! loop of `p` workers (timed), and checks the outcome (untimed).

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use concurrent_dsu::OpStats;

use crate::check::Tally;
use crate::stats::{process_cpu_s, thread_cpu_s};
use crate::trace::Span;

mod keyed;
mod rmat;
mod uniform;
mod versioned;

/// Ops per burst in every workload: the unit of `batch_p50_ms` and
/// `batch_p99_ms`.
pub const BURST: usize = 1024;

/// Per-op spans in the traced run sample 1 call in this many.
pub const SAMPLE_EVERY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Uniform,
    Rmat,
    Keyed,
    Versioned,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Uniform, Kind::Rmat, Kind::Keyed, Kind::Versioned];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Uniform => "uniform-ops",
            Kind::Rmat => "rmat-components",
            Kind::Keyed => "keyed-stream",
            Kind::Versioned => "versioned-checkpoints",
        }
    }

    pub fn parse(name: &str) -> Result<Kind, String> {
        Kind::ALL.into_iter().find(|k| k.name() == name).ok_or_else(|| {
            format!(
                "unknown workload {name:?} (expected one of {:?} or all)",
                Kind::ALL.map(Kind::name)
            )
        })
    }

    pub fn generate(self, seed: u64) -> Box<dyn Workload> {
        match self {
            Kind::Uniform => Box::new(uniform::Uniform::generate(seed)),
            Kind::Rmat => Box::new(rmat::Rmat::generate(seed)),
            Kind::Keyed => Box::new(keyed::Keyed::generate(seed)),
            Kind::Versioned => Box::new(versioned::Versioned::generate(seed)),
        }
    }
}

pub trait Workload {
    /// One measurement cycle: a repetition of each configuration
    /// `(p, traced)`, in order. Untraced runs pass p=1 and p=2; traced runs
    /// pass untraced and traced p=2.
    fn cycle(&self, configs: [(usize, bool); 2]) -> [Rep; 2];

    /// Cycles a run makes even when `--seconds` has passed.
    fn min_cycles(&self) -> usize {
        2
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Set-up samples in seconds: the structure's construction, repeated
    /// where it is too cheap to time once.
    pub setup_s: Vec<f64>,
    /// Timed samples: each covers every op of a run of the workload, or of
    /// one round of it.
    pub samples: Vec<Sample>,
    /// Resident memory once the structure is built and has run (the end of
    /// the timed region; `uniform-ops`: after its first round).
    pub rss_mib: f64,
    pub tally: Tally,
    pub layers: Option<Layers>,
}

/// One timed stretch of closed-loop work.
#[derive(Debug, Default)]
pub struct Sample {
    pub ops: u64,
    pub time: Elapsed,
    /// Latency of every burst in the stretch: the CPU time its worker spent
    /// on it, so a burst the hypervisor paused is not counted longer.
    pub bursts_ms: Vec<f64>,
}

/// How long a stretch of work took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Elapsed {
    pub wall_s: f64,
    /// Wall time less what the hypervisor stole: the process's CPU time
    /// over the stretch divided by the threads that shared it. The
    /// benchmark's stretches split their work evenly (a shared cursor, or
    /// equal shards) while every other thread is blocked, so this is each
    /// worker's running time.
    pub busy_s: f64,
}

impl std::ops::AddAssign for Elapsed {
    fn add_assign(&mut self, o: Elapsed) {
        self.wall_s += o.wall_s;
        self.busy_s += o.busy_s;
    }
}

/// Starts timing a stretch of work; see [`Elapsed`].
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch { wall: Instant::now(), cpu_s: process_cpu_s() }
    }

    /// The time since `start`, for work shared by `threads` threads.
    pub fn stop(&self, threads: usize) -> Elapsed {
        Elapsed {
            wall_s: self.wall.elapsed().as_secs_f64(),
            busy_s: (process_cpu_s() - self.cpu_s) / threads as f64,
        }
    }
}

/// Times bursts in the calling worker's CPU time.
pub struct BurstClock(f64);

impl BurstClock {
    pub fn start() -> Self {
        BurstClock(thread_cpu_s())
    }

    pub fn ms(&self) -> f64 {
        (thread_cpu_s() - self.0) * 1e3
    }
}

/// The traced repetition's raw per-layer material.
#[derive(Debug, Default)]
pub struct Layers {
    /// Counters of every call the benchmark made.
    pub all: OpStats,
    /// Counters of the `unite_batch` calls alone.
    pub bulk: OpStats,
    pub bulk_edges: u64,
    pub bulk_links: u64,
    /// Per-op `unite` calls and how many of them linked.
    pub unite_calls: u64,
    pub unite_links: u64,
    /// Per-op calls the library made back through `ConcurrentUnionFind`
    /// (`rmat-components`, where `unite_edges_parallel` drives the calls).
    pub per_op_calls: u64,
    /// Keys the keyed workload resolved to ids (inserts and lookups).
    pub keys_resolved: u64,
    pub spans: Vec<Span>,
    /// Timed probes (`find.ns`, `store.load_ns`, ...), by metric name.
    pub probes: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add_bulk(&mut self, stats: &OpStats, edges: u64, links: u64) {
        self.bulk.merge(stats);
        self.all.merge(stats);
        self.bulk_edges += edges;
        self.bulk_links += links;
    }
}

/// Runs `work(w)` on `p` scoped threads released together by a barrier;
/// returns the results in worker order and the time from release until
/// the last worker finished.
pub fn run_workers<T: Send>(p: usize, work: impl Fn(usize) -> T + Sync) -> (Vec<T>, Elapsed) {
    let barrier = Barrier::new(p + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|w| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    barrier.wait();
                    work(w)
                })
            })
            .collect();
        barrier.wait();
        let watch = Stopwatch::start();
        let out: Vec<T> =
            handles.into_iter().map(|h| h.join().expect("benchmark worker panicked")).collect();
        (out, watch.stop(p))
    })
}

/// Times `build` once (busy seconds, see [`Elapsed`]); when that is
/// cheaper than `CHEAP_SETUP_S`, builds and drops more instances (up to
/// `CHEAP_SETUP_S` in total) so the set-up median rests on enough samples.
/// Returns the first instance and every sample.
pub fn timed_setup<T>(build: impl Fn() -> T) -> (T, Vec<f64>) {
    const CHEAP_SETUP_S: f64 = 0.02;
    let t = Stopwatch::start();
    let first = build();
    let mut samples = vec![t.stop(1).busy_s];
    while samples.iter().sum::<f64>() < CHEAP_SETUP_S && samples.len() < 256 {
        let t = Stopwatch::start();
        let extra = build();
        samples.push(t.stop(1).busy_s);
        drop(extra);
    }
    (first, samples)
}

/// Nanoseconds per call of `probe` over `iters` calls whose inputs come
/// from a seeded stream (the result feeds the next input, so calls cannot
/// overlap or be optimised away).
pub fn time_chase(iters: usize, seed: u64, mut probe: impl FnMut(u64) -> u64) -> f64 {
    let mut x = seed;
    let t = Instant::now();
    for _ in 0..iters {
        x = crate::rng::splitmix(probe(x) ^ x);
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64 / iters as f64
}
