//! Interleaved A/B of the hot-root cache and the gather-wave depth.
//!
//! Six contenders ingest the same Zipf-skewed batched-arrival trace
//! through the same burst-cursor scheduler:
//!
//! * `nocache_d2` — batch path, wave depth 2, no hot-root cache (the
//!   PR 2/3 baseline);
//! * `nocache_d3` — batch path, wave depth 3, no cache (isolates the
//!   third gather level);
//! * `cache_d2`  — batch path, wave depth 2, per-worker cache persistent
//!   across bursts (isolates the cache on the wave-fed path);
//! * `cache_d3`  — batch path, wave depth 3 + cache (the default batch
//!   configuration);
//! * `perop`     — a `unite` call per edge (the serial-find baseline);
//! * `perop_cached` — a `unite` per edge through a per-worker
//!   [`Dsu::cached`] session: the pair that isolates the cache's effect
//!   on the *serial* find path, where every hop is a dependent load the
//!   batch path's gather waves would have preloaded.
//!
//! Samples alternate round-robin so host drift cancels; per-thread-count
//! medians and speedups over the matching baseline are printed and, with
//! `--json PATH`, archived (`BENCH_PR4.json`) with the machine
//! fingerprint and single-threaded `OpStats` attribution records
//! (`cache_hits` / `cache_stale`), so a win or a loss
//! is traced to counters rather than guessed at.
//!
//! Size matters: run once DRAM-resident (`--n 4194304`, the default) and
//! once cache-resident (e.g. `--n 262144`) — layout and MLP effects only
//! exist when the store outruns the LLC (see `BENCH_PR2.json`).
//!
//! Run: `cargo run --release -p dsu-bench --example cache_ab --
//!       [--samples 11] [--n 4194304] [--batches 2048] [--batch-size 1024]
//!       [--zipf 1.0] [--repeat 0.0] [--threads 1,2,4,8] [--json out.json]
//!       [--quick true]`

use std::fmt::Write as _;

use concurrent_dsu::{BatchTuning, Dsu, TwoTrySplit, WaveDepth};
use dsu_bench::{
    ingest_stats_tuned, machine_fingerprint_json, median, rehit_edge_batches, stats_json,
    timed_ingest_batched_tuned, timed_ingest_per_op, timed_ingest_per_op_cached,
};
use dsu_harness::Args;

const BATCH_ARMS: [(&str, WaveDepth, bool); 4] = [
    ("nocache_d2", WaveDepth::Two, false),
    ("nocache_d3", WaveDepth::Three, false),
    ("cache_d2", WaveDepth::Two, true),
    ("cache_d3", WaveDepth::Three, true),
];

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let samples = args.usize("samples", if quick { 5 } else { 11 });
    let n = args.usize("n", if quick { 1 << 14 } else { 1 << 22 });
    let batches = args.usize("batches", if quick { 1 << 6 } else { 1 << 11 });
    let batch_size = args.usize("batch-size", 1 << 10);
    let zipf = args.f64("zipf", 1.0);
    let repeat = args.f64("repeat", 0.0);
    let threads = args.thread_ladder();

    let arrivals = rehit_edge_batches(n, batches, batch_size, zipf, repeat);
    let m = arrivals.total_edges();
    println!(
        "n = {n}, {batches} bursts x {batch_size} edges = {m} edges, zipf {zipf}, \
         repeat {repeat}, {samples} interleaved samples per arm"
    );

    // Arm index -> one timed run at thread count p, on a fresh structure.
    let run_arm = |arm: usize, p: usize| -> f64 {
        let dsu: Dsu<TwoTrySplit> = Dsu::new(n);
        let d = match arm {
            0..=3 => {
                let (_, depth, cached) = BATCH_ARMS[arm];
                timed_ingest_batched_tuned(
                    &dsu,
                    &arrivals.batches,
                    p,
                    BatchTuning::new().wave_depth(depth),
                    cached,
                )
            }
            4 => timed_ingest_per_op(&dsu, &arrivals.batches, p),
            _ => timed_ingest_per_op_cached(&dsu, &arrivals.batches, p),
        };
        d.as_nanos() as f64
    };

    println!(
        "{:>7} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13} {:>7} {:>7} {:>7} {:>7}",
        "threads",
        "nocache_d2",
        "nocache_d3",
        "cache_d2",
        "cache_d3",
        "perop",
        "perop_cached",
        "d3_x",
        "c2_x",
        "c3_x",
        "pcache_x"
    );

    let mut rows = String::new();
    for &p in &threads {
        for arm in 0..6 {
            run_arm(arm, p); // warm-up
        }
        let mut ns: [Vec<f64>; 6] = Default::default();
        for _ in 0..samples {
            for (arm, samples_vec) in ns.iter_mut().enumerate() {
                samples_vec.push(run_arm(arm, p));
            }
        }
        let med: Vec<f64> = ns.iter_mut().map(|v| median(v)).collect();
        let (base, d3, c2, c3) = (med[0], med[1], med[2], med[3]);
        let (po, poc) = (med[4], med[5]);
        println!(
            "{:>7} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {:>7.3} {:>7.3} \
             {:>7.3} {:>7.3}",
            p,
            base,
            d3,
            c2,
            c3,
            po,
            poc,
            base / d3,
            base / c2,
            base / c3,
            po / poc
        );
        if !rows.is_empty() {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "\n    {{\"threads\":{p},\"nocache_d2_median_ns\":{base:.0},\
             \"nocache_d3_median_ns\":{d3:.0},\"cache_d2_median_ns\":{c2:.0},\
             \"cache_d3_median_ns\":{c3:.0},\"perop_median_ns\":{po:.0},\
             \"perop_cached_median_ns\":{poc:.0},\"depth3_speedup\":{:.4},\
             \"cache_d2_speedup\":{:.4},\"cache_d3_speedup\":{:.4},\
             \"perop_cache_speedup\":{:.4}}}",
            base / d3,
            base / c2,
            base / c3,
            po / poc
        );
    }

    // Single-threaded attribution: the counters that explain the deltas.
    let mut attribution = String::new();
    for &(name, depth, cached) in &BATCH_ARMS {
        let dsu: Dsu<TwoTrySplit> = Dsu::new(n);
        let stats = ingest_stats_tuned(
            &dsu,
            &arrivals.batches,
            BatchTuning::new().wave_depth(depth),
            cached,
        );
        println!(
            "{name}: reads {} cache_hits {} cache_stale {}",
            stats.reads, stats.cache_hits, stats.cache_stale
        );
        if !attribution.is_empty() {
            attribution.push(',');
        }
        let _ = write!(attribution, "\n    \"{name}\": {}", stats_json(&stats));
    }
    // Per-op pair attribution: one instrumented pass each.
    {
        let dsu: Dsu<TwoTrySplit> = Dsu::new(n);
        let mut plain = concurrent_dsu::OpStats::default();
        for burst in &arrivals.batches {
            for &(x, y) in burst {
                dsu.unite_with(x, y, &mut plain);
            }
        }
        let dsu: Dsu<TwoTrySplit> = Dsu::new(n);
        let mut session = dsu.cached();
        let mut cached = concurrent_dsu::OpStats::default();
        for burst in &arrivals.batches {
            for &(x, y) in burst {
                session.unite_with(x, y, &mut cached);
            }
        }
        for (name, stats) in [("perop", &plain), ("perop_cached", &cached)] {
            println!(
                "{name}: reads {} cache_hits {} cache_stale {}",
                stats.reads, stats.cache_hits, stats.cache_stale
            );
            attribution.push(',');
            let _ = write!(attribution, "\n    \"{name}\": {}", stats_json(stats));
        }
    }

    if let Some(path) = args.get("json") {
        let json = format!(
            "{{\n  \"example\": \"cache_ab\",\n  \"machine\": {},\n  \"workload\": {{\"n\": {n}, \
             \"batches\": {batches}, \"batch_size\": {batch_size}, \"zipf\": {zipf}, \
             \"repeat\": {repeat}, \"seed\": \"0xBA7C\"}},\n  \
             \"samples\": {samples},\n  \"results\": [{rows}\n  ],\n  \
             \"attribution_1thread\": {{{attribution}\n  }}\n}}\n",
            machine_fingerprint_json(),
        );
        std::fs::write(path, json).expect("write json");
        println!("wrote {path}");
    }
}
