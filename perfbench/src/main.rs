//! The repository benchmark. Seeded, closed-loop workloads run through the
//! public APIs of `concurrent-dsu` and `dsu-graph`; every repetition is
//! checked against the `sequential-dsu` oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform-ops --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a separate traced run, which also writes its
//! spans to `perfbench/out/`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod cli;
mod layers;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use stats::{median, quantile};
use workloads::{Kind, Layers, Rep, Sample};

/// Where the traced run writes its spans, relative to the repository root.
const SPANS_DIR: &str = "perfbench/out";

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Printed with the metrics but left out of the JSON result.
    report: Vec<(&'static str, f64, &'static str)>,
}

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {} cpus, {} {}; seed {}, {} s per workload, trace {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::consts::ARCH,
        std::env::consts::OS,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let outcomes: Vec<(Kind, Outcome)> =
        args.workloads.iter().map(|&k| (k, run_workload(k, &args))).collect();
    let single = outcomes.len() == 1;
    let mut metrics = String::new();
    for (kind, o) in &outcomes {
        for (name, value, unit) in &o.metrics {
            let value = if value.is_finite() { *value } else { 0.0 };
            println!("{:<24} {:<32} {:>16.6} {}", kind.name(), name, value, unit);
            let key = if single { name.to_string() } else { format!("{}.{name}", kind.name()) };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            metrics.push_str(&format!("\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        for (name, value, unit) in &o.report {
            println!(
                "{:<24} {:<32} {:>16.6} {} (not in the JSON result)",
                kind.name(),
                name,
                value,
                unit
            );
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcomes.iter().all(|(_, o)| o.correct),
        outcomes.iter().map(|(_, o)| o.attempted).sum::<u64>(),
        outcomes.iter().map(|(_, o)| o.failed).sum::<u64>(),
    );
}

/// Ops completed per busy second over `samples`, in millions: the median
/// of the samples' own rates, so a slow spell that covers fewer than half
/// of them does not move it. Busy seconds leave out time the hypervisor
/// stole (see `Elapsed`).
fn mops<'a>(samples: impl Iterator<Item = &'a Sample>) -> f64 {
    rate(samples, |s| s.time.busy_s)
}

/// The same median over wall seconds; printed for comparison only.
fn wall_mops<'a>(samples: impl Iterator<Item = &'a Sample>) -> f64 {
    rate(samples, |s| s.time.wall_s)
}

fn rate<'a>(samples: impl Iterator<Item = &'a Sample>, secs: impl Fn(&Sample) -> f64) -> f64 {
    let rates: Vec<f64> =
        samples.filter(|x| secs(x) > 0.0).map(|x| x.ops as f64 / secs(x) / 1e6).collect();
    median(&rates)
}

fn run_workload(kind: Kind, args: &cli::Args) -> Outcome {
    let t = Instant::now();
    let wl = kind.generate(args.seed);
    eprintln!("perfbench: {}: inputs generated in {:.2} s", kind.name(), t.elapsed().as_secs_f64());

    // Alternate the two configurations so drift hits both alike: p=1 and
    // p=2 untraced, or (traced run) untraced and traced p=2.
    let configs = if args.trace { [(2, false), (2, true)] } else { [(1, false), (2, false)] };
    let start = Instant::now();
    let mut reps: Vec<(usize, bool, Rep)> = Vec::new();
    while reps.len() < 2 * wl.min_cycles() || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        for ((p, traced), rep) in configs.into_iter().zip(wl.cycle(configs)) {
            eprintln!(
                "perfbench: {} p={p}{}: setup {:.4} s, {:.3} Mops/s ({:.3} by wall time) over {} samples, failed {}",
                kind.name(),
                if traced { " traced" } else { "" },
                median(&rep.setup_s),
                mops(rep.samples.iter()),
                wall_mops(rep.samples.iter()),
                rep.samples.len(),
                rep.tally.failed
            );
            for note in &rep.tally.notes {
                eprintln!("perfbench: {}: check: {note}", kind.name());
            }
            reps.push((p, traced, rep));
        }
        eprintln!("perfbench: {}: cycle took {:.2} s", kind.name(), t.elapsed().as_secs_f64());
    }

    let attempted: u64 = reps.iter().map(|(_, _, r)| r.tally.attempted).sum();
    let failed: u64 = reps.iter().map(|(_, _, r)| r.tally.failed).sum();
    let mut correct = failed == 0 && attempted > 0;
    let samples = |p: usize, traced: bool| {
        reps.iter()
            .filter(move |(rp, rt, _)| *rp == p && *rt == traced)
            .flat_map(|(_, _, r)| &r.samples)
    };
    let mut report = vec![("ops_failed_frac", stats::ratio(failed, attempted), "ratio")];

    let metrics = if !args.trace {
        let setup: Vec<f64> = reps.iter().flat_map(|(_, _, r)| r.setup_s.iter().copied()).collect();
        let bursts: Vec<f64> =
            samples(2, false).flat_map(|s| s.bursts_ms.iter().copied()).collect();
        // p99 is printed but not bounded: on a shared host it measures the
        // hypervisor's stalls more than the program (see README).
        report.push(("batch_p99_ms", quantile(&bursts, 0.99), "ms"));
        report.push(("wall_ops_per_s_p1", wall_mops(samples(1, false)), "Mops/s"));
        report.push(("wall_ops_per_s_p2", wall_mops(samples(2, false)), "Mops/s"));
        vec![
            ("setup_s", median(&setup), "s"),
            ("ops_per_s_p1", mops(samples(1, false)), "Mops/s"),
            ("ops_per_s_p2", mops(samples(2, false)), "Mops/s"),
            ("batch_p50_ms", quantile(&bursts, 0.50), "ms"),
            // The first repetition starts from a fresh allocator, so its
            // footprint does not depend on what earlier ones left behind.
            ("peak_rss_mb", reps[0].2.rss_mib, "MiB"),
        ]
    } else {
        let (plain, with) = (mops(samples(2, false)), mops(samples(2, true)));
        let traced: Vec<Layers> = reps.into_iter().filter_map(|(_, _, r)| r.layers).collect();
        let bad = layers::bypass_violations(kind, &traced);
        for b in &bad {
            eprintln!("perfbench: {}: bypass assertion failed: {b}", kind.name());
        }
        correct &= bad.is_empty();
        if let Some(last) = traced.last() {
            let path =
                Path::new(SPANS_DIR).join(format!("spans-{}-seed{}.jsonl", kind.name(), args.seed));
            match trace::write_spans(&path, &last.spans) {
                Ok(()) => {
                    eprintln!("perfbench: {} spans written to {}", last.spans.len(), path.display())
                }
                Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
            }
        }
        let mut m: BTreeMap<&str, f64> = layers::metrics(&traced);
        m.insert("trace.ops_per_s_p2_untraced", plain);
        m.insert("trace.ops_per_s_p2_traced", with);
        m.insert("trace.overhead_frac", if plain > 0.0 { (plain - with) / plain } else { 0.0 });
        layers::METRICS.iter().map(|&(name, unit)| (name, m[name], unit)).collect()
    };
    Outcome { correct, attempted, failed, metrics, report }
}
