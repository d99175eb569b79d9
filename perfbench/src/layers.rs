//! Per-layer metrics of the traced run, named after the library's modules,
//! and the bypass assertions: layers a workload is predicted not to use
//! must read idle.

use std::collections::BTreeMap;

use concurrent_dsu::OpStats;

use crate::stats::{median, ratio};
use crate::trace::{busy_s, self_time_by_layer};
use crate::workloads::{Kind, Layers};

/// Every per-layer metric with its unit, in report order. Metrics of a
/// layer a workload does not use read 0.
pub const METRICS: &[(&str, &str)] = &[
    ("store.loads_per_op", "count"),
    ("store.cas_per_op", "count"),
    ("store.cas_fail_ratio", "ratio"),
    ("store.load_ns", "ns"),
    ("find.hops_per_find", "count"),
    ("find.iters_per_find", "count"),
    ("find.compact_ok_ratio", "ratio"),
    ("find.ns", "ns"),
    ("ops.unite.busy_s", "s"),
    ("ops.same_set.busy_s", "s"),
    ("ops.link_ok_ratio", "ratio"),
    ("bulk.busy_s", "s"),
    ("bulk.ns_per_edge", "ns"),
    ("bulk.loads_per_edge", "count"),
    ("bulk.link_ratio", "ratio"),
    ("bulk.cas_fail_ratio", "ratio"),
    ("components.ingest_s", "s"),
    ("components.labels_s", "s"),
    ("keyed.resolve.busy_s", "s"),
    ("keyed.dsu.busy_s", "s"),
    ("keyed.probe_steps_per_key", "count"),
    ("keyed.keys_inserted", "count"),
    ("keyed.id_table_resizes", "count"),
    ("growable.find_ns", "ns"),
    ("epoch.snapshot_ns", "ns"),
    ("epoch.rollback_ns", "ns"),
    ("epoch.time_travel_ns", "ns"),
    ("epoch.segments_forked", "count"),
    ("epoch.cow_copies", "count"),
    ("epoch.post_snapshot_batch_ms", "ms"),
    ("self.burst_s", "s"),
    ("self.ops_s", "s"),
    ("self.bulk_s", "s"),
    ("self.components_s", "s"),
    ("self.keyed_s", "s"),
    ("self.epoch_s", "s"),
    ("base.ops", "count"),
    ("base.finds", "count"),
    ("base.cas_attempts", "count"),
    ("base.unite_calls", "count"),
    ("base.bulk_edges", "count"),
    ("base.keys_resolved", "count"),
    ("trace.spans", "count"),
    ("trace.ops_per_s_p2_untraced", "Mops/s"),
    ("trace.ops_per_s_p2_traced", "Mops/s"),
    ("trace.overhead_frac", "ratio"),
];

/// Timed probes the workloads record by these names.
const PROBES: [&str; 7] = [
    "store.load_ns",
    "find.ns",
    "growable.find_ns",
    "epoch.snapshot_ns",
    "epoch.rollback_ns",
    "epoch.time_travel_ns",
    "epoch.post_snapshot_batch_ms",
];

/// Span layers whose self time is reported, with the metric's name.
const SELF_TIMES: [(&str, &str); 6] = [
    ("burst", "self.burst_s"),
    ("ops", "self.ops_s"),
    ("bulk", "self.bulk_s"),
    ("components", "self.components_s"),
    ("keyed", "self.keyed_s"),
    ("epoch", "self.epoch_s"),
];

/// Layer metrics from the traced repetitions. Counters are summed over the
/// repetitions before ratios are taken; times are per-repetition medians.
pub fn metrics(reps: &[Layers]) -> BTreeMap<&'static str, f64> {
    let mut all = OpStats::default();
    let mut bulk = OpStats::default();
    let (mut edges, mut links, mut unites, mut unite_links, mut keys, mut spans) =
        (0, 0, 0, 0, 0, 0);
    for l in reps {
        all.merge(&l.all);
        bulk.merge(&l.bulk);
        edges += l.bulk_edges;
        links += l.bulk_links;
        unites += l.unite_calls;
        unite_links += l.unite_links;
        keys += l.keys_resolved;
        spans += l.spans.len() as u64;
    }
    let per_rep = |f: &dyn Fn(&Layers) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let cas_fail = |s: &OpStats| s.compact_cas_fail + s.links_fail;
    let n = reps.len().max(1) as u64;
    let mut m = BTreeMap::new();
    m.insert("store.loads_per_op", ratio(all.reads, all.ops));
    m.insert("store.cas_per_op", ratio(all.cas_attempts(), all.ops));
    m.insert("store.cas_fail_ratio", ratio(cas_fail(&all), all.cas_attempts()));
    m.insert("find.hops_per_find", ratio(all.find_hops, all.finds));
    m.insert("find.iters_per_find", ratio(all.loop_iters, all.finds));
    m.insert(
        "find.compact_ok_ratio",
        ratio(all.compact_cas_ok, all.compact_cas_ok + all.compact_cas_fail),
    );
    m.insert("ops.unite.busy_s", per_rep(&|l| busy_s(&l.spans, "ops.unite")));
    m.insert("ops.same_set.busy_s", per_rep(&|l| busy_s(&l.spans, "ops.same_set")));
    m.insert("ops.link_ok_ratio", ratio(unite_links, unites));
    let bulk_s: f64 = reps.iter().map(|l| busy_s(&l.spans, "bulk.unite_batch")).sum();
    m.insert("bulk.busy_s", per_rep(&|l| busy_s(&l.spans, "bulk.unite_batch")));
    m.insert("bulk.ns_per_edge", if edges == 0 { 0.0 } else { bulk_s * 1e9 / edges as f64 });
    m.insert("bulk.loads_per_edge", ratio(bulk.reads, edges));
    m.insert("bulk.link_ratio", ratio(links, edges));
    m.insert("bulk.cas_fail_ratio", ratio(cas_fail(&bulk), bulk.cas_attempts()));
    m.insert("components.ingest_s", per_rep(&|l| busy_s(&l.spans, "components.ingest")));
    m.insert("components.labels_s", per_rep(&|l| busy_s(&l.spans, "components.labels")));
    m.insert("keyed.resolve.busy_s", per_rep(&|l| busy_s(&l.spans, "keyed.resolve")));
    m.insert("keyed.dsu.busy_s", per_rep(&|l| busy_s(&l.spans, "keyed.dsu")));
    m.insert("keyed.probe_steps_per_key", ratio(all.key_probe_steps, keys));
    m.insert("keyed.keys_inserted", (all.keys_inserted / n) as f64);
    m.insert("keyed.id_table_resizes", (all.id_table_resizes / n) as f64);
    m.insert("epoch.segments_forked", (all.segments_forked / n) as f64);
    m.insert("epoch.cow_copies", (all.cow_copies / n) as f64);
    for name in PROBES {
        m.insert(name, per_rep(&|l| l.probes.get(name).copied().unwrap_or(0.0)));
    }
    for (layer, name) in SELF_TIMES {
        m.insert(
            name,
            per_rep(&|l| self_time_by_layer(&l.spans).get(layer).copied().unwrap_or(0.0)),
        );
    }
    m.insert("base.ops", all.ops as f64);
    m.insert("base.finds", all.finds as f64);
    m.insert("base.cas_attempts", all.cas_attempts() as f64);
    m.insert("base.unite_calls", unites as f64);
    m.insert("base.bulk_edges", edges as f64);
    m.insert("base.keys_resolved", keys as f64);
    m.insert("trace.spans", spans as f64);
    m
}

/// The bypass assertions: layers a workload is predicted to bypass read
/// idle. `keyed.*` and `epoch.*` counters, which the library reports, are
/// exactly 0 outside their workloads and nonzero on them; on
/// `rmat-components`, `unite_edges_parallel` makes no per-op call through
/// the trait. The benchmark itself issues per-op calls only in
/// `uniform-ops`, so the remaining check, no `ops.*` spans elsewhere, holds
/// by construction; it guards the benchmark code, not the library. Returns
/// the violations.
pub fn bypass_violations(kind: Kind, reps: &[Layers]) -> Vec<String> {
    let mut bad = Vec::new();
    let mut all = OpStats::default();
    reps.iter().for_each(|l| all.merge(&l.all));
    let keyed = all.keys_inserted + all.key_probe_steps + all.id_table_resizes;
    let epoch = all.snapshots_taken + all.segments_forked + all.rollbacks + all.cow_copies;
    let per_op: u64 = reps.iter().map(|l| l.per_op_calls).sum();
    let ops_spans =
        reps.iter().flat_map(|l| &l.spans).filter(|s| s.name.starts_with("ops.")).count();
    let mut expect = |cond: bool, what: String| {
        if !cond {
            bad.push(what);
        }
    };
    let is = |k: Kind| kind == k;
    expect(is(Kind::Keyed) == (keyed > 0), format!("keyed counters read {keyed}"));
    expect(is(Kind::Versioned) == (epoch > 0), format!("epoch counters read {epoch}"));
    expect(per_op == 0, format!("{per_op} per-op calls from unite_edges_parallel"));
    expect(is(Kind::Uniform) == (ops_spans > 0), format!("{ops_spans} ops spans"));
    bad
}
