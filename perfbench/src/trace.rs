//! In-memory span recording for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions in
//! spans: name, start, end, parent span and the burst/op id the call
//! belongs to. Every worker records into a private buffer that is merged
//! when the worker ends; nothing is written until the run is over. A
//! layer's self time is its spans' duration minus the part of that
//! interval covered by their child spans.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span ids start at 1; 0 means "no parent".
pub const ROOT: u64 = 0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    /// The burst (or op) the span belongs to, so one burst's spans join.
    pub burst: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Sampling weight: a 1-in-k sampled span stands for k calls.
    pub weight: u32,
    pub worker: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The shared collector of one traced repetition.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// A per-worker recorder; its spans join the tracer when it is dropped.
    pub fn worker(&self, worker: u32) -> Recorder<'_> {
        Recorder { tracer: self, worker, buf: Vec::new() }
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("a traced worker panicked");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

pub struct Recorder<'t> {
    tracer: &'t Tracer,
    worker: u32,
    buf: Vec<Span>,
}

impl Recorder<'_> {
    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        burst: u64,
        f: impl FnOnce(&mut Self, u64) -> R,
    ) -> R {
        self.weighted(name, parent, burst, 1, f)
    }

    pub fn weighted<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        burst: u64,
        weight: u32,
        f: impl FnOnce(&mut Self, u64) -> R,
    ) -> R {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(self, id);
        let end = self.now();
        let worker = self.worker;
        self.buf.push(Span {
            name,
            id,
            parent,
            burst,
            start_ns: start,
            end_ns: end,
            weight,
            worker,
        });
        out
    }

    fn now(&self) -> u64 {
        self.tracer.origin.elapsed().as_nanos() as u64
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        // A poisoned lock means another worker panicked; its panic is the
        // error that gets reported, so these spans can be dropped.
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.buf);
        }
    }
}

/// Total weighted duration of the spans named `name`, in seconds.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * s.weight as f64)
        .sum::<f64>()
        / 1e9
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Weighted self time per layer, in seconds: each span's duration minus the
/// union of its children's intervals (clipped to the span).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |iv| coverage(iv, s.start_ns, s.end_ns));
        let own = s.dur_ns().saturating_sub(covered) as f64 * s.weight as f64 / 1e9;
        *out.entry(layer_of(s.name)).or_default() += own;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn coverage(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"burst\":{},\"start_ns\":{},\"end_ns\":{},\"weight\":{},\"worker\":{}}}",
            s.name, s.id, s.parent, s.burst, s.start_ns, s.end_ns, s.weight, s.worker
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span { name, id, parent, burst: 0, start_ns: start, end_ns: end, weight: 1, worker: 0 }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("burst", 1, ROOT, 0, 100),
            span("keyed.resolve", 2, 1, 10, 40),
            span("keyed.dsu", 3, 1, 30, 60), // overlaps its sibling
            span("bulk.unite_batch", 4, 3, 35, 55),
        ];
        let st = self_time_by_layer(&spans);
        let ns = |layer: &str| (st[layer] * 1e9).round() as u64;
        assert_eq!((ns("burst"), ns("keyed"), ns("bulk")), (50, 40, 20));
    }

    #[test]
    fn recorder_nests_and_weights() {
        let t = Tracer::default();
        {
            let mut r = t.worker(0);
            r.span("burst", ROOT, 7, |r, id| r.weighted("ops.unite", id, 7, 64, |_, _| ()));
        }
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "ops.unite").unwrap();
        let parent = spans.iter().find(|s| s.name == "burst").unwrap();
        assert_eq!(child.parent, parent.id);
        assert_eq!((child.burst, child.weight), (7, 64));
    }
}
