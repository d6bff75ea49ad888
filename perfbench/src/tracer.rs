//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Disabled in the end-to-end runs (one branch per call); the traced
//! runner enables it, writes the spans out when the run ends and derives
//! each layer's self time from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Spans of one request (or training run) share this id.
    pub request: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id to
    /// pass as the parent of nested spans (`0` when disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record_as(id, name, parent, request, start, Instant::now());
        out
    }

    /// Record a span whose interval was measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        self.record_as(self.reserve(), name, parent, request, start, end);
    }

    /// A fresh id for a span recorded later with [`Tracer::record_as`],
    /// so its children can name it as their parent first.
    pub fn reserve(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span under an id taken earlier with [`Tracer::reserve`].
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.push(SpanRecord {
                id,
                parent,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                request,
            });
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, rec: SpanRecord) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(rec);
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Per span name: `(count, total seconds, self seconds)`, where self time
/// is a span's duration minus the part of it its child spans cover.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = match children.get_mut(&s.id) {
            Some(kids) => union_within(kids, s.start_ns, s.end_ns),
            None => 0,
        };
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += total as f64 * 1e-9;
        entry.2 += total.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let rec = |id, parent, start_ns, end_ns| SpanRecord {
            id,
            parent,
            name: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
            request: 1,
        };
        let spans = vec![rec(1, 0, 0, 100), rec(2, 1, 10, 40), rec(3, 1, 30, 60)];
        let t = self_times(&spans);
        let (n, total, own) = t["root"];
        assert_eq!(n, 1);
        assert!((total - 100e-9).abs() < 1e-15);
        assert!((own - 50e-9).abs() < 1e-15);
    }
}
