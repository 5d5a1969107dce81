//! Span capture for the traced run.
//!
//! The benchmark times calls into each layer's public functions from
//! its own files — nothing is traced inside the program. A span records
//! name, start, end, the span of the calling layer, and the id of the
//! request it replays. Spans stay in memory and are written out when
//! the run ends. A layer's self time is its span's duration minus the
//! durations of its child spans (replayed calls into the layers below
//! it on the same request).

use crate::stats::{percentile, sorted};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log sharing one time origin.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result with the span id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        (out, self.record(name, request, parent, start, end))
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: at(start),
            end_ns: at(end),
        });
        self.spans.len() - 1
    }

    /// Per-name totals: durations and self times, in nanoseconds. The
    /// self time is the mean duration minus the mean time of the
    /// replayed child calls; it is signed, because a replayed child can
    /// run slower than the same work did inside the live request.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p] += s.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.dur_ns() as f64);
            e.1 += children_ns[i] as f64;
        }
        by_name
            .into_iter()
            .map(|(name, (dur, children))| {
                let dur = sorted(dur);
                let total: f64 = dur.iter().sum();
                (
                    name,
                    SpanStats {
                        count: dur.len(),
                        total_ns: total,
                        p50_ns: percentile(&dur, 0.5),
                        p99_ns: percentile(&dur, 0.99),
                        self_mean_ns: (total - children) / dur.len() as f64,
                    },
                )
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Aggregates of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: usize,
    pub total_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub self_mean_ns: f64,
}

impl SpanStats {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }
}
