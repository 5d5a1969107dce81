//! The run's findings: metrics by name and unit, correctness checks,
//! request counts, and the one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics every workload reports (the gated set in
/// `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics the traced run reports (the `per_layer` set in
/// `BENCHMARK.json`). A workload that makes no call into a layer
/// reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.wire.encode_us", "us"),
    ("serve.wire.parse_us", "us"),
    ("serve.wire.respond_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.wire.request_bytes", "bytes"),
    ("serve.wire.response_bytes", "bytes"),
    ("serve.daemon.floor_us", "us"),
    ("serve.daemon.self_us", "us"),
    ("serve.daemon.accept_wait_ms", "ms"),
    ("serve.session.observe_us", "us"),
    ("serve.session.observe_p99_us", "us"),
    ("serve.session.self_us", "us"),
    ("serve.session.register_ms", "ms"),
    ("serve.session.resume_ms", "ms"),
    ("serve.session.replay_records_per_s", "1/s"),
    ("serve.journal.append_us", "us"),
    ("serve.journal.bytes_per_tick", "bytes"),
    ("serve.journal.read_ms", "ms"),
    ("serve.cache.exact_hits", "count"),
    ("serve.cache.near_hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.exact_ms", "ms"),
    ("serve.cache.near_ms", "ms"),
    ("serve.cache.miss_ms", "ms"),
    ("control.quiet_tick_us", "us"),
    ("control.round_ms", "ms"),
    ("control.round_self_ms", "ms"),
    ("control.replans", "count"),
    ("control.warm_replans", "count"),
    ("control.migrations", "count"),
    ("control.useful_round_ratio", "ratio"),
    ("core.online.revise_ms", "ms"),
    ("core.online.changes", "count"),
    ("core.mix.plan_ms", "ms"),
    ("core.mix.plan_unbounded_ms", "ms"),
    ("core.heuristic.plan_ms", "ms"),
    ("core.sweep.plan_ms", "ms"),
    ("core.sweep_mix.plan_ms", "ms"),
    ("core.sweep_mix.visited", "count"),
    ("core.sweep_mix.expanded", "count"),
    ("core.sweep_mix.pruned", "count"),
    ("core.model.mix_eval_ms", "ms"),
    ("hierarchy.diff_us", "us"),
    ("hierarchy.diff_len", "count"),
    ("godiet.compile_us", "us"),
    ("godiet.migrate_ms", "ms"),
    ("godiet.stages", "count"),
    ("godiet.substitutions", "count"),
    ("platform.build_s", "s"),
    ("platform.fingerprint_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("trace.overhead_pct", "%"),
];

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Everything one run found.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    failures: Vec<String>,
    /// Requests (or planner calls) attempted in the timed phase.
    pub attempted: u64,
    /// Error frames plus io failures among them.
    pub failed: u64,
}

impl Report {
    /// Records a metric; `note` carries sample counts and context.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Records a correctness check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Prints the human-readable lines, then the JSON result line with
    /// the declared metric set. Returns whether the run was correct.
    pub fn print(&self, traced: bool) -> bool {
        for m in &self.metrics {
            println!(
                "metric {:<36} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let error_rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "requests attempted {} failed {} error_rate {error_rate}",
            self.attempted, self.failed
        );
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        if self.correct() {
            let declared: Vec<(&str, &str)> = if traced {
                PER_LAYER.to_vec()
            } else {
                END_TO_END.to_vec()
            };
            for (i, (name, unit)) in declared.into_iter().enumerate() {
                let value = self.value(name).unwrap_or(0.0);
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    json,
                    "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    finite(value)
                );
            }
        }
        json.push_str("}}");
        println!("{json}");
        self.correct()
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
