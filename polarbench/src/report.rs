//! Metric declarations and the result a workload run hands back.

use crate::stats::Samples;
use crate::trace::Tracer;
use polardraw_core::hmm::DecodeStats;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_frac", "frac"),
    ("capacity_per_s", "1/s"),
    ("live_mean_ms", "ms"),
    ("live_p99_ms", "ms"),
    ("realtime_frac", "frac"),
    ("finish_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// does not reach reads 0 and is named on a `not reached` line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.busy_ms", "ms"),
    ("sim.reports", "count"),
    ("online.step_busy_ms", "ms"),
    ("online.buffer_push_ns_p50", "ns"),
    ("online.windows", "count"),
    ("online.steps", "count"),
    ("online.late_dropped", "count"),
    ("hmm.expansions_per_step", "count"),
    ("hmm.touched_per_step", "count"),
    ("hmm.pruned_per_step", "count"),
    ("hmm.mean_frontier", "count"),
    ("hmm.adaptive_shrunk_frac", "frac"),
    ("hmm.ns_per_expansion", "ns"),
    ("hmm.artifacts_ms", "ms"),
    ("hmm.expansions_per_report", "count"),
    ("finalize.busy_ms", "ms"),
    ("recognition.classify_ms", "ms"),
    ("recognition.letter_accuracy", "frac"),
    ("recognition.procrustes_p50_mm", "mm"),
    ("fleet.offer_us", "us"),
    ("fleet.admit_ratio", "frac"),
    ("fleet.drain_ms_p50", "ms"),
    ("fleet.drain_ms_p90", "ms"),
    ("fleet.reports_per_drain", "count"),
    ("fleet.woken_per_drain", "count"),
    ("fleet.add_session_us", "us"),
    ("fleet.finish_session_us", "us"),
    ("fleet.degrade_steps", "count"),
    ("fleet.degraded_frac", "frac"),
    ("serve.us_per_report", "us"),
    ("durability.ckpt_drain_ms", "ms"),
    ("durability.checkpoints", "count"),
    ("durability.ckpt_bytes", "bytes"),
    ("durability.requeued_reports", "count"),
    ("durability.fallbacks", "count"),
    ("durability.quarantined", "count"),
    ("durability.recover_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("trace.uncovered_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Set-up repetitions per CPU after the measured run, each a cold start.
/// They run once the peak resident set has been read, so their cold
/// rigs do not count in it. `setup_s` is the mean over CPUs of each
/// CPU's median, the set-up of the measured run included.
pub const SETUP_REPS_PER_CPU: usize = 25;

/// Peak resident set size so far (VmHWM), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A measured value with the number of samples behind it; `None` when
/// the run had too few samples to report it honestly.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: Option<f64>,
    pub samples: usize,
}

impl Value {
    pub fn of(value: f64, samples: usize) -> Value {
        Value::opt(Some(value), samples)
    }

    pub fn opt(value: Option<f64>, samples: usize) -> Value {
        Value { value: value.filter(|v| v.is_finite()), samples }
    }

    pub fn quantile(s: &Samples, q: f64) -> Value {
        Value::opt(s.quantile(q), s.len())
    }

    /// The mean over CPUs of `figure` of each CPU's samples; none if any
    /// CPU has too few samples for it.
    pub fn per_cpu(per_cpu: &[Samples], figure: impl Fn(&Samples) -> Option<f64>) -> Value {
        let each: Option<Vec<f64>> = per_cpu.iter().map(figure).collect();
        let mean = each.map(|m| m.iter().sum::<f64>() / m.len() as f64);
        Value::opt(mean, per_cpu.iter().map(Samples::len).sum())
    }
}

/// What a workload run produced: check counts, metrics, notes.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub mismatches: Vec<String>,
    pub notes: Vec<String>,
    pub setup_s: Value,
    /// Read right after the measured run, before the later set-ups.
    pub peak_rss_mb: Option<f64>,
    pub e2e: Vec<(&'static str, Value)>,
    pub layer: Vec<(&'static str, Value)>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            notes: Vec::new(),
            setup_s: Value::opt(None, 0),
            peak_rss_mb: None,
            e2e: Vec::new(),
            layer: Vec::new(),
            tracer: None,
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record `attempted` checked operations of which `failed` failed.
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A consistency check across the whole run failed.
    pub fn mismatch(&mut self, what: &str) {
        self.mismatches.push(what.to_string());
    }

    pub fn e2e(&mut self, name: &'static str, v: Value) {
        self.e2e.push((name, v));
    }

    pub fn layer(&mut self, name: &'static str, v: Value) {
        self.layer.push((name, v));
    }

    /// Stage coverage and self time per layer from a traced run. Each
    /// `root` span encloses one unit of work; the part of it no layer
    /// span covers is `trace.uncovered_frac`.
    pub fn trace_summary(&mut self, tr: &Tracer, root: &str) {
        let own = tr.self_ns();
        let (mut total, mut uncovered, mut roots) = (0u64, 0u64, 0usize);
        for (s, &o) in tr.spans().iter().zip(&own) {
            if s.name == root {
                total += s.ns();
                uncovered += o;
                roots += 1;
            }
        }
        let frac = if total == 0 { None } else { Some(uncovered as f64 / total as f64) };
        self.layer("trace.uncovered_frac", Value::opt(frac, roots));
        for (layer, ns) in tr.layer_self_ns() {
            self.note(format!("self-time {layer} {:.3} ms", ns as f64 / 1e6));
        }
    }

    /// The decoder's work counters, summed over every session of a run.
    pub fn decode_metrics(&mut self, s: &DecodeStats, reports: usize) {
        let steps = s.steps.max(1) as f64;
        let per_step = |x: u64| Value::of(x as f64 / steps, s.steps);
        self.layer("hmm.expansions_per_step", per_step(s.expansions));
        self.layer("hmm.touched_per_step", per_step(s.touched_cells));
        self.layer("hmm.pruned_per_step", per_step(s.pruned_below_min + s.pruned_beam));
        self.layer("hmm.mean_frontier", Value::of(s.mean_frontier(), s.steps));
        self.layer("hmm.adaptive_shrunk_frac", per_step(s.adaptive_shrunk_steps as u64));
        let per_report = s.expansions as f64 / reports.max(1) as f64;
        self.layer("hmm.expansions_per_report", Value::of(per_report, reports));
    }
}

/// Fold one session's decoder counters into a run total.
pub fn add_decode_stats(sum: &mut DecodeStats, s: &DecodeStats) {
    sum.steps += s.steps;
    sum.carried_steps += s.carried_steps;
    sum.expansions += s.expansions;
    sum.pruned_below_min += s.pruned_below_min;
    sum.pruned_beam += s.pruned_beam;
    sum.touched_cells += s.touched_cells;
    sum.max_frontier = sum.max_frontier.max(s.max_frontier);
    sum.total_frontier += s.total_frontier;
    sum.adaptive_shrunk_steps += s.adaptive_shrunk_steps;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_core::Json;

    /// `BENCHMARK.json` and the metric lists above name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, list.to_vec(), "{key}");
        }
    }
}
