//! Metric collection and the result line.
//!
//! Every metric carries its unit, its better direction and its sample
//! count. The end-to-end metrics come from the timed (untraced) run; the
//! per-layer metrics from the traced run, read off the span tree. A layer
//! that a workload never calls reports `0` with `0` samples, so every
//! traced result names every per-layer metric.

use crate::checks::Checks;
use crate::stats::{median, percentile};
use crate::trace::{json_str, Span, Tracer};

/// `(name, unit, better)` of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str, &str)] =
    &[("run_s", "s", "lower"), ("setup_s", "s", "lower"), ("peak_rss_mib", "MiB", "lower")];

/// `(name, unit, better)` of every per-layer metric, in print order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("dslsim.generate_s", "s", "lower"),
    ("dslsim.step_day_s", "s", "lower"),
    ("dslsim.step_day_ms_p50", "ms", "lower"),
    ("dslsim.step_day_ms_p99", "ms", "lower"),
    ("dslsim.line_days", "count", "higher"),
    ("dslsim.cpu_per_wall", "ratio", "higher"),
    ("features.encode_s", "s", "lower"),
    ("features.rows_encoded", "count", "lower"),
    ("features.cpu_per_wall", "ratio", "higher"),
    ("ml.select_s", "s", "lower"),
    ("ml.features_scored", "count", "lower"),
    ("ml.select_kept_ratio", "ratio", "higher"),
    ("ml.select_cpu_per_wall", "ratio", "higher"),
    ("ml.boost_s", "s", "lower"),
    ("ml.boost_cpu_per_wall", "ratio", "higher"),
    ("ml.calibrate_s", "s", "lower"),
    ("ml.topk_ms_p50", "ms", "lower"),
    ("predictor.fit_s", "s", "lower"),
    ("predictor.fit_cpu_per_wall", "ratio", "higher"),
    ("scoring.saturday_ms_p50", "ms", "lower"),
    ("scoring.observe_ms_p50", "ms", "lower"),
    ("scoring.rank_week_ms_p50", "ms", "lower"),
    ("scoring.lines_scored", "count", "higher"),
    ("scoring.dispatched_ratio", "ratio", "higher"),
    ("scoring.cpu_per_wall", "ratio", "higher"),
    ("scoring.retained_bytes", "bytes", "lower"),
    ("locator.fit_s", "s", "lower"),
    ("locator.models_fitted", "count", "lower"),
    ("locator.encode_examples_s", "s", "lower"),
    ("locator.rank_combined_us_p50", "us", "lower"),
    ("locator.rank_combined_us_p99", "us", "lower"),
    ("locator.cpu_per_wall", "ratio", "higher"),
    ("pipeline.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics of the final result (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Values printed for the reader but not part of the result: the
    /// workload's outcome measures (their spread across seeds is too wide
    /// to gate on) and latencies that only one workload has.
    pub notes: Vec<Metric>,
    /// Correctness checks.
    pub checks: Checks,
}

impl Report {
    /// Records an end-to-end or per-layer metric declared in
    /// [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        let (_, unit, better) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _, _)| *n == name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.push(Metric { name, value, unit, better, samples });
    }

    /// Records a value printed for the reader but not part of the result.
    pub fn note(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        better: &'static str,
        samples: usize,
    ) {
        self.notes.push(Metric { name, value, unit, better, samples });
    }

    /// Fills every declared per-layer metric this workload did not
    /// measure with `0` (the layer is off this workload's path).
    pub fn complete_layers(&mut self) {
        for (name, _, _) in PER_LAYER {
            if !self.metrics.iter().any(|m| m.name == *name) {
                self.metric(name, 0.0, 0);
            }
        }
    }

    /// Prints every metric and note, then the `RESULT` line.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.notes) {
            println!(
                "metric {:<30} = {:>14.6} {:<6} ({} is better, n={})",
                m.name, m.value, m.unit, m.better, m.samples
            );
        }
        if self.checks.attempted > 0 {
            println!(
                "metric {:<30} = {:>14.6} {:<6} (lower is better, n={})",
                "failed_ratio",
                self.checks.failed as f64 / self.checks.attempted as f64,
                "ratio",
                self.checks.attempted
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"better\":{},\"samples\":{}}}",
                    json_str(m.name),
                    json_number(m.value),
                    json_str(m.unit),
                    json_str(m.better),
                    m.samples
                )
            })
            .collect();
        println!(
            "RESULT {{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        );
    }
}

/// A finite JSON number; non-finite values become `null` (which the
/// runner rejects).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Total wall seconds and count of the spans named `name`.
pub fn wall(t: &Tracer, name: &str) -> (f64, usize) {
    t.named(name).fold((0.0, 0), |(s, n), span| (s + span.wall_s(), n + 1))
}

/// Percentile `q` of the wall times of spans named `name`, times `scale`.
pub fn wall_percentile(t: &Tracer, name: &str, q: f64, scale: f64) -> (f64, usize) {
    let v: Vec<f64> = t.named(name).map(|s| s.wall_s() * scale).collect();
    let n = v.len();
    (if q == 50.0 { median(&v) } else { percentile(&v, q) }, n)
}

/// Process CPU seconds over wall seconds, summed over spans with any of
/// the names (parallel efficiency × cores).
pub fn cpu_per_wall(t: &Tracer, names: &[&str]) -> (f64, usize) {
    let spans: Vec<&Span> = t.spans().iter().filter(|s| names.contains(&s.name)).collect();
    let wall: f64 = spans.iter().map(|s| s.wall_s()).sum();
    let cpu: f64 = spans.iter().filter_map(|s| s.cpu_s).sum();
    (if wall > 0.0 { cpu / wall } else { 0.0 }, spans.len())
}

/// Records the simulator layer from `dslsim.generate` / `dslsim.step_day`
/// spans over a plant of `n_lines`.
pub fn dslsim_layer(r: &mut Report, t: &Tracer, n_lines: usize) {
    let (gen, n_gen) = wall(t, "dslsim.generate");
    let (step, n_step) = wall(t, "dslsim.step_day");
    r.metric("dslsim.generate_s", gen, n_gen);
    r.metric("dslsim.step_day_s", step, n_step);
    let (p50, n) = wall_percentile(t, "dslsim.step_day", 50.0, 1e3);
    r.metric("dslsim.step_day_ms_p50", p50, n);
    let (p99, n) = wall_percentile(t, "dslsim.step_day", 99.0, 1e3);
    r.metric("dslsim.step_day_ms_p99", p99, n);
    r.metric("dslsim.line_days", (n_lines * n_step) as f64, n_step);
    let (cpw, n) = cpu_per_wall(t, &["dslsim.generate", "dslsim.step_day"]);
    r.metric("dslsim.cpu_per_wall", cpw, n);
}

/// Records the weekly scoring layer from the Saturday spans.
pub fn scoring_layer(
    r: &mut Report,
    t: &Tracer,
    saturday_ms: &[f64],
    n_lines: usize,
    dispatched: usize,
    retained_bytes: usize,
) {
    r.metric("scoring.saturday_ms_p50", median(saturday_ms), saturday_ms.len());
    let (obs, n) = wall_percentile(t, "scoring.observe", 50.0, 1e3);
    r.metric("scoring.observe_ms_p50", obs, n);
    let (rank, n) = wall_percentile(t, "scoring.rank_week", 50.0, 1e3);
    r.metric("scoring.rank_week_ms_p50", rank, n);
    let (topk, n) = wall_percentile(t, "ml.topk", 50.0, 1e3);
    r.metric("ml.topk_ms_p50", topk, n);
    let scored = n_lines * saturday_ms.len();
    r.metric("scoring.lines_scored", scored as f64, saturday_ms.len());
    r.metric(
        "scoring.dispatched_ratio",
        dispatched as f64 / scored.max(1) as f64,
        saturday_ms.len(),
    );
    let (cpw, n) = cpu_per_wall(t, &["scoring.observe", "scoring.rank_week"]);
    r.metric("scoring.cpu_per_wall", cpw, n);
    r.metric("scoring.retained_bytes", retained_bytes as f64, saturday_ms.len());
}

/// Records the fit and its replayed decomposition.
pub fn training_layer(r: &mut Report, t: &Tracer, replay: &crate::training::Replay) {
    let (fit, n) = wall(t, "predictor.fit");
    r.metric("predictor.fit_s", fit, n);
    let (cpw, n) = cpu_per_wall(t, &["predictor.fit"]);
    r.metric("predictor.fit_cpu_per_wall", cpw, n);
    let (enc, n) = wall(t, "features.encode");
    r.metric("features.encode_s", enc, n);
    r.metric("features.rows_encoded", replay.rows_encoded as f64, n);
    let (cpw, n) = cpu_per_wall(t, &["features.encode"]);
    r.metric("features.cpu_per_wall", cpw, n);
    let (sel, n) = wall(t, "ml.select");
    r.metric("ml.select_s", sel, n);
    r.metric("ml.features_scored", replay.features_scored as f64, n);
    r.metric(
        "ml.select_kept_ratio",
        replay.features_kept as f64 / replay.features_scored.max(1) as f64,
        n,
    );
    let (cpw, n) = cpu_per_wall(t, &["ml.select"]);
    r.metric("ml.select_cpu_per_wall", cpw, n);
    boost_layer(r, t);
    let (cal, n) = wall(t, "ml.calibrate");
    r.metric("ml.calibrate_s", cal, n);
    r.note(
        "ml.select_replay_matches",
        f64::from(u8::from(replay.selection_matches)),
        "bool",
        "higher",
        1,
    );
}

/// Records the boosting spans.
pub fn boost_layer(r: &mut Report, t: &Tracer) {
    let (boost, n) = wall(t, "ml.boost");
    r.metric("ml.boost_s", boost, n);
    let (cpw, n) = cpu_per_wall(t, &["ml.boost"]);
    r.metric("ml.boost_cpu_per_wall", cpw, n);
}

/// Records the self time of the timed root and the tracing overhead.
pub fn root_layer(r: &mut Report, t: &Tracer, root: &str, untraced_s: f64) {
    let span = t.root(root).unwrap_or_else(|| panic!("root span {root} recorded"));
    r.metric("pipeline.unattributed_s", t.self_time(span.id), 1);
    r.metric("trace.overhead_ratio", span.wall_s() / untraced_s, 1);
}
