//! The metric tables (mirrored in `BENCHMARK.json`), the result line, and
//! the small statistics the metrics are computed with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed with `--trace 0`, in this order.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("host_trajs_per_s", "1/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    m("ok_frac", "frac", Higher),
    m("train_tokens_per_vs", "tokens/vs", Higher),
    m("staleness_mean", "versions", Lower),
    m("speedup_vs_best", "x", Higher),
    m("tput_retained", "frac", Higher),
];

/// Per-layer metrics, printed with `--trace 1`, in this order.
pub const PER_LAYER: &[MetricDef] = &[
    m("workload.gen_s", "s", Lower),
    m("workload.len_p99_over_p50", "x", Lower),
    m("workload.env_calls_per_traj", "count", Lower),
    m("rollout.events", "count", Lower),
    m("rollout.ns_per_event", "ns", Lower),
    m("rollout.allocs_per_event", "count", Lower),
    m("rollout.tokens_decoded", "tokens", Higher),
    m("rollout.mean_decode_batch", "count", Higher),
    m("rollout.kv_util_mean", "frac", Higher),
    m("rollout.repack_events", "count", Lower),
    m("rollout.repack_released", "count", Higher),
    m("rollout.repack_overhead_vs", "vs", Lower),
    m("rollout.decode_vs", "vs", Lower),
    m("rollout.prefill_vs", "vs", Lower),
    m("rollout.env_vs", "vs", Lower),
    m("rollout.self_s", "s", Lower),
    m("relay.weight_sync_vs", "vs", Lower),
    m("relay.rollout_wait_vs_p50", "vs", Lower),
    m("relay.rollout_wait_vs_p90", "vs", Lower),
    m("data.staleness_p50", "versions", Lower),
    m("data.staleness_max", "versions", Lower),
    m("data.mixed_version_frac", "frac", Lower),
    m("core.run_s", "s", Lower),
    m("core.share", "frac", Lower),
    m("core.self_s", "s", Lower),
    m("core.train_vs", "vs", Lower),
    m("core.stall_vs", "vs", Lower),
    m("core.chaos.faults", "count", Lower),
    m("core.chaos.redirects", "count", Lower),
    m("core.chaos.repooled", "count", Lower),
    m("core.chaos.breaker_trips", "count", Lower),
    m("core.chaos.env_aborts", "count", Lower),
    m("core.chaos.violations", "count", Lower),
    m("baselines.verl.run_s", "s", Lower),
    m("baselines.one-step.run_s", "s", Lower),
    m("baselines.stream-gen.run_s", "s", Lower),
    m("baselines.areal.run_s", "s", Lower),
    m("baselines.share", "frac", Lower),
    m("baselines.self_s", "s", Lower),
    m("baselines.gen_fraction", "frac", Lower),
    m("baselines.best_tokens_per_vs", "tokens/vs", Higher),
    m("runtime.trace.spans", "count", Lower),
    m("runtime.trace.jsonl_mb", "MB", Lower),
    m("runtime.trace.jsonl_s", "s", Lower),
    m("runtime.trace.record_overhead_frac", "frac", Lower),
    m("runtime.trace.self_s", "s", Lower),
    m("runtime.delta.points", "count", Lower),
    m("runtime.delta.commit_s_per_point", "s", Lower),
    m("runtime.delta.verify_s_per_point", "s", Lower),
    m("runtime.delta.resume_s_p50", "s", Lower),
    m("runtime.delta.resumes", "count", Higher),
    m("runtime.delta.bytes_per_point", "B", Lower),
    m("runtime.delta.stored_mb", "MB", Lower),
    m("runtime.delta.chunk_reuse_frac", "frac", Higher),
    m("runtime.delta.allocs_per_point", "count", Lower),
    m("runtime.delta.self_s", "s", Lower),
    m("bench.self_s", "s", Lower),
    m("bench.layer_coverage", "frac", Higher),
    m("bench.trace_overhead_frac", "frac", Lower),
    m("bench.fail_frac", "frac", Lower),
];

/// One human-readable line per metric, for the log above the result line.
pub fn table(defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::new();
    for d in defs {
        writeln!(
            out,
            "  {:<40} {:>16.6} {:<10} ({} is better)",
            d.name,
            values.get(d.name).copied().unwrap_or(f64::NAN),
            d.unit,
            d.better.as_str()
        )
        .expect("fmt::Write on String is infallible");
    }
    out
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the result line. Every metric of `defs` must be present in
/// `values`, and no other; a value that is not finite marks the run
/// incorrect and is printed as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
    let given: Vec<&str> = values.keys().copied().collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, given, "metric set must match the table exactly");
    let finite = values.values().all(|v| v.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, d) in defs.iter().enumerate() {
        let v = values[d.name];
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(v),
            d.unit
        )
        .expect("fmt::Write on String is infallible");
    }
    out.push_str("}}");
    out
}

/// A finite f64 as a JSON number with every digit of its shortest
/// round-trip form (`{}` of an integral f64 has no fraction; keep it so).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s == "-0" {
        "0".into()
    } else {
        s
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
