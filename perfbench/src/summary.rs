//! Turns set-up timings and rounds into the end-to-end and per-layer
//! metric values.
//!
//! Simulated metrics come from the first round (every round repeats it
//! exactly); count-type per-layer metrics come from the first traced round;
//! host timings come from the rounds of the right kind (untraced for the
//! end-to-end metrics, traced for the per-layer ones).

use crate::calib::to_reference;
use crate::metrics::{geomean, mean, median, quantile, ratio, Values};
use crate::spans::{layer_of, self_times, Span};
use crate::workloads::{ChaosOut, Inputs, RoundOut, RunOut, SpanTally};
use laminar_core::SystemKind;
use std::collections::BTreeMap;

/// Everything a run measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Host seconds of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Generator seconds of each set-up repetition.
    pub gen_secs: Vec<f64>,
    /// The inputs set-up produced.
    pub inputs: Option<Inputs>,
    /// Every round, in order.
    pub rounds: Vec<RoundOut>,
    /// Peak resident memory of the process, MB.
    pub peak_rss_mb: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
}

fn laminar_runs(r: &RoundOut) -> impl Iterator<Item = &RunOut> {
    r.runs.iter().filter(|x| x.kind == SystemKind::Laminar)
}

fn baseline_runs(r: &RoundOut) -> impl Iterator<Item = &RunOut> {
    r.runs.iter().filter(|x| x.kind != SystemKind::Laminar)
}

/// Every Laminar report of a round: its jobs plus the chaos run.
fn laminar_reports(r: &RoundOut) -> Vec<&laminar_runtime::RunReport> {
    let mut v: Vec<_> = laminar_runs(r).map(|x| &x.report).collect();
    if let Some(c) = &r.chaos {
        v.push(&c.report);
    }
    v
}

/// Laminar over the best baseline at each scale, as a geometric mean; 1 when
/// the round runs no baseline.
fn speedup_vs_best(r: &RoundOut) -> f64 {
    let ratios: Vec<f64> = laminar_runs(r)
        .filter_map(|lam| {
            baseline_runs(r)
                .filter(|b| b.gpus == lam.gpus)
                .map(|b| b.report.throughput)
                .reduce(f64::max)
                .map(|best| lam.report.throughput / best)
        })
        .collect();
    if ratios.is_empty() {
        1.0
    } else {
        geomean(&ratios)
    }
}

/// Best baseline throughput at each scale, as a geometric mean (0 without
/// baselines).
fn best_baseline(r: &RoundOut) -> f64 {
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    for b in baseline_runs(r) {
        let e = best.entry(b.gpus).or_insert(0.0);
        *e = e.max(b.report.throughput);
    }
    geomean(&best.into_values().collect::<Vec<_>>())
}

/// Host seconds of one round on the reference host: the sum over the
/// round's ops of each op's median across `rounds`, every repeat rescaled by
/// the reference-kernel pass right before it (see `calib`). Every round
/// issues the same ops on the same inputs. On a shared host an op's time
/// swings by up to half between repeats: the fastest repeat is one lucky
/// outlier that varies from run to run, while the rescaled median repeats
/// across runs. No op is left out.
fn reference_round_secs(rounds: &[&RoundOut]) -> f64 {
    let ops = rounds.iter().map(|r| r.op_secs.len()).min().unwrap_or(0);
    (0..ops)
        .map(|i| {
            let secs: Vec<f64> = rounds
                .iter()
                .map(|r| to_reference(r.op_secs[i], r.op_kernel_secs[i]))
                .collect();
            median(&secs)
        })
        .sum()
}

/// The end-to-end metrics.
pub fn end_to_end(m: &Measured) -> Values {
    let r0 = m.rounds.first().cloned().unwrap_or_default();
    let untraced: Vec<&RoundOut> = m.rounds.iter().filter(|r| !r.traced).collect();
    let reports = laminar_reports(&r0);
    let staleness: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.consumed.iter().map(|c| c.staleness as f64))
        .collect();
    let tput: Vec<f64> = reports.iter().map(|r| r.throughput).collect();
    let mut v = Values::new();
    v.insert("setup_s", median(&m.setup_secs));
    v.insert(
        "host_trajs_per_s",
        ratio(r0.trajs as f64, reference_round_secs(&untraced)),
    );
    v.insert("peak_rss_mb", m.peak_rss_mb);
    v.insert(
        "ok_frac",
        1.0 - ratio(m.failed as f64, m.attempted.max(1) as f64),
    );
    v.insert("train_tokens_per_vs", geomean(&tput));
    v.insert("staleness_mean", mean(&staleness));
    v.insert("speedup_vs_best", speedup_vs_best(&r0));
    v.insert(
        "tput_retained",
        r0.chaos.as_ref().map_or(1.0, |c| c.retained),
    );
    v
}

/// Host-time figures read off the traced rounds' spans.
struct SpanFigures {
    rounds: usize,
    round_secs: f64,
    self_by_layer: BTreeMap<&'static str, f64>,
    dur_by_name: BTreeMap<&'static str, Vec<f64>>,
}

fn span_figures(spans: &[Span]) -> SpanFigures {
    let selfs = self_times(spans);
    let in_round: Vec<bool> = {
        let mut flags = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            flags[i] = s.name == "bench.round" || s.parent.is_some_and(|p| flags[p]);
        }
        flags
    };
    let mut f = SpanFigures {
        rounds: 0,
        round_secs: 0.0,
        self_by_layer: BTreeMap::new(),
        dur_by_name: BTreeMap::new(),
    };
    for (i, s) in spans.iter().enumerate() {
        if !in_round[i] {
            continue;
        }
        if s.name == "bench.round" {
            f.rounds += 1;
            f.round_secs += s.dur_ns() as f64 * 1e-9;
        }
        *f.self_by_layer.entry(layer_of(s.name)).or_insert(0.0) += selfs[i] as f64 * 1e-9;
        f.dur_by_name
            .entry(s.name)
            .or_default()
            .push(s.dur_ns() as f64 * 1e-9);
    }
    f
}

impl SpanFigures {
    fn self_per_round(&self, layer: &str) -> f64 {
        ratio(
            self.self_by_layer.get(layer).copied().unwrap_or(0.0),
            self.rounds as f64,
        )
    }

    fn share(&self, layer: &str) -> f64 {
        ratio(
            self.self_by_layer.get(layer).copied().unwrap_or(0.0),
            self.round_secs,
        )
    }

    fn mean_dur(&self, pred: impl Fn(&str) -> bool) -> f64 {
        let xs: Vec<f64> = self
            .dur_by_name
            .iter()
            .filter(|(n, _)| pred(n))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        mean(&xs)
    }
}

/// The per-layer metrics.
pub fn per_layer(m: &Measured, spans: &[Span]) -> Values {
    let r0 = m.rounds.first().cloned().unwrap_or_default();
    let traced: Vec<&RoundOut> = m.rounds.iter().filter(|r| r.traced).collect();
    let t0 = traced.first().copied().cloned().unwrap_or_default();
    let sf = span_figures(spans);
    let mut v = Values::new();

    let inputs = m.inputs.as_ref();
    v.insert("workload.gen_s", median(&m.gen_secs));
    v.insert(
        "workload.len_p99_over_p50",
        inputs.map_or(0.0, |i| i.len_p99_over_p50),
    );
    v.insert(
        "workload.env_calls_per_traj",
        inputs.map_or(0.0, |i| i.env_calls_per_traj),
    );

    let ns_per_event: Vec<f64> = traced
        .iter()
        .map(|r| ratio(r.probe.secs * 1e9, r.probe.events as f64))
        .collect();
    v.insert("rollout.events", t0.probe.events as f64);
    v.insert("rollout.ns_per_event", median(&ns_per_event));
    v.insert(
        "rollout.allocs_per_event",
        ratio(t0.probe.allocs as f64, t0.probe.events as f64),
    );
    v.insert("rollout.mean_decode_batch", t0.probe.mean_decode_batch);
    let tallies: Vec<SpanTally> = laminar_runs(&t0).filter_map(|x| x.tally).collect();
    let tally_mean = |f: fn(&SpanTally) -> f64| mean(&tallies.iter().map(f).collect::<Vec<_>>());
    v.insert(
        "rollout.tokens_decoded",
        tally_mean(|t| t.decode_tokens as f64),
    );
    let reports = laminar_reports(&r0);
    let report_mean = |f: fn(&laminar_runtime::RunReport) -> f64| {
        mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    v.insert(
        "rollout.kv_util_mean",
        report_mean(|r| r.mean_kv_utilization),
    );
    v.insert(
        "rollout.repack_events",
        report_mean(|r| r.repack_events as f64),
    );
    v.insert(
        "rollout.repack_released",
        report_mean(|r| r.repack_released as f64),
    );
    v.insert(
        "rollout.repack_overhead_vs",
        report_mean(|r| r.repack_overhead_secs),
    );
    v.insert("rollout.decode_vs", tally_mean(|t| t.decode_vs));
    v.insert("rollout.prefill_vs", tally_mean(|t| t.prefill_vs));
    v.insert("rollout.env_vs", tally_mean(|t| t.env_vs));
    v.insert("rollout.self_s", sf.self_per_round("rollout"));

    let waits: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.rollout_waits.iter().copied())
        .collect();
    v.insert("relay.weight_sync_vs", tally_mean(|t| t.weight_sync_vs));
    v.insert("relay.rollout_wait_vs_p50", quantile(&waits, 0.5));
    v.insert("relay.rollout_wait_vs_p90", quantile(&waits, 0.9));

    let staleness: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.consumed.iter().map(|c| c.staleness as f64))
        .collect();
    let consumed: usize = reports.iter().map(|r| r.consumed.len()).sum();
    let mixed: usize = reports
        .iter()
        .map(|r| r.consumed.iter().filter(|c| c.mixed_version).count())
        .sum();
    v.insert("data.staleness_p50", quantile(&staleness, 0.5));
    v.insert(
        "data.staleness_max",
        staleness.iter().copied().fold(0.0, f64::max),
    );
    v.insert(
        "data.mixed_version_frac",
        ratio(mixed as f64, consumed as f64),
    );

    v.insert(
        "core.run_s",
        sf.mean_dur(|n| layer_of(n) == "core" && n.starts_with("core.run")),
    );
    v.insert("core.share", sf.share("core"));
    v.insert("core.self_s", sf.self_per_round("core"));
    v.insert("core.train_vs", tally_mean(|t| t.train_vs));
    v.insert("core.stall_vs", tally_mean(|t| t.stall_vs));
    let chaos = r0.chaos.clone().unwrap_or_default();
    v.insert("core.chaos.faults", chaos.faults as f64);
    v.insert("core.chaos.redirects", chaos.redirects as f64);
    v.insert("core.chaos.repooled", chaos.repooled as f64);
    v.insert("core.chaos.breaker_trips", chaos.breaker_trips as f64);
    v.insert("core.chaos.env_aborts", chaos.env_aborts as f64);
    v.insert("core.chaos.violations", chaos.violations as f64);

    for (metric, span) in [
        ("baselines.verl.run_s", "baselines.verl.run"),
        ("baselines.one-step.run_s", "baselines.one-step.run"),
        ("baselines.stream-gen.run_s", "baselines.stream-gen.run"),
        ("baselines.areal.run_s", "baselines.areal.run"),
    ] {
        v.insert(metric, sf.mean_dur(|n| n == span));
    }
    v.insert("baselines.share", sf.share("baselines"));
    v.insert("baselines.self_s", sf.self_per_round("baselines"));
    let gen_fraction: Vec<f64> = baseline_runs(&r0)
        .map(|b| b.report.generation_fraction)
        .collect();
    v.insert("baselines.gen_fraction", mean(&gen_fraction));
    v.insert("baselines.best_tokens_per_vs", best_baseline(&r0));

    let traced_chaos: Vec<&ChaosOut> = traced.iter().filter_map(|r| r.chaos.as_ref()).collect();
    let tc0 = t0.chaos.clone().unwrap_or_default();
    let per_round = |f: &dyn Fn(&ChaosOut) -> f64| {
        median(&traced_chaos.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    v.insert("runtime.trace.spans", tc0.trace_spans as f64);
    v.insert("runtime.trace.jsonl_mb", tc0.jsonl_bytes as f64 / 1e6);
    v.insert("runtime.trace.jsonl_s", per_round(&|c| mean(&c.jsonl_secs)));
    v.insert(
        "runtime.trace.record_overhead_frac",
        per_round(&|c| ratio(c.chaos_secs, c.null_secs) - 1.0),
    );
    v.insert("runtime.trace.self_s", sf.self_per_round("runtime.trace"));

    let points = tc0.commits.len() as f64;
    v.insert("runtime.delta.points", points);
    v.insert(
        "runtime.delta.commit_s_per_point",
        per_round(&|c| ratio(c.ckpt_secs - c.chaos_secs, c.commits.len() as f64)),
    );
    v.insert(
        "runtime.delta.verify_s_per_point",
        per_round(&|c| mean(&c.verify_secs)),
    );
    let resumes: Vec<f64> = traced_chaos
        .iter()
        .flat_map(|c| c.resume_secs.iter().copied())
        .collect();
    v.insert("runtime.delta.resume_s_p50", median(&resumes));
    v.insert("runtime.delta.resumes", resumes.len() as f64);
    let delta_bytes: u64 = tc0.commits.iter().map(|c| c.delta_bytes).sum();
    let chunks: usize = tc0.commits.iter().map(|c| c.chunks_total).sum();
    let reused: usize = tc0.commits.iter().map(|c| c.chunks_reused).sum();
    v.insert(
        "runtime.delta.bytes_per_point",
        ratio(delta_bytes as f64, points),
    );
    v.insert("runtime.delta.stored_mb", tc0.stored_bytes as f64 / 1e6);
    v.insert(
        "runtime.delta.chunk_reuse_frac",
        ratio(reused as f64, chunks as f64),
    );
    v.insert(
        "runtime.delta.allocs_per_point",
        ratio(
            tc0.ckpt_allocs.saturating_sub(tc0.chaos_allocs) as f64,
            points,
        ),
    );
    v.insert("runtime.delta.self_s", sf.self_per_round("runtime.delta"));

    let untraced_wall: Vec<f64> = m
        .rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.wall_secs)
        .collect();
    let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall_secs).collect();
    v.insert("bench.self_s", sf.self_per_round("bench"));
    v.insert("bench.layer_coverage", 1.0 - sf.share("bench"));
    v.insert(
        "bench.trace_overhead_frac",
        ratio(median(&traced_wall), median(&untraced_wall)) - 1.0,
    );
    v.insert(
        "bench.fail_frac",
        ratio(m.failed as f64, m.attempted.max(1) as f64),
    );
    v
}
