//! Trial execution: planned trials → deterministic rows.
//!
//! Fans the planner's trial list through the same work-stealing executor
//! the figure code uses ([`crate::runner::run_indexed`]). Each trial is a
//! pure function of the spec (config and fault schedule derived only from
//! the variant binding and the trial seed), results come back in input
//! order, and trace spans are sunk sequentially in that order — so rows
//! JSONL, summary tables, and trace files are byte-identical at any
//! `--jobs` count.

use super::analysis::TrialRow;
use super::planner::{plan, Trial};
use super::spec::{LabSpec, VariantSpec};
use crate::experiments::{dispatch, Opts};
use laminar_cluster::ModelSpec;
use laminar_core::{
    generate_schedule, placement_for, ChaosConfig, FaultEvent, FaultKind, LaminarSystem, SystemKind,
};
use laminar_fleet::{
    generate_fleet_schedule, run_fleet, FleetChaosConfig, FleetConfig, FleetFaultEvent,
    FleetFaultKind,
};
use laminar_runtime::{RecordingTrace, RunReport, SystemConfig};
use laminar_sim::{Duration, Time};
use std::fmt::Write as _;

/// Builds a trial's configuration and fault schedule — a pure function of
/// `(variant, seed)`. Chaos variants pin the data RNG to the spec's
/// `data_seed` and spend the trial seed on the fault schedule (so seeds
/// sweep failure patterns over a fixed workload); fault-free variants
/// spend the trial seed on the data RNG (so seeds sweep workloads).
fn trial_setup(spec: &LabSpec, v: &VariantSpec, seed: u64) -> (SystemConfig, Vec<FaultEvent>) {
    let chaos = v.chaos_events > 0;
    let data_seed = if chaos { spec.data_seed } else { seed };
    let model = ModelSpec::qwen_7b();
    let p = placement_for(v.system, &model, v.gpus);
    let mut cfg = SystemConfig::new(
        model,
        p.train,
        p.rollout,
        p.tp,
        v.workload.generator(data_seed),
    );
    cfg.seed = data_seed;
    cfg.iterations = v.iterations;
    cfg.warmup = v.warmup;
    let faults = if chaos {
        generate_schedule(
            seed,
            &ChaosConfig {
                events: v.chaos_events,
                earliest: Time::from_secs_f64(v.chaos_earliest_secs),
                horizon: Time::from_secs_f64(v.chaos_horizon_secs),
                replicas: cfg.replicas(),
            },
        )
    } else {
        Vec::new()
    };
    (cfg, faults)
}

fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut xs = values.to_vec();
    xs.sort_unstable_by(f64::total_cmp);
    let idx = (p * (xs.len() - 1) as f64).round() as usize;
    xs[idx.min(xs.len() - 1)]
}

fn report_metrics(report: &RunReport, metrics: &mut Vec<(String, f64)>) {
    let mut push = |k: &str, v: f64| metrics.push((k.to_string(), v));
    push("throughput", report.throughput);
    push("gen_fraction", report.generation_fraction);
    push("kv_util", report.mean_kv_utilization);
    push("p50_latency_secs", percentile(&report.latencies, 0.5));
    push("p95_latency_secs", percentile(&report.latencies, 0.95));
    push("max_staleness", report.max_staleness() as f64);
    push("mixed_version_frac", report.mixed_version_fraction());
}

/// Short label for a fault kind, used in schedule notes.
pub fn fault_label(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::ReplicaCrash { .. } => "crash",
        FaultKind::TrainerCrash { .. } => "trainer",
        FaultKind::RelayOutage { .. } => "relay-outage",
        FaultKind::SlowNode { .. } => "slow-node",
        FaultKind::EnvStall { .. } => "env-stall",
    }
}

/// Renders a schedule as `kind@Ns` tokens — the row note for chaos trials.
pub fn schedule_note(schedule: &[FaultEvent]) -> String {
    let mut out = String::new();
    for (i, e) in schedule.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{}@{:.0}s", fault_label(&e.kind), e.at.as_secs_f64());
    }
    out
}

/// Builds a fleet trial's configuration — a pure function of
/// `(variant, seed)`, following the same convention as [`trial_setup`]:
/// fleet chaos variants pin the workload streams to the spec's `data_seed`
/// and spend the trial seed on the fleet fault schedule; clean fleet
/// variants spend the trial seed on the workload streams.
fn fleet_trial_setup(spec: &LabSpec, v: &VariantSpec, seed: u64) -> FleetConfig {
    let chaos = v.fleet_chaos_events > 0;
    let data_seed = if chaos { spec.data_seed } else { seed };
    let mut cfg = FleetConfig::standard(v.fleet_cells, v.fleet_tenant_classes, data_seed);
    cfg.cell_capacity = v.fleet_cell_capacity;
    cfg.horizon = Duration::from_secs_f64(v.fleet_horizon_secs);
    if chaos {
        cfg.faults = generate_fleet_schedule(
            seed,
            &FleetChaosConfig {
                events: v.fleet_chaos_events,
                earliest: Time::from_secs_f64(v.fleet_chaos_earliest_secs),
                horizon: Time::from_secs_f64(v.fleet_chaos_horizon_secs),
                cells: v.fleet_cells,
            },
        );
    }
    cfg
}

/// Short label for a fleet fault kind, used in schedule notes.
pub fn fleet_fault_label(kind: &FleetFaultKind) -> &'static str {
    match kind {
        FleetFaultKind::CellCrash { .. } => "cell-crash",
        FleetFaultKind::CellSlow { .. } => "cell-slow",
        FleetFaultKind::RouterPartition { .. } => "partition",
    }
}

/// Renders a fleet schedule as `kind@Ns` tokens — the row note for fleet
/// chaos trials.
pub fn fleet_schedule_note(schedule: &[FleetFaultEvent]) -> String {
    let mut out = String::new();
    for (i, e) in schedule.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(
            out,
            "{}@{:.0}s",
            fleet_fault_label(&e.kind),
            e.at.as_secs_f64()
        );
    }
    out
}

/// Runs one fleet trial: the fleet driver has no span tracing (its cells
/// are service entities, not instrumented systems), so the trace slot is
/// always empty.
fn run_fleet_trial(spec: &LabSpec, v: &VariantSpec, trial: &Trial) -> TrialRow {
    let cfg = fleet_trial_setup(spec, v, trial.seed);
    let note = fleet_schedule_note(&cfg.faults);
    let run = run_fleet(&cfg);
    let r = &run.report;
    let mut metrics = Vec::new();
    let mut push = |k: &str, x: f64| metrics.push((k.to_string(), x));
    push("goodput", r.goodput_rps);
    push("arrivals", r.arrivals as f64);
    push("admitted", r.admitted as f64);
    push("completed", r.completed as f64);
    push("redispatched", r.redispatched as f64);
    push("rate_deferred", r.rate_deferred as f64);
    push("quarantine_entries", r.quarantine_entries as f64);
    push("probes", r.probes as f64);
    push("faults", r.faults_applied as f64);
    push("p50_latency_secs", r.p50_latency_secs);
    push("p95_latency_secs", r.p95_latency_secs);
    push("starvation_margin", r.starvation_margin);
    push("goodput_retained", r.goodput_retained);
    push("mttr_secs", r.mttr_max_secs);
    push("makespan_secs", r.makespan_secs);
    push("violations", run.violations().len() as f64);
    TrialRow {
        variant: v.name.clone(),
        seed: trial.seed,
        repeat: trial.repeat,
        metrics,
        note,
    }
}

/// Runs one trial, returning its row and (when tracing) its span record.
fn run_trial(spec: &LabSpec, trial: &Trial, tracing: bool) -> (TrialRow, Option<RecordingTrace>) {
    let v = &spec.variants[trial.variant];
    if v.fleet_cells > 0 {
        return (run_fleet_trial(spec, v, trial), None);
    }
    let (cfg, faults) = trial_setup(spec, v, trial.seed);
    let mut metrics = Vec::new();
    let (note, trace) = if v.system == SystemKind::Laminar {
        // Laminar always runs under the invariant checker: audit metrics
        // (violations, redirects, degraded entries, …) come for free even
        // on fault-free variants.
        let note = schedule_note(&faults);
        let sys = LaminarSystem {
            faults,
            ..LaminarSystem::default()
        };
        let run = sys.run_chaos(&cfg);
        report_metrics(&run.report, &mut metrics);
        let mut push = |k: &str, x: f64| metrics.push((k.to_string(), x));
        push("faults", run.outcome.audit.faults_applied as f64);
        push("admitted", run.outcome.admitted() as f64);
        push("completed", run.outcome.completed() as f64);
        push("redirects", run.outcome.audit.redirects as f64);
        push("repooled", run.outcome.audit.repooled as f64);
        push(
            "degraded_entries",
            run.outcome.audit.degraded_entries as f64,
        );
        push(
            "breaker_trips",
            run.outcome.breaker_trips.iter().sum::<u64>() as f64,
        );
        push("breaker_blocked", run.outcome.audit.breaker_blocked as f64);
        push("env_aborts", run.outcome.env_aborts as f64);
        push("violations", run.violations().len() as f64);
        if v.checkpoint_every_secs > 0.0 {
            // Checkpoint validation rides along: the same system (faults
            // and all) re-runs under the resume checker, which commits a
            // delta checkpoint at every cadence point, verifies every
            // manifest chain and fingerprint, and resumes from the final
            // checkpoint only — O(run) even at tight cadences, so soak
            // specs can commit hundreds of checkpoints per trial.
            let soak = laminar_runtime::check_resume_equivalence(
                &sys,
                &cfg,
                laminar_sim::Duration::from_secs_f64(v.checkpoint_every_secs),
                laminar_runtime::ResumeFrom::Last,
            );
            let c = &soak.cost;
            let pts = c.points.max(1) as f64;
            push("ckpt_points", c.points as f64);
            push("ckpt_identical", if soak.identical() { 1.0 } else { 0.0 });
            push("ckpt_delta_bytes_per_point", c.delta_bytes as f64 / pts);
            push("ckpt_whole_bytes_per_point", c.whole_bytes as f64 / pts);
            push("ckpt_steady_ratio", c.steady_ratio());
            push(
                "ckpt_chunk_reuse_frac",
                c.chunks_reused as f64 / (c.chunks_total as f64).max(1.0),
            );
        }
        (note, tracing.then_some(run.trace))
    } else {
        let (report, trace) = if tracing {
            let mut rec = RecordingTrace::new();
            let report = dispatch(v.system, &cfg, &mut rec);
            (report, Some(rec))
        } else {
            (
                dispatch(v.system, &cfg, &mut laminar_runtime::NullTrace),
                None,
            )
        };
        report_metrics(&report, &mut metrics);
        (String::new(), trace)
    };
    (
        TrialRow {
            variant: v.name.clone(),
            seed: trial.seed,
            repeat: trial.repeat,
            metrics,
            note,
        },
        trace,
    )
}

/// Plans and executes a spec, returning one row per trial in plan order.
/// Trials fan across [`Opts::jobs`] workers; trace spans (when
/// [`Opts::trace`] is set) are sunk in plan order after each trial's
/// result is collected, preserving byte-identical output at any job count.
pub fn run_lab(spec: &LabSpec, opts: &Opts) -> Vec<TrialRow> {
    let trials = plan(spec);
    let tracing = opts.tracing();
    let results = crate::runner::run_indexed(trials, opts.jobs, |_, trial| {
        run_trial(spec, &trial, tracing)
    });
    results
        .into_iter()
        .map(|(row, trace)| {
            if let Some(tr) = trace {
                opts.sink_trace(&tr);
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::analysis::write_rows_jsonl;

    const SPEC: &str = r#"
name = "exec-test"
seeds = [1, 2]
repeats = 1
data_seed = 7

[variant.laminar]
system = "laminar"
gpus = 16
iterations = 2
chaos_events = 2
chaos_horizon_secs = 60.0

[variant.verl]
system = "verl"
gpus = 16
iterations = 2
"#;

    #[test]
    fn rows_carry_expected_metrics() {
        let spec = LabSpec::parse(SPEC).expect("parse");
        let rows = run_lab(&spec, &Opts::default());
        assert_eq!(rows.len(), 4);
        let lam = &rows[0];
        assert_eq!(lam.variant, "laminar");
        assert!(lam.metric("throughput").unwrap() > 0.0);
        assert!(lam.metric("violations").is_some());
        assert_eq!(lam.metric("faults"), Some(2.0));
        assert!(!lam.note.is_empty(), "chaos rows carry a schedule note");
        let verl = rows.iter().find(|r| r.variant == "verl").expect("verl row");
        assert!(verl.metric("throughput").unwrap() > 0.0);
        assert!(verl.metric("violations").is_none());
    }

    const FLEET_SPEC: &str = r#"
name = "fleet-exec-test"
seeds = [3, 4]
repeats = 1
data_seed = 7

[variant.fleet-clean]
fleet_cells = 4
fleet_tenant_classes = 3
fleet_horizon_secs = 240.0

[variant.fleet-chaos]
fleet_cells = 4
fleet_tenant_classes = 3
fleet_horizon_secs = 240.0
fleet_chaos_events = 3
fleet_chaos_earliest_secs = 40.0
fleet_chaos_horizon_secs = 180.0
"#;

    #[test]
    fn fleet_rows_carry_expected_metrics() {
        let spec = LabSpec::parse(FLEET_SPEC).expect("parse");
        let rows = run_lab(&spec, &Opts::default());
        assert_eq!(rows.len(), 4);
        let clean = &rows[0];
        assert_eq!(clean.variant, "fleet-clean");
        assert!(clean.metric("goodput").unwrap() > 0.0);
        assert_eq!(clean.metric("violations"), Some(0.0));
        assert_eq!(clean.metric("faults"), Some(0.0));
        assert!(clean.note.is_empty(), "clean fleet rows carry no schedule");
        let chaos = rows
            .iter()
            .find(|r| r.variant == "fleet-chaos")
            .expect("chaos row");
        assert_eq!(chaos.metric("violations"), Some(0.0));
        assert_eq!(chaos.metric("faults"), Some(3.0));
        assert!(chaos.metric("starvation_margin").unwrap() >= 0.5);
        assert!(!chaos.note.is_empty(), "fleet chaos rows carry a schedule");
    }

    /// Fleet chaos variants pin workload streams to `data_seed` and spend
    /// the trial seed on the fault schedule — so two seeds see the same
    /// arrival pattern under different failure patterns.
    #[test]
    fn fleet_chaos_pins_data_seed_and_sweeps_schedules() {
        let spec = LabSpec::parse(FLEET_SPEC).expect("parse");
        let chaos = &spec.variants[1];
        let a = fleet_trial_setup(&spec, chaos, 3);
        let b = fleet_trial_setup(&spec, chaos, 4);
        assert_eq!(a.seed, b.seed, "workload streams pinned to data_seed");
        assert_ne!(a.faults, b.faults, "trial seed sweeps fault schedules");
        let clean = &spec.variants[0];
        assert_ne!(
            fleet_trial_setup(&spec, clean, 3).seed,
            fleet_trial_setup(&spec, clean, 4).seed,
            "clean variants sweep workloads instead"
        );
    }

    #[test]
    fn fleet_rows_are_jobs_invariant() {
        let spec = LabSpec::parse(FLEET_SPEC).expect("parse");
        let serial = run_lab(
            &spec,
            &Opts {
                jobs: 1,
                ..Opts::default()
            },
        );
        let parallel = run_lab(
            &spec,
            &Opts {
                jobs: 8,
                ..Opts::default()
            },
        );
        assert_eq!(
            write_rows_jsonl(&spec.name, &serial),
            write_rows_jsonl(&spec.name, &parallel),
            "fleet rows must be byte-identical across --jobs"
        );
    }

    #[test]
    fn rows_are_jobs_invariant() {
        let spec = LabSpec::parse(SPEC).expect("parse");
        let serial = run_lab(
            &spec,
            &Opts {
                jobs: 1,
                ..Opts::default()
            },
        );
        let parallel = run_lab(
            &spec,
            &Opts {
                jobs: 8,
                ..Opts::default()
            },
        );
        assert_eq!(
            write_rows_jsonl(&spec.name, &serial),
            write_rows_jsonl(&spec.name, &parallel)
        );
    }
}
