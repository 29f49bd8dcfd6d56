//! The three workloads: their generated inputs (set-up), the closed-loop
//! round of ops each one repeats, and the checks on every op's output.
//!
//! One client on one thread issues every op (one public-API call) only after
//! the previous op completed. A round is the workload's fixed list of ops;
//! every round repeats it on the same inputs, so each op must reproduce its
//! first result exactly.

use crate::check::{compare, digest, Evidence};
use crate::client::Client;
use crate::metrics::{quantile, ratio};
use laminar_baselines::{OneStepStaleness, PartialRollout, StreamGeneration, VerlSync};
use laminar_bench::alloc_count;
use laminar_cluster::ModelSpec;
use laminar_core::{
    generate_schedule, placement_for, ChaosConfig, ChaosOutcome, FaultEvent, LaminarSystem,
    SystemKind,
};
use laminar_rollout::ReplicaEngine;
use laminar_runtime::recovery::Recoverable;
use laminar_runtime::{
    CommitStats, DeltaStore, NullTrace, RecordingTrace, RlSystem, RunReport, SpanKind,
    SystemConfig, TraceSink, TraceSpan,
};
use laminar_sim::{Duration, Time};
use laminar_workload::{Checkpoint, TrajectorySpec, WorkloadGenerator};

/// Delta checkpoints per `chaos-ckpt` run. The virtual cadence is the chaos
/// run's virtual length over `CKPT_POINTS + 0.5`, so every seed commits the
/// same number of points (about one per 115 virtual seconds) and a fault
/// schedule that lengthens the run does not add host work by adding points.
pub const CKPT_POINTS: usize = 20;
/// Faults in each `chaos-ckpt` schedule.
const CHAOS_EVENTS: usize = 6;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Laminar alone on single-turn math at six GPU scales.
    MathLaminar,
    /// All five systems on multi-turn tool calling at three scales.
    Tool5Sys,
    /// Laminar under a fault schedule, delta-checkpointed, verified and
    /// resumed.
    ChaosCkpt,
}

impl Workload {
    /// Every workload with its CLI name.
    pub const ALL: [(&'static str, Workload); 3] = [
        ("math-laminar", Workload::MathLaminar),
        ("tool-5sys", Workload::Tool5Sys),
        ("chaos-ckpt", Workload::ChaosCkpt),
    ];

    /// Looks a workload up by CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|&(n, _)| n)
            .expect("every workload is listed")
    }
}

/// One system run of the workload: a distinct simulated job.
#[derive(Debug, Clone)]
pub struct Job {
    /// System under test.
    pub kind: SystemKind,
    /// Total GPUs of the scale point.
    pub gpus: usize,
    /// The generated configuration the system receives.
    pub cfg: SystemConfig,
}

/// Everything set-up generates from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Distinct jobs, in op order.
    pub jobs: Vec<Job>,
    /// `chaos-ckpt` only: the fault schedule.
    pub faults: Vec<FaultEvent>,
    /// One replica batch from the workload's generator, for the engine probe.
    pub probe_specs: Vec<TrajectorySpec>,
    /// p99 over p50 of response tokens in one generated global batch.
    pub len_p99_over_p50: f64,
    /// Mean environment calls per trajectory in that batch.
    pub env_calls_per_traj: f64,
    /// Host seconds spent in the workload generator.
    pub gen_s: f64,
}

fn job(kind: SystemKind, model: ModelSpec, gpus: usize, workload: WorkloadGenerator) -> Job {
    let p = placement_for(kind, &model, gpus);
    let mut cfg = SystemConfig::new(model, p.train, p.rollout, p.tp, workload);
    cfg.seed = cfg.workload.seed;
    cfg.warmup = 2;
    cfg.iterations = 2;
    Job { kind, gpus, cfg }
}

/// Generates the workload's inputs from `seed`.
pub fn setup(w: Workload, seed: u64, client: &mut Client) -> Inputs {
    let open = client.tracer.open("bench.setup", None);
    let (generator, jobs) = match w {
        Workload::MathLaminar => {
            let g = WorkloadGenerator::single_turn(seed, Checkpoint::Math7B);
            let mut jobs = Vec::new();
            for (model, scales) in [
                (ModelSpec::qwen_7b(), [16, 64, 256]),
                (ModelSpec::qwen_32b(), [32, 128, 512]),
            ] {
                for gpus in scales {
                    jobs.push(job(SystemKind::Laminar, model.clone(), gpus, g.clone()));
                }
            }
            (g, jobs)
        }
        Workload::Tool5Sys => {
            let g = WorkloadGenerator::multi_turn(seed);
            let mut jobs = Vec::new();
            for gpus in [16, 64, 256] {
                for kind in SystemKind::all() {
                    jobs.push(job(kind, ModelSpec::qwen_7b(), gpus, g.clone()));
                }
            }
            (g, jobs)
        }
        Workload::ChaosCkpt => {
            let g = WorkloadGenerator::single_turn(seed, Checkpoint::Math7B);
            let mut j = job(SystemKind::Laminar, ModelSpec::qwen_7b(), 16, g.clone());
            j.cfg.warmup = 0;
            (g, vec![j])
        }
    };
    let faults = match w {
        Workload::ChaosCkpt => client.tracer.span("core.generate_schedule", None, || {
            generate_schedule(
                seed,
                &ChaosConfig {
                    events: CHAOS_EVENTS,
                    earliest: Time::from_secs(10),
                    horizon: Time::from_secs(150),
                    replicas: jobs[0].cfg.replicas(),
                },
            )
        }),
        _ => Vec::new(),
    };
    let first = &jobs[0].cfg;
    let mut dataset = first.dataset();
    let global = dataset.next_batch(first.prompts_per_batch);
    let replica_batch = (first.global_batch() / first.replicas()).min(first.max_concurrency);
    let probe = dataset.next_batch((replica_batch / first.group_size).max(1));
    let t0 = std::time::Instant::now();
    let (sample, probe_specs) = client.tracer.span("workload.batch", None, || {
        (generator.batch(&global, 1.0), generator.batch(&probe, 1.0))
    });
    let gen_s = t0.elapsed().as_secs_f64();
    let lens: Vec<f64> = sample.iter().map(|t| t.decode_tokens() as f64).collect();
    let calls: usize = sample.iter().map(|t| t.env_calls()).sum();
    client.tracer.close(open);
    Inputs {
        jobs,
        faults,
        probe_specs,
        len_p99_over_p50: ratio(quantile(&lens, 0.99), quantile(&lens, 0.5)),
        env_calls_per_traj: calls as f64 / sample.len().max(1) as f64,
        gen_s,
    }
}

/// Virtual seconds and tokens per span kind: a counting [`TraceSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTally {
    /// Tokens carried by decode spans.
    pub decode_tokens: u64,
    /// Virtual seconds of decode spans.
    pub decode_vs: f64,
    /// Virtual seconds of prefill spans.
    pub prefill_vs: f64,
    /// Virtual seconds of environment calls.
    pub env_vs: f64,
    /// Virtual seconds of weight transfers.
    pub weight_sync_vs: f64,
    /// Virtual seconds of trainer steps.
    pub train_vs: f64,
    /// Virtual seconds of stalls.
    pub stall_vs: f64,
}

impl TraceSink for SpanTally {
    fn record(&mut self, s: TraceSpan) {
        let vs = s.secs();
        match s.kind {
            SpanKind::DecodeStep => {
                self.decode_vs += vs;
                self.decode_tokens += s.tokens;
            }
            SpanKind::Prefill => self.prefill_vs += vs,
            SpanKind::EnvCall => self.env_vs += vs,
            SpanKind::WeightSync => self.weight_sync_vs += vs,
            SpanKind::TrainStep => self.train_vs += vs,
            SpanKind::Stall => self.stall_vs += vs,
            _ => {}
        }
    }
}

/// One system run op.
#[derive(Debug, Clone)]
pub struct RunOut {
    /// System run.
    pub kind: SystemKind,
    /// Scale point.
    pub gpus: usize,
    /// The report.
    pub report: RunReport,
    /// Span tally (traced rounds, Laminar only).
    pub tally: Option<SpanTally>,
}

/// The engine probe's results.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeOut {
    /// Engine events processed.
    pub events: u64,
    /// Host seconds driving the engine.
    pub secs: f64,
    /// Allocations while driving (traced rounds only).
    pub allocs: u64,
    /// Time-weighted mean decode batch.
    pub mean_decode_batch: f64,
}

/// The chaos and checkpoint ops' results.
#[derive(Debug, Clone, Default)]
pub struct ChaosOut {
    /// Chaos throughput over fault-free throughput.
    pub retained: f64,
    /// The chaos run's report.
    pub report: RunReport,
    /// Fault-plane counters from the chaos run.
    pub faults: u64,
    /// Trajectories redirected during machine kills.
    pub redirects: u64,
    /// Trajectories returned to the prompt pool.
    pub repooled: u64,
    /// Circuit-breaker trips, all replicas.
    pub breaker_trips: u64,
    /// Env calls abandoned past the stall budget.
    pub env_aborts: u64,
    /// Invariant violations.
    pub violations: u64,
    /// Spans the chaos run recorded.
    pub trace_spans: u64,
    /// Bytes of the chaos trace as JSONL.
    pub jsonl_bytes: u64,
    /// Host seconds of each trace serialization.
    pub jsonl_secs: Vec<f64>,
    /// Host seconds of `run_chaos`.
    pub chaos_secs: f64,
    /// Host seconds of the same faults under `NullTrace`.
    pub null_secs: f64,
    /// Host seconds of `run_delta_checkpointed`.
    pub ckpt_secs: f64,
    /// Allocations of `run_chaos` and `run_delta_checkpointed` (traced).
    pub chaos_allocs: u64,
    /// See `chaos_allocs`.
    pub ckpt_allocs: u64,
    /// Commit accounting per checkpoint point.
    pub commits: Vec<CommitStats>,
    /// Bytes the store holds after the run.
    pub stored_bytes: u64,
    /// Host seconds of each `verify_checkpoint`.
    pub verify_secs: Vec<f64>,
    /// Host seconds of each `resume_verified`.
    pub resume_secs: Vec<f64>,
}

/// Everything one round produced.
#[derive(Debug, Clone, Default)]
pub struct RoundOut {
    /// Whether spans, tallies and allocation counts were on.
    pub traced: bool,
    /// Host seconds of the round, checks included and kernel passes left out.
    pub wall_secs: f64,
    /// Host seconds of each op, in issue order.
    pub op_secs: Vec<f64>,
    /// Host seconds of the reference-kernel pass right before each op (0 in
    /// traced rounds).
    pub op_kernel_secs: Vec<f64>,
    /// Trajectories completed by the workload's distinct jobs.
    pub trajs: u64,
    /// Distinct jobs' runs, in op order.
    pub runs: Vec<RunOut>,
    /// `chaos-ckpt` only.
    pub chaos: Option<ChaosOut>,
    /// The engine probe.
    pub probe: ProbeOut,
    /// Digest of every report the round produced, in op order.
    pub digests: Vec<u64>,
}

impl RoundOut {
    /// Frees the reports, keeping timings, counts, tallies and digests.
    pub fn drop_reports(&mut self) {
        for r in &mut self.runs {
            r.report = RunReport::default();
        }
        if let Some(c) = &mut self.chaos {
            c.report = RunReport::default();
        }
    }
}

fn span_name(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::Verl => "baselines.verl.run",
        SystemKind::OneStep => "baselines.one-step.run",
        SystemKind::StreamGen => "baselines.stream-gen.run",
        SystemKind::PartialRollout => "baselines.areal.run",
        SystemKind::Laminar => "core.run",
    }
}

fn run_system(kind: SystemKind, cfg: &SystemConfig, trace: &mut dyn TraceSink) -> RunReport {
    match kind {
        SystemKind::Verl => VerlSync.run_traced(cfg, trace),
        SystemKind::OneStep => OneStepStaleness.run_traced(cfg, trace),
        SystemKind::StreamGen => StreamGeneration.run_traced(cfg, trace),
        SystemKind::PartialRollout => PartialRollout.run_traced(cfg, trace),
        SystemKind::Laminar => LaminarSystem::default().run_traced(cfg, trace),
    }
}

/// Runs the workload's first op twice with its trace recorded; the two
/// reports and traces must be byte-identical.
pub fn check_determinism(inputs: &Inputs, client: &mut Client) {
    let j = &inputs.jobs[0];
    let mut runs = Vec::with_capacity(2);
    for _ in 0..2 {
        let out = client.op(span_name(j.kind), || {
            let mut rec = RecordingTrace::new();
            let report = run_system(j.kind, &j.cfg, &mut rec);
            (report, rec)
        });
        runs.push(out);
    }
    if let [Some(a), Some(b)] = &runs[..] {
        let id = b.id;
        client.check(id, || {
            compare(
                &Evidence::of(&a.value.0, &a.value.1),
                &Evidence::of(&b.value.0, &b.value.1),
            )
            .map_err(|e| format!("first op is not deterministic: {e}"))
        });
    }
}

/// Runs one round of the workload.
pub fn round(w: Workload, inputs: &Inputs, traced: bool, client: &mut Client) -> RoundOut {
    let t0 = std::time::Instant::now();
    client.tracer.set_enabled(traced);
    if traced {
        alloc_count::enable();
    }
    let open = client.tracer.open("bench.round", None);
    let ops_before = client.op_secs().len();
    let mut out = RoundOut {
        traced,
        ..RoundOut::default()
    };
    for j in &inputs.jobs {
        run_job(j, traced, client, &mut out);
    }
    if w == Workload::ChaosCkpt {
        out.chaos = chaos_ops(inputs, client, &mut out);
    }
    probe(inputs, client, &mut out);
    out.op_secs = client.op_secs()[ops_before..].to_vec();
    out.op_kernel_secs = client.op_kernel_secs()[ops_before..].to_vec();
    client.tracer.close(open);
    alloc_count::disable();
    client.tracer.set_enabled(false);
    // Untraced rounds' kernel passes are the benchmark's, not the round's.
    out.wall_secs = t0.elapsed().as_secs_f64() - out.op_kernel_secs.iter().sum::<f64>();
    out
}

fn run_job(j: &Job, traced: bool, client: &mut Client, out: &mut RoundOut) {
    let tally_on = traced && j.kind == SystemKind::Laminar;
    let Some(op) = client.op(span_name(j.kind), || {
        let mut tally = SpanTally::default();
        let report = if tally_on {
            run_system(j.kind, &j.cfg, &mut tally)
        } else {
            run_system(j.kind, &j.cfg, &mut NullTrace)
        };
        (report, tally)
    }) else {
        return;
    };
    let (report, tally) = op.value;
    out.trajs += report.latencies.len() as u64;
    out.digests.push(digest(&report));
    let id = op.id;
    client.check(id, || {
        if report.latencies.is_empty() || report.throughput.is_nan() || report.throughput <= 0.0 {
            Err(format!(
                "{} at {} GPUs completed no work",
                j.kind.name(),
                j.gpus
            ))
        } else {
            Ok(())
        }
    });
    out.runs.push(RunOut {
        kind: j.kind,
        gpus: j.gpus,
        report,
        tally: tally_on.then_some(tally),
    });
}

fn measured<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (v, stats) = alloc_count::measure(f);
    (v, stats.allocs)
}

/// The fault, trace and checkpoint ops of `chaos-ckpt`.
fn chaos_ops(inputs: &Inputs, client: &mut Client, out: &mut RoundOut) -> Option<ChaosOut> {
    let cfg = &inputs.jobs[0].cfg;
    let clean = out.runs.first()?.report.throughput;
    let sys = LaminarSystem {
        faults: inputs.faults.clone(),
        ..LaminarSystem::default()
    };
    let chaos = client.op("core.run_chaos", || measured(|| sys.run_chaos(cfg)))?;
    let ((run, chaos_allocs), chaos_id) = (chaos.value, chaos.id);
    let violations = run.violations();
    client.check(chaos_id, || match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!(
            "chaos run broke {} invariants: {v}",
            violations.len()
        )),
    });
    out.trajs += run.report.latencies.len() as u64;
    out.digests.push(digest(&run.report));
    let o: &ChaosOutcome = &run.outcome;
    let mut c = ChaosOut {
        retained: ratio(run.report.throughput, clean),
        faults: o.audit.faults_applied,
        redirects: o.audit.redirects,
        repooled: o.audit.repooled,
        breaker_trips: o.breaker_trips.iter().sum(),
        env_aborts: o.env_aborts,
        violations: violations.len() as u64,
        trace_spans: run.trace.spans().len() as u64,
        chaos_secs: chaos.secs,
        chaos_allocs,
        ..ChaosOut::default()
    };

    let jsonl = client.op("runtime.trace.write_jsonl", || {
        let mut s = String::new();
        run.trace.write_jsonl_into(&mut s);
        s
    })?;
    c.jsonl_secs.push(jsonl.secs);
    c.jsonl_bytes = jsonl.value.len() as u64;
    let expected = client.check_span(|| Evidence::new(&run.report, jsonl.value));

    let null = client.op("core.run", || sys.run(cfg))?;
    c.null_secs = null.secs;
    client.check(null.id, || {
        compare_reports(&expected.report, &null.value, "run under NullTrace")
    });

    let length = run
        .trace
        .spans()
        .iter()
        .map(|s| s.end)
        .max()
        .unwrap_or(Time::ZERO);
    let every = Duration::from_secs_f64(length.as_secs_f64() / (CKPT_POINTS as f64 + 0.5));
    let ckpt = client.op("runtime.delta.run_checkpointed", || {
        let mut store = DeltaStore::new();
        let mut rec = RecordingTrace::new();
        let (res, allocs) =
            measured(|| sys.run_delta_checkpointed(cfg, every, &mut rec, &mut store));
        (res, allocs, store, rec)
    })?;
    let ckpt_id = ckpt.id;
    c.ckpt_secs = ckpt.secs;
    let ((report, points), allocs, store, rec) = ckpt.value;
    c.ckpt_allocs = allocs;
    c.commits = points.iter().map(|p| p.stats).collect();
    c.stored_bytes = store.stored_bytes();
    client.check(ckpt_id, || {
        compare_reports(&expected.report, &report, "checkpointed run")?;
        if points.len() != CKPT_POINTS {
            return Err(format!(
                "checkpointed run took {} points, not {CKPT_POINTS}",
                points.len()
            ));
        }
        if rec.spans() != run.trace.spans() {
            return Err("checkpointed run's trace differs from the chaos run's".into());
        }
        Ok(())
    });

    for p in &points {
        if let Some(v) = client.op("runtime.delta.verify", || {
            LaminarSystem::verify_checkpoint(&store, p)
        }) {
            c.verify_secs.push(v.secs);
            client.check(v.id, || v.value.clone());
        }
    }

    let n = points.len();
    let mut picks = vec![0, n / 3, 2 * n / 3, n.saturating_sub(1)];
    picks.dedup();
    for (i, p) in points.into_iter().enumerate() {
        if !picks.contains(&i) {
            continue;
        }
        let Some(r) = client.op("runtime.delta.resume_verified", || {
            let mut rec = RecordingTrace::new();
            sys.resume_verified(&store, p, &mut rec)
                .map(|rep| (rep, rec))
        }) else {
            continue;
        };
        c.resume_secs.push(r.secs);
        let resume_id = r.id;
        let (rep, rec) = match r.value {
            Ok(v) => v,
            Err(e) => {
                client.check(resume_id, || Err(e));
                continue;
            }
        };
        out.digests.push(digest(&rep));
        let Some(j) = client.op("runtime.trace.write_jsonl", || rec.to_jsonl()) else {
            continue;
        };
        c.jsonl_secs.push(j.secs);
        client.check(resume_id, || {
            compare(&expected, &Evidence::new(&rep, j.value))
                .map_err(|e| format!("resume from point {i}: {e}"))
        });
    }
    c.report = run.report;
    Some(c)
}

fn compare_reports(expected: &str, got: &RunReport, what: &str) -> Result<(), String> {
    if expected == format!("{got:?}") {
        Ok(())
    } else {
        Err(format!("{what}: report differs from the chaos run's"))
    }
}

/// Drives one replica engine through one replica batch from the workload's
/// generator, with the submit / next_event_time / advance_to calls the
/// systems make.
fn probe(inputs: &Inputs, client: &mut Client, out: &mut RoundOut) {
    let cfg = &inputs.jobs[0].cfg;
    let specs = inputs.probe_specs.clone();
    let expected = specs.len() as u64;
    let engine = ReplicaEngine::new(0, cfg.decode_model(), cfg.engine_config());
    let Some(p) = client.op("rollout.drive", move || {
        measured(move || {
            let mut e = engine;
            for s in specs {
                e.submit(s, Time::ZERO);
            }
            while let Some(t) = e.next_event_time() {
                e.advance_to(t);
            }
            e
        })
    }) else {
        return;
    };
    let (engine, allocs) = p.value;
    client.check(p.id, || {
        if engine.completed_count() == expected {
            Ok(())
        } else {
            Err(format!(
                "engine probe completed {} of {expected} trajectories",
                engine.completed_count()
            ))
        }
    });
    out.probe = ProbeOut {
        events: engine.events_processed(),
        secs: p.secs,
        allocs,
        mean_decode_batch: engine.mean_decode_batch(),
    };
    out.digests.push(engine.events_processed());
}
