//! In-tree benchmark harness behind `laminar-experiments --bench`.
//!
//! Three measurements, written as a small JSON document
//! (`BENCH_rollout.json` at the repo root by default) so successive runs
//! can be diffed by `scripts/bench.sh`:
//!
//! - **micro**: the replica-engine hot path. The same trajectory batch is
//!   run to completion on the retained naive full-scan reference engine,
//!   on the slab-indexed O(1)-per-event engine, and on the slab engine
//!   with span tracing enabled (spans serialized to JSONL through one
//!   reusable buffer). Each leg is scored in processed events per second
//!   of wall clock.
//! - **allocs**: alongside each micro leg, the counting global allocator
//!   (see [`crate::alloc_count`]) reports allocator round trips per
//!   engine event and the peak live-bytes excursion — a peak-RSS proxy.
//!   The counters only read nonzero under the `laminar-experiments`
//!   binary, which registers the wrapper; `alloc_counting_active` records
//!   whether the numbers are live or the harness ran unregistered.
//! - **e2e**: the experiment suite. The same experiment list runs once
//!   with `jobs = 1` and once with the requested job count, timing wall
//!   clock for each; the ratio is the parallel-executor speedup. When the
//!   request resolves to one worker anyway (see
//!   [`crate::runner::effective_jobs`] — e.g. a 1-CPU machine), the
//!   parallel leg IS the serial leg: both would execute the identical
//!   inline code path, so the serial timing is reused and the reported
//!   speedup is exactly 1.0 instead of thread-pool noise. The recorded
//!   `available_parallelism` and `effective_jobs` label such rows.
//!
//! - **checkpoint**: the delta-checkpoint cost profile. The
//!   recovery-scenario Laminar run (faults on, trace recording on) runs
//!   through `check_resume_equivalence` at a fixed 20 s cadence: every
//!   cadence point commits a delta checkpoint into the content-addressed
//!   store AND is resumed to completion, so the block carries both the
//!   equivalence verdict (`delta_identical`) and the byte economics —
//!   delta bytes vs whole-state bytes per cadence point, the steady-state
//!   ratio at the final cadence point, and chunk reuse counts. The
//!   verdict is deterministic; a `false` is a correctness regression.
//!
//! - **fleet**: the fleet control-plane profile. The `fleet` experiment's
//!   acceptance scenario (a mid-run cell kill with a straggler and a
//!   router partition layered on, 4 cells, 3 tenant classes) supplies the
//!   headline numbers — goodput retained through the kill, measured
//!   fleet-MTTR, starvation margin, invariant violations — and the
//!   fleet-chaos sweep is serialized at `--jobs 1` and a parallel job
//!   count to produce the `jobs_deterministic` verdict. Both are
//!   deterministic; `scripts/bench.sh` hard-fails on
//!   `"jobs_deterministic": false` even under `--warn-only`.
//!
//! The JSON is hand-rolled (the workspace is dependency-free); the schema
//! is documented in the README and stamped with a `schema` version so the
//! diff script can reject incompatible files. Schema 4 adds the
//! `checkpoint` block; schema 5 adds the `fleet` block (acceptance-scenario
//! dip/MTTR/starvation plus the `jobs_deterministic` verdict over the
//! fleet-chaos sweep); schema 7 drops the scaling-curve block of the
//! deleted sharded driver. Every other key name is kept so existing diff
//! tooling keeps working.

use crate::alloc_count::{self, AllocStats};
use crate::experiments::{all_experiment_ids, run_experiment, Opts};
use crate::runner::effective_jobs;
use laminar_cluster::{DecodeModel, GpuSpec, ModelSpec};
use laminar_core::{LaminarSystem, SystemKind};
use laminar_rollout::{EngineConfig, NaiveReplicaEngine, ReplicaEngine};
use laminar_sim::{ThroughputMeter, Time};
use laminar_workload::{Checkpoint, WorkloadGenerator};
use std::fmt::Write as _;
use std::path::Path;

/// One micro-benchmark leg: throughput plus allocation accounting.
#[derive(Debug, Clone, Copy)]
pub struct MicroLeg {
    /// Processed engine events per wall-clock second.
    pub events_per_sec: f64,
    /// Allocator round trips per processed engine event (0 when the
    /// counting allocator is not registered).
    pub allocs_per_event: f64,
    /// Peak live-heap excursion during the leg, bytes (peak-RSS proxy).
    pub peak_bytes: u64,
}

impl MicroLeg {
    fn from_run(events: u64, secs: f64, stats: AllocStats) -> Self {
        MicroLeg {
            events_per_sec: events as f64 / secs.max(1e-12),
            allocs_per_event: stats.allocs as f64 / events.max(1) as f64,
            peak_bytes: stats.peak_bytes,
        }
    }
}

/// Checkpoint-cost profile of the recovery-scenario run (see the module
/// docs): equivalence verdict plus delta-vs-whole-state byte economics.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointBench {
    /// Cadence points committed (and resumed from) during the run.
    pub points: usize,
    /// True when the delta-checkpointed run, every resume, and every
    /// fingerprint verification matched the uninterrupted run byte for
    /// byte. Deterministic — `false` is a correctness regression.
    pub delta_identical: bool,
    /// Mean bytes persisted per cadence point by the delta store (new
    /// chunk payloads plus the manifest).
    pub delta_bytes_per_point: u64,
    /// Mean bytes a whole-state snapshot of the same image would have
    /// persisted per cadence point.
    pub whole_bytes_per_point: u64,
    /// The final commit's delta bytes — the steady-state per-cadence cost
    /// once the run is warm.
    pub steady_delta_bytes: u64,
    /// The final image's total bytes — what a whole-state snapshot would
    /// still be writing at that point.
    pub steady_whole_bytes: u64,
    /// Chunks across all commits, and how many were deduplicated against
    /// the store instead of persisted again.
    pub chunks_total: u64,
    /// See [`CheckpointBench::chunks_total`].
    pub chunks_reused: u64,
}

impl CheckpointBench {
    /// Steady-state whole-over-delta byte ratio: how many times cheaper
    /// the delta checkpoint is once the run is warm.
    pub fn delta_ratio(&self) -> f64 {
        if self.steady_delta_bytes == 0 {
            return 1.0;
        }
        self.steady_whole_bytes as f64 / self.steady_delta_bytes as f64
    }
}

/// Fleet control-plane profile: the `fleet` experiment's acceptance
/// scenario (mid-run cell kill with a straggler and a router partition
/// layered on) plus a jobs-invariance verdict over the
/// `specs/fleet-chaos.toml` sweep.
#[derive(Debug, Clone, Copy)]
pub struct FleetBench {
    /// Cells behind the admission router in the acceptance scenario.
    pub cells: usize,
    /// Goodput retained through the scenario's isolated cell kill
    /// (trough/baseline; 1.0 would mean no measurable dip).
    pub goodput_retained: f64,
    /// Measured fleet-MTTR for that kill: seconds until goodput regained
    /// 70% of its pre-kill baseline.
    pub fleet_mttr_secs: f64,
    /// Minimum per-tenant completion-share margin across the 3-class mix.
    pub starvation_margin: f64,
    /// Fleet invariant violations (exactly-once, starvation floor,
    /// quarantine admissions, dip bounds). Deterministic — any nonzero
    /// count is a correctness bug.
    pub violations: usize,
    /// True when the fleet-chaos sweep's rows JSONL is byte-identical at
    /// `--jobs 1` and a parallel job count. Deterministic by design —
    /// `false` is a correctness regression, never noise.
    pub jobs_deterministic: bool,
}

/// Results of one `--bench` invocation.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"smoke"` or `"full"`.
    pub mode: &'static str,
    /// Worker threads requested for the parallel e2e leg.
    pub jobs: usize,
    /// The machine's available parallelism at run time.
    pub available_parallelism: usize,
    /// Whether the counting global allocator was live for the micro legs
    /// (false when the harness runs without the wrapper registered, e.g.
    /// under `cargo test` — allocation columns then read zero).
    pub alloc_counting_active: bool,
    /// Trajectories in the micro-benchmark batch.
    pub micro_trajectories: usize,
    /// Naive full-scan reference engine, untraced.
    pub naive: MicroLeg,
    /// Slab-indexed engine, untraced.
    pub indexed: MicroLeg,
    /// Slab-indexed engine with span tracing + JSONL serialization.
    pub traced: MicroLeg,
    /// Delta-checkpoint cost profile of the recovery scenario.
    pub checkpoint: CheckpointBench,
    /// Fleet control-plane profile (acceptance scenario + jobs-invariance
    /// verdict of the fleet-chaos sweep).
    pub fleet: FleetBench,
    /// Experiment ids timed in the e2e leg.
    pub e2e_experiments: Vec<String>,
    /// Per-experiment wall clock from the serial leg, seconds, aligned
    /// with [`BenchReport::e2e_experiments`]. Serial timings are the
    /// meaningful per-id numbers — parallel legs overlap experiments, so
    /// only their total is comparable.
    pub experiment_secs: Vec<f64>,
    /// What the `jobs` request resolved to for the e2e list.
    pub e2e_effective_jobs: usize,
    /// Wall clock for the `jobs = 1` e2e leg, seconds.
    pub serial_secs: f64,
    /// Wall clock for the `jobs = N` e2e leg, seconds. Equal to
    /// [`BenchReport::serial_secs`] by construction when
    /// [`BenchReport::e2e_effective_jobs`] is 1 (same inline code path).
    pub parallel_secs: f64,
}

impl BenchReport {
    /// Indexed-over-naive events/sec ratio.
    pub fn micro_speedup(&self) -> f64 {
        self.indexed.events_per_sec / self.naive.events_per_sec.max(1e-12)
    }

    /// Serial-over-parallel wall-clock ratio.
    pub fn e2e_speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs.max(1e-12)
    }

    /// Serializes the report (see README for the schema).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": 7,");
        let _ = writeln!(s, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(
            s,
            "  \"available_parallelism\": {},",
            self.available_parallelism
        );
        let _ = writeln!(
            s,
            "  \"alloc_counting_active\": {},",
            self.alloc_counting_active
        );
        let _ = writeln!(s, "  \"micro\": {{");
        let _ = writeln!(s, "    \"trajectories\": {},", self.micro_trajectories);
        let _ = writeln!(
            s,
            "    \"naive_events_per_sec\": {:.1},",
            self.naive.events_per_sec
        );
        let _ = writeln!(
            s,
            "    \"indexed_events_per_sec\": {:.1},",
            self.indexed.events_per_sec
        );
        let _ = writeln!(
            s,
            "    \"traced_events_per_sec\": {:.1},",
            self.traced.events_per_sec
        );
        let _ = writeln!(
            s,
            "    \"naive_allocs_per_event\": {:.3},",
            self.naive.allocs_per_event
        );
        let _ = writeln!(
            s,
            "    \"indexed_allocs_per_event\": {:.3},",
            self.indexed.allocs_per_event
        );
        let _ = writeln!(
            s,
            "    \"traced_allocs_per_event\": {:.3},",
            self.traced.allocs_per_event
        );
        let _ = writeln!(s, "    \"naive_peak_bytes\": {},", self.naive.peak_bytes);
        let _ = writeln!(
            s,
            "    \"indexed_peak_bytes\": {},",
            self.indexed.peak_bytes
        );
        let _ = writeln!(s, "    \"traced_peak_bytes\": {},", self.traced.peak_bytes);
        let _ = writeln!(s, "    \"speedup\": {:.2}", self.micro_speedup());
        let _ = writeln!(s, "  }},");
        let c = &self.checkpoint;
        let _ = writeln!(s, "  \"checkpoint\": {{");
        let _ = writeln!(s, "    \"points\": {},", c.points);
        let _ = writeln!(s, "    \"delta_identical\": {},", c.delta_identical);
        let _ = writeln!(
            s,
            "    \"delta_bytes_per_point\": {},",
            c.delta_bytes_per_point
        );
        let _ = writeln!(
            s,
            "    \"whole_bytes_per_point\": {},",
            c.whole_bytes_per_point
        );
        let _ = writeln!(s, "    \"steady_delta_bytes\": {},", c.steady_delta_bytes);
        let _ = writeln!(s, "    \"steady_whole_bytes\": {},", c.steady_whole_bytes);
        let _ = writeln!(s, "    \"chunks_total\": {},", c.chunks_total);
        let _ = writeln!(s, "    \"chunks_reused\": {},", c.chunks_reused);
        let _ = writeln!(s, "    \"delta_ratio\": {:.2}", c.delta_ratio());
        let _ = writeln!(s, "  }},");
        let f = &self.fleet;
        let _ = writeln!(s, "  \"fleet\": {{");
        let _ = writeln!(s, "    \"cells\": {},", f.cells);
        let _ = writeln!(s, "    \"goodput_retained\": {:.3},", f.goodput_retained);
        let _ = writeln!(s, "    \"fleet_mttr_secs\": {:.1},", f.fleet_mttr_secs);
        let _ = writeln!(s, "    \"starvation_margin\": {:.3},", f.starvation_margin);
        let _ = writeln!(s, "    \"violations\": {},", f.violations);
        let _ = writeln!(s, "    \"jobs_deterministic\": {}", f.jobs_deterministic);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"e2e\": {{");
        let ids: Vec<String> = self
            .e2e_experiments
            .iter()
            .map(|id| format!("\"{id}\""))
            .collect();
        let _ = writeln!(s, "    \"experiments\": [{}],", ids.join(", "));
        let secs: Vec<String> = self
            .e2e_experiments
            .iter()
            .zip(&self.experiment_secs)
            .map(|(id, secs)| format!("\"{id}\": {secs:.3}"))
            .collect();
        let _ = writeln!(s, "    \"experiment_secs\": {{{}}},", secs.join(", "));
        let _ = writeln!(s, "    \"effective_jobs\": {},", self.e2e_effective_jobs);
        let _ = writeln!(s, "    \"serial_secs\": {:.3},", self.serial_secs);
        let _ = writeln!(s, "    \"parallel_secs\": {:.3},", self.parallel_secs);
        let _ = writeln!(s, "    \"speedup\": {:.2}", self.e2e_speedup());
        let _ = writeln!(s, "  }}");
        let _ = writeln!(s, "}}");
        s
    }

    /// Human-readable summary for the terminal.
    pub fn summary(&self) -> String {
        let alloc_note = if self.alloc_counting_active {
            format!(
                "allocs: naive {:.2}/ev | indexed {:.2}/ev | traced {:.2}/ev",
                self.naive.allocs_per_event,
                self.indexed.allocs_per_event,
                self.traced.allocs_per_event,
            )
        } else {
            "allocs: counting allocator not registered (columns read zero)".to_string()
        };
        format!(
            "micro : {} trajectories | naive {:>10.0} ev/s | indexed {:>10.0} ev/s | traced {:>10.0} ev/s | {:.2}x\n\
             {alloc_note}\n\
             ckpt  : {} points | delta {}B/pt vs whole {}B/pt | steady {:.2}x | reused {}/{} chunks | identical: {}\n\
             fleet : {} cells | retained {:.3} | MTTR {:.1}s | starvation {:.2} | violations {} | jobs-deterministic: {}\n\
             e2e   : {} experiments | serial {:.2}s | --jobs {} (effective {}) {:.2}s | {:.2}x",
            self.micro_trajectories,
            self.naive.events_per_sec,
            self.indexed.events_per_sec,
            self.traced.events_per_sec,
            self.micro_speedup(),
            self.checkpoint.points,
            self.checkpoint.delta_bytes_per_point,
            self.checkpoint.whole_bytes_per_point,
            self.checkpoint.delta_ratio(),
            self.checkpoint.chunks_reused,
            self.checkpoint.chunks_total,
            self.checkpoint.delta_identical,
            self.fleet.cells,
            self.fleet.goodput_retained,
            self.fleet.fleet_mttr_secs,
            self.fleet.starvation_margin,
            self.fleet.violations,
            self.fleet.jobs_deterministic,
            self.e2e_experiments.len(),
            self.serial_secs,
            self.jobs,
            self.e2e_effective_jobs,
            self.parallel_secs,
            self.e2e_speedup(),
        )
    }

    /// Writes the JSON report to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// The single-turn batch all engine legs are scored on: every trajectory
/// fully resident (default concurrency is 1024), one mid-flight weight
/// interrupt to exercise the repack path.
fn micro_batch(n: usize) -> Vec<laminar_workload::TrajectorySpec> {
    let workload = WorkloadGenerator::single_turn(11, Checkpoint::Math7B);
    (0..n as u64)
        .map(|i| workload.trajectory(i, i / 16, (i % 16) as usize, 1.0))
        .collect()
}

fn decode() -> DecodeModel {
    DecodeModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 1)
}

/// Runs the batch to completion on the naive reference engine, returning
/// (events processed, wall seconds).
fn time_naive(specs: &[laminar_workload::TrajectorySpec], repeats: u32) -> (u64, f64) {
    let mut meter = ThroughputMeter::new();
    for _ in 0..repeats {
        let mut e = NaiveReplicaEngine::new(decode(), EngineConfig::default());
        for s in specs {
            e.submit(s.clone(), Time::ZERO);
        }
        e.interrupt_with_weights(1, Time::from_secs(30));
        while let Some(t) = e.next_event_time() {
            e.advance_to(t);
        }
        meter.add(e.events_processed());
        std::hint::black_box(e.completed_count());
    }
    (meter.events(), meter.elapsed_secs())
}

/// Same schedule on the slab-indexed engine. With `traced`, per-phase span
/// recording is on and every repeat serializes its spans to JSONL through
/// one reusable buffer — the full cost of the streaming trace pipeline.
fn time_indexed(
    specs: &[laminar_workload::TrajectorySpec],
    repeats: u32,
    traced: bool,
) -> (u64, f64) {
    let cfg = EngineConfig {
        record_trace: traced,
        ..EngineConfig::default()
    };
    let mut jsonl = String::new();
    let mut meter = ThroughputMeter::new();
    for _ in 0..repeats {
        let mut e = ReplicaEngine::new(0, decode(), cfg.clone());
        for s in specs {
            e.submit(s.clone(), Time::ZERO);
        }
        e.interrupt_with_weights(1, Time::from_secs(30));
        while let Some(t) = e.next_event_time() {
            e.advance_to(t);
        }
        meter.add(e.events_processed());
        std::hint::black_box(e.completed_count());
        if traced {
            jsonl.clear();
            e.drain_trace_spans(&mut |spans| {
                for sp in spans {
                    sp.write_json(&mut jsonl)
                        .expect("fmt::Write on String is infallible");
                    jsonl.push('\n');
                }
            });
            std::hint::black_box(jsonl.len());
        }
    }
    (meter.events(), meter.elapsed_secs())
}

/// Profiles delta-checkpoint cost on the recovery scenario: the
/// chaos-laden Laminar replay config (trace recording on) run through
/// `check_resume_equivalence` at a 20 s cadence. Ten iterations put the
/// run well past warm-up, where accumulated state (spans, buffer,
/// report) dwarfs the per-cadence churn — the regime the steady-state
/// ratio is meant to measure. The run is small enough (sub-second in
/// release) that smoke mode keeps the full profile.
fn bench_checkpoints() -> CheckpointBench {
    let mut cfg = crate::experiments::recovery::replay_config(11, SystemKind::Laminar);
    cfg.iterations = 10;
    let eq = laminar_runtime::check_resume_equivalence(
        &LaminarSystem::default(),
        &cfg,
        laminar_sim::Duration::from_secs(20),
        laminar_runtime::ResumeFrom::Every,
    );
    let c = &eq.cost;
    let points = c.points.max(1) as u64;
    CheckpointBench {
        points: c.points,
        delta_identical: eq.identical(),
        delta_bytes_per_point: c.delta_bytes / points,
        whole_bytes_per_point: c.whole_bytes / points,
        steady_delta_bytes: c.steady_delta_bytes,
        steady_whole_bytes: c.steady_whole_bytes,
        chunks_total: c.chunks_total as u64,
        chunks_reused: c.chunks_reused as u64,
    }
}

/// Profiles the fleet control plane: the `fleet` experiment's acceptance
/// scenario (kill + straggler + partition over 4 cells, 3 tenant classes)
/// for the headline dip/MTTR/starvation numbers, plus a jobs-invariance
/// check — the `specs/fleet-chaos.toml` sweep must serialize to the
/// byte-identical rows JSONL at `--jobs 1` and at a parallel job count.
fn bench_fleet(jobs: usize) -> FleetBench {
    let opts = Opts::default();
    let cfg = crate::experiments::fleet::acceptance_config(4, opts.seed);
    let run = laminar_fleet::run_fleet(&cfg);
    let spec = crate::experiments::fleet::fleet_spec(&opts);
    let serialize = |jobs: usize| {
        let rows = crate::lab::run_lab(
            &spec,
            &Opts {
                jobs,
                ..Opts::default()
            },
        );
        crate::lab::write_rows_jsonl(&spec.name, &rows)
    };
    let jobs_deterministic = serialize(1) == serialize(jobs.max(2));
    FleetBench {
        cells: cfg.cells,
        goodput_retained: run.report.goodput_retained,
        fleet_mttr_secs: run.report.mttr_max_secs,
        starvation_margin: run.report.starvation_margin,
        violations: run.violations().len(),
        jobs_deterministic,
    }
}

/// Times one pass over `ids` with the given job count, returning total
/// wall seconds plus per-experiment wall seconds in id order. Reports are
/// black-boxed; results/traces are not written.
fn time_e2e(ids: &[String], jobs: usize) -> (f64, Vec<f64>) {
    let opts = Opts {
        jobs,
        ..Opts::default()
    };
    let start = std::time::Instant::now();
    // Outer fan-out over experiment ids mirrors the binary's `all` path;
    // each experiment's own grids additionally use `opts.jobs`.
    let reports = crate::runner::run_indexed(ids.to_vec(), jobs, |_, id| {
        let t0 = std::time::Instant::now();
        let report = run_experiment(&id, &opts);
        (report, t0.elapsed().as_secs_f64())
    });
    let mut per_id = Vec::with_capacity(reports.len());
    for (r, secs) in &reports {
        std::hint::black_box(r.len());
        per_id.push(*secs);
    }
    (start.elapsed().as_secs_f64(), per_id)
}

/// Runs the benchmark suite. `smoke` shrinks the batch and the experiment
/// list so the whole thing finishes in a few seconds (used by lint/CI).
pub fn run_bench(smoke: bool, jobs: usize) -> BenchReport {
    let (n, repeats) = if smoke { (96, 2) } else { (512, 3) };
    let specs = micro_batch(n);
    // Allocation accounting brackets only the single-threaded micro legs:
    // the process-global counters would otherwise mix in e2e worker-thread
    // noise and mean nothing per-event.
    alloc_count::enable();
    let ((naive_events, naive_secs), naive_stats) =
        alloc_count::measure(|| time_naive(&specs, repeats));
    let ((indexed_events, indexed_secs), indexed_stats) =
        alloc_count::measure(|| time_indexed(&specs, repeats, false));
    let ((traced_events, traced_secs), traced_stats) =
        alloc_count::measure(|| time_indexed(&specs, repeats, true));
    let alloc_counting_active = alloc_count::is_active();
    alloc_count::disable();
    let checkpoint = bench_checkpoints();
    let fleet = bench_fleet(jobs);
    let e2e_ids: Vec<String> = if smoke {
        vec![
            "fig2".into(),
            "fig9".into(),
            "fig11".into(),
            "table2".into(),
        ]
    } else {
        all_experiment_ids().iter().map(|s| s.to_string()).collect()
    };
    let e2e_effective = effective_jobs(jobs, e2e_ids.len());
    let (serial_secs, experiment_secs) = time_e2e(&e2e_ids, 1);
    // One effective worker means the "parallel" leg is literally the serial
    // inline path; timing it again would only report scheduler noise as a
    // phantom slowdown, so the serial measurement is reused (speedup 1.0).
    let parallel_secs = if e2e_effective > 1 {
        time_e2e(&e2e_ids, jobs).0
    } else {
        serial_secs
    };
    BenchReport {
        mode: if smoke { "smoke" } else { "full" },
        jobs,
        available_parallelism: crate::runner::default_jobs(),
        alloc_counting_active,
        micro_trajectories: n,
        naive: MicroLeg::from_run(naive_events, naive_secs, naive_stats),
        indexed: MicroLeg::from_run(indexed_events, indexed_secs, indexed_stats),
        traced: MicroLeg::from_run(traced_events, traced_secs, traced_stats),
        checkpoint,
        fleet,
        e2e_experiments: e2e_ids,
        experiment_secs,
        e2e_effective_jobs: e2e_effective,
        serial_secs,
        parallel_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leg(ev: f64, allocs: f64, peak: u64) -> MicroLeg {
        MicroLeg {
            events_per_sec: ev,
            allocs_per_event: allocs,
            peak_bytes: peak,
        }
    }

    fn ckpt() -> CheckpointBench {
        CheckpointBench {
            points: 24,
            delta_identical: true,
            delta_bytes_per_point: 24000,
            whole_bytes_per_point: 86000,
            steady_delta_bytes: 21728,
            steady_whole_bytes: 137840,
            chunks_total: 11313,
            chunks_reused: 7388,
        }
    }

    fn fleet() -> FleetBench {
        FleetBench {
            cells: 4,
            goodput_retained: 0.851,
            fleet_mttr_secs: 25.0,
            starvation_margin: 1.0,
            violations: 0,
            jobs_deterministic: true,
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let r = BenchReport {
            mode: "smoke",
            jobs: 4,
            available_parallelism: 8,
            alloc_counting_active: true,
            micro_trajectories: 96,
            naive: leg(1000.0, 2.5, 4096),
            indexed: leg(3000.0, 0.125, 1024),
            traced: leg(2500.0, 0.25, 2048),
            checkpoint: ckpt(),
            fleet: fleet(),
            e2e_experiments: vec!["fig2".into()],
            experiment_secs: vec![2.0],
            e2e_effective_jobs: 4,
            serial_secs: 2.0,
            parallel_secs: 0.5,
        };
        assert!(r.checkpoint.delta_ratio() > 5.0);
        let j = r.to_json();
        assert!(j.contains("\"schema\": 7"));
        assert!(!j.contains("shard"));
        assert!(j.contains("\"delta_identical\": true"));
        assert!(j.contains("\"goodput_retained\": 0.851"));
        assert!(j.contains("\"fleet_mttr_secs\": 25.0"));
        assert!(j.contains("\"starvation_margin\": 1.000"));
        assert!(j.contains("\"violations\": 0"));
        assert!(j.contains("\"jobs_deterministic\": true"));
        assert!(j.contains("\"delta_bytes_per_point\": 24000"));
        assert!(j.contains("\"delta_ratio\": 6.34"));
        assert!(j.contains("\"chunks_reused\": 7388"));
        assert!(j.contains("\"experiment_secs\": {\"fig2\": 2.000}"));
        assert!(j.contains("\"available_parallelism\": 8"));
        assert!(j.contains("\"alloc_counting_active\": true"));
        assert!(j.contains("\"indexed_allocs_per_event\": 0.125"));
        assert!(j.contains("\"traced_peak_bytes\": 2048"));
        assert!(j.contains("\"effective_jobs\": 4"));
        assert!(j.contains("\"speedup\": 3.00"));
        assert!(j.contains("\"speedup\": 4.00"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn single_effective_worker_reports_unit_e2e_speedup() {
        let r = BenchReport {
            mode: "smoke",
            jobs: 4,
            available_parallelism: 1,
            alloc_counting_active: false,
            micro_trajectories: 96,
            naive: leg(1000.0, 0.0, 0),
            indexed: leg(3000.0, 0.0, 0),
            traced: leg(2500.0, 0.0, 0),
            checkpoint: ckpt(),
            fleet: fleet(),
            e2e_experiments: vec!["fig2".into(), "fig9".into()],
            experiment_secs: vec![1.0, 1.0],
            e2e_effective_jobs: 1,
            serial_secs: 2.0,
            parallel_secs: 2.0,
        };
        assert!((r.e2e_speedup() - 1.0).abs() < 1e-9);
        assert!(r.summary().contains("effective 1"));
        assert!(r.to_json().contains("\"effective_jobs\": 1"));
    }
}
