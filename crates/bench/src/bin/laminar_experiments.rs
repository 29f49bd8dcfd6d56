//! Regenerates the paper's tables and figures.
//!
//! ```text
//! laminar-experiments [--full] [--seed N] [--jobs N] [--chaos-seed N]
//!                     [--recovery-seed N] [--fleet-cells N] [--fleet-seed N]
//!                     [--checkpoint-every SECS] [--out DIR]
//!                     [--trace FILE] <id>... | all | list
//! laminar-experiments --spec FILE... [--full] [--jobs N] [--out DIR]
//! laminar-experiments --bench [--smoke] [--jobs N] [--bench-out FILE]
//! laminar-experiments --resume-from FILE
//! laminar-experiments --list
//! ```
//!
//! Results are printed and written to `<out>/<id>.txt` (default `results/`).
//! With `--trace FILE`, every system run appends its event spans (prefill,
//! decode steps, weight syncs, train steps, stalls, repacks, failures) to
//! `FILE` as JSONL — one span object per line with virtual-time
//! nanosecond bounds, replica id, and weight version.
//!
//! `--jobs N` fans experiments (and each experiment's internal system-run
//! grids) across N worker threads. Output is byte-identical for every N:
//! result files are written, and trace spans flushed, in experiment id
//! order after the parallel runs complete. The default is the machine's
//! available parallelism; `--jobs 1` forces the serial path.
//!
//! `--bench` instead runs the in-tree benchmark harness (engine-hot-path
//! micro-benchmark plus an end-to-end serial-vs-parallel suite timing) and
//! writes `BENCH_rollout.json` (override with `--bench-out`). `--smoke`
//! shrinks it to a few seconds for CI.
//!
//! `--checkpoint-every SECS` sets the checkpoint cadence the `recovery`
//! experiment exercises; its report includes `checkpoint ...` descriptor
//! lines. `--resume-from FILE` takes a file containing such a line (e.g.
//! `results/recovery.txt`), deterministically replays the run to that
//! checkpoint, verifies the snapshot fingerprint, and resumes it to
//! completion. `--recovery-seed N` reseeds the sustained fault schedules.
//!
//! `--fleet-cells N` widens the `fleet` experiment's acceptance scenario
//! to N Laminar cells (min 4) and `--fleet-seed N` re-roots the seed set
//! of its `specs/fleet-chaos.toml` sweep, the same way `--chaos-seed`
//! aliases onto the chaos spec.
//!
//! `--spec FILE` runs a declarative lab spec (variants × seeds × repeats,
//! see `specs/*.toml`) through the planner/executor, prints the summary
//! and gate tables, and writes `<out>/<name>.rows.jsonl` plus
//! `<name>.summary.txt`. The process exits nonzero if any regression gate
//! fails. `--full` runs the spec's paper-sized shape instead of its
//! `[quick]` override. `--list` prints every registered experiment with
//! its title and spec-overridable knobs.
//!
//! Bad input exits with status 2 and one line on stderr: an unknown flag,
//! a missing or malformed flag value, an unknown experiment id (checked
//! before any run starts), a `--spec` file that cannot be read, parsed
//! or evaluated, or a `--resume-from` file that holds no replayable
//! checkpoint descriptor. A failing regression gate exits with status 1.

use laminar_bench::{
    all_experiment_ids, benchmarks, default_jobs, effective_jobs, find_experiment,
    resume_from_descriptor, run_experiment, run_indexed, run_spec, LabSpec, Opts, REGISTRY,
};
use std::fmt::Display;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

/// Counting allocator for `--bench` allocation accounting. Dormant (one
/// relaxed load per allocation) until the bench harness enables it.
#[global_allocator]
static ALLOC: laminar_bench::alloc_count::CountingAlloc = laminar_bench::alloc_count::CountingAlloc;

const USAGE: &str = "usage: laminar-experiments [--full] [--seed N] [--jobs N] [--chaos-seed N] [--recovery-seed N] [--fleet-cells N] [--fleet-seed N] [--checkpoint-every SECS] [--out DIR] [--trace FILE] <id>... | all | list
       laminar-experiments --spec FILE... [--full] [--jobs N] [--out DIR]
       laminar-experiments --bench [--smoke] [--jobs N] [--bench-out FILE]
       laminar-experiments --resume-from FILE
       laminar-experiments --list";

/// Reports bad command-line input on one stderr line and exits with
/// status 2.
fn usage_error(msg: impl Display) -> ! {
    eprintln!("laminar-experiments: {msg}");
    std::process::exit(2);
}

/// Takes the value after `flag` and parses it; a missing value, a value
/// that does not parse, or one `valid` rejects is a usage error that names
/// what the flag `requires`.
fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    requires: &str,
    valid: impl Fn(&T) -> bool,
) -> T {
    let Some(raw) = args.next() else {
        usage_error(format!("{flag} requires {requires}"));
    };
    match raw.parse() {
        Ok(v) if valid(&v) => v,
        _ => usage_error(format!("{flag} requires {requires}, got `{raw}`")),
    }
}

fn any<T>(_: &T) -> bool {
    true
}

fn positive(n: &usize) -> bool {
    *n >= 1
}

/// Reads and parses one spec file, applying the `[quick]` override unless
/// `--full` was given.
fn load_spec(path: &Path, quick: bool) -> Result<LabSpec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read spec {}: {e}", path.display()))?;
    let mut spec =
        LabSpec::parse(&text).map_err(|e| format!("parse spec {}: {e}", path.display()))?;
    if quick {
        spec.apply_quick();
    }
    Ok(spec)
}

fn main() {
    let mut opts = Opts {
        jobs: default_jobs(),
        ..Opts::default()
    };
    let mut out_dir = PathBuf::from("results");
    let mut bench = false;
    let mut smoke = false;
    let mut bench_out: Option<PathBuf> = None;
    let mut resume_from: Option<PathBuf> = None;
    let mut specs: Vec<PathBuf> = Vec::new();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => opts.quick = false,
            "--quick" => opts.quick = true,
            "--bench" => bench = true,
            "--smoke" => smoke = true,
            "--seed" => opts.seed = flag_value(&mut args, &a, "an integer", any),
            "--jobs" => opts.jobs = flag_value(&mut args, &a, "a positive integer", positive),
            "--chaos-seed" => opts.chaos_seed = flag_value(&mut args, &a, "an integer", any),
            "--recovery-seed" => {
                opts.recovery_seed = flag_value(&mut args, &a, "an integer", any);
            }
            "--fleet-cells" => {
                opts.fleet_cells = flag_value(&mut args, &a, "a positive integer", positive);
            }
            "--fleet-seed" => opts.fleet_seed = flag_value(&mut args, &a, "an integer", any),
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(flag_value(
                    &mut args,
                    &a,
                    "positive virtual seconds",
                    |&s: &f64| s > 0.0,
                ));
            }
            "--resume-from" => resume_from = Some(flag_value(&mut args, &a, "a file", any)),
            "--out" => out_dir = flag_value(&mut args, &a, "a directory", any),
            "--bench-out" => bench_out = Some(flag_value(&mut args, &a, "a file", any)),
            "--trace" => opts.trace = Some(flag_value(&mut args, &a, "a file", any)),
            "--spec" => specs.push(flag_value(&mut args, &a, "a file", any)),
            "--list" | "list" => {
                // One row per registry entry: id, title, and the spec knobs
                // (legacy flags) the experiment honours beyond the common set.
                let width = REGISTRY.iter().map(|d| d.id.len()).max().unwrap_or(0);
                for def in REGISTRY {
                    let knobs = if def.knobs.is_empty() {
                        String::new()
                    } else {
                        format!("  [{}]", def.knobs.join(" "))
                    };
                    println!("{:width$}  {}{}", def.id, def.title, knobs);
                }
                return;
            }
            "all" => ids.extend(all_experiment_ids().iter().map(|s| s.to_string())),
            other if other.starts_with('-') => usage_error(format!("unknown flag: {other}")),
            other => ids.push(other.to_string()),
        }
    }
    if let Some(bad) = ids.iter().find(|id| find_experiment(id).is_none()) {
        usage_error(format!(
            "unknown experiment id: {bad} (known: {})",
            all_experiment_ids().join(" ")
        ));
    }
    if bench {
        let report = benchmarks::run_bench(smoke, opts.jobs);
        println!("{}", report.summary());
        let out = bench_out.unwrap_or_else(|| PathBuf::from("BENCH_rollout.json"));
        report.write(&out).expect("write benchmark JSON");
        eprintln!("wrote {}", out.display());
        return;
    }
    if let Some(path) = resume_from {
        // Deterministic checkpoint replay: rebuild the run described by the
        // descriptor, verify the snapshot fingerprint, resume to completion.
        match resume_from_descriptor(&path, &opts) {
            Ok(report) => println!("{report}"),
            Err(e) => usage_error(format!("--resume-from: {e}")),
        }
        return;
    }
    if !specs.is_empty() {
        // Declarative lab path: each spec file runs variants × seeds ×
        // repeats through the planner/executor and is summarised, gated,
        // and persisted on its own. Any failing gate fails the process.
        // Every spec is read and parsed before the first one runs, so a
        // bad file fails fast instead of after minutes of trials.
        let loaded: Vec<LabSpec> = specs
            .iter()
            .map(|path| load_spec(path, opts.quick).unwrap_or_else(|e| usage_error(e)))
            .collect();
        std::fs::create_dir_all(&out_dir).expect("create results directory");
        let mut all_gates_pass = true;
        for (path, spec) in specs.iter().zip(&loaded) {
            let spec_dir = path.parent().unwrap_or_else(|| Path::new("."));
            let report = run_spec(spec, &opts, spec_dir)
                .unwrap_or_else(|e| usage_error(format!("run spec {}: {e}", path.display())));
            println!("==== {} ====\n{}", spec.name, report.render());
            let rows_path = out_dir.join(format!("{}.rows.jsonl", spec.name));
            std::fs::write(&rows_path, &report.rows_jsonl).expect("write rows JSONL");
            eprintln!("wrote {}", rows_path.display());
            let summary_path = out_dir.join(format!("{}.summary.txt", spec.name));
            std::fs::write(&summary_path, report.render()).expect("write summary");
            eprintln!("wrote {}", summary_path.display());
            all_gates_pass &= report.gates_pass();
        }
        if !all_gates_pass {
            eprintln!("regression gates FAILED");
            std::process::exit(1);
        }
        return;
    }
    if ids.is_empty() {
        eprintln!("{USAGE}");
        eprintln!("experiments: {}", all_experiment_ids().join(" "));
        std::process::exit(2);
    }
    std::fs::create_dir_all(&out_dir).expect("create results directory");
    // Fan experiments across workers. Each worker gets its own Opts clone
    // with trace output redirected into a per-experiment buffer, so spans
    // never interleave; everything is printed, written, and flushed below in
    // the original id order, making the output independent of --jobs.
    //
    // When the request resolves to one worker (`--jobs 1`, a single id, or a
    // serial machine), experiments run inline in id order already, so the
    // per-experiment buffering detour is skipped and spans stream straight
    // to the trace file — same bytes, no whole-trace copy held in memory.
    let buffered = effective_jobs(opts.jobs, ids.len()) > 1;
    let runs = run_indexed(ids, opts.jobs, |_, id| {
        let mut o = opts.clone();
        let buf = (buffered && o.trace.is_some()).then(|| o.buffer_trace());
        let start = Instant::now();
        let report = run_experiment(&id, &o);
        (id, report, buf, start.elapsed())
    });
    for (id, report, buf, elapsed) in runs {
        println!("==== {id} ({elapsed:.2?}) ====\n{report}");
        let path = out_dir.join(format!("{id}.txt"));
        std::fs::write(&path, &report).expect("write result file");
        eprintln!("wrote {}", path.display());
        if let (Some(buf), Some(trace_path)) = (buf, &opts.trace) {
            let spans = buf.lock().expect("trace buffer");
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(trace_path)
                .expect("open trace file");
            f.write_all(spans.as_bytes()).expect("append trace JSONL");
        }
    }
}
