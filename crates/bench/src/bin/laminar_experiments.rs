//! Regenerates the paper's tables and figures.
//!
//! ```text
//! laminar-experiments [--full] [--seed N] [--jobs N] [--chaos-seed N]
//!                     [--recovery-seed N] [--fleet-cells N] [--fleet-seed N]
//!                     [--checkpoint-every SECS] [--out DIR]
//!                     [--trace FILE] <id>... | all | list
//! laminar-experiments --spec FILE... [--full] [--jobs N] [--out DIR]
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
//! or evaluated, a `--resume-from` file that holds no replayable
//! checkpoint descriptor, or an `--out` directory that cannot be created
//! or a `--trace` file that cannot be opened (both checked before any
//! run starts). A trace or result file that cannot be written also exits
//! with status 2 and one stderr line; spans are flushed before any result
//! file is written, so a failed trace leaves no results behind. A failing
//! regression gate exits with status 1.

use laminar_bench::{
    all_experiment_ids, default_jobs, effective_jobs, find_experiment, resume_from_descriptor,
    run_experiment, run_indexed, run_spec, LabSpec, Opts, REGISTRY,
};
use std::fmt::Display;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

const USAGE: &str = "usage: laminar-experiments [--full] [--seed N] [--jobs N] [--chaos-seed N] [--recovery-seed N] [--fleet-cells N] [--fleet-seed N] [--checkpoint-every SECS] [--out DIR] [--trace FILE] <id>... | all | list
       laminar-experiments --spec FILE... [--full] [--jobs N] [--out DIR]
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
    let mut resume_from: Option<PathBuf> = None;
    let mut specs: Vec<PathBuf> = Vec::new();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => opts.quick = false,
            "--quick" => opts.quick = true,
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
    if let Some(path) = resume_from {
        // Deterministic checkpoint replay: rebuild the run described by the
        // descriptor, verify the snapshot fingerprint, resume to completion.
        match resume_from_descriptor(&path, &opts) {
            Ok(report) => println!("{report}"),
            Err(e) => usage_error(format!("--resume-from: {e}")),
        }
        return;
    }
    // Every spec is read and parsed before the first one runs, so a bad
    // file fails fast instead of after minutes of trials.
    let loaded: Vec<LabSpec> = specs
        .iter()
        .map(|path| load_spec(path, opts.quick).unwrap_or_else(|e| usage_error(e)))
        .collect();
    if loaded.is_empty() && ids.is_empty() {
        eprintln!("{USAGE}");
        eprintln!("experiments: {}", all_experiment_ids().join(" "));
        std::process::exit(2);
    }
    // Outputs are created before any run too, so an unusable path fails
    // in one line rather than after the run whose results it would hold.
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        usage_error(format!("--out {}: {e}", out_dir.display()));
    }
    let mut trace_file = opts.trace.as_ref().map(|path| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| usage_error(format!("--trace {}: {e}", path.display())))
    });
    if !loaded.is_empty() {
        // Declarative lab path: each spec file runs variants × seeds ×
        // repeats through the planner/executor and is summarised, gated,
        // and persisted on its own. Any failing gate fails the process.
        let mut all_gates_pass = true;
        for (path, spec) in specs.iter().zip(&loaded) {
            let spec_dir = path.parent().unwrap_or_else(|| Path::new("."));
            let report = run_spec(spec, &opts, spec_dir)
                .unwrap_or_else(|e| usage_error(format!("run spec {}: {e}", path.display())));
            check_trace(&opts);
            println!("==== {} ====\n{}", spec.name, report.render());
            let rows_path = out_dir.join(format!("{}.rows.jsonl", spec.name));
            write_result(&rows_path, &report.rows_jsonl);
            let summary_path = out_dir.join(format!("{}.summary.txt", spec.name));
            write_result(&summary_path, &report.render());
            all_gates_pass &= report.gates_pass();
        }
        if !all_gates_pass {
            eprintln!("regression gates FAILED");
            std::process::exit(1);
        }
        return;
    }
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
    // Spans are flushed, in id order, before any result file is written,
    // so a trace that cannot be written leaves no results behind.
    if let (Some(f), Some(path)) = (&mut trace_file, &opts.trace) {
        for buf in runs.iter().filter_map(|(_, _, buf, _)| buf.as_ref()) {
            let spans = buf.lock().expect("trace buffer");
            if let Err(e) = f.write_all(spans.as_bytes()) {
                usage_error(format!("--trace {}: {e}", path.display()));
            }
        }
    }
    check_trace(&opts);
    for (id, report, _, elapsed) in runs {
        println!("==== {id} ({elapsed:.2?}) ====\n{report}");
        write_result(&out_dir.join(format!("{id}.txt")), &report);
    }
}

/// Exits with status 2 if appending spans to the `--trace` file failed.
fn check_trace(opts: &Opts) {
    if let Some(e) = opts.trace_error() {
        usage_error(format!("--trace {e}"));
    }
}

/// Writes one result file, exiting with status 2 if it cannot be written.
fn write_result(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        usage_error(format!("write {}: {e}", path.display()));
    }
    eprintln!("wrote {}", path.display());
}
