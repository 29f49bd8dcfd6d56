//! The Laminar benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <math-laminar|tool-5sys|chaos-ckpt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client on one thread runs the workload's ops in a closed loop for
//! about `--seconds` host seconds, checks every op's output, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The traced run alternates untraced and traced rounds, so the tracing
//! overhead is measured in the same process, and writes its spans as JSONL
//! under `.perfbench-out/`. Any failed op makes the exit code 1.

mod calib;
mod check;
mod client;
mod metrics;
mod spans;
mod summary;
mod workloads;

#[cfg(test)]
mod tests;

use client::Client;
use metrics::{result_line, table, END_TO_END, PER_LAYER};
use std::time::Instant;
use summary::Measured;
use workloads::Workload;

#[global_allocator]
static ALLOC: laminar_bench::alloc_count::CountingAlloc = laminar_bench::alloc_count::CountingAlloc;

/// Set-up repetitions before the rounds and again after them; `setup_s` is
/// the median of all of them, so a burst of host load at either end of the
/// run moves it little.
const SETUP_REPS: usize = 15;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
                        format!("unknown workload '{value}' (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => seed = Some(num()?),
                "--seconds" => {
                    let s = num()?;
                    if !(1..=3600).contains(&s) {
                        return Err(format!("--seconds {s} is outside 1..=3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Peak resident memory of this process in MB, from `getrusage`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
    /// which the first is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the layout of `struct rusage` on 64-bit Linux
    // (18 eight-byte fields), `u` is a valid exclusive pointer for the call,
    // and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u.maxrss as f64 / 1024.0
}

/// Peak resident memory is not read on other platforms.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn peak_rss_mb() -> f64 {
    0.0
}

/// One timed set-up repetition.
fn set_up(args: &Args, client: &mut Client, m: &mut Measured) {
    client.tracer.set_enabled(args.trace);
    let t0 = Instant::now();
    let inputs = workloads::setup(args.workload, args.seed, client);
    m.setup_secs.push(t0.elapsed().as_secs_f64());
    client.tracer.set_enabled(false);
    m.gen_secs.push(inputs.gen_s);
    m.inputs = Some(inputs);
}

/// Runs the workload: set-up, rounds until the time is up, the determinism
/// check, and set-up again.
fn run(args: &Args, client: &mut Client) -> Measured {
    let mut m = Measured::default();
    for _ in 0..SETUP_REPS {
        set_up(args, client, &mut m);
    }
    let inputs = m.inputs.clone().expect("set-up ran");

    let budget = args.seconds as f64;
    let min_rounds = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    loop {
        // Traced runs alternate untraced and traced rounds, untraced first.
        let traced = args.trace && m.rounds.len() % 2 == 1;
        let mut out = workloads::round(args.workload, &inputs, traced, client);
        let last = out.wall_secs;
        if !m.rounds.is_empty() {
            // Later rounds keep timings, counts and digests; the simulated
            // metrics read the first round's reports.
            out.drop_reports();
        }
        m.rounds.push(out);
        if m.rounds.len() == 1 {
            // Every later round repeats this one's work: this is the
            // workload's peak, read before later rounds' bookkeeping and
            // allocator drift, and before the determinism check below,
            // which holds two recorded traces at once.
            m.peak_rss_mb = peak_rss_mb();
        }
        let failing = client.failed() > 0;
        let elapsed = start.elapsed().as_secs_f64();
        if failing || (m.rounds.len() >= min_rounds && elapsed + last / 2.0 >= budget) {
            break;
        }
    }
    workloads::check_determinism(&inputs, client);
    for _ in 0..SETUP_REPS {
        set_up(args, client, &mut m);
    }
    check_repeats(&m, client);
    m.attempted = client.attempted();
    m.failed = client.failed();
    m
}

/// Every round must reproduce the first round's results exactly.
fn check_repeats(m: &Measured, client: &mut Client) {
    let Some(first) = m.rounds.first() else {
        return;
    };
    for (i, r) in m.rounds.iter().enumerate().skip(1) {
        if r.digests != first.digests {
            client.fail(
                u64::MAX - i as u64,
                format!("round {i} did not reproduce round 0's results"),
            );
        }
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut client = Client::new();
    let m = run(&args, &mut client);
    for f in client.failures() {
        println!("FAILED: {f}");
    }
    let correct = m.failed == 0;
    let traced_rounds = m.rounds.iter().filter(|r| r.traced).count();
    let kernel: Vec<f64> = m
        .rounds
        .iter()
        .filter(|r| !r.traced)
        .flat_map(|r| r.op_kernel_secs.iter().copied())
        .collect();
    println!(
        "host speed: reference kernel median {:.4} ms over {} passes (nominal {} ms)",
        metrics::median(&kernel) * 1e3,
        kernel.len(),
        calib::NOMINAL_SECS * 1e3
    );
    println!(
        "rounds={} traced_rounds={traced_rounds} attempted={} failed={}",
        m.rounds.len(),
        m.attempted,
        m.failed
    );
    let (defs, values) = if args.trace {
        let spans = client.tracer.spans();
        let path = std::path::Path::new(".perfbench-out").join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(".perfbench-out")
            .and_then(|()| std::fs::write(&path, client.tracer.to_jsonl()));
        match written {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        (PER_LAYER, summary::per_layer(&m, spans))
    } else {
        (END_TO_END, summary::end_to_end(&m))
    };
    print!("{}", table(defs, &values));
    println!(
        "{}",
        result_line(correct, m.attempted, m.failed, defs, &values)
    );
    if !correct {
        std::process::exit(1);
    }
}
