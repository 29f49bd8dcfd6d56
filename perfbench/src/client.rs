//! The closed-loop client: issues one op at a time, times it, wraps it in a
//! span, catches its panic, and counts attempted and failed ops.

use crate::calib::Calibrator;
use crate::spans::Tracer;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A completed op: its result, host seconds, and id.
#[derive(Debug)]
pub struct Op<T> {
    /// What the call returned.
    pub value: T,
    /// Host seconds the call took.
    pub secs: f64,
    /// Op id (also on the op's span).
    pub id: u64,
}

/// One client on one thread.
#[derive(Debug)]
pub struct Client {
    /// Span recorder (on in traced rounds).
    pub tracer: Tracer,
    calib: Calibrator,
    attempted: u64,
    failed: BTreeSet<u64>,
    failures: Vec<String>,
    op_secs: Vec<f64>,
    op_kernel_secs: Vec<f64>,
}

impl Client {
    /// A client with a disabled span recorder.
    pub fn new() -> Self {
        Client {
            tracer: Tracer::new(),
            calib: Calibrator::new(),
            attempted: 0,
            failed: BTreeSet::new(),
            failures: Vec::new(),
            op_secs: Vec::new(),
            op_kernel_secs: Vec::new(),
        }
    }

    /// Issues one op, right after a reference-kernel pass (see `calib`). A
    /// panic is caught and counts the op as failed. Traced rounds skip the
    /// pass (its time reads 0): their host times feed only the per-layer
    /// metrics, which are not rescaled, and the pass would count against the
    /// traced run's layer coverage.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> Option<Op<T>> {
        let kernel = if self.tracer.enabled() {
            0.0
        } else {
            self.calib.pass_secs()
        };
        let id = self.attempted;
        self.attempted += 1;
        let open = self.tracer.open(name, Some(id));
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(f));
        let secs = t0.elapsed().as_secs_f64();
        self.tracer.close(open);
        self.op_secs.push(secs);
        self.op_kernel_secs.push(kernel);
        match res {
            Ok(value) => Some(Op { value, secs, id }),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.fail(id, format!("{name} panicked: {msg}"));
                None
            }
        }
    }

    /// Runs a check on op `id`'s output inside a `bench.check` span; an
    /// error counts the op as failed.
    pub fn check(&mut self, id: u64, f: impl FnOnce() -> Result<(), String>) {
        if let Err(e) = self.check_span(f) {
            self.fail(id, e);
        }
    }

    /// Runs the benchmark's own work (building what a check compares
    /// against) inside a `bench.check` span.
    pub fn check_span<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.tracer.span("bench.check", None, f)
    }

    /// Counts op `id` as failed.
    pub fn fail(&mut self, id: u64, why: String) {
        if self.failed.insert(id) {
            self.failures.push(why);
        }
    }

    /// Ops issued so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Ops that panicked or failed a check.
    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Why each failed op failed.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Host seconds of every op so far, in issue order.
    pub fn op_secs(&self) -> &[f64] {
        &self.op_secs
    }

    /// Host seconds of the kernel pass right before every op so far.
    pub fn op_kernel_secs(&self) -> &[f64] {
        &self.op_kernel_secs
    }
}
