//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function is wrapped
//! in a span carrying a name (`layer.function`), host start and end times
//! relative to the recorder's epoch, its parent span, and the id of the op
//! it belongs to. Spans stay in memory and are written as JSONL when the
//! benchmark ends. A layer's self time is its span's duration minus the part
//! of that interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function`, e.g. `core.run` or `runtime.delta.verify`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (`end_ns >= start_ns` once closed).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (`None` for rounds and set-up).
    pub op: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; closing a disabled recorder's handle is a no-op.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans while enabled; costs one branch per call while disabled.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A disabled recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans opened now are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str, op: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::open`]. Spans close innermost first.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: Option<u64>, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, op);
        let out = f();
        self.close(open);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("fmt::Write on String is infallible");
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the parent's own interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Layers the benchmark attributes time to, most specific first.
pub const LAYERS: [&str; 7] = [
    "runtime.trace",
    "runtime.delta",
    "baselines",
    "workload",
    "rollout",
    "core",
    "bench",
];

/// The layer a span name (`layer.function`) belongs to.
pub fn layer_of(name: &str) -> &'static str {
    LAYERS
        .into_iter()
        .find(|l| {
            name.strip_prefix(l)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
        .unwrap_or("bench")
}
