//! Output comparators: byte identity of a run's report and trace, and a
//! cheap digest for checking that a repeated op gives the same result.

use laminar_runtime::{RecordingTrace, RunReport};

/// What a run is judged by: its report's `Debug` text and its trace JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// `format!("{report:?}")`.
    pub report: String,
    /// The trace as JSONL.
    pub jsonl: String,
}

impl Evidence {
    /// Evidence from a report and a trace already serialized as JSONL.
    pub fn new(report: &RunReport, jsonl: String) -> Self {
        Evidence {
            report: format!("{report:?}"),
            jsonl,
        }
    }

    /// Evidence from a report and a recorded trace.
    pub fn of(report: &RunReport, trace: &RecordingTrace) -> Self {
        Evidence::new(report, trace.to_jsonl())
    }
}

/// Byte offset of the first difference between `a` and `b`, if any.
pub fn first_diff(a: &str, b: &str) -> Option<usize> {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Some(i),
        None if a.len() != b.len() => Some(a.len().min(b.len())),
        None => None,
    }
}

/// `Ok` iff both the reports and the traces are byte-identical.
pub fn compare(expected: &Evidence, got: &Evidence) -> Result<(), String> {
    if let Some(i) = first_diff(&expected.report, &got.report) {
        return Err(format!("report differs at byte {i}"));
    }
    if let Some(i) = first_diff(&expected.jsonl, &got.jsonl) {
        return Err(format!("trace JSONL differs at byte {i}"));
    }
    Ok(())
}

/// A cheap digest of a report's headline results, for checking that every
/// repeat of an op reproduces the first one.
pub fn digest(r: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        h ^= w;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    mix(r.throughput.to_bits());
    mix(r.generation_fraction.to_bits());
    mix(r.mean_kv_utilization.to_bits());
    mix(r.latencies.len() as u64);
    mix(r.latencies.iter().sum::<f64>().to_bits());
    mix(r.consumed.iter().map(|c| c.staleness).sum());
    mix(r.rollout_waits.len() as u64);
    mix(r.repack_events);
    for s in &r.iteration_secs {
        mix(s.to_bits());
    }
    h
}
