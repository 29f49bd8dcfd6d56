//! Per-trajectory execution state inside a replica.

use laminar_sim::{Duration, Time};
use laminar_workload::{Segment, TrajectorySpec};

/// Execution phase of an in-flight trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Prompt (or re-prefill after a move/interrupt) is being processed;
    /// decoding starts at `until`.
    Prefill {
        /// When the prefill finishes.
        until: Time,
    },
    /// Actively decoding in the replica's batch.
    Decoding,
    /// Waiting on an environment call; KVCache is held but no decode runs.
    Env {
        /// When the environment call returns.
        until: Time,
    },
}

/// Weight versions a trajectory generated under, oldest first, never empty.
///
/// Most trajectories finish under the version they started with, so the
/// representation keeps the first version inline and only allocates the
/// `extras` spill vector once a *different* version is actually pushed —
/// creating or version-resetting a trajectory costs zero heap allocations.
/// Consecutive duplicates are collapsed on push (and on [`from_vec`]), so
/// `extras` is non-empty exactly when the trajectory is mixed-version.
///
/// [`from_vec`]: PolicyVersions::from_vec
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyVersions {
    first: u64,
    extras: Vec<u64>,
}

impl PolicyVersions {
    /// The common case: a trajectory serving a single version. Allocates
    /// nothing (`Vec::new` is heap-free until first push).
    pub fn single(version: u64) -> Self {
        PolicyVersions {
            first: version,
            extras: Vec::new(),
        }
    }

    /// Rebuilds from an explicit oldest-first list (e.g. a partial-response
    /// record), collapsing consecutive duplicates to canonical form.
    ///
    /// # Panics
    /// Panics if `versions` is empty — the list is never empty by invariant.
    pub fn from_vec(versions: Vec<u64>) -> Self {
        let mut it = versions.into_iter();
        let first = it.next().expect("policy versions are never empty");
        let mut pv = PolicyVersions {
            first,
            extras: Vec::new(),
        };
        for v in it {
            pv.push(v);
        }
        pv
    }

    /// The version generation started under (behaviour version).
    pub fn first(&self) -> u64 {
        self.first
    }

    /// The version currently in effect.
    pub fn last(&self) -> u64 {
        *self.extras.last().unwrap_or(&self.first)
    }

    /// Number of distinct recorded version stretches.
    pub fn len(&self) -> usize {
        1 + self.extras.len()
    }

    /// Never true: the list always holds at least the starting version.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether more than one version contributed tokens.
    pub fn is_mixed(&self) -> bool {
        !self.extras.is_empty()
    }

    /// Records that generation continues under `version` (collapsed if equal
    /// to the last recorded one).
    pub fn push(&mut self, version: u64) {
        if self.last() != version {
            self.extras.push(version);
        }
    }

    /// Forgets history and restarts the list at `version` (used when a
    /// waiting, zero-progress trajectory is retagged to a new weight
    /// version). Keeps any spill capacity for reuse.
    pub fn reset(&mut self, version: u64) {
        self.first = version;
        self.extras.clear();
    }

    /// Oldest-first iteration over the recorded versions.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.first).chain(self.extras.iter().copied())
    }

    /// The versions as an owned oldest-first vector (boundary conversions
    /// into `laminar_data` records).
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

impl PartialEq<Vec<u64>> for PolicyVersions {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<[u64]> for PolicyVersions {
    fn eq(&self, other: &[u64]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

/// State of one in-flight trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajState {
    /// The underlying assignment.
    pub spec: TrajectorySpec,
    /// Index of the segment currently executing.
    pub segment: usize,
    /// Tokens decoded within the current decode segment (fractional while a
    /// rate period is open).
    pub decoded_in_segment: f64,
    /// Total tokens decoded so far.
    pub total_decoded: f64,
    /// Weight versions used so far, oldest first (never empty).
    pub policy_versions: PolicyVersions,
    /// When generation first started (across moves).
    pub started_at: Time,
    /// Current phase.
    pub phase: Phase,
    /// Set when the trajectory was moved between replicas while in an
    /// environment call: its KVCache must be rebuilt before the next decode.
    pub needs_reprefill: bool,
    /// When the current decode segment entered [`Phase::Decoding`]; feeds the
    /// `DecodeStep` trace span emitted at segment completion.
    pub decode_started_at: Time,
    /// Engine-local lazy-progress baseline: the engine's global decode-step
    /// accumulator at the instant this trajectory last entered
    /// [`Phase::Decoding`] (or was last materialized). While decoding, the
    /// true decoded counts are `decoded_in_segment`/`total_decoded` plus
    /// `global_steps - steps_baseline`; the engine materializes them at phase
    /// transitions. Reset to 0 whenever the trajectory leaves the decoding
    /// phase so states stay comparable across engines.
    pub steps_baseline: f64,
    /// Engine-local segment-completion key: the value of the engine's global
    /// decode-step accumulator at which the current decode segment finishes.
    /// Stale heap entries are detected by comparing against this field.
    /// Reset to 0 whenever the trajectory leaves the decoding phase.
    pub finish_key: f64,
    /// Cumulative extra delay absorbed by this trajectory's env calls from
    /// `EnvStall` faults, counted against the engine's stall budget.
    pub env_stalled: Duration,
    /// Set when an env call exhausted the stall budget: the call is
    /// abandoned and the trajectory completes early at its next transition
    /// instead of wedging the batch.
    pub aborted: bool,
}

impl TrajState {
    /// Fresh state for a spec starting at `now` with weight `version`.
    pub fn new(spec: TrajectorySpec, version: u64, now: Time) -> Self {
        TrajState {
            spec,
            segment: 0,
            decoded_in_segment: 0.0,
            total_decoded: 0.0,
            policy_versions: PolicyVersions::single(version),
            started_at: now,
            phase: Phase::Prefill { until: now },
            needs_reprefill: false,
            decode_started_at: now,
            steps_baseline: 0.0,
            finish_key: 0.0,
            env_stalled: Duration::ZERO,
            aborted: false,
        }
    }

    /// Current context length in tokens (prompt plus everything decoded):
    /// the trajectory's KVCache footprint while resident.
    pub fn context_tokens(&self) -> f64 {
        self.spec.prompt_tokens as f64 + self.total_decoded
    }

    /// Token length of the current segment if it is a decode segment.
    pub fn current_decode_tokens(&self) -> Option<u64> {
        match self.spec.segments.get(self.segment) {
            Some(Segment::Decode { tokens }) => Some(*tokens),
            _ => None,
        }
    }

    /// Tokens left in the current decode segment (0 for non-decode phases).
    pub fn remaining_in_segment(&self) -> f64 {
        match self.current_decode_tokens() {
            Some(t) => (t as f64 - self.decoded_in_segment).max(0.0),
            None => 0.0,
        }
    }

    /// True once every segment has executed.
    pub fn is_complete(&self) -> bool {
        self.segment >= self.spec.segments.len()
    }

    /// Records that generation continues under `version` (if different from
    /// the last recorded one).
    pub fn push_version(&mut self, version: u64) {
        self.policy_versions.push(version);
    }

    /// Appends the state's canonical checkpoint encoding: a fixed-order
    /// word stream covering every field (spec included). One trajectory =
    /// one delta-checkpoint chunk, so an unchanged trajectory keeps its
    /// chunk key from one cadence point to the next.
    pub fn encode_words(&self, out: &mut Vec<u64>) {
        self.spec.encode_words(out);
        out.push(self.segment as u64);
        out.push(self.decoded_in_segment.to_bits());
        out.push(self.total_decoded.to_bits());
        out.push(self.policy_versions.len() as u64);
        out.extend(self.policy_versions.iter());
        out.push(self.started_at.as_nanos());
        match self.phase {
            Phase::Prefill { until } => {
                out.push(0);
                out.push(until.as_nanos());
            }
            Phase::Decoding => {
                out.push(1);
                out.push(0);
            }
            Phase::Env { until } => {
                out.push(2);
                out.push(until.as_nanos());
            }
        }
        out.push(self.needs_reprefill as u64);
        out.push(self.decode_started_at.as_nanos());
        out.push(self.steps_baseline.to_bits());
        out.push(self.finish_key.to_bits());
        out.push(self.env_stalled.as_nanos());
        out.push(self.aborted as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_workload::{Checkpoint, WorkloadGenerator};

    fn state() -> TrajState {
        let spec = WorkloadGenerator::single_turn(1, Checkpoint::Math7B).trajectory(0, 0, 0, 1.0);
        TrajState::new(spec, 3, Time::from_secs(1))
    }

    #[test]
    fn fresh_state_invariants() {
        let s = state();
        assert_eq!(s.policy_versions, vec![3]);
        assert_eq!(s.total_decoded, 0.0);
        assert!(!s.is_complete());
        assert_eq!(s.context_tokens(), s.spec.prompt_tokens as f64);
        assert_eq!(
            s.remaining_in_segment(),
            s.current_decode_tokens()
                .expect("single-turn starts with decode") as f64
        );
    }

    #[test]
    fn push_version_dedups() {
        let mut s = state();
        s.push_version(3);
        s.push_version(4);
        s.push_version(4);
        assert_eq!(s.policy_versions, vec![3, 4]);
    }

    #[test]
    fn policy_versions_inline_single_case() {
        let mut pv = PolicyVersions::single(5);
        assert_eq!(pv.first(), 5);
        assert_eq!(pv.last(), 5);
        assert_eq!(pv.len(), 1);
        assert!(!pv.is_mixed());
        assert_eq!(pv.to_vec(), vec![5]);
        pv.push(5);
        assert_eq!(pv.len(), 1, "consecutive duplicate collapses");
        pv.push(7);
        assert!(pv.is_mixed());
        assert_eq!(pv.last(), 7);
        assert_eq!(pv, vec![5, 7]);
        pv.reset(9);
        assert!(!pv.is_mixed());
        assert_eq!(pv, vec![9]);
    }

    #[test]
    fn policy_versions_from_vec_canonicalizes() {
        let pv = PolicyVersions::from_vec(vec![2, 2, 3, 3, 3, 4]);
        assert_eq!(pv.to_vec(), vec![2, 3, 4]);
        assert_eq!(pv, PolicyVersions::from_vec(vec![2, 3, 4]));
    }

    #[test]
    #[should_panic(expected = "never empty")]
    fn policy_versions_reject_empty() {
        let _ = PolicyVersions::from_vec(Vec::new());
    }

    #[test]
    fn completion_by_segment_index() {
        let mut s = state();
        s.segment = s.spec.segments.len();
        assert!(s.is_complete());
        assert_eq!(s.current_decode_tokens(), None);
        assert_eq!(s.remaining_in_segment(), 0.0);
    }
}
