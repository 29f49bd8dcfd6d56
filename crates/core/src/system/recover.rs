//! The recovery plane: graceful degradation under sustained capacity loss
//! and deterministic checkpoint/restore (DESIGN.md §8).
//!
//! **Degradation.** Every fault path that changes fleet capacity calls
//! [`World::note_capacity`]. When the alive fraction drops below the
//! configured threshold, a [`Ev::DegradeCheck`] is armed one degraded
//! window later; if capacity is still low when it fires, the driver enters
//! degraded mode — the per-replica admission target shrinks and a
//! configured staleness cap is relaxed by a bounded allowance — and emits a
//! [`SpanKind::Degraded`] marker. Capacity returning (machine recovery or
//! elastic scale-out) exits the mode and emits a [`SpanKind::Recovered`]
//! span covering the whole episode, which is what the recovery benchmark
//! reads MTTR from.
//!
//! **Checkpoint/restore.** A [`LaminarSnapshot`] is a deep clone of the
//! whole `Simulation<World>` taken between events at a cadence boundary.
//! Cloning a `BinaryHeap` or `HashMap` copies its backing storage verbatim,
//! so the clone pops and iterates in exactly the original order; together
//! with the seeded RNG being part of the state, a resumed run replays the
//! remaining events byte-identically — same report, same trace — which
//! `laminar_runtime::check_resume_equivalence` asserts outright.

use super::{Ev, LaminarSystem, World};
use laminar_data::{Eviction, ExperienceBuffer, PartialResponsePool, Sampler};
use laminar_runtime::delta::{
    encode_report_plane, encode_span_batch, fnv1a_bytes, DeltaStore, StateImage, StatePlane,
    WordEnc, SPAN_BATCH,
};
use laminar_runtime::recovery::{DeltaCheckpoint, Recoverable, RunSnapshot};
use laminar_runtime::{RunReport, SpanKind, SystemConfig, TraceSink, TraceSpan};
use laminar_sim::{Duration, Scheduler, Simulation, Time};
use std::collections::{HashMap, HashSet};

impl World {
    fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Re-evaluates fleet capacity after any event that changes it.
    /// Arms the degradation timer when capacity drops below the threshold;
    /// ends the degraded episode as soon as capacity returns.
    pub(super) fn note_capacity(&mut self, now: Time, sched: &mut Scheduler<Ev>) {
        let frac = self.alive_count() as f64 / self.alive.len().max(1) as f64;
        if frac < self.opts.recovery.degraded_alive_frac {
            if self.capacity_low_since.is_none() {
                self.capacity_low_since = Some(now);
                sched.after(self.opts.recovery.degraded_window, Ev::DegradeCheck);
            }
        } else {
            self.capacity_low_since = None;
            if self.degraded {
                self.exit_degraded(now);
            }
        }
    }

    /// The armed degradation timer fired: enter degraded mode iff capacity
    /// has stayed low for the whole window (transient dips are absorbed).
    pub(super) fn degrade_check(&mut self, now: Time) {
        if self.degraded {
            return;
        }
        let Some(since) = self.capacity_low_since else {
            return;
        };
        if now.since(since) >= self.opts.recovery.degraded_window {
            self.enter_degraded(now);
        }
    }

    /// The staleness cap currently in force: the configured cap, plus the
    /// relax allowance only while degraded.
    fn effective_staleness_cap(&self) -> Option<u64> {
        self.opts.staleness_cap.map(|cap| {
            if self.degraded {
                cap + self.opts.recovery.staleness_relax
            } else {
                cap
            }
        })
    }

    fn enter_degraded(&mut self, now: Time) {
        self.degraded = true;
        self.degraded_entered = now;
        self.audit.degraded_entries += 1;
        self.span(SpanKind::Degraded, now, now, None, self.relay_version, 0);
        if let Some(cap) = self.effective_staleness_cap() {
            self.buffer
                .set_sampler(Sampler::StalenessCapped { max_staleness: cap });
        }
    }

    fn exit_degraded(&mut self, now: Time) {
        self.degraded = false;
        self.span(
            SpanKind::Recovered,
            self.degraded_entered,
            now,
            None,
            self.relay_version,
            0,
        );
        if let Some(cap) = self.effective_staleness_cap() {
            self.buffer
                .set_sampler(Sampler::StalenessCapped { max_staleness: cap });
        }
    }
}

/// A deterministic checkpoint of a Laminar run: the complete simulation
/// state (engines with their event heaps and resident trajectories, the
/// experience and partial-response buffers, actor and relay versions, the
/// driver clock, and every pending simulation event), frozen between
/// events at a cadence boundary.
#[derive(Clone)]
pub struct LaminarSnapshot {
    sim: Simulation<World>,
}

impl LaminarSnapshot {
    /// Virtual time the snapshot was taken at (all events up to and
    /// including this instant have executed).
    pub fn at(&self) -> Time {
        self.sim.scheduler.now()
    }
}

impl Recoverable for LaminarSystem {
    type Snapshot = LaminarSnapshot;

    fn run_checkpointed(
        &self,
        cfg: &SystemConfig,
        every: Duration,
        trace: &mut dyn TraceSink,
    ) -> (RunReport, Vec<RunSnapshot<LaminarSnapshot>>) {
        assert!(
            every > Duration::ZERO,
            "checkpoint cadence must be positive"
        );
        let mut sim = self.build(cfg, trace.enabled());
        let mut snapshots = Vec::new();
        let mut deadline = Time::ZERO + every;
        loop {
            let finished = sim.run_while_until(|w| !w.done(), deadline, 2_000_000_000);
            if finished {
                break;
            }
            assert!(
                sim.scheduler.next_event_time().is_some(),
                "laminar run stalled before completing its iterations"
            );
            snapshots.push(RunSnapshot {
                at: deadline,
                index: snapshots.len(),
                state: LaminarSnapshot { sim: sim.clone() },
            });
            deadline += every;
        }
        let mut world = sim.world;
        world.drain_spans(trace);
        (world.finish_report(), snapshots)
    }

    /// The incremental override: the same cadence loop as
    /// [`run_checkpointed`](Recoverable::run_checkpointed), but each cadence
    /// point builds its [`StateImage`] through a [`DeltaEncoder`] that reuses
    /// cached chunks for every clean plane — slab dirty bits gate the
    /// per-trajectory chunks, mutation epochs gate the buffer and partial
    /// pools, and span batches are extended append-only. The committed image
    /// is byte-identical to a fresh [`encode_state`](Recoverable::encode_state)
    /// of the same snapshot (the property tests hold it to that); only the
    /// encoding work is O(dirty).
    fn run_delta_checkpointed(
        &self,
        cfg: &SystemConfig,
        every: Duration,
        trace: &mut dyn TraceSink,
        store: &mut DeltaStore,
    ) -> (RunReport, Vec<DeltaCheckpoint<LaminarSnapshot>>) {
        assert!(
            every > Duration::ZERO,
            "checkpoint cadence must be positive"
        );
        let mut sim = self.build(cfg, trace.enabled());
        let mut enc = DeltaEncoder::default();
        let mut checkpoints: Vec<DeltaCheckpoint<LaminarSnapshot>> = Vec::new();
        let mut deadline = Time::ZERO + every;
        loop {
            let finished = sim.run_while_until(|w| !w.done(), deadline, 2_000_000_000);
            if finished {
                break;
            }
            assert!(
                sim.scheduler.next_event_time().is_some(),
                "laminar run stalled before completing its iterations"
            );
            let image = enc.encode(&sim);
            enc.after_commit(&mut sim.world);
            let (manifest_id, stats) = store.commit(deadline, &image);
            checkpoints.push(DeltaCheckpoint {
                at: deadline,
                index: checkpoints.len(),
                manifest_id,
                stats,
                state: LaminarSnapshot { sim: sim.clone() },
            });
            deadline += every;
        }
        let mut world = sim.world;
        world.drain_spans(trace);
        (world.finish_report(), checkpoints)
    }

    fn resume(&self, snapshot: LaminarSnapshot, trace: &mut dyn TraceSink) -> RunReport {
        let mut sim = snapshot.sim;
        let finished = sim.run_while(|w| !w.done(), 2_000_000_000);
        assert!(finished, "resumed laminar run did not complete");
        let mut world = sim.world;
        world.drain_spans(trace);
        world.finish_report()
    }

    fn encode_state(snapshot: &LaminarSnapshot) -> StateImage {
        build_image(&snapshot.sim, None)
    }
}

// ---------------------------------------------------------------------
// Canonical state image
// ---------------------------------------------------------------------

/// Fixed plane order of the Laminar state image. Every mutable plane of the
/// world is covered; chunk boundaries sit at natural state granularity —
/// one chunk per resident trajectory, per pending event, per pooled prompt,
/// per partial response, per buffered experience — so removing one entry
/// never shifts a neighbour's chunk key, and [`PAGE_WORDS`]-paged streams
/// carry the flat scalar/report tails.
///
/// [`PAGE_WORDS`]: laminar_runtime::delta::PAGE_WORDS
fn build_image(sim: &Simulation<World>, mut enc: Option<&mut DeltaEncoder>) -> StateImage {
    let w = &sim.world;
    let mut img = StateImage::new();
    img.push_plane(driver_plane(sim));
    img.push_plane(audit_plane(w));
    img.push_plane(queue_plane(&sim.scheduler));
    img.push_plane(pool_plane(w));

    let partials_plane = match enc.as_deref_mut() {
        Some(e) if e.partials_epoch == Some(w.partials.epoch()) => {
            plane_from_chunks("partials", e.partials_chunks.clone())
        }
        other => {
            let chunks = partials_chunks(&w.partials);
            if let Some(e) = other {
                e.partials_epoch = Some(w.partials.epoch());
                e.partials_chunks = chunks.clone();
            }
            plane_from_chunks("partials", chunks)
        }
    };
    img.push_plane(partials_plane);

    let buffer_plane = match enc.as_deref_mut() {
        Some(e) if e.buffer_epoch == Some(w.buffer.epoch()) => {
            plane_from_chunks("buffer", e.buffer_chunks.clone())
        }
        other => {
            let chunks = buffer_chunks(&w.buffer);
            if let Some(e) = other {
                e.buffer_epoch = Some(w.buffer.epoch());
                e.buffer_chunks = chunks.clone();
            }
            plane_from_chunks("buffer", chunks)
        }
    };
    img.push_plane(buffer_plane);

    img.push_plane(engines_plane(
        w,
        enc.as_deref_mut().map(|e| &mut e.traj_chunks),
    ));
    img.push_plane(spans_plane(w, enc));

    img.push_plane(encode_report_plane("report", &w.report));
    img
}

fn plane_from_chunks(name: &'static str, chunks: Vec<Vec<u64>>) -> StatePlane {
    let mut plane = StatePlane::new(name);
    for c in chunks {
        plane.push_chunk(c);
    }
    plane
}

/// The driver's flat scalar stream: scheduler counters, version state,
/// trainer state, RNG words, per-replica liveness/breaker state, the actor
/// checkpoint store, the dataset cursor, and the manager's health map.
fn driver_plane(sim: &Simulation<World>) -> StatePlane {
    let w = &sim.world;
    let mut e = WordEnc::new();
    e.t(sim.scheduler.now())
        .u(sim.scheduler.scheduled())
        .u(sim.scheduler.delivered())
        .z(sim.scheduler.pending())
        .u(w.version)
        .u(w.relay_version)
        .u(w.batches_issued)
        .z(w.replica_batch)
        .b(w.trainer_busy)
        .b(w.trainer_failed)
        .u(w.trainer_epoch)
        .u(w.trainer_resume_to)
        .t(w.relay_blocked_until)
        .z(w.iterations_done)
        .u(w.last_iter_duration.as_nanos())
        .t(w.last_train_done)
        .f(w.gen_tokens_prev)
        .t(w.gen_sample_prev)
        .f(w.train_tokens_cum)
        .f(w.train_tokens_prev)
        .b(w.record_trace)
        .t(w.trainer_started)
        .t(w.trainer_free_at)
        .b(w.degraded)
        .ot(w.capacity_low_since)
        .t(w.degraded_entered);
    for word in w.rng.state_words() {
        e.u(word);
    }
    e.z(w.alive.len());
    for &a in &w.alive {
        e.b(a);
    }
    for &p in &w.pulling {
        e.b(p);
    }
    let mut words = e.take();
    for b in &w.breakers {
        b.state_words(&mut words);
    }
    words.push(w.checkpoints.every);
    words.push(w.checkpoints.history_len() as u64);
    for c in w.checkpoints.history() {
        words.push(c.version);
        words.push(c.written_at.as_nanos());
    }
    let (next_prompt, next_traj) = w.dataset.cursor();
    words.push(next_prompt);
    words.push(next_traj);
    w.manager.checkpoint_words(&mut words);
    let mut plane = StatePlane::new("driver");
    plane.extend_paged(&words);
    plane
}

/// The chaos audit's lost-work bookkeeping (BTree containers iterate in
/// key order, so the streams are canonical). Sectioned so growth in one
/// region never shifts another: a scalar head chunk frames the sections,
/// the admitted set and completed map — whose keys are ascending ids, so
/// growth appends — are each their own paged stream, and each replica's
/// version history gets its own chunk (it only changes when that replica
/// syncs weights).
fn audit_plane(w: &World) -> StatePlane {
    let a = &w.audit;
    let mut plane = StatePlane::new("audit");
    let mut head = vec![
        a.faults_applied,
        a.redirects,
        a.repooled,
        a.breaker_blocked,
        a.degraded_entries,
        a.admitted.len() as u64,
        a.completion_log.len() as u64,
        a.version_history.len() as u64,
        a.violations.len() as u64,
    ];
    head.extend(a.violations.iter().map(|v| fnv1a_bytes(v.as_bytes())));
    plane.push_chunk(head);
    let admitted: Vec<u64> = a.admitted.iter().copied().collect();
    plane.extend_paged(&admitted);
    // The completion log is the append-only view of `completed` (which is
    // its per-id multiset), so paging it covers the map without the
    // mid-stream shifts out-of-id-order completions would cause.
    plane.extend_paged(&a.completion_log);
    for (r, h) in a.version_history.iter().enumerate() {
        let mut words = vec![r as u64, h.len() as u64];
        words.extend(h.iter().copied());
        plane.push_chunk(words);
    }
    plane
}

/// One chunk per pending simulation event, in delivery order `(at, seq)` —
/// a total order, so the stream is exactly the remaining event schedule.
fn queue_plane(sched: &Scheduler<Ev>) -> StatePlane {
    let mut plane = StatePlane::new("queue");
    for (at, seq, ev) in sched.pending_entries() {
        let mut words = vec![at.as_nanos(), seq];
        encode_ev(ev, &mut words);
        plane.push_chunk(words);
    }
    plane
}

/// Canonical event encoding: a stable discriminant plus the payload.
fn encode_ev(ev: &Ev, out: &mut Vec<u64>) {
    match ev {
        Ev::ReplicaWake { r, epoch } => {
            out.extend([0, *r as u64, *epoch]);
        }
        Ev::ReplicaResume { r, version } => {
            out.extend([1, *r as u64, *version]);
        }
        Ev::TrainerCheck => out.push(2),
        Ev::TrainerDone { tokens, epoch } => {
            out.extend([3, tokens.to_bits(), *epoch]);
        }
        Ev::WeightsAvailable { version } => out.extend([4, *version]),
        Ev::RepackTick => out.push(5),
        Ev::SampleTick => out.push(6),
        Ev::Fault { idx } => out.extend([7, *idx as u64]),
        Ev::RecoverMachine { replicas } => {
            out.extend([8, replicas.len() as u64]);
            out.extend(replicas.iter().map(|&r| r as u64));
        }
        Ev::SlowNodeEnd { r } => out.extend([9, *r as u64]),
        Ev::TrainerRecover => out.push(10),
        Ev::AddReplicas { count } => out.extend([11, *count as u64]),
        Ev::DegradeCheck => out.push(12),
        Ev::BreakerProbe { r } => out.extend([13, *r as u64]),
    }
}

/// One chunk per pooled prompt assignment, in admission (deque) order.
fn pool_plane(w: &World) -> StatePlane {
    let mut plane = StatePlane::new("pool");
    for spec in &w.pool {
        let mut words = Vec::new();
        spec.encode_words(&mut words);
        plane.push_chunk(words);
    }
    plane
}

/// Pool counters plus one chunk per in-flight partial response, id-sorted.
fn partials_chunks(p: &PartialResponsePool) -> Vec<Vec<u64>> {
    let mut chunks = vec![vec![p.total_updates(), p.recovered(), p.len() as u64]];
    let mut ids = p.ids();
    ids.sort_unstable();
    for id in ids {
        let mut words = Vec::new();
        p.get(id)
            .expect("listed id present")
            .encode_words(&mut words);
        chunks.push(words);
    }
    chunks
}

/// Buffer strategy + flow counters, then one chunk per buffered experience
/// in deque (write) order.
fn buffer_chunks(b: &ExperienceBuffer) -> Vec<Vec<u64>> {
    let mut head = WordEnc::new();
    match b.sampler() {
        Sampler::Fifo => head.u(0),
        Sampler::Lifo => head.u(1),
        Sampler::StalenessCapped { max_staleness } => head.u(2).u(max_staleness),
        Sampler::Random => head.u(3),
    };
    match b.eviction() {
        Eviction::None => head.u(0),
        Eviction::DropOldest { capacity } => head.u(1).z(capacity),
        Eviction::MaxStaleness { max_staleness } => head.u(2).u(max_staleness),
    };
    let stats = b.stats();
    head.z(stats.occupancy)
        .u(stats.written)
        .u(stats.sampled)
        .u(stats.evicted);
    let mut chunks = vec![head.take()];
    for exp in b.iter() {
        let mut words = Vec::new();
        exp.encode_words(&mut words);
        chunks.push(words);
    }
    chunks
}

/// Per engine: the scalar chunk, one chunk per resident (active)
/// trajectory, one per env-waiting trajectory, one per undrained
/// completion. Active-trajectory chunks are the slab-dirty-bit cache
/// domain: a clean bit proves the trajectory was untouched since the last
/// commit, so its cached encoding is reused verbatim.
fn engines_plane(w: &World, mut cache: Option<&mut HashMap<(usize, u64), Vec<u64>>>) -> StatePlane {
    let mut plane = StatePlane::new("engines");
    for (r, eng) in w.engines.iter().enumerate() {
        let mut scalars = Vec::new();
        eng.checkpoint_scalar_words(&mut scalars);
        plane.push_chunk(scalars);
        for (id, st) in eng.active_states() {
            let chunk = match cache.as_deref_mut() {
                Some(c) if !eng.traj_dirty(id) && c.contains_key(&(r, id)) => c[&(r, id)].clone(),
                c => {
                    let mut words = Vec::new();
                    st.encode_words(&mut words);
                    if let Some(c) = c {
                        c.insert((r, id), words.clone());
                    }
                    words
                }
            };
            plane.push_chunk(chunk);
        }
        for st in eng.waiting_states() {
            let mut words = Vec::new();
            st.encode_words(&mut words);
            plane.push_chunk(words);
        }
        for done in eng.completions() {
            let mut words = Vec::new();
            done.encode_words(&mut words);
            plane.push_chunk(words);
        }
    }
    plane
}

/// Driver span batches followed by each engine's, [`SPAN_BATCH`] spans per
/// chunk. Span streams are append-only between commits (engines buffer
/// spans until the final drain), so only the tail batch of each source
/// changes per cadence — and the caches reuse the frozen full batches.
fn spans_plane(w: &World, enc: Option<&mut DeltaEncoder>) -> StatePlane {
    let mut plane = StatePlane::new("spans");
    match enc {
        Some(e) => {
            e.span_caches
                .resize_with(w.engines.len() + 1, SpanCache::default);
            append_span_batches(&mut plane, &w.trace_spans, Some(&mut e.span_caches[0]));
            for (r, eng) in w.engines.iter().enumerate() {
                append_span_batches(
                    &mut plane,
                    eng.trace_spans(),
                    Some(&mut e.span_caches[r + 1]),
                );
            }
        }
        None => {
            append_span_batches(&mut plane, &w.trace_spans, None);
            for eng in &w.engines {
                append_span_batches(&mut plane, eng.trace_spans(), None);
            }
        }
    }
    plane
}

fn append_span_batches(plane: &mut StatePlane, spans: &[TraceSpan], cache: Option<&mut SpanCache>) {
    let Some(cache) = cache else {
        for batch in spans.chunks(SPAN_BATCH) {
            plane.push_chunk(encode_span_batch(batch));
        }
        return;
    };
    // The cache holds only *full* batches, which never change while the
    // stream keeps appending. A source that shrank or rewrote history (an
    // engine rebuilt by machine recovery) fails the boundary-span check and
    // re-encodes from scratch.
    let covered = cache.batches.len() * SPAN_BATCH;
    let intact =
        covered <= spans.len() && (covered == 0 || cache.boundary == Some(spans[covered - 1]));
    if !intact {
        cache.batches.clear();
        cache.boundary = None;
    }
    let covered = cache.batches.len() * SPAN_BATCH;
    for b in &cache.batches {
        plane.push_chunk(b.clone());
    }
    for batch in spans[covered..].chunks(SPAN_BATCH) {
        let words = encode_span_batch(batch);
        if batch.len() == SPAN_BATCH {
            cache.batches.push(words.clone());
            cache.boundary = Some(batch[SPAN_BATCH - 1]);
        }
        plane.push_chunk(words);
    }
}

/// Cached encodings carried between cadence points by the incremental
/// encoder. Every cache is gated by a dirtiness witness — slab dirty bits,
/// pool mutation epochs, or span-stream append-only checks — and the
/// fallback on any miss is a fresh encode, so a stale witness can only cost
/// CPU, never correctness (and the equivalence property tests pin even
/// that: incremental and fresh images must be byte-identical).
#[derive(Default)]
struct DeltaEncoder {
    /// Active-trajectory chunks keyed `(replica, trajectory id)`.
    traj_chunks: HashMap<(usize, u64), Vec<u64>>,
    buffer_epoch: Option<u64>,
    buffer_chunks: Vec<Vec<u64>>,
    partials_epoch: Option<u64>,
    partials_chunks: Vec<Vec<u64>>,
    /// Index 0 is the driver's span stream; engine `r` is at `r + 1`.
    span_caches: Vec<SpanCache>,
}

#[derive(Default)]
struct SpanCache {
    batches: Vec<Vec<u64>>,
    /// The last span covered by `batches`, revalidated each encode.
    boundary: Option<TraceSpan>,
}

impl DeltaEncoder {
    fn encode(&mut self, sim: &Simulation<World>) -> StateImage {
        build_image(sim, Some(self))
    }

    /// Rebaselines the dirty sets after a commit: every cached chunk now
    /// reflects the committed state, so slab dirty bits reset and cache
    /// entries for departed trajectories are dropped.
    fn after_commit(&mut self, w: &mut World) {
        let live: HashSet<(usize, u64)> = w
            .engines
            .iter()
            .enumerate()
            .flat_map(|(r, e)| e.active_states().map(move |(id, _)| (r, id)))
            .collect();
        self.traj_chunks.retain(|k, _| live.contains(k));
        for e in &mut w.engines {
            e.clear_traj_dirty();
        }
    }
}
