//! Allocation gate for the checkpoint plane.
//!
//! Allocation counts are deterministic, so they gate hard where timings
//! cannot: encoding a state image allocates per plane, not per chunk; a
//! commit allocates one block per *new* chunk plus per-plane manifest
//! storage; and verifying a checkpoint allocates no more than encoding the
//! live state does — nothing is copied out of the store.
//!
//! This binary registers the counting allocator globally, so it holds one
//! test only: a second test running on another thread would allocate into
//! the same counters.

use laminar_bench::alloc_count::{self, CountingAlloc};
use laminar_cluster::ModelSpec;
use laminar_core::{generate_schedule, placement_for, ChaosConfig, LaminarSystem, SystemKind};
use laminar_runtime::recovery::{DeltaCheckpoint, Recoverable};
use laminar_runtime::{DeltaStore, NullTrace, SystemConfig};
use laminar_sim::{Duration, Time};
use laminar_workload::{Checkpoint, WorkloadGenerator};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one call to `f`.
fn allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (v, stats) = alloc_count::measure(f);
    (v, stats.allocs)
}

#[test]
fn checkpoint_plane_allocates_per_plane_not_per_chunk() {
    // A 16-GPU run holds tens of thousands of chunks per image, so a
    // per-chunk allocation cannot hide under the per-plane bound.
    let model = ModelSpec::qwen_7b();
    let p = placement_for(SystemKind::Laminar, &model, 16);
    let workload = WorkloadGenerator::single_turn(7, Checkpoint::Math7B);
    let mut cfg = SystemConfig::new(model, p.train, p.rollout, p.tp, workload);
    cfg.iterations = 2;
    cfg.warmup = 0;
    let sys = LaminarSystem {
        faults: generate_schedule(
            1,
            &ChaosConfig {
                events: 4,
                earliest: Time::from_secs(10),
                horizon: Time::from_secs(150),
                replicas: cfg.replicas(),
            },
        ),
        ..LaminarSystem::default()
    };
    let (_, snapshots) = sys.run_checkpointed(&cfg, Duration::from_secs(400), &mut NullTrace);
    assert!(snapshots.len() >= 4, "{} cadence points", snapshots.len());

    alloc_count::enable();
    let mut store = DeltaStore::new();
    for snap in snapshots {
        let (image, encode) = allocs(|| LaminarSystem::encode_state(&snap.state));
        let planes = image.planes().len() as u64;
        let chunks: u64 = image.planes().iter().map(|p| p.chunk_count() as u64).sum();
        // Each plane's arena and chunk-end vectors grow by doubling: a few
        // dozen allocations per plane at most, whatever the chunk count.
        assert!(
            encode <= 48 * planes && 10 * encode < chunks,
            "point {}: encode made {encode} allocations for {planes} planes, {chunks} chunks",
            snap.index
        );

        let ((manifest_id, stats), commit) = allocs(|| store.commit(snap.at, &image));
        // One block per new chunk, one key list per plane, the manifest
        // list, and the chunk index's doublings (fewer than 32).
        assert!(
            commit <= stats.chunks_new as u64 + 2 * planes + 32,
            "point {}: commit made {commit} allocations for {} new chunks, {planes} planes",
            snap.index,
            stats.chunks_new
        );

        let checkpoint = DeltaCheckpoint {
            at: snap.at,
            index: snap.index,
            manifest_id,
            stats,
            state: snap.state,
        };
        let (verified, verify) = allocs(|| LaminarSystem::verify_checkpoint(&store, &checkpoint));
        verified.unwrap_or_else(|e| panic!("point {}: {e}", snap.index));
        assert!(
            verify <= encode,
            "point {}: verify made {verify} allocations, encoding alone {encode}",
            snap.index
        );
    }
    alloc_count::disable();
}
