//! Property tests for delta checkpoints.
//!
//! `run_delta_checkpointed` commits each cadence point's [`StateImage`]
//! into a content-addressed [`DeltaStore`] that writes only chunks it has
//! not seen before. The contract holding the store honest: the image
//! reconstructed from a manifest's chunk keys must equal a fresh
//! `encode_state` of the same snapshot as a value, the manifest's recorded
//! fingerprint must match it, the manifest chain must verify, and a live
//! state verified against another point's manifest must be rejected. These
//! tests sweep that property across 16 seeds of generated chaos schedules,
//! then soak a tight cadence (hundreds of checkpoints in one run) and prove
//! a resume off the full manifest chain.
//!
//! [`StateImage`]: laminar_runtime::StateImage

use laminar_core::{generate_schedule, ChaosConfig, LaminarSystem};
use laminar_runtime::recovery::{check_resume_equivalence, Recoverable, ResumeFrom};
use laminar_runtime::{DeltaStore, RecordingTrace, SystemConfig};
use laminar_sim::{Duration, Time};
use laminar_workload::{Checkpoint, WorkloadGenerator};

fn small_cfg() -> SystemConfig {
    let mut c = SystemConfig::small_test(WorkloadGenerator::single_turn(7, Checkpoint::Math7B));
    c.train_gpus = 4;
    c.rollout_gpus = 4;
    c.iterations = 3;
    c.warmup = 0;
    c
}

/// Store-reconstructed image == fresh whole-state encode == manifest
/// fingerprint, at every cadence point, across 16 seeds of chaos
/// schedules, with every manifest chain intact. A chunk the store loses or
/// mis-keys breaks the `StateImage` equality, not just the fingerprint —
/// so a mismatch pinpoints the plane rather than hiding behind a hash.
#[test]
fn reconstructed_images_match_fresh_encodes_across_chaos_seeds() {
    let cfg = small_cfg();
    for seed in 0..16u64 {
        let faults = generate_schedule(
            seed,
            &ChaosConfig {
                events: 4,
                earliest: Time::from_secs_f64(10.0),
                horizon: Time::from_secs_f64(150.0),
                replicas: cfg.replicas(),
            },
        );
        let sys = LaminarSystem {
            faults,
            ..LaminarSystem::default()
        };
        let mut store = DeltaStore::new();
        let mut trace = RecordingTrace::new();
        let (_report, checkpoints) =
            sys.run_delta_checkpointed(&cfg, Duration::from_secs(20), &mut trace, &mut store);
        assert!(
            !checkpoints.is_empty(),
            "seed {seed}: run too short to cross a cadence point"
        );
        for ckpt in &checkpoints {
            let fresh = LaminarSystem::encode_state(&ckpt.state);
            let manifest = store.manifest(ckpt.manifest_id).unwrap_or_else(|| {
                panic!("seed {seed}: checkpoint {} manifest missing", ckpt.index)
            });
            LaminarSystem::verify_checkpoint(&store, ckpt).unwrap_or_else(|e| {
                panic!("seed {seed}: checkpoint {} failed verify: {e}", ckpt.index)
            });
            let reconstructed = store.reconstruct(manifest).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: checkpoint {} failed reconstruct: {e}",
                    ckpt.index
                )
            });
            assert_eq!(
                reconstructed, fresh,
                "seed {seed}: checkpoint {} reconstructed image differs from fresh encode",
                ckpt.index
            );
            assert_eq!(
                manifest.fingerprint,
                fresh.fingerprint(),
                "seed {seed}: checkpoint {} manifest fingerprint != fresh fingerprint",
                ckpt.index
            );
            store
                .verify_chain(manifest.id)
                .unwrap_or_else(|e| panic!("seed {seed}: broken manifest chain: {e}"));
        }
        // A live state paired with another point's manifest must not verify.
        for pair in checkpoints.windows(2) {
            let mut swapped = pair[1].clone();
            swapped.manifest_id = pair[0].manifest_id;
            if LaminarSystem::encode_state(&pair[0].state)
                != LaminarSystem::encode_state(&swapped.state)
            {
                assert!(
                    LaminarSystem::verify_checkpoint(&store, &swapped).is_err(),
                    "seed {seed}: checkpoint {} verified against checkpoint {}'s manifest",
                    pair[1].index,
                    pair[0].index
                );
            }
        }
    }
}

/// Long-horizon soak: a 2 s cadence commits checkpoints by the hundred in
/// one run. Every manifest chain and fingerprint verifies, the
/// checkpointed run never perturbs the uninterrupted one, and the resume
/// from the *final* checkpoint — reachable only through the entire
/// manifest chain — reproduces the uninterrupted run byte for byte.
#[test]
fn tight_cadence_soak_resumes_off_full_manifest_chain() {
    let cfg = small_cfg();
    let sys = LaminarSystem {
        faults: laminar_core::overlapping_scenario(cfg.replicas()),
        ..LaminarSystem::default()
    };
    let soak = check_resume_equivalence(&sys, &cfg, Duration::from_secs(2), ResumeFrom::Last);
    assert!(
        soak.snapshots >= 100,
        "expected a hundreds-of-checkpoints soak, got {}",
        soak.snapshots
    );
    assert!(
        soak.identical(),
        "soak diverged: {} ({}/{} fingerprints verified, checkpointed identical: {}, \
         final resume identical: {})",
        soak.first_divergence.as_deref().unwrap_or("unknown"),
        soak.fingerprints_verified,
        soak.snapshots,
        soak.checkpointed_identical,
        soak.resumes_identical == 1,
    );
    // Deduplication is the point of the exercise: at a 2 s cadence the
    // overwhelming majority of chunks must be reused from earlier commits.
    assert!(
        soak.cost.chunks_reused as f64 >= 0.8 * soak.cost.chunks_total as f64,
        "chunk reuse collapsed: {}/{}",
        soak.cost.chunks_reused,
        soak.cost.chunks_total
    );
}
