//! Golden hashes of the checkpoint plane.
//!
//! Chunk keys, whole-state fingerprints and manifest ids are persisted
//! values: a store written by one build is read by the next, and
//! `--resume-from` descriptor files carry a snapshot fingerprint that a
//! later build must reproduce by deterministic replay. These constants pin
//! every one of them, so any change to the encodings or the hash folds
//! shows up here rather than as a descriptor that no longer replays.

use laminar_baselines::{OneStepStaleness, PartialRollout, StreamGeneration, VerlSync};
use laminar_bench::experiments::recovery::replay_config;
use laminar_core::{generate_schedule, ChaosConfig, LaminarSystem, SystemKind};
use laminar_runtime::delta::chunk_key;
use laminar_runtime::recovery::Recoverable;
use laminar_runtime::{DeltaStore, NullTrace, StateImage, StatePlane};
use laminar_sim::{Duration, Time};

/// A fixed two-plane image: a natural-chunk plane and a paged plane.
fn two_plane_image() -> StateImage {
    let mut img = StateImage::new();
    let mut a = StatePlane::new("alpha");
    a.push_chunk(&[1, 2, 3]);
    a.push_chunk(&[]);
    a.push_chunk(&[u64::MAX, 0x0102_0304_0506_0708]);
    img.push_plane(a);
    let mut b = StatePlane::new("beta");
    let stream: Vec<u64> = (0..70u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    b.extend_paged(&stream);
    img.push_plane(b);
    img
}

#[test]
fn chunk_keys_are_pinned() {
    assert_eq!(chunk_key(&[]), 0xa8c7_f832_281a_39c5);
    assert_eq!(chunk_key(&[0]), 0x3922_09f1_4dea_4c24);
    assert_eq!(chunk_key(&[1, 2, 3]), 0xb981_0813_92b0_3a26);
}

#[test]
fn image_fingerprint_and_manifest_ids_are_pinned() {
    let img = two_plane_image();
    assert_eq!(img.fingerprint(), 0x961b_e530_6165_506b);
    let mut store = DeltaStore::new();
    let (root, _) = store.commit(Time::from_secs(3), &img);
    assert_eq!(root, 0xca0c_69de_2051_d71b);
    // A child commit folds the parent link and index into its id.
    let (child, _) = store.commit(Time::from_secs(5), &img);
    assert_eq!(child, 0x361d_80de_9374_43ea);
    let m = store.manifest(child).expect("child manifest");
    assert_eq!(m.fingerprint, img.fingerprint());
}

/// The first checkpoint's fingerprint — what a `--resume-from` descriptor
/// line records — for the replay configuration of `kind` at seed 7.
fn first_fingerprint<S: Recoverable>(sys: &S, kind: SystemKind) -> u64 {
    let (_, snaps) = sys.run_checkpointed(
        &replay_config(7, kind),
        Duration::from_secs(20),
        &mut NullTrace,
    );
    let first = snaps.first().expect("run crosses a cadence point");
    S::fingerprint(&first.state)
}

#[test]
fn descriptor_fingerprints_are_pinned() {
    let laminar = first_fingerprint(&LaminarSystem::default(), SystemKind::Laminar);
    assert_eq!(laminar, 0xce8c_534e_a1fa_2442);
    assert_eq!(
        first_fingerprint(&VerlSync, SystemKind::Verl),
        0x1f8c_ec20_f1e3_ba85
    );
    assert_eq!(
        first_fingerprint(&OneStepStaleness, SystemKind::OneStep),
        0xb516_5128_89a4_fa10
    );
    assert_eq!(
        first_fingerprint(&StreamGeneration, SystemKind::StreamGen),
        0xb4ee_fd3a_3210_48f0
    );
    assert_eq!(
        first_fingerprint(&PartialRollout, SystemKind::PartialRollout),
        0x13c2_bad2_2b5c_bef7
    );
}

/// The final manifest id of a delta-checkpointed chaos run folds every
/// chunk key and fingerprint of every commit before it.
#[test]
fn chaos_run_manifest_chain_is_pinned() {
    let cfg = replay_config(7, SystemKind::Laminar);
    let faults = generate_schedule(
        3,
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
    let (_, points) =
        sys.run_delta_checkpointed(&cfg, Duration::from_secs(10), &mut NullTrace, &mut store);
    assert_eq!(points.len(), 15);
    let last = store.latest().expect("committed");
    assert_eq!(last.id, 0xecbc_2b13_3ef7_07f2);
    assert_eq!(last.fingerprint, 0xe393_e173_1901_c494);
    assert_eq!(store.stored_bytes(), 229_136);
}
