//! Bad command-line input must exit with status 2 and one stderr line,
//! never a panic (status 101). Each case runs the built
//! `laminar-experiments` binary and checks that no report was written.

use std::path::PathBuf;
use std::process::Command;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laminar-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_usage_error(args: &[&str], out: &std::path::Path) {
    let run = Command::new(env!("CARGO_BIN_EXE_laminar-experiments"))
        .arg("--out")
        .arg(out)
        .args(args)
        .output()
        .expect("spawn laminar-experiments");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{args:?}: stderr was {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr was {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let written = std::fs::read_dir(out).map_or(0, |d| d.count());
    assert_eq!(written, 0, "{args:?}: a run started before the error");
}

#[test]
fn bad_flag_values_exit_2() {
    let out = scratch_dir("flags");
    assert_usage_error(&["--jobs", "abc", "fig9"], &out);
    assert_usage_error(&["--jobs", "0", "fig9"], &out);
    assert_usage_error(&["--checkpoint-every", "-1", "recovery"], &out);
    assert_usage_error(&["fig9", "--seed"], &out);
    assert_usage_error(&["--shards", "2", "fig9"], &out);
    assert_usage_error(&["--bench"], &out);
    assert_usage_error(&["--smoke", "fig9"], &out);
    assert_usage_error(&["--bench-out", "x", "fig9"], &out);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn unknown_experiment_id_exits_2_before_any_run() {
    let out = scratch_dir("ids");
    assert_usage_error(&["fig9", "no-such-figure"], &out);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn unusable_out_dir_or_trace_file_exits_2_before_any_run() {
    let dir = scratch_dir("paths");
    let afile = dir.join("afile");
    std::fs::write(&afile, "").expect("write regular file");
    let out_dir = dir.join("out");
    let bad_out = afile.join("sub");
    assert_usage_error(
        &["--out", bad_out.to_str().expect("utf-8 path"), "fig2"],
        &out_dir,
    );
    let bad_trace = afile.join("t.jsonl");
    assert_usage_error(
        &["--trace", bad_trace.to_str().expect("utf-8 path"), "fig9"],
        &out_dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace file that opens but cannot be written (`/dev/full` accepts the
/// open and fails every write) exits 2 before any result file is written,
/// on both the streaming (one experiment) and buffered (several) paths.
#[test]
fn unwritable_trace_file_exits_2() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = scratch_dir("full");
    assert_usage_error(&["--trace", "/dev/full", "fig9"], &out);
    assert_usage_error(
        &["--trace", "/dev/full", "--jobs", "2", "fig9", "fig2"],
        &out,
    );
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn unreadable_or_malformed_spec_exits_2() {
    let out = scratch_dir("spec");
    let spec = out.join("bad.toml");
    std::fs::write(&spec, "name = \"x\"\n[variant.a\nsystem = \"laminar\"\n").expect("write spec");
    let out_dir = out.join("out");
    assert_usage_error(&["--spec", spec.to_str().expect("utf-8 path")], &out_dir);
    let missing = out.join("missing.toml");
    assert_usage_error(&["--spec", missing.to_str().expect("utf-8 path")], &out_dir);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn bad_resume_from_files_exit_2() {
    let out = scratch_dir("resume");
    let out_dir = out.join("out");
    let missing = out.join("missing.txt");
    assert_usage_error(
        &["--resume-from", missing.to_str().expect("utf-8 path")],
        &out_dir,
    );
    let every = "every_ns=20000000000";
    let cases = [
        "no descriptor line here\n".to_string(),
        format!("checkpoint system=laminar seed=1 {every} index\n"),
        format!("checkpoint system=laminar colour=red {every} index=0\n"),
        format!("checkpoint system=laminar seed=x {every} index=0\n"),
        "checkpoint system=laminar seed=1 every_ns=2e10 index=0\n".to_string(),
        format!("checkpoint system=laminar seed=1 {every} index=-1\n"),
        format!("checkpoint system=laminar seed=1 {every} index=0 fingerprint=xyz\n"),
        "checkpoint system=laminar seed=1 every_ns=0 index=0\n".to_string(),
        format!("checkpoint system=nope seed=1 {every} index=0\n"),
        format!("checkpoint system=laminar seed=1 {every} index=100000\n"),
    ];
    for (i, text) in cases.iter().enumerate() {
        let file = out.join(format!("descriptor-{i}.txt"));
        std::fs::write(&file, text).expect("write descriptor");
        assert_usage_error(
            &["--resume-from", file.to_str().expect("utf-8 path")],
            &out_dir,
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}
