//! A bad common experiment flag is a usage error, not a crash: the
//! binary prints the error and the usage text and exits with status 2.
//! A stdout closed by its reader is no crash either.

use std::process::{Command, Stdio};

#[test]
fn figure_binary_rejects_bad_threads_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig12_optimization_levels"))
        .args(["--scale", "tiny", "--threads", "x"])
        .output()
        .expect("run fig12_optimization_levels");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--threads must be an integer >= 1, got \"x\""),
        "{stderr}"
    );
    assert!(stderr.contains("common experiment flags"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}

#[test]
fn closed_stdout_ends_the_binary_quietly() {
    let dir = std::env::temp_dir().join(format!("oslay-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fig06_routine_skew"))
        .args(["--scale", "tiny", "--seed", "0x51995"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fig06_routine_skew");
    // The reader goes away before the binary prints its first line.
    drop(child.stdout.take());
    let out = child
        .wait_with_output()
        .expect("wait for fig06_routine_skew");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
