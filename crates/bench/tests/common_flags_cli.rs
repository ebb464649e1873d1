//! A bad common experiment flag is a usage error, not a crash: the
//! binary prints the error and the usage text and exits with status 2.

use std::process::Command;

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
