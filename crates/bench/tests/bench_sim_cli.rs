//! `bench_sim` rejects bad values of its own flags with the usage text
//! and exit status 2, before generating any study or writing any file.

use std::process::Command;

fn rejects(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_sim"))
        .args(args)
        .output()
        .expect("run bench_sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: bench_sim"), "{args:?}: {stderr}");
    assert!(
        stderr.contains("common experiment flags"),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
}

#[test]
fn out_without_a_path() {
    rejects(&["--out"], "--out needs a path");
}
