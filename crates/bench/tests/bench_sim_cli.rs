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

#[test]
fn history_without_a_path() {
    rejects(&["--history"], "--history needs a path");
}

#[test]
fn gate_tolerance_without_a_value() {
    rejects(&["--gate-tolerance"], "--gate-tolerance needs a value");
}

#[test]
fn gate_tolerance_not_a_number() {
    rejects(&["--gate-tolerance", "tight"], "--gate-tolerance must be");
}

#[test]
fn gate_tolerance_out_of_range() {
    for v in ["0", "1", "1.5", "-0.1", "NaN"] {
        rejects(&["--gate-tolerance", v], "--gate-tolerance must be");
    }
}

#[test]
fn gate_window_without_a_value() {
    rejects(&["--gate-window"], "--gate-window needs a value");
}

#[test]
fn gate_window_not_a_positive_integer() {
    for v in ["ten", "0", "-3", "2.5"] {
        rejects(&["--gate-window", v], "--gate-window must be");
    }
}
