//! Every binary with flags of its own reads its command line through the
//! shared flag table: a malformed or missing flag value prints the error
//! and the generated usage text on stderr and exits 2, before any study
//! is generated — never a panic. A bad input file exits 2 the same way;
//! an output file that cannot be written exits 1.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("run the binary")
}

/// Asserts a rejected command line: exit 2, the error and `usage:` on
/// stderr, no panic, nothing on stdout.
fn rejects(bin: &str, args: &[&str], message: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
}

#[test]
fn trace_rejects_bad_flag_values() {
    let bin = env!("CARGO_BIN_EXE_trace");
    rejects(bin, &["record", "--threads", "many"], "--threads must be");
    rejects(bin, &["verify", "--dir"], "--dir needs a path");
    rejects(bin, &["rewind"], "unknown argument \"rewind\"");
    rejects(bin, &[], "a subcommand is required");
}

#[test]
fn dash_rejects_bad_flag_values() {
    // Every dash flag is a path or a switch, so the malformed case is a
    // stray value after a switch.
    let bin = env!("CARGO_BIN_EXE_dash");
    rejects(bin, &["--check", "yes"], "unknown argument \"yes\"");
    rejects(bin, &["--telemetry"], "--telemetry needs a path");
}

#[test]
fn lint_rejects_bad_flag_values() {
    let bin = env!("CARGO_BIN_EXE_lint");
    rejects(bin, &["--top", "x"], "--top must be an integer, got \"x\"");
    rejects(bin, &["--deny", "errors"], "--deny must be warnings");
    rejects(bin, &["--layout", "fast"], "--layout must be base, ch,");
    rejects(bin, &["--layout-file"], "--layout-file needs a path");
}

#[test]
fn analyze_rejects_bad_flag_values() {
    let bin = env!("CARGO_BIN_EXE_analyze");
    rejects(bin, &["--search-budget", "lots"], "--search-budget must be");
    rejects(
        bin,
        &["--mutate", "loop-shift"],
        "--mutate must be block-swap",
    );
    rejects(bin, &["--class-out"], "--class-out needs a path");
}

#[test]
fn bench_sim_rejects_bad_flag_values() {
    let bin = env!("CARGO_BIN_EXE_bench_sim");
    rejects(bin, &["--out"], "--out needs a path");
}

#[test]
fn search_rejects_bad_flag_values() {
    let bin = env!("CARGO_BIN_EXE_search");
    rejects(bin, &["--budget", "banana"], "--budget must be an integer");
    rejects(bin, &["--restarts", "-1"], "--restarts must be an integer");
    rejects(bin, &["--budget"], "--budget needs a value");
    rejects(bin, &["--layout-out"], "--layout-out needs a path");
}

#[test]
fn perf_rejects_bad_flag_values() {
    let bin = env!("CARGO_BIN_EXE_perf");
    rejects(bin, &["top", "--in", "t.json", "--n", "x"], "--n must be");
    rejects(bin, &["top", "--in"], "--in needs a path");
    rejects(bin, &["check"], "--in needs a path");
}

#[test]
fn diag_rejects_bad_flag_values() {
    let bin = env!("CARGO_BIN_EXE_diag");
    rejects(
        bin,
        &["--compare", "base", "fast"],
        "--compare must be base,",
    );
    rejects(bin, &["--compare", "base"], "--compare needs two values");
    rejects(bin, &[], "--compare needs two layouts");
}

#[test]
fn help_exits_zero_with_the_generated_usage() {
    let out = run(env!("CARGO_BIN_EXE_search"), &["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout.starts_with("usage: search [flags]\n"), "{stdout}");
    assert!(stdout.contains("--budget N"), "{stdout}");
    assert!(stdout.contains("(default 100000)"), "{stdout}");
    assert!(stdout.contains("common experiment flags"), "{stdout}");
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oslay-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn lint_rejects_bad_layout_files() {
    let dir = scratch("lint-layout-file");
    let cases = [
        (
            "truncated",
            r#"{"name": "Search", "addr": [0, 64"#,
            "not JSON",
        ),
        (
            "no_size",
            r#"{"name": "Search", "addr": [0, 64]}"#,
            "missing \"size\"",
        ),
        (
            "negative_addr",
            r#"{"name": "Search", "addr": [0, -64], "size": [64, 64]}"#,
            "addr[1]: \"addr\" entries must be non-negative integers",
        ),
        (
            "ragged",
            r#"{"name": "Search", "addr": [0, 64, 128], "size": [64, 64]}"#,
            "3 \"addr\" but 2 \"size\" entries",
        ),
    ];
    for (name, text, reason) in cases {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).expect("write layout file");
        let path = path.to_string_lossy().into_owned();
        let message = format!("error: --layout-file {path}: {reason}");
        rejects(
            env!("CARGO_BIN_EXE_lint"),
            &["--scale", "tiny", "--layout-file", &path],
            &message,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn search_reports_an_unwritable_layout_out() {
    let dir = scratch("search-layout-out");
    let target = dir.join("no/such/dir/x.json");
    let out = Command::new(env!("CARGO_BIN_EXE_search"))
        .current_dir(&dir)
        .args(["--scale", "tiny", "--budget", "200", "--restarts", "1"])
        .arg("--layout-out")
        .arg(&target)
        .output()
        .expect("run search");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&*target.to_string_lossy()), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
