//! `ext_inlining --telemetry-out` records one run per replay the table
//! reports: the original kernel's OptS baseline and the inlined kernel's
//! C-H and OptS layouts, for every OS-only workload.

use std::process::Command;

use oslay_observe::timeline::TelemetryDoc;

#[test]
fn every_replay_of_the_table_has_a_telemetry_run() {
    let dir = std::env::temp_dir().join(format!("ext_inlining_tel_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let tel = dir.join("tel.json");
    let out = Command::new(env!("CARGO_BIN_EXE_ext_inlining"))
        .args(["--scale", "tiny", "--telemetry-out"])
        .arg(&tel)
        .current_dir(&dir)
        .output()
        .expect("run ext_inlining");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = TelemetryDoc::parse(&std::fs::read_to_string(&tel).expect("telemetry written"))
        .expect("a valid telemetry document");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    let labels: Vec<&str> = doc.runs.iter().map(|r| r.label.as_str()).collect();
    assert!(!labels.is_empty(), "no runs recorded");
    assert_eq!(labels.len() % 3, 0, "{labels:?}");
    for workload in labels.chunks(3) {
        let name = workload[0].strip_suffix("/OptS").expect("baseline first");
        assert_eq!(
            workload,
            [
                format!("{name}/OptS"),
                format!("{name}/C-H (inlined)"),
                format!("{name}/OptS (inlined)"),
            ],
            "{labels:?}"
        );
    }
}
