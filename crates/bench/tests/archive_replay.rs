//! Archived re-replay must be bit-exact: the Figure-12 matrix computed
//! from recorded `.otr` stores has to match the live matrix — results,
//! metric registry and telemetry document — at any worker count. And the
//! stores themselves,
//! encoded from the buffered traces, must be byte-identical to stores
//! streamed from the engine walk.

use std::sync::Arc;

use oslay::cache::CacheConfig;
use oslay::{SimConfig, Study, StudyConfig};
use oslay_bench::archive::{archive_file_name, record_archive, run_archived_figure12_matrix};
use oslay_bench::run_figure12_matrix;
use oslay_observe::{timeline, MetricRegistry, RunReport};
use oslay_tracestore::TraceWriter;

/// The timeline is process-global: a test that enables it must not see
/// the runs of a matrix another test replays at the same time.
fn timeline_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The telemetry document `replay` records with the timeline on.
fn telemetry_of(replay: impl FnOnce()) -> String {
    timeline::reset();
    timeline::enable();
    replay();
    timeline::disable();
    let doc = timeline::document().to_json_pretty();
    timeline::reset();
    doc
}

/// Serializes a registry's full contents (counters, gauges, histograms)
/// deterministically, for whole-registry equality checks.
fn registry_fingerprint(registry: &MetricRegistry) -> String {
    let mut report = RunReport::new("fingerprint");
    report.add_metrics(registry);
    report.to_json_deterministic().to_json_pretty()
}

#[test]
fn archived_matrix_matches_live_at_one_and_two_workers() {
    let _gate = timeline_gate();
    let mut config = StudyConfig::tiny();
    config.os_blocks = 6_000;
    let study = Study::generate(&config);
    let dir = std::env::temp_dir().join(format!("oslay_archive_eq_{}", std::process::id()));
    let recorded = record_archive(&study, &dir, 2).expect("record archive");
    assert_eq!(recorded.len(), study.cases().len());
    for ((file, summary), case) in recorded.iter().zip(study.cases()) {
        assert_eq!(file, &archive_file_name(case));
        assert!(
            summary.compression_ratio() >= 3.0,
            "{file}: ratio {:.2} below the 3x floor",
            summary.compression_ratio()
        );
    }

    let cache = CacheConfig::paper_default();
    let sim = SimConfig::fast();
    let live_registry = Arc::new(MetricRegistry::new());
    let live = run_figure12_matrix(&study, cache, &sim, 1, &live_registry);
    let live_fingerprint = registry_fingerprint(&live_registry);

    for threads in [1, 2] {
        let registry = Arc::new(MetricRegistry::new());
        let archived = run_archived_figure12_matrix(&study, &dir, cache, &sim, threads, &registry)
            .expect("archived replay");
        for (case, (archived_row, live_row)) in study.cases().iter().zip(archived.iter().zip(&live))
        {
            for (a, l) in archived_row.iter().zip(live_row) {
                assert_eq!(
                    a.stats,
                    l.stats,
                    "archived stats diverge for {} at {threads} workers",
                    case.name()
                );
            }
        }
        assert_eq!(
            registry_fingerprint(&registry),
            live_fingerprint,
            "registry diverges at {threads} workers"
        );
    }

    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}

#[test]
fn recorded_archive_equals_engine_streamed_stores_byte_for_byte() {
    let _gate = timeline_gate();
    let study = Study::generate(&StudyConfig::tiny());
    let dir = std::env::temp_dir().join(format!("oslay_archive_bytes_{}", std::process::id()));
    let recorded = record_archive(&study, &dir, 2).expect("record archive");
    for ((file, summary), case) in recorded.iter().zip(study.cases()) {
        let mut writer = TraceWriter::new(Vec::new()).expect("header");
        study.stream_case(case, &mut writer);
        let (streamed, streamed_summary) = writer.finish().expect("in-memory store");
        let bytes = std::fs::read(dir.join(file)).expect("read the recorded store");
        assert!(
            bytes == streamed,
            "{file}: recorded store ({} bytes) differs from the engine-streamed one ({} bytes)",
            bytes.len(),
            streamed.len()
        );
        assert_eq!(summary.file_bytes, streamed_summary.file_bytes, "{file}");
        assert_eq!(summary.totals, streamed_summary.totals, "{file}");
    }
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}

#[test]
fn archived_telemetry_matches_live_at_one_and_two_workers() {
    let _gate = timeline_gate();
    let study = Study::generate(&StudyConfig::tiny());
    let dir = std::env::temp_dir().join(format!("oslay_archive_tel_{}", std::process::id()));
    record_archive(&study, &dir, 2).expect("record archive");
    let (cache, sim) = (CacheConfig::paper_default(), SimConfig::fast());
    let registry = || Arc::new(MetricRegistry::new());

    let live = telemetry_of(|| {
        let _ = run_figure12_matrix(&study, cache, &sim, 1, &registry());
    });
    let doc = timeline::TelemetryDoc::parse(&live).expect("valid document");
    let labels: Vec<&str> = doc.runs.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels.len(), 4 * 5, "one run per matrix cell");
    assert_eq!(labels[..2], ["TRFD_4/Base", "TRFD_4/C-H"]);
    assert_eq!(labels[19], "Shell/OptA");

    for threads in [1, 2] {
        let archived = telemetry_of(|| {
            run_archived_figure12_matrix(&study, &dir, cache, &sim, threads, &registry())
                .expect("archived replay");
        });
        assert!(
            archived == live,
            "archived telemetry differs from the live one at {threads} workers"
        );
    }
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}
