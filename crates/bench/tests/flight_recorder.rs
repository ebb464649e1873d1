//! Acceptance test for the flight recorder: tracing must never perturb
//! results — the Figure-12 matrix and its deterministic report, span
//! names and counts included, are identical at any worker count with
//! capture on or off — while the captured span tree is well-formed
//! (children nest inside parents, spans carry per-worker attribution,
//! the Chrome export validates).

use std::sync::Arc;

use oslay::cache::CacheConfig;
use oslay::{SimConfig, Study, StudyConfig};
use oslay_bench::run_figure12_matrix;
use oslay_observe::flight::{self, SpanEvent};
use oslay_observe::{MetricRegistry, RunReport};

/// Runs the full Figure-12 matrix from an empty span store and reduces
/// it to comparable fingerprints: the per-cell miss statistics and the
/// deterministic JSON of a report holding the merged metric registry and
/// the span totals. Also returns the span events captured by the run.
fn matrix_fingerprint(study: &Study, threads: usize) -> (String, String, Vec<SpanEvent>) {
    flight::reset();
    flight::set_thread_track("main");
    let registry = Arc::new(MetricRegistry::new());
    let matrix = run_figure12_matrix(
        study,
        CacheConfig::paper_default(),
        &SimConfig::fast(),
        threads,
        &registry,
    );
    let stats: Vec<_> = matrix.iter().flatten().map(|r| r.stats).collect();
    let mut report = RunReport::new("flight_acceptance");
    report.add_spans(flight::span_totals());
    report.add_metrics(&registry);
    (
        format!("{stats:?}"),
        report.to_json_deterministic().to_json(),
        flight::span_events(),
    )
}

#[test]
fn tracing_preserves_results_and_records_wellformed_span_trees() {
    let study = Study::generate(&StudyConfig::tiny());

    // Baseline: capture off, one and two workers. The spans still fold
    // into the totals, but no event is kept.
    let (stats_off, report_off, events_off) = matrix_fingerprint(&study, 1);
    assert!(events_off.is_empty(), "capture off kept span events");
    assert!(report_off.contains("exec.job"), "{report_off}");
    let (stats_off2, report_off2, events_off2) = matrix_fingerprint(&study, 2);
    assert!(events_off2.is_empty(), "capture off kept span events");

    flight::enable();
    oslay_perf::alloc::install_flight_probe();

    // Capture on: results must be byte-identical at any worker count.
    let (stats_t1, report_t1, spans_t1) = matrix_fingerprint(&study, 1);
    let (stats_t2, report_t2, spans_t2) = matrix_fingerprint(&study, 2);
    flight::disable();

    for (stats, report, what) in [
        (&stats_off2, &report_off2, "capture off, threads=2"),
        (&stats_t1, &report_t1, "capture on, threads=1"),
        (&stats_t2, &report_t2, "capture on, threads=2"),
    ] {
        assert_eq!(stats, &stats_off, "{what} changed results");
        assert_eq!(
            report, &report_off,
            "{what} changed the deterministic report"
        );
    }

    // One exec.job span per matrix job, independent of the worker count.
    let jobs = |spans: &[SpanEvent]| spans.iter().filter(|s| s.name == "exec.job").count();
    assert!(jobs(&spans_t1) > 0, "no exec.job spans recorded");
    assert_eq!(
        jobs(&spans_t1),
        jobs(&spans_t2),
        "job span count depends on worker count"
    );
    let spans: Vec<SpanEvent> = spans_t1.iter().chain(&spans_t2).cloned().collect();

    // Per-worker attribution: the threads=2 run put its jobs on
    // worker-<w> tracks; the threads=1 run ran inline on main.
    assert!(
        spans_t2
            .iter()
            .any(|s| s.name == "exec.job" && s.track.starts_with("worker-")),
        "no exec.job span attributed to a worker track"
    );
    assert!(
        spans_t1
            .iter()
            .all(|s| s.name != "exec.job" || s.track == "main"),
        "inline jobs must stay on the main track"
    );

    // Hierarchy: exec.job nests under exec.parallel_map on the inline
    // path, so parent ids are populated and non-trivial.
    assert!(
        spans.iter().any(|s| s.parent != 0),
        "no span recorded a parent id"
    );
    let by_id: std::collections::HashMap<u64, _> = spans.iter().map(|s| (s.id, s)).collect();
    for s in &spans {
        if s.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .unwrap_or_else(|| panic!("span {} has dangling parent {}", s.name, s.parent));
        assert_eq!(
            p.track, s.track,
            "child {} on a different track than parent",
            s.name
        );
        assert!(
            s.start_ns >= p.start_ns && s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns,
            "child {} [{}, {}] escapes parent {} [{}, {}]",
            s.name,
            s.start_ns,
            s.start_ns + s.dur_ns,
            p.name,
            p.start_ns,
            p.start_ns + p.dur_ns
        );
    }

    // The Chrome export of the threads=2 run passes the schema checker
    // (balanced events, monotonic timestamps, nesting) and parses back.
    let json = flight::chrome_trace().to_json();
    let tstats = flight::ChromeTrace::parse(&json)
        .expect("trace validates")
        .stats;
    assert!(tstats.spans >= spans_t2.len(), "export dropped spans");
    assert!(tstats.tracks >= 3, "expected main + 2 worker tracks");
    assert!(tstats.max_depth >= 2, "expected nested spans");
    let trace = flight::ChromeTrace::parse(&json).expect("export parses back");
    assert!(
        trace
            .thread_names
            .iter()
            .any(|(_, name)| name.starts_with("worker-")),
        "export lost worker track names"
    );

    flight::reset();
}
