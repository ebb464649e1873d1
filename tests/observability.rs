//! End-to-end observability: a real study run must produce a run report
//! that survives the JSON round trip.

use oslay::cache::{Cache, CacheConfig};
use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_observe::{flight, MetricRegistry, RunReport};

/// Runs the first workload (OS + application) under Base and OptS, reports
/// each replay's cache metrics into one registry and both miss rates.
fn probed_report(study: &Study, name: &str) -> RunReport {
    let registry = MetricRegistry::new();
    let case = &study.cases()[0]; // traces an application too
    let app = study.app_base_layout(case);
    let mut fields = Vec::new();
    for kind in [OsLayoutKind::Base, OsLayoutKind::OptS] {
        let os = study.os_layout(kind, 8192);
        let mut cache = Cache::new(CacheConfig::paper_default());
        let r = study.simulate(
            case,
            &os.layout,
            app.as_ref(),
            &mut cache,
            &SimConfig::fast(),
        );
        cache.report_into(&registry);
        fields.push((kind.name().to_owned(), r.miss_rate()));
    }
    let mut report = RunReport::new(name);
    report.add_spans(flight::span_totals());
    report.add_metrics(&registry);
    report.add_section("fig12.case0", fields);
    report
}

#[test]
fn study_report_round_trips_through_json() {
    let study = Study::generate(&StudyConfig::tiny());
    let report = probed_report(&study, "itest");

    // The real pipeline populated every report section.
    assert!(
        report.spans().iter().any(|s| s.name == "study.sim"),
        "missing simulation span"
    );
    assert!(
        report.metric_count() >= 8,
        "only {} metrics",
        report.metric_count()
    );
    assert!(
        report
            .counters()
            .iter()
            .any(|(name, n)| name == "cache.miss.os-self" && *n > 0),
        "probe saw no OS self-interference misses"
    );
    let base = report.section_field("fig12.case0", "Base").unwrap();
    let opts = report.section_field("fig12.case0", "OptS").unwrap();
    assert!(opts < base, "OptS ({opts}) must beat Base ({base})");

    // MissStats -> report -> JSON -> parse-back preserves everything.
    let parsed = RunReport::from_json(&report.to_json().to_json_pretty()).unwrap();
    assert_eq!(parsed, report);
}
