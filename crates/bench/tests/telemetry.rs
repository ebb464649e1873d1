//! Acceptance test for the simulated-time telemetry contract:
//!
//! 1. Telemetry is inert — enabling it does not perturb simulation
//!    results (same stats with telemetry off, on at 1 worker, and on at
//!    2 workers).
//! 2. Telemetry is deterministic — the serialized document from a
//!    1-worker run is byte-identical to the document from a 2-worker
//!    run of the same matrix.
//! 3. The document validates against the `oslay.telemetry.v1` schema.

use std::sync::Arc;

use oslay::cache::CacheConfig;
use oslay::{SimConfig, Study, StudyConfig};
use oslay_bench::run_figure12_matrix;
use oslay_observe::timeline::{self, TelemetryDoc};
use oslay_observe::MetricRegistry;

/// Per-run fingerprint of the matrix: every cell's access/miss totals.
fn run_matrix(study: &Study, threads: usize) -> Vec<(u64, u64)> {
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::fast();
    let registry = Arc::new(MetricRegistry::new());
    let matrix = run_figure12_matrix(study, cfg, &sim, threads, &registry);
    matrix
        .iter()
        .flatten()
        .map(|r| (r.stats.total_accesses(), r.stats.total_misses()))
        .collect()
}

#[test]
fn telemetry_is_inert_and_worker_count_invariant() {
    let study = Study::generate(&StudyConfig::tiny());

    // Baseline: telemetry disabled records nothing.
    timeline::reset();
    let baseline = run_matrix(&study, 2);
    assert_eq!(timeline::runs_recorded(), 0, "disabled telemetry is off");

    // Telemetry on, one worker.
    timeline::reset();
    timeline::enable();
    let stats_1t = run_matrix(&study, 1);
    let doc_1t = timeline::document().to_json();
    timeline::disable();

    // Telemetry on, two workers.
    timeline::reset();
    timeline::enable();
    let stats_2t = run_matrix(&study, 2);
    let doc_2t = timeline::document().to_json();
    timeline::disable();
    timeline::reset();

    // (1) Inert: the simulated results never change.
    assert_eq!(baseline, stats_1t, "telemetry must not perturb results");
    assert_eq!(baseline, stats_2t, "telemetry must not perturb results");

    // (2) Deterministic: worker count does not leak into the document.
    assert_eq!(
        doc_1t, doc_2t,
        "telemetry document must be byte-identical at any worker count"
    );

    // (3) Valid: schema, monotonicity, miss-split, and phase-coverage
    // invariants all hold; one run per matrix cell.
    let stats = TelemetryDoc::parse(&doc_1t)
        .expect("document validates")
        .stats();
    assert_eq!(stats.runs, 20, "4 cases x 5 ladder levels");
    assert!(stats.frames > 0, "frames were sampled");
    assert!(stats.events > 0, "events were counted");
}
