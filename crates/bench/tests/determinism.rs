//! Determinism of the sharded experiment drivers: the same study replayed
//! at any worker count must produce identical results, identical
//! attribution reports, and an identical metric registry — the property
//! that makes `results/*.json` byte-stable regardless of `--threads`.

use std::sync::Arc;

use oslay::cache::CacheConfig;
use oslay::{OsLayout, OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_bench::{run_attributed_layouts, run_attributed_matrix, run_figure12_matrix};
use oslay_observe::MetricRegistry;

fn study() -> Study {
    Study::generate(&StudyConfig::tiny())
}

/// Everything a registry can report, in one comparable value.
fn registry_snapshot(r: &MetricRegistry) -> impl PartialEq + std::fmt::Debug {
    (r.counters(), r.gauges(), r.histograms())
}

#[test]
fn figure12_matrix_is_identical_at_any_worker_count() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::fast();
    let baseline_registry = Arc::new(MetricRegistry::new());
    let baseline = run_figure12_matrix(&study, cfg, &sim, 1, &baseline_registry);
    for threads in [2, 8] {
        let registry = Arc::new(MetricRegistry::new());
        let matrix = run_figure12_matrix(&study, cfg, &sim, threads, &registry);
        assert_eq!(matrix.len(), baseline.len());
        for (rows, baseline_rows) in matrix.iter().zip(&baseline) {
            for (r, b) in rows.iter().zip(baseline_rows) {
                assert_eq!(r.stats, b.stats, "stats diverge at {threads} threads");
                assert_eq!(r.os_block_misses, b.os_block_misses);
            }
        }
        assert_eq!(
            registry_snapshot(&registry),
            registry_snapshot(&baseline_registry),
            "metric registry diverges at {threads} threads"
        );
    }
}

#[test]
fn attributed_matrix_reports_are_identical_across_threads() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::full();
    let kinds = [OsLayoutKind::Base, OsLayoutKind::OptS];
    let baseline_registry = Arc::new(MetricRegistry::new());
    let baseline = run_attributed_matrix(&study, &kinds, cfg, &sim, 1, &baseline_registry);
    let registry = Arc::new(MetricRegistry::new());
    let matrix = run_attributed_matrix(&study, &kinds, cfg, &sim, 4, &registry);
    for (rows, baseline_rows) in matrix.iter().zip(&baseline) {
        for ((r, attr), (b, battr)) in rows.iter().zip(baseline_rows) {
            assert_eq!(r.stats, b.stats);
            // AttributionReport is PartialEq: conflict pairs, matrix,
            // per-set misses, census — the whole diagnosis must match.
            assert_eq!(attr, battr, "attribution reports diverge at 4 threads");
        }
    }
    assert_eq!(
        registry_snapshot(&registry),
        registry_snapshot(&baseline_registry)
    );
}

#[test]
fn attributed_layout_list_is_identical_across_threads_and_matches_the_matrix() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::full();
    let kinds = [OsLayoutKind::Base, OsLayoutKind::OptS];
    let mut layouts: Vec<(String, OsLayout)> = kinds
        .iter()
        .map(|&kind| (kind.name().to_owned(), study.os_layout(kind, cfg.size())))
        .collect();
    // A layout no kind builds: OptS with Figure 16's 2.0% SelfConfFree area.
    layouts.push((
        "OptS-scf1286".to_owned(),
        study.os_opt_s_with_scf(cfg.size(), Some(1286)),
    ));
    let runs: Vec<_> = [1, 4]
        .into_iter()
        .map(|threads| {
            let registry = Arc::new(MetricRegistry::new());
            let rows = run_attributed_layouts(&study, &layouts, cfg, &sim, threads, &registry);
            let cells: Vec<Vec<_>> = rows
                .into_iter()
                .map(|row| row.into_iter().map(|(r, attr)| (r.stats, attr)).collect())
                .collect();
            (cells, registry_snapshot(&registry))
        })
        .collect();
    assert_eq!(runs[0].0.len(), study.cases().len());
    assert!(runs[0].0.iter().all(|row| row.len() == layouts.len()));
    assert_eq!(runs[0].0, runs[1].0, "results diverge at 4 threads");
    assert_eq!(
        runs[0].1, runs[1].1,
        "metric registry diverges at 4 threads"
    );

    let matrix = run_attributed_matrix(
        &study,
        &kinds,
        cfg,
        &sim,
        1,
        &Arc::new(MetricRegistry::new()),
    );
    for (row, matrix_row) in runs[0].0.iter().zip(&matrix) {
        for ((stats, attr), (r, mattr)) in row.iter().zip(matrix_row) {
            assert_eq!(stats, &r.stats);
            assert_eq!(attr, mattr);
        }
    }
}

#[test]
fn same_seed_reruns_are_identical() {
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::fast();
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let study = Study::generate_with_threads(&StudyConfig::tiny(), 2);
            let registry = Arc::new(MetricRegistry::new());
            let matrix = run_figure12_matrix(&study, cfg, &sim, 2, &registry);
            let rates: Vec<Vec<f64>> = matrix
                .iter()
                .map(|row| row.iter().map(oslay::SimResult::miss_rate).collect())
                .collect();
            (rates, registry.counters(), registry.gauges())
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn threaded_study_generation_matches_sequential() {
    let sequential = Study::generate(&StudyConfig::tiny());
    let threaded = Study::generate_with_threads(&StudyConfig::tiny(), 8);
    for (a, b) in sequential.cases().iter().zip(threaded.cases()) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.engine_seed, b.engine_seed);
        assert_eq!(a.trace.events(), b.trace.events());
    }
}
