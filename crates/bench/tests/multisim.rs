//! Differential gate for the single-pass sweep engine: on every committed
//! sweep grid shape (Figures 15, 16 and 17), [`run_sweep_single_pass`]
//! must produce exactly what the per-point [`run_sweep`] produces — the
//! `SimResult` stream and the folded metric registry both — at 1 and 2
//! workers.

use std::sync::Arc;

use oslay::cache::CacheConfig;
use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_bench::{run_sweep, run_sweep_single_pass, AppSide, SweepPoint};
use oslay_layout::Layout;
use oslay_observe::{MetricRegistry, RunReport};

const KINDS: [OsLayoutKind; 3] = [
    OsLayoutKind::Base,
    OsLayoutKind::ChangHwu,
    OsLayoutKind::OptS,
];

fn study() -> Study {
    Study::generate(&StudyConfig::tiny())
}

/// Serializes a registry's full contents deterministically. Counters,
/// gauges and histograms are the registry's whole surface — the
/// nondeterministic report parts (span timings, allocator counters) never
/// enter it — so equal fingerprints mean byte-identical report metrics.
fn registry_fingerprint(registry: &MetricRegistry) -> String {
    let mut report = RunReport::new("fingerprint");
    report.add_metrics(registry);
    report.to_json_deterministic().to_json_pretty()
}

/// Replays `grid` through both sweep drivers and asserts the single-pass
/// results and registry match the per-point baseline at 1 and 2 workers.
fn assert_modes_agree(study: &Study, grid: &dyn Fn() -> Vec<SweepPoint>, what: &str) {
    let sim = SimConfig::fast();
    let baseline_registry = Arc::new(MetricRegistry::new());
    let baseline = run_sweep(study, grid(), &sim, 1, &baseline_registry);
    let baseline_fingerprint = registry_fingerprint(&baseline_registry);
    assert!(
        baseline.iter().all(|r| r.stats.total_accesses() > 0),
        "{what}: baseline grid replayed nothing"
    );
    for threads in [1, 2] {
        let registry = Arc::new(MetricRegistry::new());
        let got = run_sweep_single_pass(study, grid(), &sim, threads, &registry);
        assert_eq!(got.len(), baseline.len(), "{what}: point count");
        for (pi, (g, b)) in got.iter().zip(&baseline).enumerate() {
            assert_eq!(
                g.stats, b.stats,
                "{what}: point {pi} diverges at {threads} workers"
            );
        }
        assert_eq!(
            registry_fingerprint(&registry),
            baseline_fingerprint,
            "{what}: registry diverges at {threads} workers"
        );
    }
}

/// The Figure-15 grid: 4–32 KB direct-mapped, 32-byte lines, three OS
/// layouts per size — four stacked shadow-tag sizes in one bank.
fn fig15_grid(study: &Study) -> Vec<SweepPoint> {
    let sizes = [4096u32, 8192, 16384, 32768];
    let layouts: Vec<((OsLayoutKind, u32), Arc<Layout>)> = sizes
        .iter()
        .flat_map(|&size| KINDS.map(|kind| (kind, size)))
        .map(|key| (key, Arc::new(study.os_layout(key.0, key.1).layout)))
        .collect();
    let mut points = Vec::new();
    for &size in &sizes {
        let cfg = CacheConfig::new(size, 32, 1);
        for wi in 0..study.cases().len() {
            for kind in KINDS {
                let os = &layouts
                    .iter()
                    .find(|&&(k, _)| k == (kind, size))
                    .expect("memoized")
                    .1;
                points.push(SweepPoint {
                    case: wi,
                    os: Arc::clone(os),
                    app: AppSide::Base,
                    cache: cfg,
                });
            }
        }
    }
    points
}

/// The Figure-16 grid: Base plus four SelfConfFree cut-offs per cache
/// size — five lanes per (case, size), all direct-mapped 32-byte lines.
fn fig16_grid(study: &Study) -> Vec<SweepPoint> {
    let cutoffs = [None, Some(376u32), Some(1286), Some(2514)];
    let sizes = [4096u32, 8192, 16384];
    let mut points = Vec::new();
    for &size in &sizes {
        let base = Arc::new(study.os_layout(OsLayoutKind::Base, size).layout);
        let mut layouts = vec![Arc::clone(&base)];
        for &cutoff in &cutoffs {
            layouts.push(Arc::new(study.os_opt_s_with_scf(size, cutoff).layout));
        }
        for wi in 0..study.cases().len() {
            for os in &layouts {
                points.push(SweepPoint {
                    case: wi,
                    os: Arc::clone(os),
                    app: AppSide::Base,
                    cache: CacheConfig::new(size, 32, 1),
                });
            }
        }
    }
    points
}

/// One Figure-17 sub-grid: a fixed 8 KB capacity swept across `configs`,
/// three OS layouts each — the line sweep exercises banked tag arrays,
/// the associativity sweep one shared bank per layout.
fn fig17_grid(study: &Study, configs: &[CacheConfig]) -> Vec<SweepPoint> {
    let layouts: Vec<Arc<Layout>> = KINDS
        .iter()
        .map(|&kind| Arc::new(study.os_layout(kind, configs[0].size()).layout))
        .collect();
    let mut points = Vec::new();
    for wi in 0..study.cases().len() {
        for &cfg in configs {
            for os in &layouts {
                points.push(SweepPoint {
                    case: wi,
                    os: Arc::clone(os),
                    app: AppSide::Base,
                    cache: cfg,
                });
            }
        }
    }
    points
}

#[test]
fn fig15_grid_single_pass_matches_per_point() {
    let study = study();
    assert_modes_agree(&study, &|| fig15_grid(&study), "fig15");
}

#[test]
fn fig16_grid_single_pass_matches_per_point() {
    let study = study();
    assert_modes_agree(&study, &|| fig16_grid(&study), "fig16");
}

#[test]
fn fig17_grids_single_pass_matches_per_point() {
    let study = study();
    let lines: Vec<CacheConfig> = [16u32, 32, 64, 128]
        .iter()
        .map(|&l| CacheConfig::new(8192, l, 1))
        .collect();
    assert_modes_agree(&study, &|| fig17_grid(&study, &lines), "fig17a");
    let ways: Vec<CacheConfig> = [1u32, 2, 4, 8]
        .iter()
        .map(|&w| CacheConfig::new(8192, 32, w))
        .collect();
    assert_modes_agree(&study, &|| fig17_grid(&study, &ways), "fig17b");
}

#[test]
fn detailed_sim_config_falls_back_to_per_point() {
    // A config requesting miss maps cannot be settled in one pass;
    // `run_sweep_single_pass` must silently take the per-point path and
    // return the full detailed results.
    let study = study();
    let ways: Vec<CacheConfig> = [1u32, 4]
        .iter()
        .map(|&w| CacheConfig::new(8192, 32, w))
        .collect();
    let sim = SimConfig::full();
    let baseline_registry = Arc::new(MetricRegistry::new());
    let baseline = run_sweep(
        &study,
        fig17_grid(&study, &ways),
        &sim,
        1,
        &baseline_registry,
    );
    let registry = Arc::new(MetricRegistry::new());
    let got = run_sweep_single_pass(&study, fig17_grid(&study, &ways), &sim, 2, &registry);
    assert_eq!(got.len(), baseline.len());
    for (g, b) in got.iter().zip(&baseline) {
        assert_eq!(g.stats, b.stats);
        assert_eq!(g.os_miss_map, b.os_miss_map);
        assert!(g.os_miss_map.is_some(), "full config keeps its miss maps");
        assert_eq!(g.os_block_misses, b.os_block_misses);
    }
    assert_eq!(
        registry_fingerprint(&registry),
        registry_fingerprint(&baseline_registry)
    );
}
