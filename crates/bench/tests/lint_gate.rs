//! Cross-validation gates for the static layout tooling: the conflict
//! predictor's ranking must agree with the measured attribution matrix,
//! and the `Study` layouts must keep passing the invariant checker.

use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_bench::{run_case_attributed, AppSide};
use oslay_cache::CacheConfig;
use oslay_model::Domain;
use oslay_verify::{
    measured_pair_ranking, predict_conflicts, ranking_overlap, verify_structural, LayoutView,
};

/// The static predictor never simulates, yet its top-10 routine-pair
/// ranking must overlap the *measured* conflict matrix's top-10 by at
/// least 60% on the default workload (the issue's acceptance gate).
#[test]
fn predictor_top10_overlaps_measured_ranking() {
    let study = Study::generate(&StudyConfig::tiny());
    // Shell is the OS-only workload: every measured conflict involves
    // kernel routines, matching the predictor's OS-side span model.
    let case = &study.cases()[3];
    let cfg = CacheConfig::paper_default();
    let (_, attr) = run_case_attributed(
        &study,
        case,
        OsLayoutKind::Base,
        AppSide::Base,
        cfg,
        &SimConfig::fast(),
        None,
    );
    assert!(
        !attr.matrix.is_empty(),
        "base layout must measure some conflicts"
    );

    let base = study.os_layout(OsLayoutKind::Base, cfg.size());
    let view = LayoutView::from_layout(&base.layout);
    let predicted = predict_conflicts(
        &study.kernel().program,
        &case.os_profile,
        &view,
        Domain::Os,
        &cfg,
    );
    let overlap = ranking_overlap(&predicted, &attr.matrix, 10);
    let measured_top: Vec<_> = measured_pair_ranking(&attr.matrix)
        .into_iter()
        .take(10)
        .collect();
    assert!(
        overlap >= 0.6,
        "predicted top-10 overlaps measured by {overlap:.2} (< 0.60)\n\
         measured top-10: {measured_top:?}\n\
         predicted top-10: {:?}",
        predicted.top_pairs(10)
    );
}

/// Every OS layout the Study hands to a simulation verifies clean: a
/// debug build's `os_layout` already panics on a failed invariant report,
/// and the structural check below holds in any build.
#[test]
fn study_layouts_pass_verification() {
    let study = Study::generate(&StudyConfig::tiny());
    for kind in OsLayoutKind::ALL {
        let l = study.os_layout(kind, 8192);
        let report =
            verify_structural(&study.kernel().program, &LayoutView::from_layout(&l.layout));
        assert_eq!(report.errors(), 0, "{}:\n{}", kind.name(), report.render());
    }
}
