//! End-to-end miss attribution: on a real (seeded, synthetic) study the
//! three-way classification must exactly partition the misses, the
//! conflict matrix must be internally consistent, and the base-vs-opt
//! layout diff must expose the conflicts the optimization removed.

use std::sync::Arc;

use oslay::cache::{diff_attribution, AttributionReport, CacheConfig, MissKind, CENSUS_SLOTS};
use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_bench::{address_map, census_refs, run_case_attributed, AppSide};
use oslay_observe::{AttrClass, MetricRegistry};

fn study() -> Study {
    Study::generate(&StudyConfig::tiny())
}

fn attribute(study: &Study, kind: OsLayoutKind) -> AttributionReport {
    let case = &study.cases()[3]; // Shell: OS-only
    let (_, attr) = run_case_attributed(
        study,
        case,
        kind,
        AppSide::Base,
        CacheConfig::paper_default(),
        &SimConfig::fast(),
        None,
    );
    attr
}

/// The census reference column of [`attribute`]'s replay.
fn reference_column(study: &Study, kind: OsLayoutKind) -> [u64; CENSUS_SLOTS] {
    let case = &study.cases()[3];
    let os = study.os_layout(kind, CacheConfig::paper_default().size());
    census_refs(&address_map(study, case, &os, None), case, &os.layout, None)
}

#[test]
fn classification_partitions_all_misses() {
    let s = study();
    for kind in [OsLayoutKind::Base, OsLayoutKind::OptS] {
        let attr = attribute(&s, kind);
        assert!(attr.total_misses > 0);
        assert_eq!(
            attr.class_misses.iter().sum::<u64>(),
            attr.total_misses,
            "compulsory + capacity + conflict must equal total misses ({})",
            kind.name()
        );
        assert_eq!(
            attr.set_misses.iter().sum::<u64>(),
            attr.total_misses,
            "per-set misses must sum to the total"
        );
        assert_eq!(
            attr.set_accesses.iter().sum::<u64>(),
            attr.total_accesses,
            "per-set accesses must sum to the total"
        );
        assert_eq!(
            reference_column(&s, kind).iter().sum::<u64>(),
            attr.total_accesses,
            "census slots must account for every fetch"
        );
        assert_eq!(attr.census_misses.iter().sum::<u64>(), attr.total_misses);
        assert_eq!(attr.entry_misses.iter().sum::<u64>(), attr.total_misses);
    }
}

#[test]
fn compulsory_equals_cold_and_layouts_cover_all_code() {
    let s = study();
    let case = &s.cases()[3];
    let (r, attr) = run_case_attributed(
        &s,
        case,
        OsLayoutKind::Base,
        AppSide::Base,
        CacheConfig::paper_default(),
        &SimConfig::fast(),
        None,
    );
    assert_eq!(
        attr.misses_of(AttrClass::Compulsory),
        r.stats.misses(MissKind::Cold),
        "compulsory must be exactly the simulator's cold-miss count"
    );
    // The layout spans cover every fetch address: nothing is unmapped.
    let unmapped = CENSUS_SLOTS - 1;
    assert_eq!(reference_column(&s, OsLayoutKind::Base)[unmapped], 0);
    assert_eq!(attr.census_misses[unmapped], 0);
    // Shell is OS-only: every miss happens inside an OS invocation.
    assert_eq!(attr.entry_misses[4], 0, "no misses outside the OS");
}

#[test]
fn conflict_matrix_is_consistent_with_the_classification() {
    let s = study();
    let attr = attribute(&s, OsLayoutKind::Base);
    let conflicts = attr.misses_of(AttrClass::Conflict);
    assert!(conflicts > 0, "base layout must show conflicts");
    // Pairs and matrix only count conflicts whose evictor is known, so
    // they are bounded by (and in a steady-state trace close to) the
    // conflict-miss count.
    let pair_total: u64 = attr.pairs.iter().map(|p| p.count).sum();
    assert!(pair_total <= conflicts);
    assert_eq!(attr.matrix.total(), pair_total);
    assert!(
        pair_total * 10 >= conflicts * 5,
        "most conflicts should know their evictor ({pair_total} of {conflicts})"
    );
    // Row sums partition the matrix total, from both sides.
    let victims: std::collections::BTreeSet<_> = attr.matrix.entries().map(|(_, v, _)| v).collect();
    let by_victims: u64 = victims.iter().map(|&v| attr.matrix.victim_row_sum(v)).sum();
    assert_eq!(by_victims, attr.matrix.total());
    let evictors: std::collections::BTreeSet<_> =
        attr.matrix.entries().map(|(e, _, _)| e).collect();
    let by_evictors: u64 = evictors
        .iter()
        .map(|&e| attr.matrix.evictor_row_sum(e))
        .sum();
    assert_eq!(by_evictors, attr.matrix.total());
    // Direct-mapped thrash is two-sided: the matrix must not be wholly
    // one-directional.
    assert!(attr.matrix.asymmetry() < 0.9);
    // The measured ranking feeds the Call optimization's candidate list.
    let ranked = oslay_layout::measured_conflict_ranking(&attr.matrix, oslay::model::Domain::Os);
    assert!(!ranked.is_empty());
    assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
}

#[test]
fn opt_layout_resolves_base_conflict_pairs() {
    let s = study();
    let base = attribute(&s, OsLayoutKind::Base);
    let opts = attribute(&s, OsLayoutKind::OptS);
    let diff = diff_attribution(&base, &opts);
    assert!(
        diff.conflict_delta() < 0,
        "OptS must remove conflict misses (delta {})",
        diff.conflict_delta()
    );
    assert!(!diff.resolved.is_empty(), "some pairs must be resolved");
    let resolved: u64 = diff.resolved.iter().map(|p| p.base - p.current).sum();
    let introduced: u64 = diff.introduced.iter().map(|p| p.current - p.base).sum();
    assert!(
        resolved > introduced,
        "OptS must resolve more conflict volume than it introduces"
    );
    // Diffs are ranked heaviest-first.
    assert!(diff
        .resolved
        .windows(2)
        .all(|w| w[0].base - w[0].current >= w[1].base - w[1].current));
}

#[test]
fn probe_stream_matches_the_report() {
    let s = study();
    let case = &s.cases()[0]; // OS + application
    let registry = Arc::new(MetricRegistry::new());
    let (_, attr) = run_case_attributed(
        &s,
        case,
        OsLayoutKind::Base,
        AppSide::Base,
        CacheConfig::paper_default(),
        &SimConfig::fast(),
        Some(&registry),
    );
    for class in AttrClass::ALL {
        assert_eq!(
            registry.counter(class.metric_name()),
            attr.misses_of(class),
            "probe must see every {} miss",
            class.label()
        );
    }
    let sets = registry.histogram("cache.attr.set").expect("set histogram");
    assert_eq!(sets.count(), attr.total_misses);
}

/// The fields of `current` that exceed their value in `baseline` by more
/// than 5%.
fn rises(baseline: &[(String, f64)], current: &[(String, f64)]) -> Vec<String> {
    baseline
        .iter()
        .filter(|(name, base)| {
            current
                .iter()
                .any(|(n, cur)| n == name && *cur > base * 1.05 + f64::EPSILON)
        })
        .map(|(name, _)| name.clone())
        .collect()
}

#[test]
fn compare_catches_conflict_matrix_regressions() {
    let s = study();
    let good = attribute(&s, OsLayoutKind::OptS).section_fields();
    let bad = attribute(&s, OsLayoutKind::Base).section_fields();
    let regressions = rises(&good, &bad);
    assert!(
        regressions
            .iter()
            .any(|r| r.contains("conflict") || r.contains("matrix")),
        "swapping OptS attribution for Base must raise a conflict field: {regressions:?}"
    );
    // And the good direction stays quiet on the conflict surface.
    assert!(rises(&bad, &good)
        .iter()
        .all(|r| !r.contains("conflict") && !r.contains("matrix")));
}
