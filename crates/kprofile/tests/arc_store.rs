//! Oracle for the per-source arc store, on every tiny-scale study case
//! and for both the OS and the application profile.
//!
//! `Profile::collect` must count exactly the transitions read straight
//! off the trace under the same invocation-boundary rules (OS arcs stop
//! at `OsEnter`/`OsExit`, application arcs span OS invocations), and the
//! store must come out in its documented order: `arcs()` source-major,
//! each `out_arcs` list heaviest first with `dst` ascending on ties.

use std::collections::BTreeMap;

use oslay::model::{BlockId, Domain, Program};
use oslay::trace::{Trace, TraceEvent};
use oslay::{Study, StudyConfig};
use oslay_profile::{ArcRecord, Profile};

type ArcMap = BTreeMap<(BlockId, BlockId), u64>;

/// Transitions between consecutive `domain` blocks of `trace`.
fn trace_arcs(trace: &Trace, domain: Domain) -> ArcMap {
    let mut arcs = ArcMap::new();
    let mut prev = None;
    for &event in trace.events() {
        match event {
            TraceEvent::OsEnter(_) | TraceEvent::OsExit => {
                if domain == Domain::Os {
                    prev = None;
                }
            }
            TraceEvent::Block { id, domain: d } if d == domain => {
                if let Some(p) = prev {
                    *arcs.entry((p, id)).or_default() += 1;
                }
                prev = Some(id);
            }
            TraceEvent::Block { .. } => {}
        }
    }
    arcs
}

/// The profile's arcs as a map; no arc may be listed twice.
fn arc_map(profile: &Profile) -> ArcMap {
    let mut map = ArcMap::new();
    for a in profile.arcs() {
        let old = map.insert((a.src, a.dst), a.count);
        assert!(old.is_none(), "arc {} -> {} listed twice", a.src, a.dst);
    }
    map
}

fn sum<'a>(maps: impl IntoIterator<Item = &'a ArcMap>) -> ArcMap {
    let mut total = ArcMap::new();
    for map in maps {
        for (&k, &v) in map {
            *total.entry(k).or_default() += v;
        }
    }
    total
}

fn arc_list(profile: &Profile) -> Vec<ArcRecord> {
    profile.arcs().collect()
}

/// Checks the store's order: `arcs()` is the `out_arcs` lists walked in
/// ascending source order, each list heaviest first with `dst` ascending
/// on ties, and `arc_weight` agrees with every listed arc.
fn assert_store_order(profile: &Profile, tag: &str) {
    let mut from_lists = Vec::new();
    for b in 0..profile.num_blocks() {
        let src = BlockId::new(b);
        let out = profile.out_arcs(src);
        assert!(
            out.windows(2)
                .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)),
            "{tag}: out_arcs({src}) not heaviest first, dst ascending: {out:?}"
        );
        for &(dst, count) in out {
            assert!(count > 0, "{tag}: zero-count arc {src} -> {dst}");
            assert_eq!(profile.arc_weight(src, dst), count, "{tag}: {src} -> {dst}");
            from_lists.push(ArcRecord { src, dst, count });
        }
    }
    assert_eq!(arc_list(profile), from_lists, "{tag}: arcs() order");
}

/// Collects `program`'s profile twice off `trace`, checks both against
/// the trace oracle and the store order, and returns the oracle.
fn check_collect(program: &Program, trace: &Trace, tag: &str) -> ArcMap {
    let oracle = trace_arcs(trace, program.domain());
    assert!(!oracle.is_empty(), "{tag}: the trace has no arcs");
    let first = Profile::collect(program, trace);
    let second = Profile::collect(program, trace);
    assert_eq!(arc_map(&first), oracle, "{tag}: collected arcs");
    assert_store_order(&first, tag);
    assert_eq!(
        arc_list(&first),
        arc_list(&second),
        "{tag}: arcs() differs between two collects"
    );
    oracle
}

#[test]
fn collected_arcs_equal_the_trace_oracle_in_store_order() {
    let study = Study::generate(&StudyConfig::tiny());
    let program = &study.kernel().program;
    let mut os_oracles = Vec::new();
    for case in study.cases() {
        let name = case.workload.name();
        let oracle = check_collect(program, &case.trace, &format!("{name} OS"));
        assert_eq!(
            arc_map(&case.os_profile),
            oracle,
            "{name}: study OS profile"
        );
        os_oracles.push(oracle);
        if let Some(app) = &case.app {
            let oracle = check_collect(app, &case.trace, &format!("{name} app"));
            let app_profile = case.app_profile.as_ref().expect("app profile");
            assert_eq!(arc_map(app_profile), oracle, "{name}: study app profile");
            // An application runs in one case only, so its merge check
            // merges the profile with itself: every arc doubles.
            let doubled = Profile::merge_all([app_profile, app_profile]);
            assert_eq!(arc_map(&doubled), sum([&oracle, &oracle]), "{name}: app x2");
            assert_store_order(&doubled, &format!("{name} app x2"));
        }
    }
    assert!(
        study.cases().iter().any(|c| c.app.is_some()),
        "no case traces an application"
    );

    let forward = Profile::merge_all(study.cases().iter().map(|c| &c.os_profile));
    let backward = Profile::merge_all(study.cases().iter().rev().map(|c| &c.os_profile));
    assert_eq!(arc_map(&forward), sum(&os_oracles), "merged OS arcs");
    assert_store_order(&forward, "merged OS");
    assert_eq!(arc_list(&forward), arc_list(&backward), "merge order");
    assert_eq!(
        arc_list(&forward),
        arc_list(study.averaged_os_profile()),
        "the study's averaged profile"
    );
}
