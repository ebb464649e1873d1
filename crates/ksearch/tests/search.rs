//! Property, differential, determinism, and materialization tests for
//! the layout search, against the real synthetic kernel.

use std::sync::OnceLock;

use oslay::{OsLayoutKind, Study, StudyConfig};
use oslay_cache::CacheConfig;
use oslay_model::rng::Rng;
use oslay_model::Domain;
use oslay_search::{distance_cost, run_search, SearchParams, SearchState};
use oslay_verify::{predict_from_spans, verify_structural, weighted_spans, LayoutView};

fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::generate(&StudyConfig::tiny()))
}

fn seed_view() -> LayoutView {
    let s = study();
    LayoutView::from_layout(&s.os_layout(OsLayoutKind::OptS, 8192).layout)
}

fn new_state() -> SearchState {
    let s = study();
    SearchState::new(
        &s.kernel().program,
        s.averaged_os_profile(),
        &seed_view(),
        &CacheConfig::paper_default(),
    )
}

/// Every block belongs to exactly one atom, offsets reconstruct the
/// seed addresses, and atom lengths tile their spans.
#[test]
fn atom_decomposition_covers_the_seed_exactly() {
    let state = new_state();
    let view = seed_view();
    let atoms = state.atoms();
    let mut seen = vec![false; view.num_blocks()];
    for a in 0..atoms.count() {
        let mut expected_rel = 0u64;
        for &b in atoms.blocks(a) {
            let b = b as usize;
            assert!(!seen[b], "block {b} in two atoms");
            seen[b] = true;
            assert_eq!(atoms.atom_of[b] as usize, a);
            assert_eq!(atoms.rel[b], expected_rel, "block {b} offset");
            assert_eq!(atoms.start[a] + atoms.rel[b], view.addr[b]);
            expected_rel += u64::from(view.size[b]);
        }
        assert_eq!(atoms.len[a], expected_rel, "atom {a} length");
    }
    assert!(seen.iter().all(|&s| s), "every block is in an atom");
    assert!(atoms.count() > 1, "a real kernel has many atoms");
}

/// The ISSUE property: every proposal either yields a layout that
/// lints clean under KV001–KV008 or is rejected by the admission gate
/// before scoring — and both branches actually occur.
#[test]
fn proposals_lint_clean_or_are_gate_rejected() {
    let s = study();
    let program = &s.kernel().program;
    let mut state = new_state();
    let mut rng = Rng::seed_from_u64(0xF00D);
    let (mut rejected, mut applied) = (0u32, 0u32);
    for i in 0..300 {
        let p = state.propose(&mut rng);
        if !state.admissible(&p) {
            rejected += 1;
            continue;
        }
        state.apply(&p);
        applied += 1;
        if i % 10 == 0 {
            let report = verify_structural(program, &state.current_view("cand"));
            assert!(
                report.is_clean(),
                "admitted candidate lints dirty: {:?}",
                report.diagnostics().first()
            );
        }
    }
    assert!(rejected > 0, "the gate never fired in 300 proposals");
    assert!(applied > 0, "no proposal was admissible in 300 tries");
    // The final layout (an arbitrary walk endpoint) is also clean.
    assert!(verify_structural(program, &state.current_view("end")).is_clean());
}

/// Differential: the incremental score equals a full re-evaluation of
/// both objective halves at every probed step of a seeded walk.
#[test]
fn incremental_score_matches_full_recompute_on_walks() {
    let s = study();
    let program = &s.kernel().program;
    let profile = s.averaged_os_profile();
    let config = CacheConfig::paper_default();
    let mut state = new_state();
    let mut rng = Rng::seed_from_u64(0xBEEF);
    for step in 0..250 {
        state.step(&mut rng, if step % 2 == 0 { 0.0 } else { 50_000.0 });
        if step % 25 != 0 {
            continue;
        }
        let view = state.current_view("probe");
        let spans = weighted_spans(program, profile, &view, Domain::Os);
        let full = predict_from_spans(&spans, &config);
        let full_excess: f64 = full.sets.iter().map(|p| p.excess).sum();
        assert_eq!(
            full_excess,
            state.scorer().conflict_excess() as f64,
            "conflict half diverged at step {step}"
        );
        assert_eq!(
            distance_cost(profile, &view),
            state.scorer().distance_total(),
            "distance half diverged at step {step}"
        );
    }
    let stats = state.stats();
    assert!(stats.scored > 0 && stats.rejected_worse > 0, "{stats:?}");
}

/// The determinism contract: identical winner, curves, stats, and best
/// layout bytes at one and four threads.
#[test]
fn search_is_byte_identical_across_thread_counts() {
    let s = study();
    let params = SearchParams {
        budget: 1500,
        restarts: 3,
        ..SearchParams::default()
    };
    let run = |threads| {
        run_search(
            &s.kernel().program,
            s.averaged_os_profile(),
            &seed_view(),
            &CacheConfig::paper_default(),
            &params,
            threads,
        )
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one.winner, four.winner);
    assert_eq!(one.initial, four.initial);
    assert_eq!(one.best_view.addr, four.best_view.addr);
    assert_eq!(one.best_view.size, four.best_view.size);
    for (a, b) in one.restarts.iter().zip(&four.restarts) {
        assert_eq!(a.best, b.best);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.view.addr, b.view.addr);
    }
}

/// The search never loses to its seed, and a materialized winner
/// re-assembles into a real `Layout` that lints clean.
#[test]
fn winner_improves_on_the_seed_and_materializes() {
    let s = study();
    let program = &s.kernel().program;
    let outcome = run_search(
        program,
        s.averaged_os_profile(),
        &seed_view(),
        &CacheConfig::paper_default(),
        &SearchParams {
            budget: 4000,
            restarts: 2,
            ..SearchParams::default()
        },
        2,
    );
    let best = outcome.restarts[outcome.winner as usize].best;
    assert!(best <= outcome.initial, "search lost to its seed");
    assert!(
        best < outcome.initial,
        "no improvement in 8000 candidates over OptS"
    );
    let layout = oslay_layout::Layout::assemble(
        program,
        "Search",
        &outcome.best_view.addr,
        &outcome.best_view.size,
    )
    .expect("searched view re-assembles");
    let view = LayoutView::from_layout(&layout);
    assert_eq!(view.addr, outcome.best_view.addr);
    assert!(verify_structural(program, &view).is_clean());
}
