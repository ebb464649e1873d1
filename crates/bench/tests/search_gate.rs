//! Gate for the layout-search pipeline ([`run_layout_search`]): the
//! replay-ranked winner must honor the selection guarantees the `search`
//! binary and `fig18_alternatives` rely on — never more total misses
//! than the OptS seed, no worse than the seed on more than half the
//! workloads, structurally clean, and byte-identical at any worker
//! count.

use oslay::cache::{Cache, CacheConfig};
use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_bench::{run_layout_search, searched_os_layout, select_search_winner};
use oslay_search::{run_search, SearchParams};
use oslay_verify::LayoutView;

fn study() -> Study {
    Study::generate(&StudyConfig::tiny())
}

fn params() -> SearchParams {
    SearchParams {
        budget: 3_000,
        restarts: 2,
        ..SearchParams::default()
    }
}

#[test]
fn winner_matches_or_beats_the_seed_and_lints_clean() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    let searched = run_layout_search(&study, cfg, &params(), &SimConfig::fast(), 2);

    let cases = study.cases().len();
    let sel = &searched.selection;
    assert_eq!(sel.misses.len(), searched.candidates.len());
    assert_eq!(sel.worse_cases[0], 0, "the seed is its own baseline");

    // The selection contract: never more total misses than the seed,
    // and better-or-equal on at least half the workloads.
    let seed_total: u64 = sel.misses[0].iter().sum();
    let chosen_total: u64 = sel.misses[sel.chosen].iter().sum();
    assert!(chosen_total <= seed_total, "{chosen_total} > {seed_total}");
    assert!(sel.worse_cases[sel.chosen] * 2 <= cases);

    // The materialized winner lints clean and replays to exactly the
    // miss counts the selection ranked it by.
    let program = &study.kernel().program;
    let view = &searched.candidates[sel.chosen];
    assert!(oslay_verify::verify_structural(program, view).is_clean());
    for (c, case) in study.cases().iter().enumerate() {
        let app = study.app_base_layout(case);
        let mut cache = Cache::new(cfg);
        let r = study.simulate(
            case,
            &searched.os.layout,
            app.as_ref(),
            &mut cache,
            &SimConfig::fast(),
        );
        assert_eq!(r.stats.total_misses(), sel.misses[sel.chosen][c]);
    }
}

#[test]
fn seed_misses_equal_a_direct_opt_s_replay() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    let searched = run_layout_search(&study, cfg, &params(), &SimConfig::fast(), 1);
    let opts = study.os_layout(OsLayoutKind::OptS, cfg.size());
    for (c, case) in study.cases().iter().enumerate() {
        let app = study.app_base_layout(case);
        let mut cache = Cache::new(cfg);
        let r = study.simulate(
            case,
            &opts.layout,
            app.as_ref(),
            &mut cache,
            &SimConfig::fast(),
        );
        assert_eq!(
            r.stats.total_misses(),
            searched.selection.misses[0][c],
            "candidate 0 must be the untouched OptS seed (case {c})"
        );
    }
}

#[test]
fn pipeline_is_thread_invariant() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    let a = run_layout_search(&study, cfg, &params(), &SimConfig::fast(), 1);
    let b = run_layout_search(&study, cfg, &params(), &SimConfig::fast(), 3);
    assert_eq!(a.outcome.winner, b.outcome.winner);
    assert_eq!(a.selection.chosen, b.selection.chosen);
    assert_eq!(a.selection.misses, b.selection.misses);
    for i in 0..a.os.layout.num_blocks() {
        let block = oslay::model::BlockId::new(i);
        assert_eq!(a.os.layout.addr(block), b.os.layout.addr(block));
        assert_eq!(
            a.os.layout.effective_size(block),
            b.os.layout.effective_size(block)
        );
    }
}

/// Selection replays each distinct candidate once and copies its row to
/// the duplicates; the result must equal replaying every candidate.
#[test]
fn duplicate_candidates_select_like_a_naive_replay() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    let seed = LayoutView::from_layout(&study.os_layout(OsLayoutKind::OptS, cfg.size()).layout);
    let outcome = run_search(
        &study.kernel().program,
        study.averaged_os_profile(),
        &seed,
        &cfg,
        &params(),
        2,
    );
    let moved = outcome
        .restarts
        .iter()
        .find(|r| r.view.addr != seed.addr)
        .expect("some restart leaves the seed");
    let named = |name: &str| LayoutView {
        name: name.to_owned(),
        ..seed.clone()
    };
    let candidates = vec![
        named("seed"),
        named("seed again"),
        moved.view.clone(),
        named("seed last"),
    ];
    let objectives = [
        outcome.initial + 1,
        outcome.initial,
        moved.best,
        outcome.initial,
    ];
    let sel = select_search_winner(&study, &candidates, &objectives, cfg, &SimConfig::fast(), 2);

    let misses: Vec<Vec<u64>> = candidates
        .iter()
        .map(|v| {
            let os = searched_os_layout(&study, v);
            study
                .cases()
                .iter()
                .map(|case| {
                    let app = study.app_base_layout(case);
                    let mut cache = Cache::new(cfg);
                    study
                        .simulate(
                            case,
                            &os.layout,
                            app.as_ref(),
                            &mut cache,
                            &SimConfig::fast(),
                        )
                        .stats
                        .total_misses()
                })
                .collect()
        })
        .collect();
    let worse_cases: Vec<usize> = misses
        .iter()
        .map(|row| row.iter().zip(&misses[0]).filter(|(m, b)| m > b).count())
        .collect();
    let cases = study.cases().len();
    let chosen = (0..candidates.len())
        .filter(|&k| worse_cases[k] * 2 <= cases)
        .min_by_key(|&k| {
            (
                misses[k].iter().sum::<u64>(),
                worse_cases[k],
                objectives[k],
                k,
            )
        })
        .unwrap();
    assert_eq!(sel.misses, misses);
    assert_eq!(sel.worse_cases, worse_cases);
    assert_eq!(sel.chosen, chosen);
}
