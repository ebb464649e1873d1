//! Beyond the paper: metaheuristic layout search seeded from OptS.
//!
//! Fans out hill-climbing + simulated-annealing restarts over
//! `LayoutView` atom mutations, scored by the trace-free conflict
//! predictor plus an ext-TSP distance term, then validates the winner
//! end-to-end with full attributed replay against Base, Chang–Hwu,
//! OptS, and OptL. Writes `results/search.json` (objective trace,
//! best-so-far curve, per-workload replay ranking) for `dash` and
//! regression compare.
//!
//! `search --help` lists its flags: the proposal budget, the restart
//! count and `--layout-out FILE`, which writes the winner as JSON
//! `{name, addr, size}` (see [`oslay_bench::layout_view_to_json`]).
//!
//! Output is byte-identical at any `--threads N`.

use oslay::analysis::report::TextTable;
use oslay::cache::CacheConfig;
use oslay::{OsLayout, OsLayoutKind, SimConfig, Study};
use oslay_bench::{
    banner, layout_view_to_json, run_attributed_layouts, run_layout_search, Cli, Flag, Kind,
    Reporter, FILE, INT,
};
use oslay_search::SearchParams;

/// An integer that fits a `u32`.
const U32: Kind = Kind::Value("N", |v| v.parse::<u32>().is_ok(), "an integer");

#[rustfmt::skip]
const CLI: Cli = Cli {
    name: "search",
    subcommands: &[],
    scale: Some("small"),
    flags: &[
        Flag("--budget", INT, "100000", "candidate proposals per restart"),
        Flag("--restarts", U32, "6", "independent restarts"),
        Flag("--layout-out", FILE, "", "write the winning layout as JSON"),
    ],
};

fn main() {
    let flags = CLI.args();
    let (budget, restarts) = (
        flags.num("--budget").unwrap_or_default(),
        flags.num("--restarts").unwrap_or_default(),
    );
    let args = flags.run();
    let config = args.config;
    banner(
        "Layout search: metaheuristic vs the hand-derived layouts",
        &config,
    );
    let mut reporter = Reporter::new("search");
    let registry = reporter.registry();
    let study = Study::generate_with_threads(&config, args.threads);
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::fast();
    let params = SearchParams {
        budget,
        restarts,
        seed: config.seed,
    };

    println!(
        "search: budget {budget} x {restarts} restart(s), seed {:#x}",
        config.seed
    );
    let searched = run_layout_search(&study, cfg, &params, &sim, args.threads);
    let outcome = &searched.outcome;

    let mut table = TextTable::new([
        "restart", "initial", "best", "gain", "proposed", "gate-rej", "accepted",
    ]);
    for r in &outcome.restarts {
        table.row([
            format!(
                "{}{}",
                r.restart,
                if r.restart == 0 { " (climb)" } else { "" }
            ),
            r.initial.to_string(),
            r.best.to_string(),
            format!(
                "{:.2}%",
                (r.initial - r.best) as f64 / r.initial.max(1) as f64 * 100.0
            ),
            r.stats.proposed.to_string(),
            r.stats.gate_rejected.to_string(),
            r.stats.accepted.to_string(),
        ]);
        reporter.add_section(
            &format!("search.restart.{}", r.restart),
            [
                ("initial", r.initial as f64),
                ("best", r.best as f64),
                ("proposed", r.stats.proposed as f64),
                ("gate_rejected", r.stats.gate_rejected as f64),
                ("scored", r.stats.scored as f64),
                ("accepted", r.stats.accepted as f64),
                ("accepted_worse", r.stats.accepted_worse as f64),
                ("rejected_worse", r.stats.rejected_worse as f64),
            ],
        );
    }
    print!("{}", table.render());
    let best = outcome.restarts[outcome.winner as usize].best;
    println!(
        "objective: initial {} -> best {} (restart {}, {:.2}% lower)",
        outcome.initial,
        best,
        outcome.winner,
        (outcome.initial - best) as f64 / outcome.initial.max(1) as f64 * 100.0
    );
    let chosen = searched.selection.chosen;
    let seed_misses: u64 = searched.selection.misses[0].iter().sum();
    println!(
        "replay selection: candidate {} of {} ({}; {} of {} candidates matched or beat \
         the seed's total misses)",
        chosen,
        searched.candidates.len(),
        if chosen == 0 {
            "seed retained".to_owned()
        } else {
            format!("restart {}", chosen - 1)
        },
        searched
            .selection
            .misses
            .iter()
            .skip(1)
            .filter(|row| row.iter().sum::<u64>() <= seed_misses)
            .count(),
        searched.candidates.len() - 1,
    );
    let mut table = TextTable::new(["candidate", "objective", "replay misses", "worse than seed"]);
    for (k, row) in searched.selection.misses.iter().enumerate() {
        table.row([
            if k == 0 {
                "seed (OptS)".to_owned()
            } else {
                format!("restart {}", k - 1)
            },
            if k == 0 {
                outcome.initial.to_string()
            } else {
                outcome.restarts[k - 1].best.to_string()
            },
            row.iter().sum::<u64>().to_string(),
            format!("{} case(s)", searched.selection.worse_cases[k]),
        ]);
    }
    print!("{}", table.render());
    println!();
    reporter.add_section(
        "search.meta",
        [
            ("budget", budget as f64),
            ("restarts", f64::from(restarts)),
            ("winner_restart", f64::from(outcome.winner)),
            ("chosen_candidate", chosen as f64),
            ("initial_objective", outcome.initial as f64),
            ("best_objective", best as f64),
        ],
    );
    reporter.add_section(
        "search.curve",
        outcome.restarts[outcome.winner as usize]
            .curve
            .iter()
            .map(|&(step, obj)| (format!("s{step:07}"), obj as f64)),
    );

    // End-to-end validation: full attributed replay, searched layout
    // ranked against the named kinds.
    let kinds = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
        OsLayoutKind::OptL,
    ];
    let mut layouts: Vec<(String, OsLayout)> = kinds
        .iter()
        .map(|&kind| (kind.name().to_owned(), study.os_layout(kind, cfg.size())))
        .collect();
    layouts.push(("Search".to_owned(), searched.os));
    let matrix = run_attributed_layouts(&study, &layouts, cfg, &sim, args.threads, &registry);
    println!("Attributed replay, miss rate % (8KB direct-mapped, app side Base):");
    let mut table = TextTable::new(["Workload", "Base", "C-H", "OptS", "OptL", "Search"]);
    let mut beats = 0usize;
    for (c, case) in study.cases().iter().enumerate() {
        let mut cells = vec![case.name().to_owned()];
        let mut fields = Vec::new();
        for ((name, _), (r, _)) in layouts.iter().zip(&matrix[c]) {
            cells.push(format!("{:.3}", r.miss_rate() * 100.0));
            fields.push((name.to_lowercase().replace('-', "_"), r.miss_rate()));
        }
        let search_result = &matrix[c][4].0;
        let opts = &matrix[c][2].0;
        if search_result.stats.total_misses() <= opts.stats.total_misses() {
            beats += 1;
        }
        reporter.add_section(&format!("search.replay.{}", case.name()), fields);
        table.row(cells);
    }
    print!("{}", table.render());
    println!(
        "search vs OptS (attributed replay): better-or-equal on {}/{} workloads",
        beats,
        study.cases().len()
    );
    reporter.add_section("search.acceptance", [("beats_or_ties_opt_s", beats as f64)]);

    if let Some(path) = flags.path("--layout-out") {
        let json = layout_view_to_json(&searched.candidates[chosen]);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("search: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("search layout written: {}", path.display());
    }
    let path = reporter.finish();
    println!("Run report: {}", path.display());
}
