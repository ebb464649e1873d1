//! One-shot digest of the whole evaluation: generates a single study and
//! prints the headline number of every table and figure next to the
//! paper's value. This is the fastest way to see the reproduction state
//! end to end; the per-artifact binaries print the full detail.
//!
//! The `all_experiments` binary is a thin forwarder to [`run`]:
//! `cargo run --release -p oslay-bench --bin all_experiments`.

use oslay::analysis::arcs::ArcDeterminism;
use oslay::analysis::loops::loop_shape;
use oslay::analysis::refchar::{ref_characteristics, union_footprint};
use oslay::analysis::report::{f, pct, TextTable};
use oslay::analysis::temporal::{InvocationSkew, ReuseDistance};
use oslay::cache::CacheConfig;
use oslay::model::ProgramStats;
use oslay::perf::ExecTimeModel;
use oslay::{OsLayoutKind, SimConfig, Study};

use crate::{
    banner, figure12_ladder, run_case_attributed, run_figure12_matrix, AppSide, Cli, Reporter,
};
use oslay_observe::AttrClass;

/// Runs the full digest: parses the common CLI arguments, evaluates every
/// headline number, prints the tables, and writes
/// `results/all_experiments.json`.
pub fn run() {
    let args = Cli::study("all_experiments").args().run();
    let config = args.config;
    banner("All experiments: one-page digest", &config);
    let mut reporter = Reporter::new("all_experiments");
    let registry = reporter.registry();
    let study = Study::generate_with_threads(&config, args.threads);
    let program = &study.kernel().program;
    let cfg = CacheConfig::paper_default();

    println!("Kernel: {}", ProgramStats::compute(program));
    println!();

    // --- characterization -------------------------------------------------
    let mut table = TextTable::new(["Section 3 metric", "paper", "measured"]);
    let d = ArcDeterminism::measure(study.averaged_os_profile());
    table.row([
        "fig03: arcs with P >= 0.99".to_owned(),
        "73.6%".to_owned(),
        pct(d.fraction_ge_99()),
    ]);
    table.row([
        "fig03: arcs with P <= 0.01".to_owned(),
        "6.9%".to_owned(),
        pct(d.fraction_le_01()),
    ]);
    let union = union_footprint(program, study.cases().iter().map(|c| &c.os_profile));
    table.row([
        "tab01: union code footprint".to_owned(),
        "18%".to_owned(),
        pct(union.code_fraction),
    ]);
    let rc_range: Vec<f64> = study
        .cases()
        .iter()
        .map(|c| ref_characteristics(program, &c.os_profile, &c.trace).executed_code_fraction)
        .collect();
    table.row([
        "tab01: per-workload footprint".to_owned(),
        "3.4-13.1%".to_owned(),
        format!(
            "{}-{}",
            pct(rc_range.iter().copied().fold(f64::INFINITY, f64::min)),
            pct(rc_range.iter().copied().fold(0.0, f64::max))
        ),
    ]);
    let free = loop_shape(study.os_loops().executed_loops().filter(|l| !l.has_calls));
    let call = loop_shape(study.os_loops().executed_loops().filter(|l| l.has_calls));
    table.row([
        "fig04: call-free loops <= 300B".to_owned(),
        "100%".to_owned(),
        pct(free.sizes.cumulative_fraction(300.0)),
    ]);
    table.row([
        "fig05: call-loop median span".to_owned(),
        "2 KB".to_owned(),
        format!("{:.1} KB", call.median_size / 1024.0),
    ]);
    let skew = InvocationSkew::measure(program, study.averaged_os_profile());
    table.row([
        "fig06: top-10 routine share".to_owned(),
        "most".to_owned(),
        pct(skew.top_share(10) / 100.0),
    ]);
    let mut reuse = 0.0;
    for case in study.cases() {
        reuse +=
            ReuseDistance::measure(program, &case.os_profile, &case.trace, 10).reuse_within(1000.0);
    }
    table.row([
        "fig07: reuse within 1000 words".to_owned(),
        "~70%".to_owned(),
        pct(reuse / study.cases().len() as f64),
    ]);
    print!("{}", table.render());
    println!();

    // --- evaluation ---------------------------------------------------------
    println!("Figure 12 (misses normalized to Base = 100, 8KB DM):");
    let mut table = TextTable::new(["Workload", "C-H", "OptS", "OptL", "OptA"]);
    let mut opts_rates = Vec::new();
    let mut base_rates = Vec::new();
    let matrix = run_figure12_matrix(&study, cfg, &SimConfig::fast(), args.threads, &registry);
    for (case, row) in study.cases().iter().zip(&matrix) {
        let mut cells = vec![case.name().to_owned()];
        let mut base = None;
        let mut level_rates = Vec::new();
        for ((name, _, _), r) in figure12_ladder().into_iter().zip(row) {
            let total = r.stats.total_misses();
            let b = *base.get_or_insert(total);
            if name != "Base" {
                cells.push(format!("{:.1}", total as f64 / b as f64 * 100.0));
            }
            if name == "Base" {
                base_rates.push(r.miss_rate());
            }
            if name == "OptS" {
                opts_rates.push(r.miss_rate());
            }
            level_rates.push((name, r.miss_rate()));
        }
        reporter.add_section(&format!("fig12.{}", case.name()), level_rates);
        table.row(cells);
    }
    print!("{}", table.render());
    println!("paper: C-H 43-62, OptS 24-53, OptL ~OptS, OptA = OptS -4..-19%");
    println!();

    let model = ExecTimeModel::paper(30.0);
    let mean_speedup: f64 = base_rates
        .iter()
        .zip(&opts_rates)
        .map(|(&b, &o)| model.time_reduction_percent(b, o))
        .sum::<f64>()
        / base_rates.len() as f64;
    println!(
        "Figure 15-b: mean execution-time reduction of OptS over Base at a 30-cycle \
         penalty: {:.1}% (paper: \"in the order of 10-25%\")",
        mean_speedup
    );
    reporter.add_section("fig15b", [("mean_time_reduction_pct", mean_speedup)]);
    println!();

    // Miss attribution digest: why Base misses and what OptS removed.
    // The `attr.*` sections make `compare()` catch conflict-structure
    // regressions (conflict count, matrix weight, set imbalance) that the
    // aggregate miss rate can hide.
    let shell = &study.cases()[3];
    println!("Miss attribution on Shell (8KB DM, compulsory/capacity/conflict):");
    let mut table = TextTable::new(["layout", "compulsory", "capacity", "conflict", "set CV"]);
    let mut attr_reports = Vec::new();
    for (label, kind) in [("base", OsLayoutKind::Base), ("opt_s", OsLayoutKind::OptS)] {
        let (_, attr) = run_case_attributed(
            &study,
            shell,
            kind,
            AppSide::Base,
            cfg,
            &SimConfig::fast(),
            Some(&registry),
        );
        table.row([
            label.to_owned(),
            format!(
                "{} ({})",
                attr.misses_of(AttrClass::Compulsory),
                pct(attr.misses_of(AttrClass::Compulsory) as f64 / attr.total_misses.max(1) as f64)
            ),
            format!(
                "{} ({})",
                attr.misses_of(AttrClass::Capacity),
                pct(attr.misses_of(AttrClass::Capacity) as f64 / attr.total_misses.max(1) as f64)
            ),
            format!(
                "{} ({})",
                attr.misses_of(AttrClass::Conflict),
                pct(attr.conflict_share())
            ),
            format!("{:.2}", attr.set_imbalance()),
        ]);
        reporter.add_section(&format!("attr.{label}"), attr.section_fields());
        attr_reports.push(attr);
    }
    print!("{}", table.render());
    let diff = oslay::cache::diff_attribution(&attr_reports[0], &attr_reports[1]);
    println!(
        "OptS resolves {} conflict pairs and introduces {} \
         (net conflict misses: {:+}); run `cargo run --release -p oslay-bench \
         --bin diag -- --compare base opts` for the ranked list.",
        diff.resolved.len(),
        diff.introduced.len(),
        diff.conflict_delta()
    );
    reporter.add_section(
        "attr.diff",
        [
            ("introduced_pairs", diff.introduced.len() as f64),
            ("conflict_delta", diff.conflict_delta() as f64),
        ],
    );
    println!();

    // Dynamic code growth of the OptS layout (Section 4.3).
    let opts = study.os_layout(OsLayoutKind::OptS, cfg.size());
    let growth = opts
        .layout
        .dynamic_overhead(program, study.averaged_os_profile());
    println!(
        "Section 4.3: dynamic code growth of OptS: {} (paper: ~2.0%)",
        pct(growth)
    );
    reporter.add_section("growth", [("opt_s_dynamic_overhead", growth)]);
    println!();

    // Beyond the paper: the metaheuristic layout search (ksearch), seeded
    // from OptS and validated by replay. The `search` binary prints the
    // full ranking; the digest records the headline so regression compare
    // catches a search that stops beating its seed.
    let searched = crate::run_layout_search(
        &study,
        cfg,
        &oslay_search::SearchParams {
            seed: config.seed,
            ..oslay_search::SearchParams::default()
        },
        &SimConfig::fast(),
        args.threads,
    );
    let outcome = &searched.outcome;
    let best = outcome.restarts[outcome.winner as usize].best;
    let seed_misses: u64 = searched.selection.misses[0].iter().sum();
    let chosen_misses: u64 = searched.selection.misses[searched.selection.chosen]
        .iter()
        .sum();
    let beats = searched.selection.misses[searched.selection.chosen]
        .iter()
        .zip(&searched.selection.misses[0])
        .filter(|(s, o)| s <= o)
        .count();
    println!(
        "Beyond the paper: searched OS layout (ksearch): objective {} -> {} \
         ({:.1}% lower), misses {} -> {} vs OptS, better-or-equal on {}/{} workloads",
        outcome.initial,
        best,
        (outcome.initial - best) as f64 / outcome.initial.max(1) as f64 * 100.0,
        seed_misses,
        chosen_misses,
        beats,
        study.cases().len()
    );
    reporter.add_section(
        "search",
        [
            ("initial_objective", outcome.initial as f64),
            ("best_objective", best as f64),
            ("seed_misses", seed_misses as f64),
            ("chosen_misses", chosen_misses as f64),
            ("beats_or_ties_opt_s", beats as f64),
        ],
    );
    println!();

    // Beyond the paper: the abstract-interpretation classification of
    // every layout — what fraction of weighted fetches is *provably*
    // always-hit / persistent / always-miss, with no trace. The `analyze`
    // binary prints per-point detail and replays the soundness gate.
    println!("Beyond the paper: static classification (abstract interpretation, weighted):");
    let mut table = TextTable::new([
        "layout",
        "always-hit",
        "persistent",
        "always-miss",
        "unclassified",
        "coverage",
    ]);
    let mut absint_layouts: Vec<(&str, oslay_verify::LayoutView)> = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
        OsLayoutKind::OptL,
    ]
    .iter()
    .map(|&kind| {
        (
            kind.name(),
            oslay_verify::LayoutView::from_layout(&study.os_layout(kind, cfg.size()).layout),
        )
    })
    .collect();
    absint_layouts.push((
        "Search",
        oslay_verify::LayoutView::from_layout(&searched.os.layout),
    ));
    for (name, view) in &absint_layouts {
        let c = crate::absint_gate::classify_study_layout(&study, view, cfg);
        assert_eq!(c.invariant_violations, 0, "{name}: absint lattice violated");
        table.row([
            (*name).to_owned(),
            pct(c.weighted_share(oslay_verify::LineClass::AlwaysHit)),
            pct(c.weighted_share(oslay_verify::LineClass::Persistent)),
            pct(c.weighted_share(oslay_verify::LineClass::AlwaysMiss)),
            pct(c.weighted_share(oslay_verify::LineClass::Unclassified)),
            pct(c.coverage()),
        ]);
        reporter.add_section(
            &format!("absint.{name}"),
            [
                (
                    "weighted_always_hit",
                    c.weighted_share(oslay_verify::LineClass::AlwaysHit),
                ),
                (
                    "weighted_persistent",
                    c.weighted_share(oslay_verify::LineClass::Persistent),
                ),
                (
                    "weighted_always_miss",
                    c.weighted_share(oslay_verify::LineClass::AlwaysMiss),
                ),
                ("coverage", c.coverage()),
            ],
        );
    }
    print!("{}", table.render());
    println!("(run `--bin analyze -- --gate` to replay-validate these classes)");
    println!();
    println!(
        "Full details per artifact: the fig*/tab* binaries in crates/bench/src/bin \
         (see EXPERIMENTS.md). Digest scale factor: {} OS blocks per workload.",
        f(config.os_blocks as f64, 0)
    );
    let path = reporter.finish();
    println!("Run report: {}", path.display());
}
