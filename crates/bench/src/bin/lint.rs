//! `lint` — static layout verification CLI.
//!
//! Builds the study's layouts and runs the `oslay-verify` invariant
//! checker over each one, with no simulation. Exit-code contract: `0`
//! when every report is clean (warnings allowed unless `--deny warnings`),
//! `1` when any diagnostic fails.
//!
//! `lint --help` lists the flags (generated from the flag table below).
//! `--layout-file FILE` lints an external OS layout written by
//! `search --layout-out` (JSON with `"name"`/`"addr"`/`"size"`) in place
//! of the default layout set; a malformed file exits 2 like a bad flag.
//! `--mutate` corrupts the OptL layout first, which CI uses to prove the
//! checker fires.
//!
//! External layouts (`--layout-file`) always get the full static
//! treatment: structural invariants, the conflict prediction, *and* the
//! abstract-interpretation classification — they come from outside the
//! builders, so nothing else has vetted them. The classification of the
//! built layouts is the `analyze` binary's job.

use std::process::ExitCode;

use oslay::Study;
use oslay_bench::{layout_view_from_json, ArgError, Cli, Flag, Kind, FILE, INT};
use oslay_cache::CacheConfig;
use oslay_layout::{optimize_os, BlockClass, OptLayout, OptParams};
use oslay_model::{Domain, Program, RoutineId};
use oslay_verify::{
    predict_conflicts, verify, verify_structural, LayoutView, OptContext, VerifyInput, VerifyReport,
};

const ALL_LAYOUTS: [&str; 6] = ["base", "ch", "opts", "optl", "opta", "call"];

const LAYOUTS: Kind = Kind::Many(&Kind::Choice(&[
    "base", "ch", "opts", "optl", "opta", "call", "all",
]));
const MUTATIONS: Kind = Kind::Choice(&["block-swap", "loop-shift", "scf-overlap"]);

#[rustfmt::skip]
const CLI: Cli = Cli {
    name: "lint",
    subcommands: &[],
    scale: Some("small"),
    flags: &[
        Flag("--layout", LAYOUTS, "all", "layouts to lint"),
        Flag("--layout-file", FILE, "", "lint an external OS layout (search --layout-out)"),
        Flag("--json", Kind::Switch, "", "machine-readable reports"),
        Flag("--deny", Kind::Choice(&["warnings"]), "", "promote warnings to failures"),
        Flag("--mutate", MUTATIONS, "", "corrupt the OptL layout first"),
        Flag("--predict", Kind::Switch, "", "also print the static conflict prediction"),
        Flag("--top", INT, "10", "sets and pairs the prediction lists"),
    ],
};

/// Verifies a mutated (or pristine) OptL-style layout with full context.
fn verify_opt_view(
    study: &Study,
    opt: &OptLayout,
    params: &OptParams,
    view: &LayoutView,
    line: u32,
) -> VerifyReport {
    verify(&VerifyInput {
        program: &study.kernel().program,
        profile: study.averaged_os_profile(),
        view,
        opt: Some(OptContext {
            classes: &opt.classes,
            sequences: &opt.sequences,
            schedule: &params.schedule,
            loops: study.os_loops(),
            scf_bytes: opt.scf_bytes,
            cache_size: params.cache_size,
            line_size: line,
            min_loop_iters: params.min_loop_iters,
            check_loop_area: params.extract_loops,
        }),
    })
}

/// Applies one named corruption to an OptL layout view.
fn apply_mutation(opt: &OptLayout, view: &mut LayoutView, cache_size: u32, which: &str) {
    let of_class = |class: BlockClass| -> Vec<usize> {
        (0..opt.classes.len())
            .filter(|&i| opt.classes[i] == class)
            .collect()
    };
    match which {
        "block-swap" => {
            // Swap two non-adjacent retained members of one sequence.
            let seq = opt
                .sequences
                .sequences()
                .iter()
                .find(|s| {
                    s.blocks
                        .iter()
                        .filter(|&&b| {
                            matches!(
                                opt.classes[b.index()],
                                BlockClass::MainSeq | BlockClass::OtherSeq
                            )
                        })
                        .count()
                        >= 3
                })
                .expect("a sequence with 3+ retained blocks");
            let retained: Vec<usize> = seq
                .blocks
                .iter()
                .map(|b| b.index())
                .filter(|&i| matches!(opt.classes[i], BlockClass::MainSeq | BlockClass::OtherSeq))
                .collect();
            view.swap_addrs(retained[0], retained[2]);
        }
        "loop-shift" => {
            let loops = of_class(BlockClass::Loop);
            assert!(!loops.is_empty(), "OptL extracted no loops at this scale");
            view.shift_blocks(&loops, 64);
        }
        "scf-overlap" => {
            let hot = of_class(BlockClass::MainSeq);
            let victim = hot[hot.len() / 2];
            // Offset 0 of logical cache 1: inside the reserved window.
            view.set_addr(victim, u64::from(cache_size));
        }
        other => unreachable!("unknown mutation {other}"),
    }
}

/// Loads an external layout file (`search --layout-out`).
fn load_layout_view(path: &std::path::Path) -> Result<LayoutView, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    layout_view_from_json(&text).map_err(|e| e.to_string())
}

fn print_report(report: &VerifyReport, json: bool) {
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
}

fn routine_name(program: &Program, key: (Domain, u32)) -> String {
    if key.0 == program.domain() {
        program
            .routine(RoutineId::new(key.1 as usize))
            .name()
            .to_owned()
    } else {
        format!("{:?}:{}", key.0, key.1)
    }
}

fn print_prediction(study: &Study, name: &str, view: &LayoutView, top: usize) {
    let cfg = CacheConfig::paper_default();
    let program = &study.kernel().program;
    let p = predict_conflicts(program, study.averaged_os_profile(), view, Domain::Os, &cfg);
    println!("-- static conflict prediction: {name} --");
    println!("top {top} contended sets (set: weight / excess):");
    for s in p.top_sets(top) {
        if s.excess <= 0.0 {
            break;
        }
        println!(
            "  set {:>4}: {:>12.0} / {:>12.0}",
            s.set, s.weight, s.excess
        );
    }
    println!("top {top} predicted routine pairs:");
    for &(a, b, score) in p.top_pairs(top) {
        println!(
            "  {:<24} x {:<24} {:>12.0}",
            routine_name(program, a),
            routine_name(program, b),
            score
        );
    }
}

/// Runs the abstract-interpretation classification on one OS layout view
/// and prints the one-line summary. Returns `true` when the lattice
/// invariants were violated (a checker bug, never a layout property).
fn print_absint(study: &Study, view: &LayoutView, cfg: CacheConfig) -> bool {
    let c = oslay_bench::absint_gate::classify_study_layout(study, view, cfg);
    println!("-- absint classification: {} --", view.name);
    println!(
        "  always-hit {:>5.1}%  persistent {:>5.1}%  always-miss {:>5.1}%  \
         unclassified {:>5.1}%  coverage {:>5.1}%",
        100.0 * c.weighted_share(oslay_verify::LineClass::AlwaysHit),
        100.0 * c.weighted_share(oslay_verify::LineClass::Persistent),
        100.0 * c.weighted_share(oslay_verify::LineClass::AlwaysMiss),
        100.0 * c.weighted_share(oslay_verify::LineClass::Unclassified),
        100.0 * c.coverage(),
    );
    if c.invariant_violations > 0 {
        eprintln!(
            "lint: {}: {} absint lattice violation(s)",
            view.name, c.invariant_violations
        );
        return true;
    }
    false
}

fn main() -> ExitCode {
    let flags = CLI.args();
    let layout_file = flags.path("--layout-file");
    // An explicit --layout-file lints only that file unless named
    // layouts were also requested.
    let layouts = if flags.on("--layout") || layout_file.is_none() {
        flags.expand_all("--layout", &ALL_LAYOUTS)
    } else {
        Vec::new()
    };
    let view_file = layout_file.map(|path| match load_layout_view(&path) {
        Ok(view) => (path, view),
        Err(reason) => CLI.fail(&ArgError::BadFile {
            flag: "--layout-file",
            path,
            reason,
        }),
    });
    let (json, deny_warnings, predict) = (
        flags.on("--json"),
        flags.on("--deny"),
        flags.on("--predict"),
    );
    let top: usize = flags.num("--top").unwrap_or_default();
    let study = Study::generate(&flags.run().config);
    let program = &study.kernel().program;
    let cache_cfg = CacheConfig::paper_default();
    let cache_size = cache_cfg.size();
    let line = cache_cfg.line();

    let mut reports: Vec<VerifyReport> = Vec::new();

    if let Some(mutation) = flags.get("--mutate") {
        // Mutation mode: corrupt the OptL layout and verify only it.
        let params = OptParams::opt_l(cache_size);
        let opt = optimize_os(
            program,
            study.averaged_os_profile(),
            study.os_loops(),
            &params,
        );
        let mut view = LayoutView::from_layout(&opt.layout);
        view.name = format!("OptL+{mutation}");
        apply_mutation(&opt, &mut view, cache_size, mutation);
        reports.push(verify_opt_view(&study, &opt, &params, &view, line));
    } else {
        for which in &layouts {
            match which.as_str() {
                "base" => {
                    let layout = oslay_layout::base_layout(program, 0);
                    let view = LayoutView::from_layout(&layout);
                    reports.push(verify_structural(program, &view));
                }
                "ch" => {
                    let layout =
                        oslay_layout::chang_hwu_layout(program, study.averaged_os_profile(), 0);
                    let view = LayoutView::from_layout(&layout);
                    reports.push(verify_structural(program, &view));
                }
                "opts" | "optl" => {
                    let params = if which == "optl" {
                        OptParams::opt_l(cache_size)
                    } else {
                        OptParams::opt_s(cache_size)
                    };
                    let opt = optimize_os(
                        program,
                        study.averaged_os_profile(),
                        study.os_loops(),
                        &params,
                    );
                    let view = LayoutView::from_layout(&opt.layout);
                    reports.push(verify_opt_view(&study, &opt, &params, &view, line));
                    if predict {
                        print_prediction(&study, &view.name.clone(), &view, top);
                    }
                }
                "call" => {
                    // Per-loop logical caches deliberately reuse SCF
                    // offsets (the paper's negative result): structural
                    // checks only.
                    let opt = oslay_layout::call_opt_layout(
                        program,
                        study.averaged_os_profile(),
                        study.os_loops(),
                        &oslay_layout::CallOptParams::new(cache_size),
                    );
                    let view = LayoutView::from_layout(&opt.layout);
                    reports.push(verify_structural(program, &view));
                }
                "opta" => {
                    // The application half of OptA, per workload that has
                    // an app (the OS half is `opts`).
                    for case in study.cases() {
                        let (Some(app), Some(layout)) =
                            (case.app.as_ref(), study.app_opt_layout(case, cache_size))
                        else {
                            continue;
                        };
                        let mut view = LayoutView::from_layout(&layout);
                        view.name = format!("{}/{}", view.name, case.name());
                        reports.push(verify_structural(app, &view));
                    }
                }
                other => unreachable!("unknown layout {other}"),
            }
        }
        if let Some((path, view)) = &view_file {
            // External layouts (e.g. `search --layout-out`) must both
            // re-assemble against the kernel program — which checks
            // block count, span validity and stretch accounting — and
            // pass the structural invariants on the view itself.
            if view.addr.len() != program.num_blocks() {
                eprintln!(
                    "lint: {}: {} block(s) but the kernel has {} — wrong --scale/--blocks/--seed?",
                    path.display(),
                    view.addr.len(),
                    program.num_blocks()
                );
                oslay_bench::flush_trace();
                return ExitCode::FAILURE;
            }
            match oslay_layout::Layout::assemble(program, view.name.clone(), &view.addr, &view.size)
            {
                Ok(_) => reports.push(verify_structural(program, view)),
                Err(e) => {
                    eprintln!("lint: {}: does not assemble: {e}", path.display());
                    oslay_bench::flush_trace();
                    return ExitCode::FAILURE;
                }
            }
            // External layouts always get the full static treatment —
            // nothing else has vetted them.
            print_prediction(&study, &view.name.clone(), view, top);
            if print_absint(&study, view, cache_cfg) {
                oslay_bench::flush_trace();
                return ExitCode::FAILURE;
            }
        }
        if predict && layouts.iter().any(|l| l == "base") {
            let layout = oslay_layout::base_layout(program, 0);
            print_prediction(&study, "Base", &LayoutView::from_layout(&layout), top);
        }
    }

    let mut failed = false;
    for report in &reports {
        print_report(report, json);
        failed |= report.fails(deny_warnings);
    }
    if !json {
        let total_errors: usize = reports.iter().map(VerifyReport::errors).sum();
        let total_warnings: usize = reports.iter().map(VerifyReport::warnings).sum();
        println!(
            "lint: {} layout(s), {total_errors} error(s), {total_warnings} warning(s)",
            reports.len()
        );
    }
    oslay_bench::flush_trace();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
