//! `lint` — static layout verification CLI.
//!
//! Builds the study's layouts and runs the `oslay-verify` invariant
//! checker over each one, with no simulation. Exit-code contract: `0`
//! when every report is clean (warnings allowed unless `--deny warnings`),
//! `1` when any diagnostic fails.
//!
//! ```text
//! lint [--scale tiny|small|paper] [--blocks N] [--seed N]
//!      [--layout base|ch|opts|optl|opta|call|all]   # default: all
//!      [--layout-file FILE]     # lint an external OS layout written by
//!                               # `search --layout-out` (JSON with
//!                               # "name"/"addr"/"size"); replaces the
//!                               # default layout set
//!      [--json]                 # machine-readable reports
//!      [--deny warnings]        # promote warnings to failures
//!      [--mutate block-swap|loop-shift|scf-overlap]
//!                               # corrupt the OptL layout first (CI uses
//!                               # this to prove the checker fires)
//!      [--predict] [--top K]    # also print the static conflict
//!                               # prediction for the OS layouts
//! ```
//!
//! External layouts (`--layout-file`) always get the full static
//! treatment: structural invariants, the conflict prediction, *and* the
//! abstract-interpretation classification — they come from outside the
//! builders, so nothing else has vetted them. The classification of the
//! built layouts is the `analyze` binary's job.

use std::collections::VecDeque;
use std::process::ExitCode;

use oslay::{Study, StudyConfig};
use oslay_bench::parse_run_args;
use oslay_cache::CacheConfig;
use oslay_layout::{optimize_os, BlockClass, OptLayout, OptParams};
use oslay_model::{Domain, Program, RoutineId};
use oslay_verify::{
    predict_conflicts, verify, verify_structural, LayoutView, OptContext, VerifyInput, VerifyReport,
};

#[derive(Clone, Debug)]
struct LintArgs {
    config: StudyConfig,
    layouts: Vec<String>,
    layout_file: Option<std::path::PathBuf>,
    json: bool,
    deny_warnings: bool,
    mutate: Option<String>,
    predict: bool,
    top: usize,
}

const ALL_LAYOUTS: [&str; 6] = ["base", "ch", "opts", "optl", "opta", "call"];

fn parse_args() -> LintArgs {
    let mut layouts: Vec<String> = Vec::new();
    let mut layout_file: Option<std::path::PathBuf> = None;
    let mut json = false;
    let mut deny_warnings = false;
    let mut mutate: Option<String> = None;
    let mut predict = false;
    let mut top = 10usize;
    let argv: VecDeque<String> = std::env::args().skip(1).collect();
    let args = parse_run_args(argv, StudyConfig::small(), |arg, rest| match arg {
        "--layout" => {
            let v = rest.pop_front().expect("--layout needs a value");
            if v == "all" {
                layouts = ALL_LAYOUTS.iter().map(|s| (*s).to_owned()).collect();
            } else {
                assert!(
                    ALL_LAYOUTS.contains(&v.as_str()),
                    "unknown layout {v:?} (base|ch|opts|optl|opta|call|all)"
                );
                layouts.push(v);
            }
            true
        }
        "--layout-file" => {
            let v = rest.pop_front().expect("--layout-file needs a path");
            layout_file = Some(v.into());
            true
        }
        "--json" => {
            json = true;
            true
        }
        "--deny" => {
            let v = rest.pop_front().expect("--deny needs a value");
            assert_eq!(v, "warnings", "only `--deny warnings` is supported");
            deny_warnings = true;
            true
        }
        "--mutate" => {
            let v = rest.pop_front().expect("--mutate needs a value");
            assert!(
                ["block-swap", "loop-shift", "scf-overlap"].contains(&v.as_str()),
                "unknown mutation {v:?} (block-swap|loop-shift|scf-overlap)"
            );
            mutate = Some(v);
            true
        }
        "--predict" => {
            predict = true;
            true
        }
        "--top" => {
            let v = rest.pop_front().expect("--top needs a value");
            top = v.parse().expect("--top must be an integer");
            true
        }
        _ => false,
    })
    .unwrap_or_else(|e| oslay_bench::exit_usage(&e));
    oslay_bench::apply_run_args(&args);
    // An explicit --layout-file lints only that file unless named
    // layouts were also requested.
    if layouts.is_empty() && layout_file.is_none() {
        layouts = ALL_LAYOUTS.iter().map(|s| (*s).to_owned()).collect();
    }
    LintArgs {
        config: args.config,
        layouts,
        layout_file,
        json,
        deny_warnings,
        mutate,
        predict,
        top,
    }
}

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

/// Loads an external layout file (`search --layout-out` format: a JSON
/// object with `"name"`, `"addr"` and `"size"` arrays) as a
/// [`LayoutView`].
fn load_layout_view(path: &std::path::Path) -> LayoutView {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--layout-file {}: {e}", path.display()));
    let doc = oslay_observe::json::parse(&text)
        .unwrap_or_else(|e| panic!("--layout-file {}: not JSON: {e}", path.display()));
    let field = |key: &str| {
        doc.get(key)
            .unwrap_or_else(|| panic!("--layout-file {}: missing {key:?}", path.display()))
    };
    let list = |key: &str| {
        field(key)
            .as_array()
            .unwrap_or_else(|| panic!("--layout-file {}: {key:?} must be an array", path.display()))
    };
    let name = field("name")
        .as_str()
        .unwrap_or_else(|| {
            panic!(
                "--layout-file {}: \"name\" must be a string",
                path.display()
            )
        })
        .to_owned();
    let addr: Vec<u64> = list("addr")
        .iter()
        .map(|v| {
            v.as_u64().unwrap_or_else(|| {
                panic!(
                    "--layout-file {}: \"addr\" entries must be non-negative integers",
                    path.display()
                )
            })
        })
        .collect();
    let size: Vec<u32> = list("size")
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .unwrap_or_else(|| {
                    panic!(
                        "--layout-file {}: \"size\" entries must be u32 integers",
                        path.display()
                    )
                })
        })
        .collect();
    assert_eq!(
        addr.len(),
        size.len(),
        "--layout-file {}: addr and size lengths differ",
        path.display()
    );
    LayoutView { name, addr, size }
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
    let args = parse_args();
    let study = Study::generate(&args.config);
    let program = &study.kernel().program;
    let cache_cfg = CacheConfig::paper_default();
    let cache_size = cache_cfg.size();
    let line = cache_cfg.line();

    let mut reports: Vec<VerifyReport> = Vec::new();

    if let Some(mutation) = &args.mutate {
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
        for which in &args.layouts {
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
                    if args.predict {
                        print_prediction(&study, &view.name.clone(), &view, args.top);
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
        if let Some(path) = &args.layout_file {
            // External layouts (e.g. `search --layout-out`) must both
            // re-assemble against the kernel program — which checks
            // block count, span validity and stretch accounting — and
            // pass the structural invariants on the view itself.
            let view = load_layout_view(path);
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
                Ok(_) => reports.push(verify_structural(program, &view)),
                Err(e) => {
                    eprintln!("lint: {}: does not assemble: {e}", path.display());
                    oslay_bench::flush_trace();
                    return ExitCode::FAILURE;
                }
            }
            // External layouts always get the full static treatment —
            // nothing else has vetted them.
            print_prediction(&study, &view.name.clone(), &view, args.top);
            if print_absint(&study, &view, cache_cfg) {
                oslay_bench::flush_trace();
                return ExitCode::FAILURE;
            }
        }
        if args.predict && args.layouts.iter().any(|l| l == "base") {
            let layout = oslay_layout::base_layout(program, 0);
            print_prediction(&study, "Base", &LayoutView::from_layout(&layout), args.top);
        }
    }

    let mut failed = false;
    for report in &reports {
        print_report(report, args.json);
        failed |= report.fails(args.deny_warnings);
    }
    if !args.json {
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
