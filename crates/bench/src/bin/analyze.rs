//! `analyze` — abstract-interpretation cache classification CLI.
//!
//! Runs the trace-free must/may/persistence analysis
//! (`oslay_verify::absint`) over the study's OS layouts, prints the
//! per-layout classification tables, and — with `--gate` — replays every
//! workload against every layout to prove the classes sound against
//! measured misses (zero on always-hit points, at most one per
//! persistent line, exactly one per execution on always-miss points).
//!
//! `analyze --help` lists the flags (generated from the flag table
//! below). `--mutate block-swap` swaps a proven always-hit block into the
//! most contended set and requires the analysis to withdraw at least one
//! always-hit guarantee; `--check FILE` re-validates an exported
//! `--class-out` JSON.
//!
//! Exit-code contract: `0` when the analysis is internally consistent
//! (and, with `--gate`, every replay check passes; with `--mutate`, the
//! mutation degrades at least one guarantee), `1` otherwise.

use std::collections::HashMap;
use std::process::ExitCode;

use oslay::{OsLayout, OsLayoutKind, SimConfig, Study};
use oslay_bench::absint_gate::{classify_study_layout, run_absint_gate, AbsintGateOutcome};
use oslay_bench::{banner, run_layout_search, Args, Cli, Flag, Kind, Reporter, FILE, INT};
use oslay_cache::CacheConfig;
use oslay_verify::{Classification, LayoutView, LineClass};

const ALL_LAYOUTS: [&str; 5] = ["base", "ch", "opts", "optl", "search"];

const LAYOUTS: Kind = Kind::Many(&Kind::Choice(&[
    "base", "ch", "opts", "optl", "search", "all",
]));

#[rustfmt::skip]
const CLI: Cli = Cli {
    name: "analyze",
    subcommands: &[],
    scale: Some("small"),
    flags: &[
        Flag("--layout", LAYOUTS, "all", "layouts to classify"),
        Flag("--gate", Kind::Switch, "", "replay-validate the classes (exit 1 on violation)"),
        Flag("--search-budget", INT, "8000", "proposals for the `search` layout"),
        Flag("--class-out", FILE, "", "export the classifications as JSON"),
        Flag("--check", FILE, "", "re-validate an exported JSON; exit 1 if inconsistent"),
        Flag("--mutate", Kind::Choice(&["block-swap"]), "", "require a block swap to be noticed"),
    ],
};

/// Builds the requested layouts in a stable display order.
fn build_layouts(study: &Study, flags: &Args, cfg: CacheConfig) -> Vec<(String, OsLayout)> {
    flags
        .expand_all("--layout", &ALL_LAYOUTS)
        .iter()
        .map(|which| match which.as_str() {
            "base" => (
                "Base".to_owned(),
                study.os_layout(OsLayoutKind::Base, cfg.size()),
            ),
            "ch" => (
                "ChangHwu".to_owned(),
                study.os_layout(OsLayoutKind::ChangHwu, cfg.size()),
            ),
            "opts" => (
                "OptS".to_owned(),
                study.os_layout(OsLayoutKind::OptS, cfg.size()),
            ),
            "optl" => (
                "OptL".to_owned(),
                study.os_layout(OsLayoutKind::OptL, cfg.size()),
            ),
            "search" => {
                let params = oslay_search::SearchParams {
                    budget: flags.num("--search-budget").unwrap_or_default(),
                    restarts: 1,
                    ..oslay_search::SearchParams::default()
                };
                let searched =
                    run_layout_search(study, cfg, &params, &SimConfig::fast(), flags.run().threads);
                ("Search".to_owned(), searched.os)
            }
            other => unreachable!("unknown layout {other}"),
        })
        .collect()
}

fn print_classification_table(classifications: &[(String, Classification)]) {
    println!(
        "{:<10} {:>10} {:>10} {:>11} {:>12} {:>9} {:>8} {:>6}",
        "layout",
        "always-hit",
        "persistent",
        "always-miss",
        "unclassified",
        "coverage",
        "iters",
        "havoc"
    );
    for (name, c) in classifications {
        println!(
            "{:<10} {:>9.1}% {:>9.1}% {:>10.1}% {:>11.1}% {:>8.1}% {:>8} {:>6}",
            name,
            100.0 * c.weighted_share(LineClass::AlwaysHit),
            100.0 * c.weighted_share(LineClass::Persistent),
            100.0 * c.weighted_share(LineClass::AlwaysMiss),
            100.0 * c.weighted_share(LineClass::Unclassified),
            100.0 * c.coverage(),
            c.iterations,
            c.havocked,
        );
    }
    println!();
    println!("point counts (block x line slot):");
    for (name, c) in classifications {
        println!(
            "  {:<10} ah {:>7}  persist {:>7}  miss {:>7}  unclass {:>7}  (blocks {:>6})",
            name, c.count[0], c.count[1], c.count[2], c.count[3], c.analyzed_blocks
        );
    }
}

fn print_gate_table(outcome: &AbsintGateOutcome) {
    println!();
    println!("soundness gate (measured replay vs static classes):");
    println!(
        "  {:<10} {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  verdict",
        "layout", "workload", "ah-pts", "ah-miss", "pers-ln", "pers-ex", "am-pts", "am-bad", "mcov"
    );
    for row in &outcome.rows {
        println!(
            "  {:<10} {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8.1}%  {}",
            row.layout,
            row.workload,
            row.ah_points,
            row.ah_misses,
            row.persistent_lines,
            row.persistent_excess,
            row.am_points,
            row.am_mismatch,
            100.0 * row.measured_coverage,
            if row.ok() { "ok" } else { "VIOLATION" }
        );
    }
}

/// Renders the classifications as the `--class-out` JSON document.
fn classifications_json(classifications: &[(String, Classification)]) -> String {
    let mut out = String::from("{\"version\":1,\"layouts\":[");
    for (i, (name, c)) in classifications.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"layout\":{:?},\"count\":[{}],\"weighted\":[{}],\"analyzed_blocks\":{},\"points\":[",
            name,
            c.count.map(|n| n.to_string()).join(","),
            c.weighted.map(|n| n.to_string()).join(","),
            c.analyzed_blocks,
        ));
        for (j, p) in c.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{},{},{},{},{}]",
                p.block,
                p.slot,
                p.line_addr,
                p.set,
                p.weight,
                p.class.index()
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Re-validates an exported classification JSON: the per-class count and
/// weight tallies must match the points list exactly. Returns the number
/// of layouts checked, or an error message.
fn check_classification_file(path: &std::path::Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = oslay_observe::json::parse(&text)
        .map_err(|e| format!("{}: not JSON: {e}", path.display()))?;
    let layouts = doc
        .get("layouts")
        .and_then(|v| v.as_array())
        .ok_or("missing \"layouts\" array")?;
    if layouts.is_empty() {
        return Err("empty \"layouts\" array".to_owned());
    }
    for entry in layouts {
        let name = entry
            .get("layout")
            .and_then(|v| v.as_str())
            .ok_or("layout entry without a name")?;
        let quad = |key: &str| -> Result<[u64; 4], String> {
            let arr = entry
                .get(key)
                .and_then(|v| v.as_array())
                .ok_or_else(|| format!("{name}: missing {key:?}"))?;
            if arr.len() != 4 {
                return Err(format!("{name}: {key:?} must have 4 entries"));
            }
            let mut out = [0u64; 4];
            for (i, v) in arr.iter().enumerate() {
                out[i] = v
                    .as_u64()
                    .ok_or_else(|| format!("{name}: {key:?}[{i}] not a u64"))?;
            }
            Ok(out)
        };
        let count = quad("count")?;
        let weighted = quad("weighted")?;
        let points = entry
            .get("points")
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("{name}: missing \"points\""))?;
        let mut tally_count = [0u64; 4];
        let mut tally_weight = [0u64; 4];
        for (i, p) in points.iter().enumerate() {
            let fields = p
                .as_array()
                .ok_or_else(|| format!("{name}: point {i} not an array"))?;
            if fields.len() != 6 {
                return Err(format!("{name}: point {i} must have 6 fields"));
            }
            let num = |j: usize| -> Result<u64, String> {
                fields[j]
                    .as_u64()
                    .ok_or_else(|| format!("{name}: point {i} field {j} not a u64"))
            };
            let class = num(5)? as usize;
            if class >= 4 {
                return Err(format!("{name}: point {i} has class index {class}"));
            }
            tally_count[class] += 1;
            tally_weight[class] += num(4)?;
        }
        if tally_count != count {
            return Err(format!(
                "{name}: \"count\" {count:?} does not match the points tally {tally_count:?}"
            ));
        }
        if tally_weight != weighted {
            return Err(format!(
                "{name}: \"weighted\" {weighted:?} does not match the points tally {tally_weight:?}"
            ));
        }
    }
    Ok(layouts.len())
}

/// Mutation mode: swap the heaviest proven always-hit block of OptS into
/// the most contended set and count withdrawn always-hit guarantees.
/// Returns `(degraded points, table printed)`.
fn run_mutation(study: &Study, cfg: CacheConfig) -> u64 {
    let os = study.os_layout(OsLayoutKind::OptS, cfg.size());
    let view = LayoutView::from_layout(&os.layout);
    let before = classify_study_layout(study, &view, cfg);

    // The victim: the heaviest always-hit point's block.
    let victim = before
        .points
        .iter()
        .filter(|p| p.class == LineClass::AlwaysHit)
        .max_by_key(|p| (p.weight, p.block))
        .expect("OptS has at least one always-hit point")
        .block as usize;
    // The target: any other block with a point in the set holding the
    // most distinct lines (the most contended set).
    let mut set_lines: HashMap<u32, u64> = HashMap::new();
    for p in &before.points {
        *set_lines.entry(p.set).or_insert(0) += 1;
    }
    let hot_set = set_lines
        .iter()
        .max_by_key(|&(set, n)| (*n, *set))
        .map(|(&set, _)| set)
        .expect("classification has points");
    let target = before
        .points
        .iter()
        .filter(|p| p.set == hot_set && p.block as usize != victim)
        .max_by_key(|p| (p.weight, p.block))
        .expect("the contended set has another block")
        .block as usize;

    let mut mutated = view.clone();
    mutated.name = format!("{}+block-swap", view.name);
    mutated.swap_addrs(victim, target);
    let after = classify_study_layout(study, &mutated, cfg);

    let after_class: HashMap<(u32, u32), LineClass> = after
        .points
        .iter()
        .map(|p| ((p.block, p.slot), p.class))
        .collect();
    let mut degraded = 0u64;
    for p in &before.points {
        if p.class != LineClass::AlwaysHit {
            continue;
        }
        match after_class.get(&(p.block, p.slot)) {
            Some(LineClass::AlwaysHit) => {}
            // Withdrawn (weaker class) or gone (fewer slots after the
            // swap changed the block's line span): both count.
            _ => degraded += 1,
        }
    }
    println!(
        "mutation block-swap: block {victim} <-> block {target} (set {hot_set}): \
         {degraded} always-hit guarantee(s) withdrawn"
    );
    println!(
        "  before: ah {:>7}  coverage {:>5.1}%   after: ah {:>7}  coverage {:>5.1}%",
        before.count[0],
        100.0 * before.coverage(),
        after.count[0],
        100.0 * after.coverage(),
    );
    degraded
}

fn main() -> ExitCode {
    let flags = CLI.args();
    let args = flags.run();

    // `--check` is standalone: validate the file and exit.
    if let Some(path) = flags.path("--check") {
        return match check_classification_file(&path) {
            Ok(n) => {
                println!("analyze --check: {n} layout(s) internally consistent");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("analyze --check: {e}");
                ExitCode::FAILURE
            }
        };
    }

    banner(
        "analyze: abstract-interpretation cache classification",
        &args.config,
    );
    let study = Study::generate_with_threads(&args.config, args.threads);
    let cfg = CacheConfig::paper_default();

    if flags.on("--mutate") {
        let degraded = run_mutation(&study, cfg);
        oslay_bench::flush_trace();
        return if degraded >= 1 {
            ExitCode::SUCCESS
        } else {
            eprintln!("analyze: mutation went unnoticed (0 guarantees withdrawn)");
            ExitCode::FAILURE
        };
    }

    let layouts = build_layouts(&study, &flags, cfg);
    let mut reporter = Reporter::new("analyze");
    let mut failed = false;

    let (classifications, gate) = if flags.on("--gate") {
        let outcome = run_absint_gate(&study, &layouts, cfg, args.threads);
        (outcome.classifications.clone(), Some(outcome))
    } else {
        let c = layouts
            .iter()
            .map(|(name, os)| {
                let mut view = LayoutView::from_layout(&os.layout);
                view.name.clone_from(name);
                (name.clone(), classify_study_layout(&study, &view, cfg))
            })
            .collect();
        (c, None)
    };

    print_classification_table(&classifications);
    for (name, c) in &classifications {
        if c.invariant_violations > 0 {
            eprintln!(
                "analyze: {name}: {} lattice invariant violation(s)",
                c.invariant_violations
            );
            failed = true;
        }
        reporter.add_section(
            &format!("absint.{name}"),
            LineClass::ALL
                .iter()
                .flat_map(|&cl| {
                    [
                        (format!("points_{}", cl.label()), c.count[cl.index()] as f64),
                        (
                            format!("weighted_{}", cl.label()),
                            c.weighted[cl.index()] as f64,
                        ),
                    ]
                })
                .chain([
                    ("coverage".to_owned(), c.coverage()),
                    ("iterations".to_owned(), c.iterations as f64),
                    ("havocked".to_owned(), f64::from(c.havocked)),
                    ("analyzed_blocks".to_owned(), f64::from(c.analyzed_blocks)),
                ]),
        );
    }

    if let Some(outcome) = &gate {
        print_gate_table(outcome);
        for row in &outcome.rows {
            reporter.add_section(
                &format!("absint_gate.{}.{}", row.layout, row.workload),
                [
                    ("ah_points", row.ah_points as f64),
                    ("ah_misses", row.ah_misses as f64),
                    ("persistent_lines", row.persistent_lines as f64),
                    ("persistent_excess", row.persistent_excess as f64),
                    ("am_points", row.am_points as f64),
                    ("am_mismatch", row.am_mismatch as f64),
                    ("measured_coverage", row.measured_coverage),
                    ("ok", f64::from(u8::from(row.ok()))),
                ],
            );
            failed |= !row.ok();
        }
        println!();
        if outcome.ok() {
            println!("soundness gate: PASS ({} replays)", outcome.rows.len());
        } else {
            println!("soundness gate: FAIL");
        }
    }

    if let Some(path) = flags.path("--class-out") {
        if let Err(e) = std::fs::write(&path, classifications_json(&classifications)) {
            eprintln!("analyze: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("classifications written: {}", path.display());
    }

    let report_path = reporter.finish();
    println!("report written: {}", report_path.display());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
