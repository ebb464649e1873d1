//! Beyond the paper: static classification vs the measured Figure-13
//! block classes.
//!
//! Figure 13 decomposes each workload's OS references and misses by the
//! block's *placement class* in the reference OptL layout (MainSeq,
//! SelfConfFree, Loop, OtherSeq). This experiment puts the
//! abstract-interpretation classifier next to those measurements: per
//! placement class, the share of weighted fetches the analysis *proves*
//! always-hit or persistent, against the share of measured misses the
//! attributed replay actually observed there.
//!
//! The two views must cohere: measured misses can only land in the
//! statically *unguaranteed* share (always-miss + unclassified, plus one
//! first-miss per persistent line), so a class whose guaranteed share is
//! high must show few measured misses. As a hard cross-check, blocks
//! whose every access point is proven always-hit are asserted to measure
//! zero misses in every workload — the soundness gate's claim at block
//! granularity.
//!
//! Writes `results/ext_absint_vs_measured.json` with sections
//! `absint_fig13.<layout>.<class>`.

use std::collections::HashMap;

use oslay::analysis::classify::FIG13_CLASSES;
use oslay::analysis::report::{pct, TextTable};
use oslay::cache::CacheConfig;
use oslay::layout::{optimize_os, BlockClass, OptParams};
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::absint_gate::classify_study_layout;
use oslay_bench::{banner, run_attributed_matrix, Cli, Reporter};
use oslay_verify::{LayoutView, LineClass};

fn class_label(c: BlockClass) -> &'static str {
    match c {
        BlockClass::MainSeq => "MainSeq",
        BlockClass::SelfConfFree => "SelfConfFree",
        BlockClass::Loop => "Loop",
        BlockClass::OtherSeq => "OtherSeq",
        BlockClass::Cold => "Cold",
    }
}

fn main() {
    let args = Cli::study("ext_absint_vs_measured").args().run();
    let config = args.config;
    banner(
        "Ext: static classification vs measured Figure-13 classes",
        &config,
    );
    let study = Study::generate_with_threads(&config, args.threads);
    let program = &study.kernel().program;
    let mut reporter = Reporter::new("ext_absint_vs_measured");
    let registry = reporter.registry();
    let cfg = CacheConfig::paper_default();

    // Placement classes are fixed by the block's type in the reference
    // OptL layout, exactly as Figure 13 does.
    let reference = optimize_os(
        program,
        study.averaged_os_profile(),
        study.os_loops(),
        &OptParams::opt_l(cfg.size()),
    );

    let kinds = [OsLayoutKind::Base, OsLayoutKind::OptS];
    let matrix = run_attributed_matrix(
        &study,
        &kinds,
        cfg,
        &SimConfig::full(),
        args.threads,
        &registry,
    );

    for (k, &kind) in kinds.iter().enumerate() {
        let view = LayoutView::from_layout(&study.os_layout(kind, cfg.size()).layout);
        let c = classify_study_layout(&study, &view, cfg);
        assert_eq!(c.invariant_violations, 0, "absint lattice violated");

        // Static weighted tallies per placement class, and the set of
        // blocks whose every point is proven always-hit.
        let mut static_guaranteed: HashMap<BlockClass, u64> = HashMap::new();
        let mut static_total: HashMap<BlockClass, u64> = HashMap::new();
        let mut block_points: HashMap<u32, (u64, u64)> = HashMap::new(); // (ah points, points)
        for p in &c.points {
            let class = reference.class(oslay_model::BlockId::new(p.block as usize));
            *static_total.entry(class).or_insert(0) += p.weight;
            if matches!(p.class, LineClass::AlwaysHit | LineClass::Persistent) {
                *static_guaranteed.entry(class).or_insert(0) += p.weight;
            }
            let entry = block_points.entry(p.block).or_insert((0, 0));
            entry.1 += 1;
            if p.class == LineClass::AlwaysHit {
                entry.0 += 1;
            }
        }
        let fully_ah: Vec<u32> = block_points
            .iter()
            .filter(|&(_, &(ah, n))| n > 0 && ah == n)
            .map(|(&b, _)| b)
            .collect();

        // Measured misses per placement class, summed over workloads —
        // plus the hard zero-miss cross-check on fully always-hit blocks.
        let mut measured: HashMap<BlockClass, u64> = HashMap::new();
        let mut measured_total = 0u64;
        let mut fully_ah_misses = 0u64;
        for row in &matrix {
            let (r, _) = &row[k];
            let misses = r.os_block_misses.as_ref().expect("attributed replay");
            for (b, &m) in misses.iter().enumerate() {
                let class = reference.class(oslay_model::BlockId::new(b));
                *measured.entry(class).or_insert(0) += m;
                measured_total += m;
            }
            for &b in &fully_ah {
                fully_ah_misses += misses[b as usize];
            }
        }
        assert_eq!(
            fully_ah_misses,
            0,
            "{}: measured misses on fully always-hit blocks",
            kind.name()
        );

        println!(
            "{} — {} block(s) fully proven always-hit, 0 measured misses on them:",
            kind.name(),
            fully_ah.len()
        );
        let mut table = TextTable::new([
            "class",
            "static guaranteed",
            "static unguaranteed",
            "measured miss share",
        ]);
        for &class in &FIG13_CLASSES {
            let total = static_total.get(&class).copied().unwrap_or(0);
            let guaranteed = static_guaranteed.get(&class).copied().unwrap_or(0);
            let gshare = if total == 0 {
                0.0
            } else {
                guaranteed as f64 / total as f64
            };
            let mshare = if measured_total == 0 {
                0.0
            } else {
                measured.get(&class).copied().unwrap_or(0) as f64 / measured_total as f64
            };
            table.row([
                class_label(class).to_owned(),
                pct(gshare),
                pct(1.0 - gshare),
                pct(mshare),
            ]);
            reporter.add_section(
                &format!("absint_fig13.{}.{}", kind.name(), class_label(class)),
                [
                    ("static_guaranteed_share", gshare),
                    ("measured_miss_share", mshare),
                ],
            );
        }
        print!("{}", table.render());
        reporter.add_section(
            &format!("absint_fig13.{}.check", kind.name()),
            [
                ("fully_always_hit_blocks", fully_ah.len() as f64),
                ("fully_always_hit_measured_misses", fully_ah_misses as f64),
            ],
        );
        println!();
    }

    println!(
        "Reading: measured misses can only fall in the statically unguaranteed share \
         (plus one first-miss per persistent line); OptS shrinks both together."
    );
    let path = reporter.finish();
    println!("Run report: {}", path.display());
}
