//! Figure 13: classification of the operating-system references and misses
//! by placement class — MainSeq (sequences with `ExecThresh ≥ 0.01%`),
//! SelfConfFree, Loops, OtherSeq — for Base, C-H, OptS and OptL on the
//! 8 KB direct-mapped cache.
//!
//! Paper shape: MainSeq + SelfConfFree hold 50–65% of the references for
//! three workloads (Shell is OtherSeq-dominated), and 67–83% of the Base
//! misses (33% for Shell); loops cause practically no misses; OptS pushes
//! the MainSeq misses below C-H and eliminates the SelfConfFree misses.
//!
//! Every simulation runs through the attribution engine, so
//! `results/fig13_block_classes.json` additionally carries the
//! compulsory/capacity/conflict split and the measured census per layout
//! (sections `fig13.<workload>.<layout>`).

use oslay::analysis::classify::class_breakdown;
use oslay::analysis::report::{pct, TextTable};
use oslay::cache::CacheConfig;
use oslay::layout::{optimize_os, OptParams};
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, run_attributed_matrix, Cli, Reporter};

fn main() {
    let args = Cli::study("fig13_block_classes").args().run();
    let config = args.config;
    banner("Figure 13: references and misses by block class", &config);
    let study = Study::generate_with_threads(&config, args.threads);
    let program = &study.kernel().program;
    let mut reporter = Reporter::new("fig13_block_classes");
    let registry = reporter.registry();

    // Classes are fixed by the block's type in OptL, as in the paper.
    let reference = optimize_os(
        program,
        study.averaged_os_profile(),
        study.os_loops(),
        &OptParams::opt_l(8192),
    );

    let kinds = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
        OsLayoutKind::OptL,
    ];
    let matrix = run_attributed_matrix(
        &study,
        &kinds,
        CacheConfig::paper_default(),
        &SimConfig::full(),
        args.threads,
        &registry,
    );
    for (case, row) in study.cases().iter().zip(&matrix) {
        println!("{}:", case.name());
        let mut table = TextTable::new([
            "layout",
            "MainSeq refs",
            "SCF refs",
            "Loop refs",
            "OtherSeq refs",
            "MainSeq miss",
            "SCF miss",
            "Loop miss",
            "OtherSeq miss",
        ]);
        for (&kind, (r, attr)) in kinds.iter().zip(row) {
            let bd = class_breakdown(
                program,
                &case.os_profile,
                &reference,
                r.os_block_misses.as_ref().unwrap(),
            );
            let mut cells = vec![kind.name().to_owned()];
            cells.extend(bd.rows.iter().map(|&(_, refs, _)| pct(refs)));
            cells.extend(bd.rows.iter().map(|&(_, _, miss)| pct(miss)));
            table.row(cells);
            reporter.add_section(
                &format!("fig13.{}.{}", case.name(), kind.name()),
                attr.section_fields(),
            );
        }
        print!("{}", table.render());
        println!();
    }
    let path = reporter.finish();
    println!("Run report: {}", path.display());
    oslay_bench::flush_trace();
}
