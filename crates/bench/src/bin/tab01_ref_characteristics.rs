//! Table 1: characteristics of the operating-system instruction
//! references, per workload, plus the all-workload union footprint.
//!
//! Paper values for comparison: executed OS code 31,866–122,710 bytes
//! (3.4–13.1% of the kernel, 3.6–13.4% of the basic blocks); union over
//! all workloads 18% of the code and 26% of the routines; invocation
//! mixes per Section 2.3 / Table 1.

use oslay::analysis::refchar::{mix_rows, ref_characteristics, union_footprint};
use oslay::analysis::report::{pct, TextTable};
use oslay::Study;
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("tab01_ref_characteristics").args().run().config;
    banner("Table 1: OS instruction-reference characteristics", &config);
    let study = Study::generate(&config);
    let program = &study.kernel().program;

    let mut table = TextTable::new([
        "OS Code Characteristics",
        "TRFD_4",
        "TRFD+Make",
        "ARC2D+Fsck",
        "Shell",
    ]);

    let rcs: Vec<_> = study
        .cases()
        .iter()
        .map(|c| ref_characteristics(program, &c.os_profile, &c.trace))
        .collect();

    let row = |label: &str, f: &dyn Fn(usize) -> String| {
        let mut cells = vec![label.to_owned()];
        cells.extend((0..4).map(f));
        cells
    };
    table.row(row("Size of Executed OS Code (Bytes)", &|i| {
        format!("{}", rcs[i].executed_bytes)
    }));
    table.row(row("Size of Executed OS Code (%)", &|i| {
        pct(rcs[i].executed_code_fraction)
    }));
    table.row(row("Number of Executed OS BBs (%)", &|i| {
        pct(rcs[i].executed_block_fraction)
    }));
    table.row(row("Invoked OS Routines (%)", &|i| {
        pct(rcs[i].invoked_routine_fraction)
    }));
    table.row(row("OS Share of References (%)", &|i| {
        pct(rcs[i].os_reference_share)
    }));
    for (k, kind) in oslay_model::SeedKind::ALL.iter().enumerate() {
        table.row(row(&format!("{kind} Invoc. (% of Total Invoc.)"), &|i| {
            format!("{:.1}%", mix_rows(rcs[i].invocation_mix)[k].1)
        }));
    }
    print!("{}", table.render());

    let union = union_footprint(program, study.cases().iter().map(|c| &c.os_profile));
    println!();
    println!(
        "Union of all workloads: {} of the OS code referenced, {} of the routines invoked ({} executed blocks).",
        pct(union.code_fraction),
        pct(union.routine_fraction),
        union.executed_blocks,
    );
    println!(
        "Paper: 18% of the code referenced, 26% of the routines invoked (~8,500 executed blocks)."
    );
    oslay_bench::flush_trace();
}
