//! Table 3: fraction of the operating-system instructions that belong to
//! loops without procedure calls, per workload.
//!
//! Paper: dynamically 28.9–39.4% of OS instructions; statically ~3% of the
//! executed code and 0.1–0.4% of all code.

use oslay::analysis::loops::loop_fractions;
use oslay::analysis::report::{pct, TextTable};
use oslay::profile::LoopAnalysis;
use oslay::Study;
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("tab03_loop_fraction").args().run().config;
    banner(
        "Table 3: OS instructions in loops without procedure calls",
        &config,
    );
    let study = Study::generate(&config);
    let program = &study.kernel().program;

    let mut table = TextTable::new([
        "Workload",
        "Dyn Loops/Dyn OS",
        "Static Loops/Exec'd OS",
        "Static Loops/Static OS",
        "#loops (no-call)",
        "#loops (call)",
    ]);
    for case in study.cases() {
        let la = LoopAnalysis::analyze(program, &case.os_profile);
        let fr = loop_fractions(program, &case.os_profile, &la);
        table.row([
            case.name().to_owned(),
            pct(fr.dynamic_fraction),
            pct(fr.static_executed_fraction),
            format!("{:.2}%", fr.static_total_fraction * 100.0),
            fr.num_call_free.to_string(),
            fr.num_with_calls.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!("Paper: 28.9-39.4% dynamic; ~3% of executed code; 0.1-0.4% of all code.");
    println!("Paper loop census (union): 156 loops without calls, 71 with calls.");
    oslay_bench::flush_trace();
}
