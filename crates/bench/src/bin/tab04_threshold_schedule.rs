//! Table 4: the descending `(ExecThresh, BranchThresh)` schedule and the
//! sequences it generates — for each pass and seed, the number of basic
//! blocks and bytes captured.
//!
//! Paper shape: the first pass (1.4%, 40%) captures a ~0.8 KB interrupt
//! sequence; successive passes lower both thresholds a decade at a time
//! and capture progressively larger, colder segments, until the (0,0)
//! pass sweeps up the remaining executed code.

use oslay::analysis::report::TextTable;
use oslay::layout::{build_sequences, ThresholdSchedule};
use oslay::model::SeedKind;
use oslay::Study;
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("tab04_threshold_schedule").args().run().config;
    banner(
        "Table 4: threshold schedule and resulting sequences",
        &config,
    );
    let study = Study::generate(&config);
    let schedule = ThresholdSchedule::paper();
    let seqs = build_sequences(
        &study.kernel().program,
        study.averaged_os_profile(),
        &schedule,
    );

    let mut table = TextTable::new(["ExecThresh", "Interrupt", "PageFault", "SysCall", "Other"]);
    for (pass_idx, pass) in schedule.passes.iter().enumerate() {
        // Row 1: branch thresholds; Row 2: blocks; Row 3: bytes.
        let mut bt_cells = vec![format!("{:.4}%", pass.exec * 100.0)];
        let mut bb_cells = vec!["  #BBs".to_owned()];
        let mut by_cells = vec!["  #Bytes".to_owned()];
        for kind in SeedKind::ALL {
            match pass.branch[kind.index()] {
                None => {
                    bt_cells.push("-".into());
                    bb_cells.push("-".into());
                    by_cells.push("-".into());
                }
                Some(bt) => {
                    let (blocks, bytes) = seqs
                        .sequences()
                        .iter()
                        .filter(|s| s.pass == pass_idx && s.seed == kind)
                        .fold((0usize, 0u64), |(b, y), s| {
                            (b + s.blocks.len(), y + s.bytes)
                        });
                    bt_cells.push(format!("BranchThresh {bt}"));
                    bb_cells.push(blocks.to_string());
                    by_cells.push(bytes.to_string());
                }
            }
        }
        table.row(bt_cells);
        table.row(bb_cells);
        table.row(by_cells);
    }
    print!("{}", table.render());
    println!();
    println!(
        "Total captured: {} blocks in {} sequences.",
        seqs.num_captured(),
        seqs.sequences().len()
    );
    oslay_bench::flush_trace();
}
