//! Figure 2: number of references to operating-system code as a function
//! of the code's address (Base layout), one data point per 1 KB, for all
//! four workloads.
//!
//! Paper shape: references are very unevenly distributed; each workload
//! touches a small fraction of the kernel; the peaks sit at similar
//! addresses across workloads (the popular routines are shared).

use oslay::analysis::missmap::AddressHistogram;
use oslay::analysis::report::{bar_chart, pct};
use oslay::model::fetch_words;
use oslay::{OsLayoutKind, Study};
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("fig02_ref_map").args().run().config;
    banner(
        "Figure 2: OS references vs code address (Base layout)",
        &config,
    );
    let study = Study::generate(&config);
    let base = study.os_layout(OsLayoutKind::Base, 8192);
    let program = &study.kernel().program;

    let mut maps = Vec::new();
    for case in study.cases() {
        let mut map = AddressHistogram::paper();
        for (id, block) in program.blocks() {
            let n = case.os_profile.node_weight(id);
            if n > 0 {
                map.add_n(
                    base.layout.addr(id),
                    n * u64::from(fetch_words(block.size())),
                );
            }
        }
        maps.push(map);
    }

    for (case, map) in study.cases().iter().zip(&maps) {
        println!(
            "{} — {} references across {} touched 1-KB ranges; top 10 ranges hold {}:",
            case.name(),
            map.total(),
            map.ranges().len(),
            pct(map.peak_concentration(10)),
        );
        let items: Vec<(String, f64)> = map
            .peaks(10)
            .into_iter()
            .map(|(addr, count)| (format!("{:#08x}", addr), count as f64))
            .collect();
        print!("{}", bar_chart(&items, 48));
        println!();
    }

    // Shared popular ranges: how many of each workload's top-10 ranges
    // appear in every other workload's touched set (the paper's "peaks are
    // in similar positions in the different charts").
    let mut shared = 0;
    let mut considered = 0;
    for (i, map) in maps.iter().enumerate() {
        for (addr, _) in map.peaks(10) {
            considered += 1;
            if maps
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .all(|(_, m)| m.ranges().iter().any(|&(a, _)| a == addr))
            {
                shared += 1;
            }
        }
    }
    println!(
        "Of the {considered} top-10 ranges across workloads, {shared} are touched by every \
         workload (popular routines are common to all)."
    );
    oslay_bench::flush_trace();
}
