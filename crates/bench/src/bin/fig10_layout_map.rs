//! Figure 10: the optimized layout of the code in memory — printed from
//! the actual `OptL` layout rather than drawn as a diagram.
//!
//! Paper structure to verify: the SelfConfFree area occupies the bottom of
//! logical cache 0 and holds the hottest blocks; sequences fill the rest
//! of the logical caches in decreasing popularity, skipping every later
//! logical cache's SelfConfFree window (which holds seldom-executed code);
//! the loop area sits at the end of the sequences; the rest of memory is
//! rarely- or never-executed code.

use oslay::analysis::report::{kb, pct};
use oslay::layout::{layout_regions, optimize_os, render_regions, BlockClass, OptParams};
use oslay::Study;
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("fig10_layout_map").args().run().config;
    banner(
        "Figure 10: optimized memory layout (OptL, 8KB logical caches)",
        &config,
    );
    let study = Study::generate(&config);
    let program = &study.kernel().program;
    let opt = optimize_os(
        program,
        study.averaged_os_profile(),
        study.os_loops(),
        &OptParams::opt_l(8192),
    );

    let regions = layout_regions(program, &opt);
    println!(
        "SelfConfFree area: {} ({} blocks)",
        kb(opt.scf_bytes),
        regions
            .iter()
            .filter(|r| r.class == BlockClass::SelfConfFree)
            .map(|r| r.blocks)
            .sum::<usize>()
    );
    let hot_end = regions
        .iter()
        .filter(|r| {
            matches!(
                r.class,
                BlockClass::MainSeq | BlockClass::OtherSeq | BlockClass::Loop
            )
        })
        .map(|r| r.end)
        .max()
        .unwrap_or(0);
    println!(
        "Hot region (SCF + sequences + loop area): {} spanning {} logical caches",
        kb(hot_end),
        hot_end.div_ceil(8192)
    );
    let total: u64 = regions
        .iter()
        .map(oslay::layout::RegionSummary::bytes)
        .sum();
    let cold: u64 = regions
        .iter()
        .filter(|r| r.class == BlockClass::Cold)
        .map(oslay::layout::RegionSummary::bytes)
        .sum();
    println!(
        "Cold code: {} of the image ({}) — fills the SCF windows and the tail",
        pct(cold as f64 / total as f64),
        kb(cold)
    );
    println!();

    // Print the first 40 regions (the interesting hot structure) and a
    // tail summary.
    let head: Vec<_> = regions.iter().take(40).cloned().collect();
    print!("{}", render_regions(&head));
    if regions.len() > 40 {
        println!(
            "... {} more regions (cold bulk up to {:#x})",
            regions.len() - 40,
            regions.last().unwrap().end
        );
    }
    oslay_bench::flush_trace();
}
