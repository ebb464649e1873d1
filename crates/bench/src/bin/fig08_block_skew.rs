//! Figure 8: number of times each operating-system basic block is invoked
//! (union of all four workloads), ranked and normalized, with loops
//! flattened to one iteration per invocation to remove their distortion.
//!
//! Paper: of ~8,500 executed blocks, 22 are executed more than 3.0% of the
//! total invocations each, 157 more than 1.0%, while nearly 6,000 are
//! executed less than 0.01%; the top block reaches 5%.

use oslay::analysis::report::bar_chart;
use oslay::analysis::temporal::BlockSkew;
use oslay::Study;
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("fig08_block_skew").args().run().config;
    banner(
        "Figure 8: basic-block invocation skew (loops flattened)",
        &config,
    );
    let study = Study::generate(&config);
    let skew = BlockSkew::measure(study.averaged_os_profile(), study.os_loops());

    let n = skew.ranked.len();
    println!("Executed blocks (union): {n} (paper: ~8,500)");
    println!(
        "Top block share: {:.1}% (paper: ~5%)",
        skew.ranked.first().map_or(0.0, |&(_, p)| p)
    );
    println!(
        "Blocks above 3.0%: {} (paper: 22); above 1.0%: {} (paper: 157)",
        skew.blocks_above(3.0),
        skew.blocks_above(1.0)
    );
    let below = skew.ranked.iter().filter(|&&(_, p)| p < 0.01).count();
    println!("Blocks below 0.01%: {below} (paper: ~6,000 of 8,500)");
    println!();

    println!("Top 20 blocks (share of flattened invocations):");
    let program = &study.kernel().program;
    let items: Vec<(String, f64)> = skew
        .ranked
        .iter()
        .take(20)
        .map(|&(b, p)| {
            let routine = program.routine(program.block(b).routine()).name();
            (format!("{b} ({routine})"), p)
        })
        .collect();
    print!("{}", bar_chart(&items, 40));
    oslay_bench::flush_trace();
}
