//! Figure 3: distribution of the probability that an outgoing arc is
//! taken, over all measured arcs of the operating system (union of the
//! four workloads).
//!
//! Paper: 73.6% of the arcs have probability ≥ 0.99 and 6.9% have
//! probability ≤ 0.01 — control transfer is bimodal, hence sequences of
//! executed blocks are highly deterministic.

use oslay::analysis::arcs::ArcDeterminism;
use oslay::analysis::report::{bar_chart, pct};
use oslay::Study;
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("fig03_arc_determinism").args().run().config;
    banner("Figure 3: arc taken-probability distribution", &config);
    let study = Study::generate(&config);
    let d = ArcDeterminism::measure(study.averaged_os_profile());

    println!("Measured arcs: {}", d.total);
    println!(
        "Arcs with probability >= 0.99: {}   (paper: 73.6%)",
        pct(d.fraction_ge_99())
    );
    println!(
        "Arcs with probability <= 0.01: {}   (paper: 6.9%)",
        pct(d.fraction_le_01())
    );
    println!();

    let fractions = d.bucket_fractions();
    let items: Vec<(String, f64)> = fractions
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            (
                format!("({:.2},{:.2}]", i as f64 * 0.05, (i + 1) as f64 * 0.05),
                f,
            )
        })
        .collect();
    print!("{}", bar_chart(&items, 50));
    oslay_bench::flush_trace();
}
