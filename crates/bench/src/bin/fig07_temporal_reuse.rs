//! Figure 7: number of operating-system instruction words fetched between
//! two consecutive calls to the same routine within one OS invocation, for
//! the 10 most frequently invoked routines, averaged over the four
//! workloads.
//!
//! Paper: ≈ 25% probability of re-invocation within 100 instruction words,
//! ≈ 70% within 1,000; ≈ 9% of calls are the last in their invocation.

use oslay::analysis::report::{bar_chart, pct};
use oslay::analysis::temporal::ReuseDistance;
use oslay::Study;
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("fig07_temporal_reuse").args().run().config;
    banner(
        "Figure 7: reuse distance of the 10 hottest routines",
        &config,
    );
    let study = Study::generate(&config);
    let program = &study.kernel().program;

    let mut total_within_100 = 0.0;
    let mut total_within_1000 = 0.0;
    let mut total_last = 0.0;
    let mut per_workload = Vec::new();
    for case in study.cases() {
        let rd = ReuseDistance::measure(program, &case.os_profile, &case.trace, 10);
        total_within_100 += rd.reuse_within(100.0);
        total_within_1000 += rd.reuse_within(1000.0);
        total_last += rd.last_invocation_fraction();
        per_workload.push((case.name(), rd));
    }
    let n = per_workload.len() as f64;
    println!(
        "Average over workloads: reuse within 100 words {}, within 1000 words {}, last-in-invocation {}",
        pct(total_within_100 / n),
        pct(total_within_1000 / n),
        pct(total_last / n),
    );
    println!("Paper: ~25% within 100 words, ~70% within 1000 words, ~9% last-in-invocation.");
    println!();

    for (name, rd) in &per_workload {
        println!(
            "{name}: {} calls measured; distance histogram (instruction words):",
            rd.total_calls
        );
        let mut items: Vec<(String, f64)> =
            rd.histogram.rows().map(|(l, c, _)| (l, c as f64)).collect();
        items.push(("Last Inv".to_owned(), rd.last_in_invocation as f64));
        print!("{}", bar_chart(&items, 40));
        println!();
    }
    oslay_bench::flush_trace();
}
