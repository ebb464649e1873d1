//! Figure 5: behaviour of the operating-system loops that *do* call
//! procedures (union of all workloads): iterations per invocation and the
//! static size of the executed part *including* the routines they call and
//! their descendants.
//!
//! Paper: 71 such loops; usually ≤ 10 iterations per invocation; median
//! executed span 2 KB, a few exceeding 16 KB — too large for small caches
//! to hold across iterations.

use oslay::analysis::loops::loop_shape;
use oslay::analysis::report::{bar_chart, pct};
use oslay::Study;
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("fig05_loops_call").args().run().config;
    banner("Figure 5: loops with procedure calls", &config);
    let study = Study::generate(&config);
    let shape = loop_shape(study.os_loops().executed_loops().filter(|l| l.has_calls));

    println!("Executed loops with calls: {} (paper: 71)", shape.count);
    println!(
        "Median iterations/invocation: {:.1}; fraction <= 10: {}",
        shape.median_iterations,
        pct(shape.iterations.cumulative_fraction(10.0)),
    );
    println!(
        "Median executed span (incl. callees): {:.1} KB; fraction > 16 KB: {}",
        shape.median_size / 1024.0,
        pct(1.0 - shape.sizes.cumulative_fraction(16384.0)),
    );
    println!();

    println!("Iterations per invocation:");
    let items: Vec<(String, f64)> = shape
        .iterations
        .rows()
        .map(|(l, c, _)| (l, c as f64))
        .collect();
    print!("{}", bar_chart(&items, 40));
    println!();
    println!("Executed span including callee closure (bytes):");
    let items: Vec<(String, f64)> = shape.sizes.rows().map(|(l, c, _)| (l, c as f64)).collect();
    print!("{}", bar_chart(&items, 40));
    oslay_bench::flush_trace();
}
