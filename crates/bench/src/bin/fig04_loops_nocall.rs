//! Figure 4: behaviour of the operating-system loops that do *not* call
//! procedures (union of all workloads): distribution of iterations per
//! invocation (left chart) and of the static size of the executed part
//! (right chart).
//!
//! Paper: 156 such loops; 50% execute ≤ 6 iterations per invocation and
//! ~75% execute ≤ 25; the largest spans only 300 bytes — caches have no
//! problem holding them, barring conflicts.

use oslay::analysis::loops::loop_shape;
use oslay::analysis::report::{bar_chart, pct};
use oslay::Study;
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("fig04_loops_nocall").args().run().config;
    banner("Figure 4: loops without procedure calls", &config);
    let study = Study::generate(&config);
    let shape = loop_shape(study.os_loops().executed_loops().filter(|l| !l.has_calls));

    println!("Executed call-free loops: {} (paper: 156)", shape.count);
    println!(
        "Median iterations/invocation: {:.1}; fraction <= 6: {}; fraction <= 25: {}",
        shape.median_iterations,
        pct(shape.iterations.cumulative_fraction(6.0)),
        pct(shape.iterations.cumulative_fraction(25.0)),
    );
    println!(
        "Median executed size: {:.0} bytes; fraction <= 300 bytes: {}",
        shape.median_size,
        pct(shape.sizes.cumulative_fraction(300.0)),
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
    println!("Executed static size (bytes):");
    let items: Vec<(String, f64)> = shape.sizes.rows().map(|(l, c, _)| (l, c as f64)).collect();
    print!("{}", bar_chart(&items, 40));
    oslay_bench::flush_trace();
}
