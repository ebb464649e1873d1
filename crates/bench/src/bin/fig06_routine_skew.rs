//! Figure 6: number of times each operating-system routine is invoked,
//! ranked most-to-least frequent and normalized to 100 invocations, per
//! workload.
//!
//! Paper: of ~600 routines executed, a few absorb most invocations —
//! tiny routines like lock handling, timer management, state save/restore,
//! TLB invalidation, block zeroing.

use oslay::analysis::report::{pct, TextTable};
use oslay::analysis::temporal::InvocationSkew;
use oslay::Study;
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("fig06_routine_skew").args().run().config;
    banner("Figure 6: routine invocation skew", &config);
    let study = Study::generate(&config);
    let program = &study.kernel().program;

    let mut table = TextTable::new(["Workload", "#invoked", "top-1", "top-5", "top-10", "top-20"]);
    for case in study.cases() {
        let skew = InvocationSkew::measure(program, &case.os_profile);
        table.row([
            case.name().to_owned(),
            skew.num_invoked().to_string(),
            pct(skew.top_share(1) / 100.0),
            pct(skew.top_share(5) / 100.0),
            pct(skew.top_share(10) / 100.0),
            pct(skew.top_share(20) / 100.0),
        ]);
    }
    print!("{}", table.render());
    println!();

    // Name the heavy hitters of the averaged profile, as the paper does.
    let skew = InvocationSkew::measure(program, study.averaged_os_profile());
    println!("Most invoked routines (averaged profile):");
    for (r, share) in skew.ranked.iter().take(12) {
        println!("  {:>5.1}%  {}", share, program.routine(*r).name());
    }
    oslay_bench::flush_trace();
}
