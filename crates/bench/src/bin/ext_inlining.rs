//! Extension experiment: function inlining vs sequences (Section 4.1's
//! rejected alternative).
//!
//! "A possible alternative to our scheme could be function inlining. ...
//! Function inlining, however, expands the active code size and may
//! increase the chance of conflicts. Indeed, while Chen et al. limited
//! inlining to frequent routines only, their results revealed that
//! inlining may not be a stable and effective scheme."
//!
//! This binary inlines the kernel's hot call sites (like Chen et al.,
//! only frequent ones), re-traces the same workloads on the expanded
//! kernel, and compares C-H and OptS layouts of the inlined kernel
//! against plain OptS of the original.

use oslay::analysis::report::{pct, TextTable};
use oslay::cache::{Cache, CacheConfig};
use oslay::layout::{chang_hwu_layout, optimize_os, OptParams};
use oslay::model::transform::inline_calls;
use oslay::model::BlockId;
use oslay::profile::{LoopAnalysis, Profile};
use oslay::trace::{Engine, EngineConfig, TraceSink};
use oslay::{OsLayoutKind, Replayer, SimConfig, Study};
use oslay_bench::{banner, run_case, AppSide, Cli};

fn main() {
    let config = Cli::study("ext_inlining").args().run().config;
    banner(
        "Extension: function inlining vs sequences (8KB direct-mapped)",
        &config,
    );
    let study = Study::generate(&config);
    let program = &study.kernel().program;
    let profile = study.averaged_os_profile();
    let cfg = CacheConfig::paper_default();

    // Hot call sites: executed at least 0.05% of all block executions
    // ("limited inlining to frequent routines only").
    let total = profile.total_node_weight() as f64;
    let sites: Vec<BlockId> = program
        .blocks()
        .filter(|(id, blk)| {
            blk.terminator().callee().is_some() && profile.node_weight(*id) as f64 / total >= 0.0005
        })
        .map(|(id, _)| id)
        .collect();
    let (inlined, added) = inline_calls(program, &sites).expect("inlined kernel validates");
    println!(
        "Inlined {} hot call sites: +{} blocks, static size {} -> {} (+{}).",
        sites.len(),
        added,
        program.total_size(),
        inlined.total_size(),
        pct(inlined.total_size() as f64 / program.total_size() as f64 - 1.0),
    );
    println!();

    // Re-trace the inlined kernel under the same (OS-only) workloads and
    // collect its own profiles; then lay it out and replay.
    let mut table = TextTable::new([
        "Workload",
        "OptS (orig)",
        "C-H (inlined)",
        "OptS (inlined)",
        "active-size growth",
    ]);
    for (i, case) in study.cases().iter().enumerate() {
        if case.app.is_some() {
            continue; // compare on the OS-only workload for a clean read
        }
        // Plain OptS baseline on the original kernel.
        let orig = run_case(
            &study,
            case,
            OsLayoutKind::OptS,
            AppSide::Base,
            cfg,
            &SimConfig::fast(),
        );

        // Trace the inlined kernel with the same spec and engine seed.
        let mut engine = Engine::new(
            &inlined,
            None,
            &case.spec,
            EngineConfig::new(study.config().seed ^ (0x7_0000 + i as u64)),
        );
        let trace = engine.run(study.config().os_blocks);
        let iprofile = Profile::collect(&inlined, &trace);
        let iloops = LoopAnalysis::analyze(&inlined, &iprofile);

        let replay = |layout: &oslay::layout::Layout| {
            let mut cache = Cache::new(cfg);
            let mut replayer = Replayer::new(layout, None, &mut cache, &SimConfig::fast());
            replayer.events(trace.events());
            replayer.finish().stats.total_misses()
        };
        let ch_m = replay(&chang_hwu_layout(&inlined, &iprofile, 0));
        let opt = optimize_os(&inlined, &iprofile, &iloops, &OptParams::opt_s(cfg.size()));
        let opt_m = replay(&opt.layout);
        let growth = iprofile.executed_bytes(&inlined) as f64
            / case.os_profile.executed_bytes(program) as f64
            - 1.0;
        table.row([
            case.name().to_owned(),
            orig.stats.total_misses().to_string(),
            ch_m.to_string(),
            opt_m.to_string(),
            pct(growth),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "The paper's expectation: inlining grows the active code size, so the inlined \
         kernel's optimized layouts should not beat — and may lose to — plain OptS, whose \
         sequences interleave only the *hot* callee blocks at no size cost."
    );
    oslay_bench::flush_trace();
}
