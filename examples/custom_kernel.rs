//! Using the library on *your own* code model: build a miniature kernel
//! by hand with [`ProgramBuilder`], trace it, profile it, lay it out, and
//! measure the improvement. This is the workflow a downstream user would
//! follow to apply the paper's algorithm to a real system (with the
//! builder fed from their compiler's CFG dump instead of handwritten
//! blocks).
//!
//! The miniature kernel deliberately reproduces the paper's headline
//! pathology: two routines on the same hot path (a timer handler and the
//! software-multiply helper it calls) placed exactly one cache-size apart,
//! so they evict each other on every single invocation.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use oslay::cache::{Cache, CacheConfig};
use oslay::layout::{base_layout, optimize_os, OptParams};
use oslay::model::{
    BranchTarget, Domain, Program, ProgramBuilder, RoutineId, SeedKind, Terminator,
};
use oslay::profile::{LoopAnalysis, Profile};
use oslay::trace::{Engine, EngineConfig, TraceSink, WorkloadSpec};
use oslay::{Replayer, SimConfig};

/// One straight-line routine of `n` blocks of `size` bytes each.
fn straight(b: &mut ProgramBuilder, name: &str, n: usize, size: u32) -> RoutineId {
    let r = b.begin_routine(name);
    let blocks: Vec<_> = (0..n).map(|_| b.add_block(size)).collect();
    for pair in blocks.windows(2) {
        b.terminate(pair[0], Terminator::Jump(pair[1]));
    }
    b.terminate(*blocks.last().unwrap(), Terminator::Return);
    b.end_routine();
    r
}

fn build_kernel(cache_size: u32) -> Program {
    let mut b = ProgramBuilder::new(Domain::Os);

    // The callee: a software-multiply helper.
    let soft_mul = straight(&mut b, "soft_mul", 8, 24);

    // Padding so that `timer` lands exactly one cache size after
    // `soft_mul`: guaranteed conflict in a direct-mapped cache.
    let pad_blocks = (cache_size / 64) as usize;
    let _pad = straight(&mut b, "cold_padding", pad_blocks, 64 - 24 / 3);

    // The caller: a timer handler that calls soft_mul, with a rare error
    // path it normally branches around.
    let timer = b.begin_routine("timer");
    let entry = b.add_block(24);
    let hot = b.add_block(24);
    let rare = b.add_block(32);
    let call = b.add_block(16);
    let done = b.add_block(16);
    b.terminate(
        entry,
        Terminator::branch([
            BranchTarget::new(hot, 0.995),
            BranchTarget::new(rare, 0.005),
        ]),
    );
    b.terminate(hot, Terminator::Jump(call));
    b.terminate(rare, Terminator::Jump(call));
    b.terminate(
        call,
        Terminator::Call {
            callee: soft_mul,
            ret_to: done,
        },
    );
    b.terminate(done, Terminator::Return);
    b.end_routine();

    for kind in SeedKind::ALL {
        b.set_seed(kind, timer);
    }
    b.build().expect("custom kernel validates")
}

fn main() {
    let cache_cfg = CacheConfig::new(1024, 32, 1); // tiny cache, big effect
    let program = build_kernel(cache_cfg.size());
    println!(
        "Custom kernel: {} routines, {} blocks, {} bytes",
        program.num_routines(),
        program.num_blocks(),
        program.total_size()
    );

    // Trace it: every invocation is a timer interrupt.
    let spec = WorkloadSpec {
        name: "timer-storm".into(),
        invocation_mix: [1.0, 0.0, 0.0, 0.0],
        dispatch_weights: Default::default(),
        app_burst_mean: 0.0,
    };
    let trace = Engine::new(&program, None, &spec, EngineConfig::new(42)).run(50_000);
    let profile = Profile::collect(&program, &trace);
    let loops = LoopAnalysis::analyze(&program, &profile);
    println!(
        "Traced {} invocations; {} of {} blocks executed",
        trace.total_invocations(),
        profile.num_executed_blocks(),
        program.num_blocks()
    );

    // Replay against Base and against the paper's optimized layout.
    let mut results = Vec::new();
    for (label, layout) in [
        ("Base", base_layout(&program, 0)),
        (
            "OptS",
            optimize_os(
                &program,
                &profile,
                &loops,
                &OptParams::opt_s(cache_cfg.size()),
            )
            .layout,
        ),
    ] {
        let mut cache = Cache::new(cache_cfg);
        let mut replayer = Replayer::new(&layout, None, &mut cache, &SimConfig::fast());
        replayer.events(trace.events());
        let stats = replayer.finish().stats;
        let (misses, fetches) = (stats.total_misses(), stats.total_accesses());
        println!("  {label:<5} {misses:>7} misses / {fetches} fetches");
        results.push(misses);
    }
    let reduction = 100.0 * (1.0 - results[1] as f64 / results[0] as f64);
    println!();
    println!(
        "OptS removed {reduction:.0}% of the misses by placing the timer handler, the \
         multiply helper, and the rare error path so the hot call chain no longer aliases."
    );
    assert!(results[1] < results[0]);
}
