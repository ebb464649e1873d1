//! Extension experiment (beyond the paper's artifacts): a database-like
//! workload.
//!
//! The paper could not run a database load but notes that `Shell` "has
//! some similarity with database loads in that both loads have heavy
//! system call activity". This experiment constructs an OLTP-flavoured
//! workload — transaction processing = read/write/lseek-dominated syscall
//! traffic plus device interrupts, with a checker-style application doing
//! the user-level work — and asks whether the paper's conclusions carry
//! over: does the layout built from the *standard* profile (which never
//! saw this workload) still help it?

use std::collections::BTreeMap;

use oslay::analysis::report::{pct, TextTable};
use oslay::cache::{Cache, CacheConfig};
use oslay::model::synth::{generate_app_mix, AppKind, AppParams};
use oslay::profile::Profile;
use oslay::trace::{Engine, EngineConfig, SyscallProfile, TraceSink, WorkloadSpec};
use oslay::{OsLayoutKind, Replayer, SimConfig, Study};
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("ext_database_workload").args().run().config;
    banner("Extension: database-like (OLTP) workload", &config);
    let study = Study::generate(&config);
    let kernel = study.kernel();

    // OLTP: syscall-bound with disk-interrupt pressure and some paging.
    let tables = &kernel.tables;
    let mut dispatch_weights = BTreeMap::new();
    dispatch_weights.insert(
        tables.interrupt,
        normalize(
            vec![0.35, 0.05, 0.10, 0.05, 0.40, 0.05],
            tables.interrupt_arity,
        ),
    );
    dispatch_weights.insert(
        tables.fault,
        normalize(vec![0.55, 0.05, 0.25, 0.05, 0.10], tables.fault_arity),
    );
    dispatch_weights.insert(
        tables.other,
        normalize(vec![0.70, 0.05, 0.10, 0.15], tables.other_arity),
    );
    dispatch_weights.insert(
        tables.syscall,
        SyscallProfile::ScientificIo.weights(tables.syscall_arity),
    );
    let spec = WorkloadSpec {
        name: "OLTP".into(),
        invocation_mix: [0.35, 0.10, 0.52, 0.03],
        dispatch_weights,
        app_burst_mean: 180.0,
    };
    let app = generate_app_mix(
        &[(AppKind::Utility, 0.7), (AppKind::Compiler, 0.3)],
        &AppParams::new(config.seed ^ 0xD8).with_scale(config.app_scale),
    );
    let mut engine = Engine::new(
        &kernel.program,
        Some(&app),
        &spec,
        EngineConfig::new(config.seed ^ 0xD87),
    );
    let trace = engine.run(config.os_blocks);
    let os_profile = Profile::collect(&kernel.program, &trace);
    println!(
        "OLTP trace: {} OS blocks, OS share {}, executed footprint {} bytes",
        trace.os_blocks(),
        pct(trace.os_blocks() as f64 / trace.total_blocks() as f64),
        os_profile.executed_bytes(&kernel.program),
    );
    println!();

    // Replay the OLTP trace against layouts built from the four *standard*
    // workloads' averaged profile — the cross-workload generalization
    // question.
    let cfg = CacheConfig::paper_default();
    let app_base = oslay::layout::base_layout(&app, oslay::layout::APP_BASE);
    let mut table = TextTable::new(["layout", "misses", "miss rate", "norm"]);
    let mut base_misses = None;
    for kind in [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
    ] {
        let os = study.os_layout(kind, cfg.size());
        let mut cache = Cache::new(cfg);
        let mut replayer =
            Replayer::new(&os.layout, Some(&app_base), &mut cache, &SimConfig::fast());
        replayer.events(trace.events());
        let stats = replayer.finish().stats;
        let (misses, accesses) = (stats.total_misses(), stats.total_accesses());
        let base = *base_misses.get_or_insert(misses);
        table.row([
            kind.name().to_owned(),
            misses.to_string(),
            pct(misses as f64 / accesses as f64),
            format!("{:.1}%", misses as f64 / base as f64 * 100.0),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "The layouts were built from the four standard workloads only; the OLTP mix was \
         never profiled. The paper's claim that the popular kernel paths are shared across \
         workloads predicts the optimized layouts still help — the table above tests that."
    );
    oslay_bench::flush_trace();
}

fn normalize(mut w: Vec<f64>, arity: usize) -> Vec<f64> {
    let min = w.iter().copied().fold(f64::INFINITY, f64::min).max(1e-6);
    w.resize(arity, min);
    let total: f64 = w.iter().sum();
    for x in &mut w {
        *x /= total;
    }
    w
}
