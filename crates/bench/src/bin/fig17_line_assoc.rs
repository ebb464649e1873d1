//! Figure 17: cache miss rates for (a) line sizes of 16–128 bytes and
//! (b) associativities of 1–8 ways, at a fixed 8 KB capacity, under Base,
//! C-H and OptS.
//!
//! Paper shape: the optimized layouts win everywhere; their relative gain
//! *grows* with line size (they expose spatial locality longer lines can
//! exploit: OptS removes 59% of the misses at 16-byte lines and 70% at
//! 128-byte lines) and *shrinks* with associativity (hardware removes some
//! of the same conflicts: 55% at direct-mapped, 41% at 8-way) — yet
//! direct-mapped OptS still beats 8-way Base.
//!
//! Each sweep's grid is evaluated in one trace pass per layout pair
//! (`run_sweep_single_pass`): sub-figure (a) spans four line sizes (four
//! banked tag arrays side by side), sub-figure (b) four associativities
//! sharing one bank per layout.

use std::sync::Arc;

use oslay::analysis::report::{pct, TextTable};
use oslay::cache::CacheConfig;
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, run_sweep_single_pass, AppSide, Cli, SweepPoint};
use oslay_layout::Layout;
use oslay_observe::MetricRegistry;

const KINDS: [OsLayoutKind; 3] = [
    OsLayoutKind::Base,
    OsLayoutKind::ChangHwu,
    OsLayoutKind::OptS,
];

fn sweep(study: &Study, configs: &[(String, CacheConfig)], threads: usize) {
    // Every config here keeps the same 8 KB capacity, so one memoized
    // layout per kind serves the whole grid.
    let layouts: Vec<Arc<Layout>> = KINDS
        .iter()
        .map(|&kind| Arc::new(study.os_layout(kind, configs[0].1.size()).layout))
        .collect();
    let mut points = Vec::new();
    for wi in 0..study.cases().len() {
        for (_, cfg) in configs {
            for os in &layouts {
                points.push(SweepPoint {
                    case: wi,
                    os: Arc::clone(os),
                    app: AppSide::Base,
                    cache: *cfg,
                });
            }
        }
    }
    let registry = Arc::new(MetricRegistry::new());
    let results = run_sweep_single_pass(study, points, &SimConfig::fast(), threads, &registry);

    let mut results = results.into_iter();
    let mut table = TextTable::new(["Workload/config", "Base", "C-H", "OptS", "OptS/Base"]);
    for case in study.cases() {
        for (label, _) in configs {
            let mut rate = || results.next().expect("one result per point").miss_rate();
            let b = rate();
            let ch = rate();
            let o = rate();
            table.row([
                format!("{} {label}", case.name()),
                pct(b),
                pct(ch),
                pct(o),
                format!("{:.2}", o / b),
            ]);
        }
    }
    print!("{}", table.render());
}

fn main() {
    let args = Cli::study("fig17_line_assoc").args().run();
    let config = args.config;
    banner(
        "Figure 17: line-size and associativity sweeps (8KB)",
        &config,
    );
    let study = Study::generate_with_threads(&config, args.threads);

    println!("(a) Line size (direct-mapped):");
    let lines: Vec<(String, CacheConfig)> = [16u32, 32, 64, 128]
        .iter()
        .map(|&l| (format!("{l}B-line"), CacheConfig::new(8192, l, 1)))
        .collect();
    sweep(&study, &lines, args.threads);
    println!();

    println!("(b) Associativity (32B lines):");
    let ways: Vec<(String, CacheConfig)> = [1u32, 2, 4, 8]
        .iter()
        .map(|&w| (format!("{w}-way"), CacheConfig::new(8192, 32, w)))
        .collect();
    sweep(&study, &ways, args.threads);
    oslay_bench::flush_trace();
}
