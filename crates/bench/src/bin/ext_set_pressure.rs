//! Extension experiment: per-set conflict pressure.
//!
//! The paper argues spatially — its Figures 1 and 14 show miss peaks over
//! *code addresses*. The cache-side view of the same phenomenon is per-set
//! pressure: under `Base`, a few cache sets thrash (the peaks); under
//! `OptS`, equally-hot code is spread across sets and the SelfConfFree
//! sets go quiet. This binary measures per-set miss concentration and
//! imbalance for each layout.

use std::sync::Arc;

use oslay::analysis::report::{f, pct, TextTable};
use oslay::cache::CacheConfig;
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, run_attributed_layouts, Cli};
use oslay_observe::MetricRegistry;

fn main() {
    let args = Cli::study("ext_set_pressure").args().run();
    let config = args.config;
    banner(
        "Extension: per-set conflict pressure (8KB direct-mapped)",
        &config,
    );
    let study = Study::generate_with_threads(&config, args.threads);
    let cfg = CacheConfig::paper_default();
    let layouts: Vec<_> = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
    ]
    .into_iter()
    .map(|kind| (kind.name().to_owned(), study.os_layout(kind, cfg.size())))
    .collect();
    // The per-set counts come from the attribution reports; this binary
    // writes no run report, so the registry is discarded.
    let matrix = run_attributed_layouts(
        &study,
        &layouts,
        cfg,
        &SimConfig::fast(),
        args.threads,
        &Arc::new(MetricRegistry::new()),
    );

    for (case, row) in study.cases().iter().zip(&matrix) {
        println!("{}:", case.name());
        let mut table = TextTable::new([
            "layout",
            "misses",
            "top-8 sets hold",
            "top-32 sets hold",
            "imbalance (cv)",
            "SCF-set misses",
        ]);
        for ((name, os), (r, attr)) in layouts.iter().zip(row) {
            // Misses landing in the sets covered by the SelfConfFree area
            // (offsets [0, scf_bytes) of each frame).
            let scf_sets = (os.scf_bytes / u64::from(cfg.line())) as usize;
            let scf_misses: u64 = attr.set_misses[..scf_sets].iter().sum();
            table.row([
                name.clone(),
                r.stats.total_misses().to_string(),
                pct(attr.set_peak_share(8)),
                pct(attr.set_peak_share(32)),
                f(attr.set_imbalance(), 2),
                if os.scf_bytes == 0 {
                    "n/a".to_owned()
                } else {
                    scf_misses.to_string()
                },
            ]);
        }
        print!("{}", table.render());
        println!();
    }
    println!(
        "Expected shape: Base concentrates its misses in few sets (high cv, high top-8 \
         share); OptS spreads them (lower cv) and its SelfConfFree sets see almost no misses."
    );
    oslay_bench::flush_trace();
}
