//! Extension experiment: per-set conflict pressure.
//!
//! The paper argues spatially — its Figures 1 and 14 show miss peaks over
//! *code addresses*. The cache-side view of the same phenomenon is per-set
//! pressure: under `Base`, a few cache sets thrash (the peaks); under
//! `OptS`, equally-hot code is spread across sets and the SelfConfFree
//! sets go quiet. This binary measures per-set miss concentration and
//! imbalance for each layout.

use oslay::analysis::report::{f, pct, TextTable};
use oslay::cache::{Cache, CacheConfig, SetCensus};
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("ext_set_pressure").args().run().config;
    banner(
        "Extension: per-set conflict pressure (8KB direct-mapped)",
        &config,
    );
    let study = Study::generate(&config);
    let cfg = CacheConfig::paper_default();

    for case in study.cases() {
        println!("{}:", case.name());
        let mut table = TextTable::new([
            "layout",
            "misses",
            "top-8 sets hold",
            "top-32 sets hold",
            "imbalance (cv)",
            "SCF-set misses",
        ]);
        for kind in [
            OsLayoutKind::Base,
            OsLayoutKind::ChangHwu,
            OsLayoutKind::OptS,
        ] {
            let os = study.os_layout(kind, cfg.size());
            let app = study.app_base_layout(case);
            let mut cache = SetCensus::new(Cache::new(cfg), cfg);
            let r = study.simulate(
                case,
                &os.layout,
                app.as_ref(),
                &mut cache,
                &SimConfig::fast(),
            );
            // Misses landing in the sets covered by the SelfConfFree area
            // (offsets [0, scf_bytes) of each frame).
            let scf_sets = (os.scf_bytes / u64::from(cfg.line())) as usize;
            let scf_misses: u64 = cache.set_misses()[..scf_sets].iter().sum();
            table.row([
                kind.name().to_owned(),
                r.stats.total_misses().to_string(),
                pct(cache.miss_concentration(8)),
                pct(cache.miss_concentration(32)),
                f(cache.miss_imbalance(), 2),
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
