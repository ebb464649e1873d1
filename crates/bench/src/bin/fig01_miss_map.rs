//! Figure 1: operating-system misses as a function of code address for
//! TRFD+Make on a 16 KB direct-mapped cache (the Alliant FX/8 geometry),
//! under the Base layout.
//!
//! Chart (a) total misses, (b) the self-interference component, (c) the
//! interference-with-application component, one data point per 1 KB of
//! code. Paper shape: misses cluster in a few sharp peaks, dominated by
//! self-interference (over 90% of OS misses); the two highest peaks are
//! the timer/multiply-divide conflict and the user-system-transition /
//! syscall-prologue conflict.

use oslay::analysis::figures::render_address_map;
use oslay::analysis::report::{bar_chart, pct};
use oslay::cache::{Cache, CacheConfig};
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, Cli};
use oslay_cache::MissKind;

fn main() {
    let config = Cli::study("fig01_miss_map").args().run().config;
    banner(
        "Figure 1: OS misses vs code address (TRFD+Make, 16KB direct-mapped, Base)",
        &config,
    );
    let study = Study::generate(&config);
    let case = &study.cases()[1]; // TRFD+Make
    let base = study.os_layout(OsLayoutKind::Base, CacheConfig::alliant().size());
    let app = study.app_base_layout(case);
    let mut cache = Cache::new(CacheConfig::alliant());
    let r = study.simulate(
        case,
        &base.layout,
        app.as_ref(),
        &mut cache,
        &SimConfig::full(),
    );

    let detail = r.detail.as_ref().unwrap();
    let (total, selfm, cross) = (
        &detail.miss_map,
        &detail.self_miss_map,
        &detail.cross_miss_map,
    );

    let os_misses = r.stats.domain_misses(oslay::model::Domain::Os);
    println!(
        "OS misses: {os_misses}  (self-interference {}, app-interference {}, cold {})",
        pct(r.stats.misses(MissKind::OsSelf) as f64 / os_misses as f64),
        pct(r.stats.misses(MissKind::OsByApp) as f64 / os_misses as f64),
        pct(r.stats.misses(MissKind::Cold) as f64 / os_misses as f64),
    );
    println!(
        "Miss concentration: top 5 one-KB ranges hold {} of all OS misses (paper: the two \
         dominant peaks alone hold 20-35%).",
        pct(total.peak_concentration(5)),
    );
    println!();

    for (label, map) in [
        ("(a) total OS misses", total),
        ("(b) self-interference", selfm),
        ("(c) interference with application", cross),
    ] {
        println!("{label}: {} misses", map.total());
        print!("{}", render_address_map(map, 96, 8));
        println!("top peaks:");
        let items: Vec<(String, f64)> = map
            .peaks(12)
            .into_iter()
            .map(|(addr, count)| (format!("{:#08x}", addr), count as f64))
            .collect();
        print!("{}", bar_chart(&items, 48));
        println!();
    }
    oslay_bench::flush_trace();
}
