//! Figure 12: normalized references and misses for the five optimization
//! levels (Base, C-H, OptS, OptL, OptA) on an 8 KB direct-mapped cache
//! with 32-byte lines.
//!
//! Paper shape: most misses are OS self-interference; C-H cuts total
//! misses to 43–62% of Base; OptS cuts further to 24–53% (≈ 25% below
//! C-H); OptL is a wash; OptA shaves another 4–19% where there is an
//! application.

use oslay::cache::CacheConfig;
use oslay::cache::MissKind;
use oslay::{SimConfig, Study};
use oslay_bench::{banner, figure12_ladder, run_figure12_matrix, Cli, Reporter};

fn main() {
    let args = Cli::study("fig12_optimization_levels").args().run();
    let config = args.config;
    banner(
        "Figure 12: miss breakdown by optimization level (8KB direct-mapped, 32B lines)",
        &config,
    );
    let mut reporter = Reporter::new("fig12_optimization_levels");
    let registry = reporter.registry();
    let study = Study::generate_with_threads(&config, args.threads);
    let cache = CacheConfig::paper_default();
    let matrix = run_figure12_matrix(&study, cache, &SimConfig::fast(), args.threads, &registry);

    // Left chart: reference breakdown.
    println!("References (fraction OS vs App):");
    for case in study.cases() {
        let os = case.trace.os_blocks() as f64;
        let total = case.trace.total_blocks() as f64;
        println!(
            "  {:<11} OS {:>5.1}%  App {:>5.1}%",
            case.name(),
            os / total * 100.0,
            (1.0 - os / total) * 100.0
        );
    }
    println!();

    // Right chart: misses per layout, normalized to Base, decomposed.
    for (case, row) in study.cases().iter().zip(&matrix) {
        println!("{}:", case.name());
        println!(
            "  {:<6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>6}",
            "layout", "misses", "os-self", "os-byapp", "app-self", "app-byos", "norm"
        );
        let mut base_misses = None;
        let mut level_rates = Vec::new();
        for ((name, _, _), r) in figure12_ladder().into_iter().zip(row) {
            let total = r.stats.total_misses();
            let base = *base_misses.get_or_insert(total);
            println!(
                "  {:<6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>5.1}%",
                name,
                total,
                r.stats.misses(MissKind::OsSelf),
                r.stats.misses(MissKind::OsByApp),
                r.stats.misses(MissKind::AppSelf),
                r.stats.misses(MissKind::AppByOs),
                total as f64 / base as f64 * 100.0,
            );
            level_rates.push((name, r.miss_rate()));
        }
        reporter.add_section(&format!("fig12.{}", case.name()), level_rates);
        println!();
    }
    let path = reporter.finish();
    println!("Run report: {}", path.display());
    oslay_bench::flush_trace();
}
