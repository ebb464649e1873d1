//! Table 2: predictability and weight of the core (≈ 8 KB) and regular
//! (≈ 16 KB) sequence families, per workload.
//!
//! Paper: core sequences (471 BBs over 61 routines, ~7.8 KB) have
//! P(stay in family) 0.95–0.99 and P(go to the next block of the same
//! sequence) 0.71–0.77; they hold 7–28% of executed blocks, 23–67% of
//! references and 35–75% of misses. Regular sequences (832 BBs, 89
//! routines, ~14.5 KB): 0.96–0.98 / 0.77–0.79, 13–38% of blocks, 38–74%
//! of references, 57–88% of misses.

use oslay::analysis::report::{f, pct, TextTable};
use oslay::analysis::spatial::{characterize_sequences, sequences_within_budget};
use oslay::cache::{Cache, CacheConfig};
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("tab02_sequences").args().run().config;
    banner("Table 2: sequence predictability and weight", &config);
    let study = Study::generate(&config);
    let program = &study.kernel().program;
    let avg = study.averaged_os_profile();

    // Miss counts per workload under the Base layout (8 KB DM, 32 B).
    let base = study.os_layout(OsLayoutKind::Base, 8192);
    let miss_counts: Vec<Vec<u64>> = study
        .cases()
        .iter()
        .map(|case| {
            let app = study.app_base_layout(case);
            let mut cache = Cache::new(CacheConfig::paper_default());
            study
                .simulate(
                    case,
                    &base.layout,
                    app.as_ref(),
                    &mut cache,
                    &SimConfig::full(),
                )
                .os_block_misses
                .expect("block misses requested")
        })
        .collect();

    for (label, budget) in [("Core", 8 * 1024_u64), ("Regular", 16 * 1024_u64)] {
        let family = sequences_within_budget(program, avg, budget);
        let probe = characterize_sequences(program, avg, &family, None);
        println!(
            "{label} sequences: {} BBs spanning {} routines, {:.1} KB",
            probe.num_blocks,
            probe.num_routines,
            probe.bytes as f64 / 1024.0
        );
        let mut table = TextTable::new([
            "Workload",
            "P(any in seq)",
            "P(next in seq)",
            "Static BBs (%)",
            "Refs (%)",
            "Misses (%)",
        ]);
        for (case, misses) in study.cases().iter().zip(&miss_counts) {
            let c = characterize_sequences(program, &case.os_profile, &family, Some(misses));
            table.row([
                case.name().to_owned(),
                f(c.prob_any_in_seq, 2),
                f(c.prob_next_in_seq, 2),
                pct(c.static_block_fraction),
                pct(c.reference_fraction),
                pct(c.miss_fraction),
            ]);
        }
        print!("{}", table.render());
        println!();
    }
    oslay_bench::flush_trace();
}
