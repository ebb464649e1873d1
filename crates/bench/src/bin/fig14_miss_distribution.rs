//! Figure 14: distribution of operating-system misses as a function of the
//! code address (sum of all workloads, 8 KB direct-mapped cache), under
//! Base, C-H and OptS. For comparability across layouts, misses are mapped
//! back to the *Base* address of the missing block, exactly as the paper
//! plots routines "in the same sequence as they were in Base".
//!
//! Paper shape: C-H reduces the Base miss peaks; OptS flattens them
//! further, leaving only small peaks.
//!
//! Every simulation runs through the attribution engine; besides the
//! address-space chart this prints the per-set pressure heatmap (the
//! cache-index view of the same peaks) and writes the aggregated
//! compulsory/capacity/conflict split per layout to
//! `results/fig14_miss_distribution.json` (sections `fig14.<layout>`).

use oslay::analysis::figures::{render_address_map, render_set_heatmap};
use oslay::analysis::missmap::AddressHistogram;
use oslay::analysis::report::{bar_chart, pct};
use oslay::cache::CacheConfig;
use oslay::model::BlockId;
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, run_attributed_matrix, Cli, Reporter};
use oslay_observe::AttrClass;

fn main() {
    let args = Cli::study("fig14_miss_distribution").args().run();
    let config = args.config;
    banner(
        "Figure 14: OS miss distribution under Base, C-H, OptS",
        &config,
    );
    let study = Study::generate_with_threads(&config, args.threads);
    let base = study.os_layout(OsLayoutKind::Base, 8192);
    let mut reporter = Reporter::new("fig14_miss_distribution");
    let registry = reporter.registry();

    let kinds = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
    ];
    let matrix = run_attributed_matrix(
        &study,
        &kinds,
        CacheConfig::paper_default(),
        &SimConfig::full(),
        args.threads,
        &registry,
    );
    for (ki, &kind) in kinds.iter().enumerate() {
        let mut map = AddressHistogram::paper();
        let mut total_misses = 0u64;
        let mut class_misses = [0u64; 3];
        let mut set_misses: Option<Vec<u64>> = None;
        let mut matrix_total = 0u64;
        for (ci, _case) in study.cases().iter().enumerate() {
            let (r, attr) = &matrix[ci][ki];
            let misses = &r.detail.as_ref().unwrap().block_misses;
            for (i, &m) in misses.iter().enumerate() {
                if m > 0 {
                    // Plot at the block's Base address.
                    map.add_n(base.layout.addr(BlockId::new(i)), m);
                }
            }
            total_misses += r.stats.domain_misses(oslay::model::Domain::Os);
            for class in AttrClass::ALL {
                class_misses[class.index()] += attr.misses_of(class);
            }
            matrix_total += attr.matrix.total();
            match set_misses.as_mut() {
                Some(acc) => {
                    for (slot, &m) in acc.iter_mut().zip(&attr.set_misses) {
                        *slot += m;
                    }
                }
                None => set_misses = Some(attr.set_misses.clone()),
            }
        }
        println!(
            "{}: {} OS misses; peak 1-KB range {} misses; top-5 ranges hold {}:",
            kind.name(),
            total_misses,
            map.max_count(),
            pct(map.peak_concentration(5)),
        );
        print!("{}", render_address_map(&map, 96, 8));
        let items: Vec<(String, f64)> = map
            .peaks(10)
            .into_iter()
            .map(|(addr, count)| (format!("{addr:#08x}"), count as f64))
            .collect();
        print!("{}", bar_chart(&items, 48));
        let all_misses: u64 = class_misses.iter().sum();
        println!(
            "attribution (all domains): compulsory {}, capacity {}, conflict {} ({})",
            class_misses[AttrClass::Compulsory.index()],
            class_misses[AttrClass::Capacity.index()],
            class_misses[AttrClass::Conflict.index()],
            pct(class_misses[AttrClass::Conflict.index()] as f64 / all_misses.max(1) as f64),
        );
        if let Some(sets) = &set_misses {
            print!("{}", render_set_heatmap(sets, 96));
        }
        println!();
        let mut fields: Vec<(String, f64)> = AttrClass::ALL
            .iter()
            .map(|&c| (c.label().to_owned(), class_misses[c.index()] as f64))
            .collect();
        fields.push(("os_misses".to_owned(), total_misses as f64));
        fields.push(("matrix_total".to_owned(), matrix_total as f64));
        reporter.add_section(&format!("fig14.{}", kind.name()), fields);
    }
    let path = reporter.finish();
    println!("Run report: {}", path.display());
    oslay_bench::flush_trace();
}
