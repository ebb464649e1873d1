//! Figure 16: effect of the SelfConfFree-area size on the total number of
//! misses, for 4, 8 and 16 KB direct-mapped caches (32-byte lines). The
//! layouts compared are Base, no SelfConfFree area (`None`), and SCF areas
//! admitting blocks above 3.0%, 2.0% and 1.0% of the flattened executions.
//!
//! Paper shape: the 2.0% cut-off (≈ 1 KB of SCF) wins or ties in over half
//! the experiments; the 4 KB cache prefers the larger 1.0% area, the 16 KB
//! cache the smaller 3.0% one; paper SCF sizes: 0 / 376 / 1286 / 2514
//! bytes.
//!
//! The whole grid is evaluated in one trace pass per layout pair
//! (`run_sweep_single_pass`).

use std::sync::Arc;

use oslay::analysis::report::TextTable;
use oslay::cache::CacheConfig;
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, run_sweep_single_pass, AppSide, Cli, SweepPoint};
use oslay_observe::MetricRegistry;

fn main() {
    let args = Cli::study("fig16_selfconffree_size").args().run();
    let config = args.config;
    banner("Figure 16: SelfConfFree-area size sweep", &config);
    let study = Study::generate_with_threads(&config, args.threads);
    // The paper's 3.0% / 2.0% / 1.0% frequency cut-offs correspond to
    // SelfConfFree areas of 376 / 1286 / 2514 bytes on its kernel; the
    // sweep uses those byte budgets directly.
    let cutoffs: [(&str, Option<u32>); 4] = [
        ("None", None),
        ("3.0%", Some(376)),
        ("2.0%", Some(1286)),
        ("1.0%", Some(2514)),
    ];
    let sizes = [4096u32, 8192, 16384];

    // Memoize per cache size: the Base layout plus one OptS layout per
    // SCF cut-off, then fan every (case x layout) replay out as one
    // sweep. This binary keeps no run report, so the sweep's registry is
    // a throwaway.
    let mut points = Vec::new();
    let mut scf_notes = Vec::new();
    for &size in &sizes {
        let base = Arc::new(study.os_layout(OsLayoutKind::Base, size).layout);
        let mut layouts = vec![Arc::clone(&base)];
        let mut scf_bytes = Vec::new();
        for &(_, cutoff) in &cutoffs {
            let l = study.os_opt_s_with_scf(size, cutoff);
            scf_bytes.push(l.scf_bytes);
            layouts.push(Arc::new(l.layout));
        }
        scf_notes.push(scf_bytes);
        for wi in 0..study.cases().len() {
            for os in &layouts {
                points.push(SweepPoint {
                    case: wi,
                    os: Arc::clone(os),
                    app: AppSide::Base,
                    cache: CacheConfig::new(size, 32, 1),
                });
            }
        }
    }
    let registry = Arc::new(MetricRegistry::new());
    let results =
        run_sweep_single_pass(&study, points, &SimConfig::fast(), args.threads, &registry);

    let mut results = results.into_iter();
    for (si, &size) in sizes.iter().enumerate() {
        println!("{}KB cache:", size / 1024);
        let scf = &scf_notes[si];
        println!(
            "  SCF area bytes: None={}B 3%={}B 2%={}B 1%={}B  (paper: 0/376/1286/2514)",
            scf[0], scf[1], scf[2], scf[3]
        );
        let mut table = TextTable::new(["Workload", "Base", "None", "3.0%", "2.0%", "1.0%"]);
        for case in study.cases() {
            let base = results
                .next()
                .expect("one result per point")
                .stats
                .total_misses();
            let mut cells = vec![case.name().to_owned(), "100.0".into()];
            for _ in &cutoffs {
                let misses = results
                    .next()
                    .expect("one result per point")
                    .stats
                    .total_misses();
                cells.push(format!("{:.1}", misses as f64 / base as f64 * 100.0));
            }
            table.row(cells);
        }
        print!("{}", table.render());
        println!();
    }
    println!("(cells: misses normalized to Base = 100)");
    oslay_bench::flush_trace();
}
