//! Figure 15: (a) total instruction miss rates for 4–32 KB direct-mapped
//! caches with 32-byte lines under Base, C-H and OptS; (b) estimated
//! execution speed increase of OptS over Base under the simple model of
//! Section 5.2 (miss penalties of 10, 30 and 50 cycles).
//!
//! Paper shape: Base miss rate 0.87–6.75%; C-H removes 39–60% of it; OptS
//! removes a further 19–38% of C-H's remainder for 4–16 KB caches and ties
//! C-H at 32 KB (the cache then holds the working set); with a 30-cycle
//! penalty the speedups are in the 10–25% range, peaking at 8 KB.
//!
//! The whole grid is evaluated in one trace pass per layout pair
//! (`run_sweep_single_pass`).

use std::sync::Arc;

use oslay::analysis::report::{f, pct, TextTable};
use oslay::cache::CacheConfig;
use oslay::perf::ExecTimeModel;
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, run_sweep_single_pass, AppSide, Cli, Reporter, SweepPoint};

fn main() {
    let args = Cli::study("fig15_cache_size_speedup").args().run();
    let config = args.config.clone();
    banner("Figure 15: miss rate vs cache size; speedup model", &config);
    let mut reporter = Reporter::new("fig15_cache_size_speedup");
    let registry = reporter.registry();
    let study = Study::generate_with_threads(&config, args.threads);
    let sizes = [4096u32, 8192, 16384, 32768];
    let kinds = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
    ];

    // One OS layout per (kind, size), shared by every workload's points;
    // building a layout costs far more than replaying through it.
    let mut points = Vec::new();
    for &size in &sizes {
        let cfg = CacheConfig::new(size, 32, 1);
        let layouts = kinds.map(|kind| Arc::new(study.os_layout(kind, size).layout));
        for wi in 0..study.cases().len() {
            for os in &layouts {
                points.push(SweepPoint {
                    case: wi,
                    os: Arc::clone(os),
                    app: AppSide::Base,
                    cache: cfg,
                });
            }
        }
    }
    let results =
        run_sweep_single_pass(&study, points, &SimConfig::fast(), args.threads, &registry);

    // miss_rate[size][workload][layout]
    let mut rates = vec![vec![[0.0f64; 3]; study.cases().len()]; sizes.len()];
    let mut results = results.into_iter();
    for (si, &size) in sizes.iter().enumerate() {
        for (wi, case) in study.cases().iter().enumerate() {
            for slot in rates[si][wi].iter_mut() {
                *slot = results.next().expect("one result per point").miss_rate();
            }
            let [b, ch, opt] = rates[si][wi];
            reporter.add_section(
                &format!("fig15a.{}.{}KB", case.name(), size / 1024),
                [("Base", b), ("C-H", ch), ("OptS", opt)],
            );
        }
    }

    println!("(a) Total instruction miss rates:");
    let mut table = TextTable::new([
        "Workload/size",
        "Base",
        "C-H",
        "OptS",
        "C-H/Base",
        "OptS/C-H",
    ]);
    for (wi, case) in study.cases().iter().enumerate() {
        for (si, &size) in sizes.iter().enumerate() {
            let [b, ch, opt] = rates[si][wi];
            table.row([
                format!("{} {}KB", case.name(), size / 1024),
                pct(b),
                pct(ch),
                pct(opt),
                f(ch / b, 2),
                f(opt / ch, 2),
            ]);
        }
    }
    print!("{}", table.render());
    println!();

    println!("(b) Estimated speed increase of OptS over Base (Section 5.2 model):");
    let mut table = TextTable::new([
        "Workload/size",
        "10-cycle penalty",
        "30-cycle penalty",
        "50-cycle penalty",
    ]);
    for (wi, case) in study.cases().iter().enumerate() {
        for (si, &size) in sizes.iter().enumerate() {
            let [b, _, opt] = rates[si][wi];
            let mut cells = vec![format!("{} {}KB", case.name(), size / 1024)];
            let mut fields = Vec::new();
            for p in ExecTimeModel::PAPER_PENALTIES {
                let m = ExecTimeModel::paper(p);
                let gain = (m.speedup(b, opt) - 1.0) * 100.0;
                cells.push(format!("+{gain:.1}%"));
                fields.push((format!("penalty{p:.0}_pct"), gain));
            }
            reporter.add_section(&format!("fig15b.{}.{}KB", case.name(), size / 1024), fields);
            table.row(cells);
        }
    }
    print!("{}", table.render());
    println!();
    let path = reporter.finish();
    println!("Run report: {}", path.display());
    oslay_bench::flush_trace();
}
