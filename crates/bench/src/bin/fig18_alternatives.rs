//! Figure 18: architectural and algorithmic alternatives at a fixed 8 KB
//! total budget (32-byte lines): `Sep` (cache split between OS and app),
//! `Resv` (1 KB reserved OS cache + main cache), and `Call` (the
//! Section 4.4 loops-with-callees placement), compared against Base and
//! OptA — plus the two software alternatives: `C-H` (Chang–Hwu applied
//! to both sides) and `Search` (the metaheuristic searched OS layout,
//! beyond the paper).
//!
//! Paper shape: Sep *increases* misses over OptA (halving capacity costs
//! more self-interference than cross-interference saved); Resv is roughly
//! a wash at much higher hardware cost; Call increases OS misses by
//! 20–100% over OptA (callee routines pulled out of the sequences lose
//! their spatial locality). The searched layout should land at or below
//! OptA's OS-side behavior on most workloads.

use oslay::analysis::report::TextTable;
use oslay::cache::{Cache, CacheConfig, InstructionCache, ReservedCache, SplitCache};
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, run_layout_search, Cli};
use oslay_search::SearchParams;

fn main() {
    let args = Cli::study("fig18_alternatives").args().run();
    let config = args.config;
    banner(
        "Figure 18: C-H / Sep / Resv / Call / Search alternatives (8KB budget)",
        &config,
    );
    let study = Study::generate_with_threads(&config, args.threads);
    let cfg = CacheConfig::paper_default();

    let base_os = study.os_layout(OsLayoutKind::Base, cfg.size());
    let opts_os = study.os_layout(OsLayoutKind::OptS, cfg.size());
    let ch_os = study.os_layout(OsLayoutKind::ChangHwu, cfg.size());
    let call_os = study.os_layout(OsLayoutKind::Call, cfg.size());
    // For Resv, the OS is laid out without a SelfConfFree area and the
    // hottest `scf_bytes`-sized prefix of the hot region is held by the
    // reserved cache.
    let resv_os = study.os_opt_s_with_scf(cfg.size(), None);
    let reserved_range = 0..1024u64;
    // The searched OS layout: same engine and defaults as the `search`
    // binary, seeded by the study seed.
    let searched = run_layout_search(
        &study,
        cfg,
        &SearchParams {
            seed: config.seed,
            ..SearchParams::default()
        },
        &SimConfig::fast(),
        args.threads,
    );

    let mut table = TextTable::new([
        "Workload", "Base", "OptA", "C-H", "Search", "Sep", "Resv", "Call",
    ]);
    for case in study.cases() {
        let app_base = study.app_base_layout(case);
        let app_ch = study.app_ch_layout(case);
        let app_opt = study.app_opt_layout(case, cfg.size());
        let mut cells = vec![case.name().to_owned()];

        let run = |os: &oslay::layout::Layout,
                   app: Option<&oslay::layout::Layout>,
                   cache: &mut dyn InstructionCache| {
            study
                .simulate(case, os, app, cache, &SimConfig::fast())
                .stats
                .total_misses()
        };

        let base = run(&base_os.layout, app_base.as_ref(), &mut Cache::new(cfg));
        cells.push("100.0".into());
        let norm = |m: u64| format!("{:.1}", m as f64 / base as f64 * 100.0);

        let opta = run(&opts_os.layout, app_opt.as_ref(), &mut Cache::new(cfg));
        cells.push(norm(opta));

        let ch = run(&ch_os.layout, app_ch.as_ref(), &mut Cache::new(cfg));
        cells.push(norm(ch));

        let search = run(&searched.os.layout, app_opt.as_ref(), &mut Cache::new(cfg));
        cells.push(norm(search));

        let sep = run(
            &opts_os.layout,
            app_opt.as_ref(),
            &mut SplitCache::halves_of(cfg),
        );
        cells.push(norm(sep));

        let resv = run(
            &resv_os.layout,
            app_opt.as_ref(),
            &mut ReservedCache::paired_with(cfg, reserved_range.clone()),
        );
        cells.push(norm(resv));

        let call = run(&call_os.layout, app_opt.as_ref(), &mut Cache::new(cfg));
        cells.push(norm(call));

        table.row(cells);
    }
    print!("{}", table.render());
    println!();
    println!(
        "(cells: total misses normalized to Base = 100; OptA = OptS kernel + optimized app;\n\
         \x20C-H = Chang-Hwu on both sides; Search = searched OS kernel + optimized app)"
    );
    oslay_bench::flush_trace();
}
