//! Ablation of the OptS design choices (not a paper artifact; the design
//! decisions it isolates are the ones DESIGN.md calls out):
//!
//! * **full** — sequences with the staggered descending schedule, plus the
//!   SelfConfFree area (the shipped `OptS`);
//! * **no-scf** — same sequences, no SelfConfFree area;
//! * **flat-schedule** — a single `(0, 0)` pass: one greedy sweep per seed
//!   with no threshold descent (every executed block captured in one go,
//!   so hot and cold code interleave within the sequence region);
//! * **routine-local** — sequences that may not cross routine boundaries
//!   (the Chang–Hwu restriction) but keep the SCF area, isolating how much
//!   of OptS's win comes from interprocedural chaining.
//!
//! Expected ordering: full ≤ no-scf ≤ flat-schedule, and routine-local
//! between C-H and full.

use oslay::analysis::report::TextTable;
use oslay::cache::{Cache, CacheConfig};
use oslay::layout::{optimize_os, OptParams, ThresholdSchedule};
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, Cli};

fn main() {
    let config = Cli::study("ablation_opts").args().run().config;
    banner("Ablation: OptS design choices (8KB direct-mapped)", &config);
    let study = Study::generate(&config);
    let program = &study.kernel().program;
    let profile = study.averaged_os_profile();
    let loops = study.os_loops();
    let cfg = CacheConfig::paper_default();

    let variants: Vec<(&str, OptParams)> = vec![
        ("full", OptParams::opt_s(cfg.size())),
        ("no-scf", OptParams::opt_s(cfg.size()).with_scf_budget(None)),
        (
            "flat-schedule",
            OptParams {
                schedule: ThresholdSchedule::single_pass(0.0, 0.0),
                ..OptParams::opt_s(cfg.size())
            },
        ),
    ];

    let mut table = TextTable::new(["Workload", "Base", "C-H", "full", "no-scf", "flat-schedule"]);
    for case in study.cases() {
        let app = study.app_base_layout(case);
        let run = |layout: &oslay::layout::Layout| {
            let mut cache = Cache::new(cfg);
            study
                .simulate(case, layout, app.as_ref(), &mut cache, &SimConfig::fast())
                .stats
                .total_misses()
        };
        let base = run(&study.os_layout(OsLayoutKind::Base, cfg.size()).layout);
        let ch = run(&study.os_layout(OsLayoutKind::ChangHwu, cfg.size()).layout);
        let mut cells = vec![
            case.name().to_owned(),
            "100.0".to_owned(),
            format!("{:.1}", ch as f64 / base as f64 * 100.0),
        ];
        for (_, params) in &variants {
            let opt = optimize_os(program, profile, loops, params);
            let m = run(&opt.layout);
            cells.push(format!("{:.1}", m as f64 / base as f64 * 100.0));
        }
        table.row(cells);
    }
    print!("{}", table.render());
    println!();
    println!("(cells: total misses normalized to Base = 100)");
    println!(
        "full = staggered schedule + SCF; no-scf drops the SelfConfFree area; \
         flat-schedule replaces the descending threshold ladder with one (0,0) sweep."
    );
    oslay_bench::flush_trace();
}
