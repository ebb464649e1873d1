//! Simulation-engine throughput harness: the one timer of every engine,
//! written to `BENCH_sim.json` at the repo root.
//!
//! ```text
//! cargo run --release -p oslay-bench --bin bench_sim -- --scale small --threads 8
//! cargo run --release -p oslay-bench --bin bench_sim -- --smoke --out /tmp/BENCH_sim.json
//! ```
//!
//! Every case runs once untimed to warm up, then
//! [`oslay_perf::simbench::REPS`] times timed; the report carries the
//! median time with its first and third quartiles, and events/sec and
//! every derived ratio come from the medians. A bad value for one of its
//! own flags prints the usage text and exits 2; a report that cannot be
//! written exits 1. The run writes no file but `--out`.
//!
//! Measured cases:
//! - `replay_base` / `replay_opt_s`: buffered (`Vec`) replay of the Shell
//!   workload through the plain cache.
//! - `stream_base` / `stream_opt_s`: streaming replay — the trace engine
//!   feeds the replayer directly, no event vector.
//! - `attr_base`: attributed replay (shadow-store path).
//! - `split_shell` / `reserved_shell`: Shell's OptS replay through the
//!   Figure 18 alternatives, `SplitCache::halves_of` and
//!   `ReservedCache::paired_with` (1 KB reserved for the hottest kernel
//!   code).
//! - `trace_encode` / `trace_decode`: the `oslay-tracestore` codec over
//!   an in-memory buffer — Shell's stream compressed to the on-disk
//!   format and decoded back; the achieved `trace_compression_ratio` and
//!   `trace_bytes_per_event` land in the derived section.
//! - `matrix_1t` / `matrix_nt`: the Figure-12 style 4-case × 5-level
//!   simulation matrix at 1 vs `--threads` workers; their ratio is the
//!   `parallel_speedup` derived field. At `--threads 1` only
//!   `matrix_1t` runs and no speedup is derived.
//! - `sweep_per_point` / `sweep_single_pass`: the committed design-space
//!   grid (4 KB–256 KB at 1–8 ways on 32-byte lines, plus 64/128-byte
//!   lines at 8 KB, under Base/C-H/OptS) replayed point by point by the
//!   reference `run_sweep` vs evaluated in one trace pass per workload by
//!   `run_sweep_single_pass` (`oslay_cache::MultiSim`), the driver the
//!   figure binaries use; their ratio is the `sweep_speedup` derived
//!   field, recorded at every scale but smoke (a ~1k-block trace
//!   measures only setup overhead).
//! - `search_score`: the layout-search inner loop in isolation — a
//!   single hill-climbing walk from the OptS seed; `events` counts
//!   incremental objective evaluations (trial applies), so the rate is
//!   predictor evaluations/sec. Gated by the simbench validator floor.
//! - `search_walk`: the end-to-end `run_search` fan-out (propose, gate,
//!   score, anneal, restart bookkeeping); `events` counts proposed
//!   candidates, so the rate is candidates/sec. Also floor-gated.
//! - `absint_classify`: the abstract-interpretation cache classifier
//!   over the OptS layout (fixpoint + classification walk); `events`
//!   counts classified line access points. Also floor-gated.
//!
//! The counting allocator is installed process-wide, so `allocs` /
//! `peak_bytes` columns are real measurements, not estimates.

use std::sync::Arc;

use oslay::cache::{Cache, CacheConfig, ReservedCache, SplitCache};
use oslay::{OsLayoutKind, SimConfig, SimResult, Study, StudyConfig};
use oslay_bench::{
    run_figure12_matrix, run_sweep, run_sweep_single_pass, scale_name, AppSide, Cli, Flag, Kind,
    SweepPoint, FILE,
};
use oslay_observe::MetricRegistry;
use oslay_perf::simbench::{self, validate, BenchCase, BenchReport};
use oslay_tracestore::{CountingSink, TraceReader, TraceWriter};

// The counting allocator is installed by the `oslay_bench` library crate,
// process-wide for every experiment binary.

#[rustfmt::skip]
const CLI: Cli = Cli {
    name: "bench_sim",
    subcommands: &[],
    scale: Some("small"),
    flags: &[
        Flag("--smoke", Kind::Switch, "", "CI smoke run: a ~1k-block trace at tiny scale"),
        Flag("--out", FILE, "BENCH_sim.json", "report path"),
    ],
};

/// Times one case ([`simbench::measure`]) and prints its median line.
fn measure(name: &str, f: impl FnMut() -> u64) -> BenchCase {
    let case = simbench::measure(name, f);
    println!(
        "{:<17} {:>11} events {:>10.3} ms [{:.3}-{:.3}] {:>14.0} ev/s {:>8} allocs {:>11} B peak",
        case.name,
        case.events,
        case.secs * 1e3,
        case.secs_q1 * 1e3,
        case.secs_q3 * 1e3,
        case.events_per_sec(),
        case.allocs,
        case.peak_bytes
    );
    case
}

/// The Figure-12 style matrix: every workload × every ladder level, on a
/// shared registry, at the given worker count. Returns total accesses.
fn run_matrix(study: &Study, sim: &SimConfig, threads: usize) -> u64 {
    let cfg = CacheConfig::paper_default();
    let registry = Arc::new(MetricRegistry::new());
    let matrix = run_figure12_matrix(study, cfg, sim, threads, &registry);
    accesses(matrix.iter().flatten())
}

/// Total accesses summed over `results` (the per-point sweep replay
/// touches each access once per point, so both sweep drivers report the
/// same event count).
fn accesses<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> u64 {
    results.into_iter().map(|r| r.stats.total_accesses()).sum()
}

/// The committed design-space grid: every (size, associativity) point in
/// the 4 KB – 256 KB x 1–8 way plane at 32-byte lines — all 28 share one
/// Mattson stack bank per trace — plus two longer line sizes at 8 KB
/// direct-mapped (one banked tag array each), each under Base, C-H and
/// OptS, for every workload. This is the plane the figure sweeps draw
/// from (fig15 spans the sizes, fig17 the lines and ways) and the shape
/// the single-pass engine exists for: 90 per-point trace replays
/// collapse to 3 (one per OS layout), and widening the plane with
/// rarely-missing large configurations costs the stack walk almost
/// nothing while the per-point baseline pays one full replay each.
fn sweep_grid(study: &Study) -> Vec<SweepPoint> {
    let kinds = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
    ];
    let layouts: Vec<Arc<oslay_layout::Layout>> = kinds
        .iter()
        .map(|&kind| Arc::new(study.os_layout(kind, 8192).layout))
        .collect();
    let sizes = [4096u32, 8192, 16384, 32768, 65536, 131072, 262144];
    let ways = [1u32, 2, 4, 8];
    let configs: Vec<CacheConfig> = sizes
        .iter()
        .flat_map(|&s| ways.iter().map(move |&w| CacheConfig::new(s, 32, w)))
        .chain([64u32, 128].iter().map(|&l| CacheConfig::new(8192, l, 1)))
        .collect();
    let mut points = Vec::new();
    for wi in 0..study.cases().len() {
        for &cfg in &configs {
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
    points
}

fn main() {
    let flags = CLI.args();
    let mut args = flags.run();
    if flags.on("--smoke") {
        // CI smoke: a trace of ~1k OS blocks (overrides --scale/--blocks).
        args.config = StudyConfig::tiny();
        args.config.os_blocks = 1_000;
    }
    let out = flags.path("--out").unwrap_or_default();
    println!(
        "== bench_sim: engine throughput ({}, {} OS blocks, {} threads) ==",
        scale_name(args.config.scale),
        args.config.os_blocks,
        args.threads
    );

    let study = Study::generate_with_threads(&args.config, args.threads);
    let shell = &study.cases()[3];
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::fast();
    let os_base = study.os_layout(OsLayoutKind::Base, cfg.size());
    let os_opt = study.os_layout(OsLayoutKind::OptS, cfg.size());
    let app = study.app_base_layout(shell);

    let mut report = BenchReport::new(scale_name(args.config.scale), args.threads);

    // Buffered replay: the pre-existing Vec path, kept as the shim.
    for (name, os) in [("replay_base", &os_base), ("replay_opt_s", &os_opt)] {
        report.push_case(measure(name, || {
            let mut cache = Cache::new(cfg);
            let r = study.simulate(shell, &os.layout, app.as_ref(), &mut cache, &sim);
            r.stats.total_accesses()
        }));
    }

    // Streaming replay: regenerate the trace straight into the replayer —
    // no event vector is ever materialized.
    for (name, os) in [("stream_base", &os_base), ("stream_opt_s", &os_opt)] {
        report.push_case(measure(name, || {
            let mut cache = Cache::new(cfg);
            let r = study.replay_streaming(shell, &os.layout, app.as_ref(), &mut cache, &sim);
            r.stats.total_accesses()
        }));
    }

    // Attributed replay: exercises the shadow-store (conflict/capacity) path.
    report.push_case(measure("attr_base", || {
        let (r, _) = oslay_bench::run_attributed_on(
            &study,
            shell,
            &os_base,
            app.as_ref(),
            cfg,
            &SimConfig::fast(),
            None,
        );
        r.stats.total_accesses()
    }));

    // The Figure 18 alternatives to one unified cache, on Figure 18's
    // layouts: separate OS and application halves under OptS, and a
    // 1 KB cache reserved for the hottest kernel code beside a halved
    // main cache, under OptS laid out without its SelfConfFree area. No
    // other harness times these organizations.
    report.push_case(measure("split_shell", || {
        let mut cache = SplitCache::halves_of(cfg);
        let r = study.simulate(shell, &os_opt.layout, app.as_ref(), &mut cache, &sim);
        r.stats.total_accesses()
    }));
    let os_resv = study.os_opt_s_with_scf(cfg.size(), None);
    report.push_case(measure("reserved_shell", || {
        let mut cache = ReservedCache::paired_with(cfg, 0..1024);
        let r = study.simulate(shell, &os_resv.layout, app.as_ref(), &mut cache, &sim);
        r.stats.total_accesses()
    }));

    // The tracestore codec, isolated from disk: encode Shell's stream
    // into an in-memory store, then decode it back. The summary's
    // compression figures are recorded as derived fields (and gated
    // against the 3x floor by the report validator).
    let mut encoded: Vec<u8> = Vec::new();
    let mut store_summary = None;
    report.push_case(measure("trace_encode", || {
        let mut writer = TraceWriter::new(Vec::new()).expect("in-memory store header");
        study.stream_case(shell, &mut writer);
        let (buf, summary) = writer.finish().expect("in-memory store finish");
        encoded = buf;
        store_summary = Some(summary);
        summary.totals.events
    }));
    report.push_case(measure("trace_decode", || {
        let mut reader =
            TraceReader::new(std::io::Cursor::new(&encoded)).expect("open in-memory store");
        let mut sink = CountingSink::default();
        reader
            .replay_into(&mut sink)
            .expect("decode archived stream")
    }));
    let store_summary = store_summary.expect("encode case ran");
    report.push_derived("trace_compression_ratio", store_summary.compression_ratio());
    report.push_derived("trace_bytes_per_event", store_summary.bytes_per_event());

    // The sharded experiment matrix at one worker vs the requested count.
    // At one requested worker the two runs would be the same case, so it
    // runs once and no speedup is derived.
    let one = measure("matrix_1t", || run_matrix(&study, &sim, 1));
    let one_secs = one.secs;
    report.push_case(one);
    let speedup = (args.threads > 1).then(|| {
        let many = measure(&format!("matrix_{}t", args.threads), || {
            run_matrix(&study, &sim, args.threads)
        });
        let speedup = if many.secs > 0.0 {
            one_secs / many.secs
        } else {
            0.0
        };
        report.push_case(many);
        report.push_derived("parallel_speedup", speedup);
        speedup
    });

    // The committed design-space grid, replayed per point vs in one
    // pass per workload. Both run at the requested worker count; the
    // derived ratio is the single-pass engine's wall-clock advantage.
    // Tiny traces are all constant overhead — no consolidation to
    // measure — so the gated derived field is only recorded at real
    // scales (the smoke run still prints the observed ratio).
    let per_point = measure("sweep_per_point", || {
        let grid = sweep_grid(&study);
        let results = run_sweep(&study, grid, &sim, args.threads, &Arc::default());
        accesses(&results)
    });
    let single_pass = measure("sweep_single_pass", || {
        let grid = sweep_grid(&study);
        let results = run_sweep_single_pass(&study, grid, &sim, args.threads, &Arc::default());
        accesses(&results)
    });
    let sweep_speedup = if single_pass.secs > 0.0 {
        per_point.secs / single_pass.secs
    } else {
        0.0
    };
    report.push_case(per_point);
    report.push_case(single_pass);
    if scale_name(args.config.scale) != "tiny" {
        report.push_derived("sweep_speedup", sweep_speedup);
    }

    // The layout-search engine (oslay-search). `search_score` isolates
    // the incremental objective: one deterministic hill-climbing walk,
    // events = trial evaluations (`scored`), so the rate is predictor
    // evaluations/sec. `search_walk` runs the whole restart fan-out and
    // counts every proposed candidate (gate-rejected ones included —
    // rejecting cheaply is part of the engine's job). Both rates are
    // gated by absolute floors in `oslay_perf::simbench::validate`, set
    // far below any measured machine so only a real algorithmic
    // regression (e.g. an accidental full rescore per step) trips them.
    let program = &study.kernel().program;
    let profile = study.averaged_os_profile();
    let seed_view = oslay_verify::LayoutView::from_layout(&os_opt.layout);
    report.push_case(measure("search_score", || {
        let mut state = oslay_search::SearchState::new(
            program,
            profile,
            &seed_view,
            &cfg,
            oslay_search::ObjectiveWeights::default(),
            2,
        );
        let mut rng = oslay_model::rng::Rng::seed_from_u64(args.config.seed);
        for _ in 0..200_000u64 {
            state.step(&mut rng, 0.0);
        }
        state.stats().scored
    }));
    report.push_case(measure("search_walk", || {
        let params = oslay_search::SearchParams {
            budget: 40_000,
            restarts: 2,
            seed: args.config.seed,
            ..oslay_search::SearchParams::default()
        };
        let outcome =
            oslay_search::run_search(program, profile, &seed_view, &cfg, &params, args.threads);
        outcome.restarts.iter().map(|r| r.stats.proposed).sum()
    }));
    // The abstract-interpretation classifier: one full must/may/
    // persistence fixpoint plus the classification walk over OptS.
    // `events` counts classified line access points, so the rate is
    // points/sec — floor-gated by the simbench validator.
    report.push_case(measure("absint_classify", || {
        let c = oslay_bench::absint_gate::classify_study_layout(&study, &seed_view, cfg);
        assert_eq!(c.invariant_violations, 0, "absint lattice violated");
        c.points.len() as u64
    }));

    report.push_derived(
        "stream_vs_replay_base",
        report.events_per_sec("stream_base").unwrap_or(0.0)
            / report
                .events_per_sec("replay_base")
                .unwrap_or(f64::INFINITY),
    );

    for case in &report.cases {
        assert!(
            case.events_per_sec() > 0.0,
            "case {} measured zero throughput",
            case.name
        );
    }
    if let Err(e) = report.write(&out) {
        eprintln!("bench_sim: {}: {e}", out.display());
        std::process::exit(1);
    }
    let text = std::fs::read_to_string(&out).expect("re-read bench report");
    validate(&text).expect("bench report validates against schema");
    println!();
    if let Some(speedup) = speedup {
        println!(
            "parallel speedup at {} thread(s): {speedup:.2}x",
            args.threads
        );
    }
    println!("single-pass sweep speedup: {sweep_speedup:.2}x");
    println!(
        "trace store: {:.2}x over fixed-width ({:.2} B/event)",
        store_summary.compression_ratio(),
        store_summary.bytes_per_event()
    );
    println!("Bench report: {}", out.display());

    oslay_bench::flush_trace();
}
