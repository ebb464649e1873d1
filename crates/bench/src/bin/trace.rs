//! `trace`: record, inspect, verify, and replay archived trace stores.
//!
//! ```text
//! trace record  [--scale S] [--blocks N] [--seed N] [--threads N] [--dir DIR]
//! trace inspect [--dir DIR | --file FILE ...]
//! trace verify  [--threads N] [--dir DIR | --file FILE ...]
//! trace replay  [--scale S] [--blocks N] [--seed N] [--threads N]
//!               [--dir DIR] [--live] [--out FILE]
//! ```
//!
//! `record` encodes every workload's buffered trace into one `.otr`
//! store per case in the archive directory. `inspect`
//! answers from footers alone (no payload decode); `verify` decodes every
//! block — sharded across `--threads` workers via the footer index — and
//! exits non-zero naming the first corrupt block. `replay` reproduces the
//! Figure-12 matrix from the archive (or from a live regeneration with
//! `--live`); its stdout and `--out` report are byte-identical between
//! the two sources and at any worker count, which is what the CI
//! reproducibility gate diffs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use oslay::cache::{CacheConfig, MissKind};
use oslay::{SimConfig, SimResult, Study};
use oslay_bench::archive::{record_archive, run_archived_figure12_matrix};
use oslay_bench::{
    banner, figure12_ladder, run_figure12_matrix, Cli, Flag, Kind, RunArgs, FILE, FILES,
};
use oslay_observe::{MetricRegistry, RunReport};
use oslay_tracestore::{CountingSink, StoreError, StoreSummary, StreamTotals, TraceReader};

#[rustfmt::skip]
const CLI: Cli = Cli {
    name: "trace",
    subcommands: &["record", "inspect", "verify", "replay"],
    scale: Some("paper"),
    flags: &[
        Flag("--dir", Kind::Path("DIR"), "results/traces", "archive directory"),
        Flag("--file", FILES, "", "operate on these stores instead of --dir"),
        Flag("--live", Kind::Switch, "", "replay from a live regeneration instead of the archive"),
        Flag("--out", FILE, "", "write the replay report here"),
    ],
};

fn main() -> ExitCode {
    let flags = CLI.args();
    let args = flags.run();
    let dir = flags.path("--dir").unwrap_or_default();
    let files: Vec<PathBuf> = flags.all("--file").iter().map(PathBuf::from).collect();
    let code = match flags.sub {
        "record" => record(&args, &dir),
        "inspect" => inspect(&dir, &files),
        "verify" => verify(&args, &dir, &files),
        _ => replay(
            &args,
            &dir,
            flags.on("--live"),
            flags.path("--out").as_deref(),
        ),
    };
    oslay_bench::flush_trace();
    code
}

/// The archive files to operate on: the explicit `--file` list, or every
/// `.otr` under `--dir`, name-sorted for stable output.
fn target_files(dir: &Path, files: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    if !files.is_empty() {
        return Ok(files.to_vec());
    }
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read archive directory {}: {e}", dir.display()))?;
    let mut found: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "otr"))
        .collect();
    found.sort();
    if found.is_empty() {
        return Err(format!(
            "no .otr files in {} (run `trace record` first)",
            dir.display()
        ));
    }
    Ok(found)
}

fn summary_header() {
    println!(
        "{:<16} {:>7} {:>12} {:>12} {:>8} {:>7}",
        "file", "blocks", "events", "bytes", "B/event", "ratio"
    );
}

fn summary_row(file: &str, s: &StoreSummary) {
    println!(
        "{:<16} {:>7} {:>12} {:>12} {:>8.2} {:>6.2}x",
        file,
        s.blocks,
        s.totals.events,
        s.file_bytes,
        s.bytes_per_event(),
        s.compression_ratio()
    );
}

fn record(args: &RunArgs, dir: &Path) -> ExitCode {
    banner("Trace record: archive workload event streams", &args.config);
    let study = Study::generate_with_threads(&args.config, args.threads);
    match record_archive(&study, dir, args.threads) {
        Ok(entries) => {
            summary_header();
            for (file, s) in &entries {
                summary_row(file, s);
            }
            println!();
            println!("Archive: {}", dir.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace record: {e}");
            ExitCode::FAILURE
        }
    }
}

fn inspect(dir: &Path, files: &[PathBuf]) -> ExitCode {
    let targets = match target_files(dir, files) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace inspect: {e}");
            return ExitCode::FAILURE;
        }
    };
    summary_header();
    for path in &targets {
        let name = path.file_name().map_or_else(
            || path.display().to_string(),
            |n| n.to_string_lossy().into(),
        );
        match TraceReader::open(path) {
            Ok(reader) => summary_row(&name, &reader.summary()),
            Err(e) => {
                eprintln!("trace inspect: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Fully decodes a store with block ranges sharded over `threads`
/// workers (the footer index makes every block independently seekable
/// and checkable), then cross-checks the merged counts against the
/// footer totals.
fn verify_file(path: &Path, threads: usize) -> Result<StoreSummary, StoreError> {
    let reader = TraceReader::open(path)?;
    let blocks = reader.block_count();
    let summary = reader.summary();
    let expected = reader.totals();
    drop(reader);

    let shards = threads.min(blocks).max(1);
    let ranges: Vec<(usize, usize)> = (0..shards)
        .map(|i| (blocks * i / shards, blocks * (i + 1) / shards))
        .collect();
    let parts = oslay::exec::parallel_map(threads, ranges, |_, (start, end)| {
        let mut reader = TraceReader::open(path)?;
        let mut sink = CountingSink::default();
        for block in start..end {
            reader.decode_block_into(block, &mut sink)?;
        }
        Ok::<_, StoreError>(sink.totals)
    });
    let mut totals = StreamTotals::default();
    for part in parts {
        totals.merge(&part?);
    }
    if totals != expected {
        return Err(StoreError::CountMismatch {
            detail: format!("decoded totals {totals:?} disagree with footer totals {expected:?}"),
        });
    }
    Ok(summary)
}

fn verify(args: &RunArgs, dir: &Path, files: &[PathBuf]) -> ExitCode {
    let targets = match target_files(dir, files) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace verify: {e}");
            return ExitCode::FAILURE;
        }
    };
    for path in &targets {
        let name = path.file_name().map_or_else(
            || path.display().to_string(),
            |n| n.to_string_lossy().into(),
        );
        match verify_file(path, args.threads) {
            Ok(s) => println!(
                "{name}: OK ({} blocks, {} events, {:.2}x over fixed-width)",
                s.blocks,
                s.totals.events,
                s.compression_ratio()
            ),
            Err(e) => {
                eprintln!("trace verify: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn print_matrix(study: &Study, matrix: &[Vec<SimResult>], report: &mut RunReport) {
    for (case, row) in study.cases().iter().zip(matrix) {
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
        report.add_section(&format!("replay.{}", case.name()), level_rates);
        println!();
    }
}

fn replay(args: &RunArgs, dir: &Path, live: bool, out: Option<&Path>) -> ExitCode {
    banner(
        "Trace replay: Figure-12 matrix from archived streams",
        &args.config,
    );
    let study = Study::generate_with_threads(&args.config, args.threads);
    let registry = Arc::new(MetricRegistry::new());
    let cache = CacheConfig::paper_default();
    let sim = SimConfig::fast();

    // The source note goes to stderr: stdout must be byte-identical
    // between an archived replay and a live one, so the CI gate can
    // diff the two captures directly.
    let matrix = if live {
        eprintln!("source: live regeneration from engine seeds");
        run_figure12_matrix(&study, cache, &sim, args.threads, &registry)
    } else {
        eprintln!("source: archive {}", dir.display());
        match run_archived_figure12_matrix(&study, dir, cache, &sim, args.threads, &registry) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("trace replay: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let mut report = RunReport::new("trace_replay");
    print_matrix(&study, &matrix, &mut report);
    report.add_metrics(&registry);
    if let Some(path) = out {
        // Deterministic serialization (no wall-clock fields): archived
        // and live runs of the same study write identical bytes.
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("trace replay: cannot create {}: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Err(e) = std::fs::write(path, report.to_json_deterministic().to_json_pretty()) {
            eprintln!("trace replay: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        // Stderr, like the source note: stdout carries only the
        // deterministic table, so captures diff clean across modes.
        eprintln!("replay report: {}", path.display());
    }
    ExitCode::SUCCESS
}
