//! Offline viewer for flight-recorder traces (`--trace-out` output).
//!
//! ```text
//! perf check    --in trace.json            # schema-validate, exit 0/1
//! perf top      --in trace.json [--n 15]   # hottest spans by total time
//! perf timeline --in trace.json [--width 72]  # ASCII per-track density
//! perf summary  --in trace.json            # stats + top + timeline
//! ```
//!
//! `check` is the CI gate: it exits non-zero on any trace-event schema
//! violation (missing phase, unbalanced `B`/`E`, backwards timestamps,
//! spans escaping their parents). The other subcommands render a quick
//! terminal view of the same file Perfetto/`chrome://tracing` would load.

use std::process::ExitCode;

use oslay_bench::{ArgError, Cli, Flag, FILE, INT};
use oslay_observe::flight::ChromeTrace;

#[rustfmt::skip]
const CLI: Cli = Cli {
    name: "perf",
    subcommands: &["check", "top", "timeline", "summary"],
    scale: None,
    flags: &[
        Flag("--in", FILE, "", "the trace to read (required)"),
        Flag("--n", INT, "15", "spans listed by top and summary"),
        Flag("--width", INT, "72", "timeline width in columns"),
    ],
};

fn main() -> ExitCode {
    let flags = CLI.args();
    let Some(input) = flags.path("--in") else {
        CLI.fail(&ArgError::MissingValue {
            flag: "--in",
            needs: "a path",
        });
    };
    let (n, width) = (
        flags.num("--n").unwrap_or_default(),
        flags.num("--width").unwrap_or_default(),
    );
    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf: cannot read {}: {e}", input.display());
            return ExitCode::FAILURE;
        }
    };
    let trace = match ChromeTrace::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf: INVALID trace {}: {e}", input.display());
            return ExitCode::FAILURE;
        }
    };
    let stats = &trace.stats;
    if flags.sub == "check" {
        println!(
            "OK {}: {} events ({} spans, {} counters) on {} tracks, max depth {}",
            input.display(),
            stats.events,
            stats.spans,
            stats.counters,
            stats.tracks,
            stats.max_depth
        );
        return ExitCode::SUCCESS;
    }
    match flags.sub {
        "top" => print!("{}", trace.render_top(n)),
        "timeline" => print!("{}", trace.render_timeline(width)),
        _ => {
            println!(
                "{}: {} spans on {} tracks, {:.3} ms wall, max depth {}",
                input.display(),
                stats.spans,
                stats.tracks,
                trace.wall_us() / 1e3,
                stats.max_depth
            );
            println!();
            print!("{}", trace.render_top(n));
            println!();
            print!("{}", trace.render_timeline(width));
        }
    }
    ExitCode::SUCCESS
}
