//! Zero-dependency run-report dashboard.
//!
//! Aggregates two artifact families into one view:
//!
//! * simulated-time telemetry documents (`--telemetry-out` output), and
//! * `results/*.json` run reports,
//!
//! rendered as a single self-contained HTML+SVG page (no external
//! scripts, fonts, or network), an ASCII terminal view (`--term`), or a
//! strict validator (`--check`, the CI gate: exit 0 iff every telemetry
//! file passes schema and monotonicity validation).
//!
//! ```text
//! dash --check --telemetry results/telemetry.json
//! dash --term  --telemetry results/telemetry.json
//! dash --telemetry results/telemetry.json --results results --out dash.html
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use oslay_analysis::dash::{html_escape, svg_heat_strip, svg_sparkline, text_sparkline, Band};
use oslay_bench::{Cli, Flag, Kind, FILE, FILES};
use oslay_observe::json::JsonValue;
use oslay_observe::timeline::{validate_telemetry, TelemetryDoc, TelemetryRun};
use oslay_observe::RunReport;

#[rustfmt::skip]
const CLI: Cli = Cli {
    name: "dash",
    subcommands: &[],
    scale: None,
    flags: &[
        Flag("--telemetry", FILES, "", "telemetry document from --telemetry-out"),
        Flag("--results", Kind::Path("DIR"), "results", "run-report directory"),
        Flag("--out", FILE, "dash.html", "HTML output path"),
        Flag("--check", Kind::Switch, "", "validate telemetry files; exit 0 iff all pass"),
        Flag("--term", Kind::Switch, "", "render to the terminal instead of HTML"),
    ],
};

fn main() -> ExitCode {
    let flags = CLI.args();
    let telemetry: Vec<PathBuf> = flags.all("--telemetry").iter().map(PathBuf::from).collect();
    if flags.on("--check") {
        return check(&telemetry);
    }
    let docs = load_docs(&telemetry);
    if flags.on("--term") {
        render_term(&docs);
        return ExitCode::SUCCESS;
    }
    let results_dir = flags.path("--results").unwrap_or_default();
    let html = render_html(&results_dir, &docs);
    let out = flags.path("--out").unwrap_or_default();
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(&out, html) {
        Ok(()) => {
            println!("dashboard written: {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dash: cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

/// The `--check` gate: every telemetry file must read and validate.
fn check(telemetry: &[PathBuf]) -> ExitCode {
    if telemetry.is_empty() {
        eprintln!("dash --check: no --telemetry files given");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in telemetry {
        match std::fs::read_to_string(path) {
            Ok(text) => match validate_telemetry(&text) {
                Ok(stats) => println!(
                    "{}: ok — {} run(s), {} frame(s), {} phase(s), {} event(s)",
                    path.display(),
                    stats.runs,
                    stats.frames,
                    stats.phases,
                    stats.events
                ),
                Err(e) => {
                    eprintln!("{}: INVALID — {e}", path.display());
                    ok = false;
                }
            },
            Err(e) => {
                eprintln!("{}: unreadable — {e}", path.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Loads every telemetry document, skipping unreadable/invalid files
/// with a warning (rendering is best-effort; `--check` is the gate).
fn load_docs(telemetry: &[PathBuf]) -> Vec<(PathBuf, TelemetryDoc)> {
    let mut docs = Vec::new();
    for path in telemetry {
        match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match TelemetryDoc::parse(&text) {
                Ok(doc) => docs.push((path.clone(), doc)),
                Err(e) => eprintln!("dash: skipping {}: {e}", path.display()),
            },
            Err(e) => eprintln!("dash: skipping {}: {e}", path.display()),
        }
    }
    docs
}

fn phase_bands(run: &TelemetryRun) -> Vec<Band> {
    run.phases
        .iter()
        .map(|p| Band {
            start: p.start_frame,
            end: p.end_frame,
        })
        .collect()
}

/// Per-frame fill fraction (`0..=1`) for the heat strip.
fn fill_series(run: &TelemetryRun) -> Vec<f64> {
    run.rows.iter().map(|r| r[9] as f64 / 1e6).collect()
}

fn render_term(docs: &[(PathBuf, TelemetryDoc)]) {
    if docs.is_empty() {
        println!("no telemetry loaded (pass --telemetry FILE)");
        return;
    }
    for (path, doc) in docs {
        println!("== {} ==", path.display());
        for run in &doc.runs {
            let rates = run.miss_rates();
            println!();
            println!(
                "{}  ({} frames @ 2^{} events, {} phases)",
                run.label,
                run.rows.len(),
                run.window_log2,
                run.phases.len()
            );
            println!("  miss rate |{}|", text_sparkline(&rates));
            println!("  fill      |{}|", text_sparkline(&fill_series(run)));
            println!(
                "  {:>5} {:>12} {:>14} {:>10} {:>26}",
                "phase", "frames", "events", "miss ppm", "comp/cap/conf"
            );
            for p in &run.phases {
                println!(
                    "  {:>5} {:>12} {:>14} {:>10} {:>26}",
                    p.id,
                    format!("{}..{}", p.start_frame, p.end_frame),
                    format!("{}..{}", p.events_start, p.events_end),
                    p.miss_rate_ppm,
                    format!("{}/{}/{}", p.compulsory, p.capacity, p.conflict)
                );
            }
        }
        println!();
    }
}

/// Walks a run report's `sections` object into HTML tables.
fn report_sections_html(report: &RunReport) -> String {
    let mut out = String::new();
    let JsonValue::Object(members) = report.to_json() else {
        return out;
    };
    let Some(JsonValue::Object(sections)) = members
        .into_iter()
        .find(|(k, _)| k == "sections")
        .map(|(_, v)| v)
    else {
        return out;
    };
    for (name, fields) in sections {
        if name.starts_with("perf.") {
            continue; // machine-local self-measurement, not content
        }
        let JsonValue::Object(fields) = fields else {
            continue;
        };
        let _ = write!(out, "<h4>{}</h4><table>", html_escape(&name));
        for (field, value) in fields {
            let v = value.as_f64().unwrap_or(f64::NAN);
            let _ = write!(
                out,
                "<tr><td>{}</td><td class=\"num\">{v:.6}</td></tr>",
                html_escape(&field)
            );
        }
        out.push_str("</table>");
    }
    out
}

fn render_html(results_dir: &Path, docs: &[(PathBuf, TelemetryDoc)]) -> String {
    let mut html = String::from(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>oslay run dashboard</title><style>\
         body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:72em;\
         padding:0 1em;color:#1a2233}\
         h1{font-size:1.5em}h2{border-bottom:1px solid #ccd;padding-bottom:.2em}\
         h3{margin:1.2em 0 .3em}h4{margin:.8em 0 .2em;color:#456}\
         table{border-collapse:collapse;margin:.3em 0}\
         td,th{border:1px solid #dde;padding:.15em .6em}\
         td.num{text-align:right;font-variant-numeric:tabular-nums}\
         .spark,.heat{vertical-align:middle;border:1px solid #eef}\
         .meta{color:#678;font-size:.9em}\
         </style></head><body><h1>oslay run dashboard</h1>",
    );

    // — Telemetry —
    html.push_str("<h2>Simulated-time telemetry</h2>");
    if docs.is_empty() {
        html.push_str("<p>no telemetry documents loaded.</p>");
    }
    for (path, doc) in docs {
        let _ = write!(
            html,
            "<h3>{}</h3><p class=\"meta\">{} run(s)</p>",
            html_escape(&path.display().to_string()),
            doc.runs.len()
        );
        for run in &doc.runs {
            let rates = run.miss_rates();
            let bands = phase_bands(run);
            let peak = rates.iter().cloned().fold(0.0f64, f64::max);
            let _ = write!(
                html,
                "<h4>{}</h4><p class=\"meta\">{} frames @ 2^{} events/frame, \
                 {} phases, peak window miss rate {:.2}%</p>\
                 <div>miss rate {}</div><div>fill {}</div>",
                html_escape(&run.label),
                run.rows.len(),
                run.window_log2,
                run.phases.len(),
                100.0 * peak,
                svg_sparkline(&rates, &bands, 560, 60),
                svg_heat_strip(&fill_series(run), 560, 10)
            );
            html.push_str(
                "<table><tr><th>phase</th><th>frames</th><th>events</th>\
                 <th>miss ppm</th><th>compulsory</th><th>capacity</th>\
                 <th>conflict</th></tr>",
            );
            for p in &run.phases {
                let _ = write!(
                    html,
                    "<tr><td class=\"num\">{}</td><td class=\"num\">{}..{}</td>\
                     <td class=\"num\">{}..{}</td><td class=\"num\">{}</td>\
                     <td class=\"num\">{}</td><td class=\"num\">{}</td>\
                     <td class=\"num\">{}</td></tr>",
                    p.id,
                    p.start_frame,
                    p.end_frame,
                    p.events_start,
                    p.events_end,
                    p.miss_rate_ppm,
                    p.compulsory,
                    p.capacity,
                    p.conflict
                );
            }
            html.push_str("</table>");
        }
    }

    // — Run reports —
    html.push_str("<h2>Run reports</h2>");
    let mut report_files: Vec<PathBuf> = std::fs::read_dir(results_dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect()
        })
        .unwrap_or_default();
    report_files.sort();
    if report_files.is_empty() {
        let _ = write!(
            html,
            "<p>no run reports under {}.</p>",
            html_escape(&results_dir.display().to_string())
        );
    }
    for path in &report_files {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let Ok(report) = RunReport::from_json(&text) else {
            continue; // not a run report (e.g. BENCH_sim.json)
        };
        let _ = write!(html, "<h3>{}</h3>", html_escape(report.name()));
        html.push_str(&report_sections_html(&report));
    }

    html.push_str("</body></html>");
    html
}
