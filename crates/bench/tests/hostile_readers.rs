//! Hostile input for the readers of the bench ledger, the classification
//! file and the layout file: every truncation, byte flip and deep-nesting
//! splice of a document its writer produced ends in a `DocError` or the
//! original value, never a panic; a value corrupted deep inside a
//! document is rejected with an error that names its path. Every
//! committed `results/*.json` and `BENCH_sim.json` loads through its
//! reader.

use std::panic::{catch_unwind, AssertUnwindSafe};

use oslay::perf::simbench::{validate, BenchCase, BenchReport, REPS};
use oslay_bench::absint_gate::{check_classification_json, classifications_to_json};
use oslay_bench::{layout_view_from_json, layout_view_to_json};
use oslay_model::rng::Rng;
use oslay_observe::json::{self, JsonValue};
use oslay_observe::{DocError, RunReport};
use oslay_verify::{ClassPoint, Classification, LayoutView, LineClass};

/// Feeds every mutant of `doc` to `read`: truncations every `k` bytes
/// (each must fail or read back the original), 400 single-byte flips
/// (each may pass or fail) and eight deep-nesting splices (each must
/// fail). No mutant may panic the reader.
fn survives_hostile_input<T: PartialEq + std::fmt::Debug>(
    what: &str,
    doc: &str,
    seed: u64,
    read: impl Fn(&str) -> Result<T, DocError>,
) {
    let original = read(doc).unwrap_or_else(|e| panic!("{what}: unmutated document: {e}"));
    let bytes = doc.as_bytes();
    let feed = |mutant: &[u8], how: &str| {
        let text = String::from_utf8_lossy(mutant);
        catch_unwind(AssertUnwindSafe(|| read(&text)))
            .unwrap_or_else(|_| panic!("{what}: reader panicked on {how}"))
    };
    let k = (bytes.len() / 400).max(1);
    for cut in (0..bytes.len()).step_by(k) {
        if let Ok(v) = feed(&bytes[..cut], &format!("truncation at byte {cut}")) {
            assert_eq!(
                v, original,
                "{what}: truncation at byte {cut} read a different value"
            );
        }
    }
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..400 {
        let mut mutant = bytes.to_vec();
        let at = rng.gen_range(0..bytes.len());
        mutant[at] ^= rng.gen_range(1..=255u32) as u8;
        let _ = feed(&mutant, &format!("a flip at byte {at}"));
    }
    for _ in 0..8 {
        let at = rng.gen_range(0..bytes.len());
        let open = if rng.gen_bool(0.5) { "[" } else { "{\"k\":" };
        let mut mutant = bytes[..at].to_vec();
        mutant.extend(open.repeat(100_000).bytes());
        mutant.extend(&bytes[at..]);
        let how = format!("a deep-nesting splice at byte {at}");
        assert!(feed(&mutant, &how).is_err(), "{what}: accepted {how}");
    }
}

/// Replaces the value at `path` (member names and array indices) in a
/// parsed document.
fn corrupt(text: &str, path: &[&str], with: JsonValue) -> String {
    let mut doc = json::parse(text).expect("a written document parses");
    let mut at = &mut doc;
    for step in path {
        at = match at {
            JsonValue::Object(members) => {
                &mut members
                    .iter_mut()
                    .find(|(k, _)| k == step)
                    .expect("member")
                    .1
            }
            JsonValue::Array(items) => &mut items[step.parse::<usize>().expect("index")],
            other => panic!("cannot step into {other:?}"),
        };
    }
    *at = with;
    doc.to_json_pretty()
}

fn bench_ledger() -> String {
    let mut report = BenchReport::new("tiny", 2);
    for (name, events, secs) in [("replay_base", 10_000, 0.25), ("trace_walk", 4_000, 0.5)] {
        report.push_case(BenchCase {
            name: name.to_owned(),
            events,
            secs,
            secs_q1: secs * 0.9,
            secs_q3: secs * 1.1,
            reps: REPS,
            allocs: 7,
            alloc_bytes: 4096,
            peak_bytes: 65_536,
        });
    }
    report.push_derived("sweep_speedup", 6.5);
    report.to_json()
}

fn classifications() -> Vec<(String, Classification)> {
    ["Base", "Opt\"S\\2"]
        .iter()
        .enumerate()
        .map(|(l, name)| {
            let points: Vec<ClassPoint> = (0..40u32)
                .map(|i| ClassPoint {
                    block: i / 3,
                    slot: i % 3,
                    line_addr: 0x1000 + 32 * u64::from(i),
                    set: (i * 7) % 256,
                    weight: u64::from(i) * 1000 + l as u64,
                    class: LineClass::ALL[(i as usize + l) % 4],
                })
                .collect();
            let mut count = [0u64; 4];
            let mut weighted = [0u64; 4];
            for p in &points {
                count[p.class.index()] += 1;
                weighted[p.class.index()] += p.weight;
            }
            let c = Classification {
                layout: (*name).to_owned(),
                points,
                count,
                weighted,
                iterations: 99,
                havocked: 0,
                analyzed_blocks: 14,
                invariant_violations: 0,
            };
            ((*name).to_owned(), c)
        })
        .collect()
}

fn layout_view() -> LayoutView {
    LayoutView {
        name: "Search\n1".to_owned(),
        addr: (0..64).map(|i| 0x8000 + 96 * i).collect(),
        size: (0..64).map(|i| 16 + 4 * (i % 20)).collect(),
    }
}

#[test]
fn readers_reject_hostile_input_without_panicking() {
    survives_hostile_input("bench ledger", &bench_ledger(), 0x5eed_0011, validate);
    let classes = classifications_to_json(&classifications());
    survives_hostile_input(
        "classification",
        &classes,
        0x5eed_0012,
        check_classification_json,
    );
    let layout = layout_view_to_json(&layout_view());
    survives_hostile_input("layout file", &layout, 0x5eed_0013, layout_view_from_json);
}

#[test]
fn classification_file_round_trips_and_escapes_names() {
    let text = classifications_to_json(&classifications());
    assert_eq!(check_classification_json(&text), Ok(2));
    // A name with a quote and a backslash is escaped as JSON, not as Rust.
    let doc = json::parse(&text).expect("valid JSON");
    let names: Vec<&str> = doc
        .get("layouts")
        .and_then(JsonValue::as_array)
        .expect("layouts")
        .iter()
        .filter_map(|l| l.get("layout").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(names, ["Base", "Opt\"S\\2"]);
    let v2 = corrupt(&text, &["version"], JsonValue::Num(2.0));
    let err = check_classification_json(&v2).unwrap_err();
    assert_eq!(err.path(), Some("version"), "{err}");
}

#[test]
fn classification_weight_tally_overflow_is_an_error() {
    let doc = r#"{"version": 1, "layouts": [{"layout": "Base",
        "count": [0, 0, 2, 0], "weighted": [0, 0, 1553255926290448384, 0],
        "analyzed_blocks": 1,
        "points": [[0, 0, 0, 0, 10000000000000000000, 2],
                   [1, 0, 32, 1, 10000000000000000000, 2]]}]}"#;
    // 2 x 1e19 wraps to 1553255926290448384 in u64: the file must not
    // pass by matching the wrapped sum.
    let err = check_classification_json(doc).unwrap_err();
    assert_eq!(err.path(), Some("layouts[0].points[1][4]"), "{err}");
    assert!(err.to_string().contains("overflows"), "{err}");
}

#[test]
fn a_corrupt_value_is_named_by_its_path() {
    let ledger = corrupt(
        &bench_ledger(),
        &["sections", "bench.trace_walk", "secs_q3"],
        JsonValue::Str("slow".to_owned()),
    );
    let err = validate(&ledger).unwrap_err();
    assert_eq!(
        err.path(),
        Some("sections['bench.trace_walk'].secs_q3"),
        "{err}"
    );

    let ledger = corrupt(
        &bench_ledger(),
        &["sections", "bench.trace_walk", "reps"],
        JsonValue::Num(1.0),
    );
    let err = validate(&ledger).unwrap_err();
    assert_eq!(err.path(), Some("sections['bench.trace_walk']"), "{err}");
    assert!(err.to_string().contains("repetitions"), "{err}");

    let classes = corrupt(
        &classifications_to_json(&classifications()),
        &["layouts", "1", "points", "17", "5"],
        JsonValue::Num(4.0),
    );
    let err = check_classification_json(&classes).unwrap_err();
    assert_eq!(err.path(), Some("layouts[1].points[17][5]"), "{err}");

    let layout = corrupt(
        &layout_view_to_json(&layout_view()),
        &["addr", "40"],
        JsonValue::Num(-1.0),
    );
    let err = layout_view_from_json(&layout).unwrap_err();
    assert_eq!(err.path(), Some("addr[40]"), "{err}");
    assert_eq!(
        err.to_string(),
        "addr[40]: \"addr\" entries must be non-negative integers"
    );
}

#[test]
fn a_repeated_key_is_rejected_by_name() {
    // Each document gains a second copy of one member ahead of the
    // first; a reader that kept either copy would accept the file.
    let repeat = |text: &str, key: &str, value: &str| {
        let member = format!("\"{key}\":");
        assert!(text.contains(&member), "{key} is written");
        text.replacen(&member, &format!("{member} {value}, {member}"), 1)
    };
    let cases = [
        (
            "bench ledger",
            validate(&repeat(&bench_ledger(), "secs", "9")).map(|_| ()),
            "secs",
        ),
        (
            "classification",
            check_classification_json(&repeat(
                &classifications_to_json(&classifications()),
                "version",
                "1",
            ))
            .map(|_| ()),
            "version",
        ),
        (
            "layout file",
            layout_view_from_json(&repeat(&layout_view_to_json(&layout_view()), "addr", "[]"))
                .map(|_| ()),
            "addr",
        ),
    ];
    for (what, result, key) in cases {
        let err = result.expect_err(what);
        assert!(matches!(err, DocError::NotJson(_)), "{what}: {err}");
        assert!(
            err.to_string().contains(&format!("repeated key \"{key}\"")),
            "{what}: {err}"
        );
    }
}

#[test]
fn every_committed_document_passes_its_reader() {
    // The readers reject a repeated key, so a committed document that
    // carried one would no longer load.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let mut reports = 0;
    for entry in std::fs::read_dir(root.join("results")).expect("results/") {
        let path = entry.expect("results/ entry").path();
        if path.extension().is_some_and(|ext| ext == "json") {
            RunReport::from_json(&read(&path))
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            reports += 1;
        }
    }
    assert!(reports > 0, "no committed run report found");
    validate(&read(&root.join("BENCH_sim.json"))).expect("BENCH_sim.json");
}
