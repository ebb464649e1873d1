//! Seeded property tests for the hand-rolled JSON codec and the readers
//! built on it — the same coverage a property-testing framework would
//! give, with no external crate: every failure reproduces from the fixed
//! seed alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use oslay_observe::flight::{self, ChromeTrace};
use oslay_observe::json::{parse, JsonValue};
use oslay_observe::timeline::{self, CacheProbeSnapshot, CacheSnapshot, TelemetryDoc, AGE_BUCKETS};
use oslay_observe::{MetricRegistry, Probe, RunReport, SpanEntry};

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A finite f64 spanning integers, small reals, and large magnitudes.
    fn number(&mut self) -> f64 {
        match self.below(4) {
            0 => self.below(2_000) as f64 - 1_000.0, // small integers
            1 => (self.next() as i64) as f64,        // huge integers
            2 => f64::from_bits(0x3ff0_0000_0000_0000 | (self.next() >> 12)), // [1, 2)
            _ => {
                let mantissa = (self.below(2_000_000) as f64 - 1_000_000.0) / 1_000.0;
                let exp = self.below(40) as i32 - 20;
                let v = mantissa * 10f64.powi(exp);
                if v.is_finite() {
                    v
                } else {
                    0.0
                }
            }
        }
    }

    /// A string mixing ASCII, quotes, backslashes, control chars, and
    /// multi-byte unicode — everything the escaper must handle.
    fn string(&mut self) -> String {
        let alphabet: &[char] = &[
            'a', 'B', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}', '\u{1}', 'é',
            '日', '🦀', '\u{7f}',
        ];
        let len = self.below(12) as usize;
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect()
    }

    /// A random JSON tree, depth-bounded so generation terminates.
    fn value(&mut self, depth: u32) -> JsonValue {
        let choices = if depth == 0 { 4 } else { 6 };
        match self.below(choices) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(self.below(2) == 0),
            2 => JsonValue::Num(self.number()),
            3 => JsonValue::Str(self.string()),
            4 => {
                let n = self.below(5) as usize;
                JsonValue::Array((0..n).map(|_| self.value(depth - 1)).collect())
            }
            _ => {
                let n = self.below(5) as usize;
                JsonValue::Object(
                    (0..n)
                        .map(|i| (format!("k{i}_{}", self.string()), self.value(depth - 1)))
                        .collect(),
                )
            }
        }
    }
}

#[test]
fn json_roundtrip_holds_over_random_trees() {
    let mut rng = Rng::new(0x0b5e_71e5);
    for case in 0..500 {
        let value = rng.value(4);
        let text = value.to_json();
        let back = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e} in {text}"));
        assert_eq!(back, value, "case {case}: round-trip diverged for {text}");
        // Pretty form must parse back to the same tree too.
        let pretty = value.to_json_pretty();
        let back = parse(&pretty).unwrap_or_else(|e| panic!("case {case}: pretty: {e}"));
        assert_eq!(back, value, "case {case}: pretty round-trip diverged");
    }
}

#[test]
fn json_serialization_is_deterministic() {
    let mut rng = Rng::new(0xdead_beef);
    for _ in 0..100 {
        let value = rng.value(3);
        assert_eq!(value.to_json(), value.to_json());
        // A re-parsed tree serializes to the identical bytes: the codec
        // normalizes nothing behind the caller's back.
        let reparsed = parse(&value.to_json()).expect("valid");
        assert_eq!(reparsed.to_json(), value.to_json());
    }
}

#[test]
fn json_nonfinite_numbers_become_null() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let v = JsonValue::Array(vec![JsonValue::Num(bad)]);
        assert_eq!(v.to_json(), "[null]");
        assert_eq!(
            parse(&v.to_json()).expect("valid"),
            JsonValue::Array(vec![JsonValue::Null])
        );
    }
}

/// A run report as the experiment binaries write it.
fn real_run_report() -> String {
    let registry = MetricRegistry::new();
    registry.counter_add("cache.miss.os-self", 1234);
    registry.gauge_set("cache.occupancy", 0.97);
    for v in [0, 3, 17, 900] {
        registry.histogram_record("trace.invocation_len", v, 1);
    }
    let mut report = RunReport::new("hostile");
    report.add_spans([SpanEntry {
        name: "study.trace".to_owned(),
        secs: 0.25,
        count: 4,
    }]);
    report.add_metrics(&registry);
    report.add_section("fig12.Shell", [("Base", 0.071), ("OptS", 0.021)]);
    report.to_json().to_json_pretty()
}

/// Serializes the tests that record through the process-global flight
/// recorder and timeline.
static RECORDERS: Mutex<()> = Mutex::new(());

/// A Chrome trace as `--trace-out` writes it: nested spans with
/// arguments on two tracks, plus counter samples.
fn real_chrome_trace() -> String {
    let _serial = RECORDERS.lock().unwrap_or_else(PoisonError::into_inner);
    flight::reset();
    flight::enable();
    flight::set_thread_track("main");
    {
        let _outer = oslay_observe::span("hostile.outer");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                flight::set_thread_track("worker-0");
                let _job = oslay_observe::span_with_args("hostile.job", &[("job", 0.0)]);
                flight::counter("hostile.beat", 1.0);
            });
        });
        let _inner = oslay_observe::span("hostile.inner");
        flight::counter("hostile.beat", 2.0);
    }
    flight::disable();
    let text = flight::chrome_trace().to_json_pretty();
    flight::reset();
    text
}

/// A telemetry document as `--telemetry-out` writes it: one run of
/// several windows with probe state.
fn real_telemetry() -> String {
    let _serial = RECORDERS.lock().unwrap_or_else(PoisonError::into_inner);
    timeline::reset();
    timeline::enable();
    let snap = |events: u64| CacheSnapshot {
        accesses: 10 * events,
        os_accesses: 6 * events,
        misses: events,
        cold_misses: events / 4,
        probe: Some(CacheProbeSnapshot {
            occ_p50: 3,
            occ_p95: 4,
            fill_ppm: 900_000,
            evict_ages: [events; AGE_BUCKETS],
            attr: Some([events / 4, events / 4, events - events / 2]),
        }),
    };
    {
        let _scope = timeline::scope(timeline::group(), 0, "hostile");
        let mut rec = timeline::recorder().expect("enabled and scoped");
        let mut seen = 0;
        while seen < 5 * rec.window() {
            seen += 1;
            if rec.tick() {
                rec.sample(&snap(seen));
            }
        }
        rec.finish(&snap(seen + 3));
    }
    timeline::disable();
    let text = timeline::document().to_json_pretty();
    timeline::reset();
    text
}

/// Feeds every mutant of `doc` to `read`: truncations every `k` bytes,
/// single-byte flips, and a deep-nesting splice. The reader may accept
/// or reject each one, but must never panic.
fn survives_hostile_input(what: &str, doc: &str, seed: u64, read: impl Fn(&str) -> bool) {
    assert!(read(doc), "{what}: the unmutated document must read back");
    let bytes = doc.as_bytes();
    let feed = |mutant: &[u8], how: &str| {
        let text = String::from_utf8_lossy(mutant);
        if catch_unwind(AssertUnwindSafe(|| read(&text))).is_err() {
            panic!("{what}: reader panicked on {how}");
        }
    };
    let k = (bytes.len() / 400).max(1);
    for cut in (0..bytes.len()).step_by(k) {
        feed(&bytes[..cut], &format!("truncation at byte {cut}"));
    }
    let mut rng = Rng::new(seed);
    for _ in 0..400 {
        let mut mutant = bytes.to_vec();
        let at = rng.below(bytes.len() as u64) as usize;
        mutant[at] ^= 1 + rng.below(255) as u8;
        feed(&mutant, &format!("a flip at byte {at}"));
    }
    for _ in 0..8 {
        let at = rng.below(bytes.len() as u64) as usize;
        let open = if rng.below(2) == 0 { "[" } else { "{\"k\":" };
        let mut mutant = bytes[..at].to_vec();
        mutant.extend(open.repeat(100_000).bytes());
        mutant.extend(&bytes[at..]);
        feed(&mutant, &format!("a deep-nesting splice at byte {at}"));
    }
}

#[test]
fn readers_reject_hostile_input_without_panicking() {
    survives_hostile_input("run report", &real_run_report(), 0x5eed_0001, |t| {
        RunReport::from_json(t).is_ok()
    });
    survives_hostile_input("chrome trace", &real_chrome_trace(), 0x5eed_0002, |t| {
        ChromeTrace::parse(t).is_ok()
    });
    survives_hostile_input("telemetry", &real_telemetry(), 0x5eed_0003, |t| {
        TelemetryDoc::parse(t).is_ok()
    });
}

/// Replaces the value at `path` (member names and array indices) in a
/// parsed document.
fn corrupt(text: &str, path: &[&str], with: JsonValue) -> String {
    let mut doc = parse(text).expect("a written document parses");
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

#[test]
fn a_corrupt_value_is_named_by_its_path() {
    let report = corrupt(
        &real_run_report(),
        &["histograms", "trace.invocation_len", "buckets", "2", "1"],
        JsonValue::Num(-1.0),
    );
    let err = RunReport::from_json(&report).unwrap_err();
    assert_eq!(
        err.path(),
        Some("histograms['trace.invocation_len'].buckets[2][1]"),
        "{err}"
    );

    let trace = real_chrome_trace();
    let first_span = parse(&trace)
        .expect("valid")
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("events")
        .iter()
        .position(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .expect("a span")
        .to_string();
    let trace = corrupt(
        &trace,
        &["traceEvents", &first_span, "dur"],
        JsonValue::Str("long".to_owned()),
    );
    let err = ChromeTrace::parse(&trace).unwrap_err();
    assert_eq!(
        err.path(),
        Some(format!("traceEvents[{first_span}].dur").as_str()),
        "{err}"
    );

    let telemetry = corrupt(
        &real_telemetry(),
        &["runs", "0", "frames", "2", "3"],
        JsonValue::Num(0.5),
    );
    let err = TelemetryDoc::parse(&telemetry).unwrap_err();
    assert_eq!(err.path(), Some("runs[0].frames[2][3]"), "{err}");
    assert_eq!(
        err.to_string(),
        "runs[0].frames[2][3]: must be a non-negative integer"
    );
}
