//! Throughput bench report for the simulation engines.
//!
//! The `bench_sim` binary (in `oslay-bench`) times each engine case with
//! [`measure`] — one untimed warm-up run, then [`REPS`] timed runs — and
//! writes the median time with its first and third quartiles, events/sec
//! at the median, and allocation counts to `BENCH_sim.json` at the repo
//! root. A single timing cannot tell a 10% change from host noise; the
//! quartiles say how wide that noise was.
//!
//! The on-disk format *is* an `oslay_observe::RunReport` — one
//! `bench.<case>` section per measured case plus a `bench.meta` section —
//! so the existing report tooling (`diag --check-results`) works on it
//! unchanged.

use std::hint::black_box;
use std::time::Instant;

use oslay_observe::json::{self, DocError, JsonValue, Node};
use oslay_observe::RunReport;

use crate::alloc;

/// Timed repetitions of every case, after one untimed warm-up run.
pub const REPS: u64 = 5;

/// One measured engine case.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCase {
    /// Case label, e.g. `replay_base` or `trace_walk`.
    pub name: String,
    /// Events one run processes (cache accesses, codec events, scored
    /// candidates — each case says what it counts).
    pub events: u64,
    /// Median wall-clock seconds of one run.
    pub secs: f64,
    /// First quartile of the run times.
    pub secs_q1: f64,
    /// Third quartile of the run times.
    pub secs_q3: f64,
    /// Timed runs behind the quartiles.
    pub reps: u64,
    /// Allocator calls during the last timed run (0 when the counting
    /// allocator is not installed).
    pub allocs: u64,
    /// Bytes requested during the last timed run.
    pub alloc_bytes: u64,
    /// Peak live heap bytes over the last timed run (RSS proxy).
    pub peak_bytes: u64,
}

impl BenchCase {
    /// Throughput at the median time, in events per second.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.events as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// The first quartile, median and third quartile of `times`, each the
/// sample at that rank (nearest rank, no interpolation).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
fn quartiles(times: &[f64]) -> (f64, f64, f64) {
    assert!(!times.is_empty(), "need at least one time");
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = |quarter: usize| sorted[(sorted.len() - 1) * quarter / 4];
    (rank(1), rank(2), rank(3))
}

/// The timed runs of one case so far.
struct Runs {
    name: String,
    events: u64,
    times: Vec<f64>,
    last: alloc::AllocSnapshot,
}

impl Runs {
    /// Runs `f` once untimed; its event count is what every timed run
    /// must reproduce.
    fn warm_up(name: &str, f: &mut impl FnMut() -> u64) -> Self {
        Self {
            name: name.to_owned(),
            events: black_box(f()),
            times: Vec::new(),
            last: alloc::snapshot(),
        }
    }

    /// Times one run of `f`, keeping its allocator deltas.
    fn time(&mut self, f: &mut impl FnMut() -> u64) {
        alloc::reset_peak();
        let before = alloc::snapshot();
        let start = Instant::now();
        let n = black_box(f());
        self.times.push(start.elapsed().as_secs_f64());
        self.last = alloc::snapshot().delta_from(&before);
        assert_eq!(
            n, self.events,
            "case {}: every run must do the same work",
            self.name
        );
    }

    fn finish(self) -> BenchCase {
        let (secs_q1, secs, secs_q3) = quartiles(&self.times);
        BenchCase {
            name: self.name,
            events: self.events,
            secs,
            secs_q1,
            secs_q3,
            reps: self.times.len() as u64,
            allocs: self.last.calls,
            alloc_bytes: self.last.bytes,
            peak_bytes: self.last.peak_bytes,
        }
    }
}

/// Runs `f` once untimed, then [`REPS`] times timed, and returns the
/// case: the quartiles of the timed runs, and the allocator deltas of
/// the last one. `f` returns the events one run processed.
///
/// # Panics
///
/// Panics if two runs report different event counts: every run of a
/// case must do the same work.
pub fn measure(name: &str, mut f: impl FnMut() -> u64) -> BenchCase {
    let mut runs = Runs::warm_up(name, &mut f);
    for _ in 0..REPS {
        runs.time(&mut f);
    }
    runs.finish()
}

/// Like [`measure`] for two cases at once, timed in interleaved
/// repetitions (`a`, `b`, `a`, `b`, ...) after one warm-up each. Returns
/// both cases and the median over repetitions of the per-pair time
/// ratio `a / b`: a change in host load between repetitions hits both
/// halves of a pair alike, so the ratio holds steadier than a quotient
/// of two medians timed seconds apart.
///
/// # Panics
///
/// As [`measure`], for either case.
pub fn measure_pair(
    a: &str,
    mut fa: impl FnMut() -> u64,
    b: &str,
    mut fb: impl FnMut() -> u64,
) -> (BenchCase, BenchCase, f64) {
    let mut runs_a = Runs::warm_up(a, &mut fa);
    let mut runs_b = Runs::warm_up(b, &mut fb);
    for _ in 0..REPS {
        runs_a.time(&mut fa);
        runs_b.time(&mut fb);
    }
    let ratios: Vec<f64> = runs_a
        .times
        .iter()
        .zip(&runs_b.times)
        .map(|(ta, tb)| if *tb > 0.0 { ta / tb } else { 0.0 })
        .collect();
    let (_, ratio, _) = quartiles(&ratios);
    (runs_a.finish(), runs_b.finish(), ratio)
}

/// The full bench run: meta (scale, threads, host CPUs), the measured
/// cases, and derived cross-case figures (e.g. parallel speedup), each
/// computed from median times.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Scale label (`tiny`/`small`/`paper`).
    pub scale: String,
    /// Worker threads used for the sharded phases.
    pub threads: u64,
    /// CPUs available to the process on the measuring host.
    pub cpus: u64,
    /// Measured cases, in measurement order.
    pub cases: Vec<BenchCase>,
    /// Derived figures: `(name, value)`, e.g. `("parallel_speedup", 3.8)`.
    pub derived: Vec<(String, f64)>,
}

impl BenchReport {
    /// Creates an empty report for one bench run.
    #[must_use]
    pub fn new(scale: &str, threads: usize) -> Self {
        Self {
            scale: scale.to_owned(),
            threads: threads as u64,
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cases: Vec::new(),
            derived: Vec::new(),
        }
    }

    /// Appends one measured case.
    pub fn push_case(&mut self, case: BenchCase) {
        self.cases.push(case);
    }

    /// Appends one derived cross-case figure.
    pub fn push_derived(&mut self, name: &str, value: f64) {
        self.derived.push((name.to_owned(), value));
    }

    /// Renders the report as a [`RunReport`] named `bench_sim`.
    #[must_use]
    pub fn to_run_report(&self) -> RunReport {
        let mut report = RunReport::new("bench_sim");
        report.add_section(
            "bench.meta",
            [
                ("threads".to_owned(), self.threads as f64),
                ("cpus".to_owned(), self.cpus as f64),
                ("cases".to_owned(), self.cases.len() as f64),
            ],
        );
        for case in &self.cases {
            report.add_section(
                &format!("bench.{}", case.name),
                [
                    ("events".to_owned(), case.events as f64),
                    ("secs".to_owned(), case.secs),
                    ("secs_q1".to_owned(), case.secs_q1),
                    ("secs_q3".to_owned(), case.secs_q3),
                    ("reps".to_owned(), case.reps as f64),
                    ("events_per_sec".to_owned(), case.events_per_sec()),
                    ("allocs".to_owned(), case.allocs as f64),
                    ("alloc_bytes".to_owned(), case.alloc_bytes as f64),
                    ("peak_bytes".to_owned(), case.peak_bytes as f64),
                ],
            );
        }
        if !self.derived.is_empty() {
            report.add_section(
                "bench.derived",
                self.derived
                    .iter()
                    .map(|(name, value)| (name.clone(), *value)),
            );
        }
        report
    }

    /// Serializes to the `BENCH_sim.json` text.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_run_report().to_json().to_json_pretty()
    }

    /// Writes `BENCH_sim.json` (or any path), creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from creating directories or writing.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// The minimum acceptable trace-store compression ratio over the
/// fixed-width reference encoding. Reports that carry a
/// `trace_compression_ratio` derived field are gated against it.
pub const MIN_TRACE_COMPRESSION_RATIO: f64 = 3.0;

/// The minimum acceptable single-pass sweep speedup over per-point
/// replay of the committed design-space grid. Reports that carry a
/// `sweep_speedup` derived field are gated against it. The target (and
/// typical measurement) is >= 5x; the floor sits below it so a loaded
/// machine does not flake the gate, while still catching any real
/// regression of the single-pass engine.
pub const MIN_SWEEP_SPEEDUP: f64 = 4.0;

/// The minimum acceptable layout-search inner-loop rate, in incremental
/// objective evaluations per second, gated against the `search_score`
/// case when a report carries one. The incremental scorer touches only
/// the moved atom's lines and incident arcs, so even modest hardware
/// sustains hundreds of thousands of evaluations/sec; the floor sits
/// orders of magnitude below that and trips only on an algorithmic
/// regression (e.g. a full-layout rescore sneaking into the loop).
pub const MIN_SEARCH_SCORE_EVALS_PER_SEC: f64 = 5_000.0;

/// The minimum acceptable end-to-end layout-search rate, in proposed
/// candidates per second, gated against the `search_walk` case when
/// present. The engine's claim is "thousands of candidates per
/// second"; the floor encodes exactly that, with headroom for loaded
/// CI machines.
pub const MIN_SEARCH_WALK_CANDIDATES_PER_SEC: f64 = 2_000.0;

/// The minimum acceptable abstract-interpretation classification rate,
/// in classified line access points per second, gated against the
/// `absint_classify` case when present. One classification is a fixpoint
/// over a few thousand blocks plus a linear walk; even at paper scale it
/// finishes in well under a second, so the floor only trips on an
/// algorithmic regression (e.g. the worklist losing its queued-flag
/// dedup and going quadratic).
pub const MIN_ABSINT_CLASSIFY_POINTS_PER_SEC: f64 = 2_000.0;

/// Validates serialized `BENCH_sim.json` text: it must parse as a
/// [`RunReport`] and carry at least one `bench.*` case section, each
/// named once, whose `events_per_sec` field is strictly positive, whose
/// `secs_q1` and `secs_q3` bracket its median `secs`, and whose `reps`
/// is at least [`REPS`]. The rate floors below apply to the median
/// throughput. When the derived section
/// records a `trace_compression_ratio`, it must meet
/// [`MIN_TRACE_COMPRESSION_RATIO`]; a recorded `sweep_speedup` must
/// meet [`MIN_SWEEP_SPEEDUP`]. A report that measures the layout-search
/// cases must clear [`MIN_SEARCH_SCORE_EVALS_PER_SEC`] and
/// [`MIN_SEARCH_WALK_CANDIDATES_PER_SEC`]; one that measures the
/// abstract-interpretation classifier must clear
/// [`MIN_ABSINT_CLASSIFY_POINTS_PER_SEC`].
///
/// # Errors
///
/// Returns a [`DocError`] naming the first violation found.
pub fn validate(text: &str) -> Result<(), DocError> {
    let v = json::parse(text)?;
    // A run report's section fields are all numbers once this passes.
    RunReport::from_value(&v)?;
    let sections = Node::root(&v).member("sections")?;
    let cases: Vec<(&str, Node)> = sections
        .members()?
        .filter(|(n, _)| n.starts_with("bench.") && *n != "bench.meta" && *n != "bench.derived")
        .collect();
    if cases.is_empty() {
        return Err(sections.rule("no bench.<case> sections"));
    }
    // `json::parse` rejects a repeated key, so each case appears once.
    for (name, case) in &cases {
        let mut fields = [0.0; 5];
        for (field, key) in
            fields
                .iter_mut()
                .zip(["events_per_sec", "secs_q1", "secs", "secs_q3", "reps"])
        {
            *field = case
                .value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| case.rule(format!("lacks {key}")))?;
        }
        let [eps, q1, median, q3, reps] = fields;
        if eps <= 0.0 {
            return Err(case.rule(format!("non-positive throughput {eps}")));
        }
        if !(q1 <= median && median <= q3) {
            return Err(case.rule(format!(
                "quartiles {q1}..{q3} do not bracket the median {median}"
            )));
        }
        if reps < REPS as f64 {
            return Err(case.rule(format!("{reps} repetitions, below the {REPS} required")));
        }
        let floor = match *name {
            "bench.search_score" => MIN_SEARCH_SCORE_EVALS_PER_SEC,
            "bench.search_walk" => MIN_SEARCH_WALK_CANDIDATES_PER_SEC,
            "bench.absint_classify" => MIN_ABSINT_CLASSIFY_POINTS_PER_SEC,
            _ => 0.0,
        };
        if eps < floor {
            let message = format!("{name} rate {eps:.0}/s below the {floor:.0}/s floor");
            return Err(case.rule(message));
        }
    }
    if let Ok(derived) = sections.member("bench.derived") {
        for (key, floor) in [
            ("trace_compression_ratio", MIN_TRACE_COMPRESSION_RATIO),
            ("sweep_speedup", MIN_SWEEP_SPEEDUP),
        ] {
            let Ok(node) = derived.member(key) else {
                continue;
            };
            let ratio = node.f64()?;
            if ratio < floor {
                return Err(node.rule(format!("{key} {ratio:.2} below the {floor}x floor")));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A case timed at exactly `secs` on every repetition.
    fn case(name: &str, events: u64, secs: f64) -> BenchCase {
        BenchCase {
            name: name.to_owned(),
            events,
            secs,
            secs_q1: secs,
            secs_q3: secs,
            reps: REPS,
            allocs: 0,
            alloc_bytes: 0,
            peak_bytes: 0,
        }
    }

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("tiny", 2);
        r.push_case(case("replay_base", 10_000, 0.25));
        r.push_derived("parallel_speedup", 1.9);
        r
    }

    #[test]
    fn throughput_is_events_over_secs() {
        let r = sample();
        assert_eq!(r.cases[0].events_per_sec(), 40_000.0);
    }

    #[test]
    fn quartiles_are_nearest_rank_samples() {
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[2.0, 1.0]), (1.0, 1.0, 1.0));
    }

    #[test]
    fn measure_repeats_and_brackets_the_median() {
        let mut runs = 0;
        let c = measure("spin", || {
            runs += 1;
            (0..10_000u64).map(black_box).sum::<u64>() % 7 + 1
        });
        assert_eq!(runs, REPS + 1, "one warm-up plus the timed runs");
        assert_eq!(c.reps, REPS);
        assert!(c.secs_q1 <= c.secs && c.secs <= c.secs_q3, "{c:?}");
    }

    #[test]
    fn measure_pair_interleaves_the_two_cases() {
        let order = std::cell::RefCell::new(String::new());
        let spin = |tag: char| {
            order.borrow_mut().push(tag);
            (0..10_000u64).map(black_box).sum::<u64>() % 7 + 1
        };
        let (a, b, ratio) = measure_pair("a", || spin('a'), "b", || spin('b'));
        assert_eq!(*order.borrow(), "ab".repeat(REPS as usize + 1));
        assert_eq!((a.name.as_str(), a.reps), ("a", REPS));
        assert_eq!((b.name.as_str(), b.reps), ("b", REPS));
        assert!(ratio.is_finite() && ratio > 0.0, "{ratio}");
    }

    #[test]
    #[should_panic(expected = "same work")]
    fn measure_rejects_a_case_whose_work_changes() {
        let mut n = 0;
        let _ = measure("drift", || {
            n += 1;
            n
        });
    }

    #[test]
    fn round_trips_through_run_report_json() {
        let mut r = sample();
        r.cases[0].secs_q1 = 0.2;
        r.cases[0].secs_q3 = 0.3;
        let text = r.to_json();
        validate(&text).expect("sample report validates");
        let parsed = RunReport::from_json(&text).unwrap();
        let field = |section: &str, key: &str| parsed.section_field(section, key);
        assert_eq!(field("bench.replay_base", "events_per_sec"), Some(40_000.0));
        assert_eq!(field("bench.replay_base", "secs_q1"), Some(0.2));
        assert_eq!(field("bench.replay_base", "secs_q3"), Some(0.3));
        assert_eq!(field("bench.replay_base", "reps"), Some(REPS as f64));
        assert_eq!(field("bench.meta", "threads"), Some(2.0));
        assert!(field("bench.meta", "cpus").is_some_and(|n| n >= 1.0));
        assert_eq!(field("bench.derived", "parallel_speedup"), Some(1.9));
    }

    #[test]
    fn validate_rejects_zero_throughput_and_empty_reports() {
        let mut r = BenchReport::new("tiny", 1);
        assert!(validate(&r.to_json()).is_err(), "no case sections");
        r.push_case(case("replay_base", 0, 1.0));
        assert!(validate(&r.to_json()).is_err(), "zero throughput");
        assert!(validate("{ not json").is_err());
    }

    #[test]
    fn validate_rejects_duplicate_case_names() {
        let mut r = sample();
        r.push_case(case("replay_base", 10_000, 0.5));
        let err = validate(&r.to_json()).expect_err("a case measured twice fails");
        assert!(
            err.to_string()
                .contains(r#"repeated key "bench.replay_base""#),
            "{err}"
        );
    }

    #[test]
    fn validate_requires_bracketing_quartiles() {
        for (q1, q3) in [(0.3, 0.4), (0.1, 0.2)] {
            let mut r = sample();
            r.cases[0].secs_q1 = q1;
            r.cases[0].secs_q3 = q3;
            let err = validate(&r.to_json()).expect_err("median outside Q1..Q3");
            assert!(
                err.to_string().contains("do not bracket the median"),
                "{err}"
            );
        }
        let text = sample().to_json().replace("\"secs_q3\"", "\"secs_q9\"");
        let err = validate(&text).expect_err("no Q3 field");
        assert!(err.to_string().contains("lacks secs_q3"), "{err}");
    }

    #[test]
    fn validate_requires_the_repetition_count() {
        let mut r = sample();
        r.cases[0].reps = REPS - 1;
        let err = validate(&r.to_json()).expect_err("too few repetitions");
        assert!(err.to_string().contains("repetitions"), "{err}");
    }

    #[test]
    fn validate_gates_trace_compression_ratio() {
        let mut r = sample();
        r.push_derived("trace_compression_ratio", 4.4);
        validate(&r.to_json()).expect("ratio above the floor passes");
        let mut r = sample();
        r.push_derived("trace_compression_ratio", 2.1);
        let err = validate(&r.to_json()).expect_err("ratio below the floor fails");
        assert!(err.to_string().contains("trace_compression_ratio"), "{err}");
    }

    #[test]
    fn validate_gates_sweep_speedup() {
        let mut r = sample();
        r.push_derived("sweep_speedup", 5.2);
        validate(&r.to_json()).expect("speedup above the floor passes");
        let mut r = sample();
        r.push_derived("sweep_speedup", 3.1);
        let err = validate(&r.to_json()).expect_err("speedup below the floor fails");
        assert!(err.to_string().contains("sweep_speedup"), "{err}");
        let r = sample();
        validate(&r.to_json()).expect("absent speedup field is not gated");
    }

    #[test]
    fn validate_gates_search_case_rates() {
        let mut r = sample();
        r.push_case(case("search_score", 400_000, 1.0));
        r.push_case(case("search_walk", 150_000, 1.0));
        validate(&r.to_json()).expect("rates above the floors pass");

        let mut r = sample();
        r.push_case(case("search_score", 1_000, 1.0));
        let err = validate(&r.to_json()).expect_err("slow scorer fails");
        assert!(err.to_string().contains("search_score"), "{err}");

        let mut r = sample();
        r.push_case(case("search_walk", 500, 1.0));
        let err = validate(&r.to_json()).expect_err("slow walk fails");
        assert!(err.to_string().contains("search_walk"), "{err}");

        let r = sample();
        validate(&r.to_json()).expect("absent search cases are not gated");
    }

    #[test]
    fn validate_gates_absint_classify_rate() {
        let mut r = sample();
        r.push_case(case("absint_classify", 50_000, 1.0));
        validate(&r.to_json()).expect("rate above the floor passes");

        let mut r = sample();
        r.push_case(case("absint_classify", 500, 1.0));
        let err = validate(&r.to_json()).expect_err("slow classifier fails");
        assert!(err.to_string().contains("absint_classify"), "{err}");

        let r = sample();
        validate(&r.to_json()).expect("absent absint case is not gated");
    }
}
