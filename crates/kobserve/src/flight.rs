//! The flight recorder: the one span store, with hierarchical spans,
//! per-thread tracks, and a Chrome trace-event exporter.
//!
//! Every instrumented scope opens one guard with [`span`] or
//! [`span_with_args`]. When the guard closes it always folds
//! `(name, time, count)` into a per-name table; [`span_totals`] reads
//! that table and `RunReport::add_spans` turns it into a run report's
//! `spans`. The table holds one entry per distinct name, so it stays
//! bounded however long the process runs.
//!
//! While capture is on ([`enable`], or `--trace-out` through
//! [`set_output`]) each guard also keeps its full event: *which worker*
//! ran a job, how long it waited in the queue, what nested under what,
//! and what the engine's throughput looked like over time. Those events
//! are wall-clock shaped, so they never reach [`crate::MetricRegistry`]
//! or [`crate::RunReport`]; they are exported on demand as Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto) or rendered as ASCII
//! by the `perf` binary. Capture is off by default.
//!
//! A span's name and count never depend on capture or on the worker
//! count, only on the work done, so the totals can be diffed between
//! runs (`RunReport::to_json_deterministic` drops their durations).
//! Instrumented code treats the guards as pure observers.
//!
//! # Span model
//!
//! * Every captured span gets a process-unique id and the id of the
//!   innermost span still open **on the same thread** (its parent; 0 for
//!   roots). Parent links therefore always nest: a child's `[start, end)`
//!   interval lies within its parent's.
//! * Every thread belongs to a named *track* (`main`, `worker-0`, ...).
//!   Worker pools call [`set_thread_track`] once per worker; unregistered
//!   threads are tracked under their `std::thread` name.
//! * When an allocation probe is installed (see [`set_alloc_probe`];
//!   `oslay-perf` provides one backed by its counting allocator), each
//!   captured span records the allocation calls/bytes its thread
//!   performed while it was open (inclusive of children, like the time
//!   itself).
//! * [`counter`] events carry named samples (the layout search's
//!   proposal and acceptance counts) as Chrome `C` events.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{self, JsonValue};
use crate::report::SpanEntry;

/// A point-in-time reading from the allocation probe.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocSample {
    /// Allocation calls by the current thread.
    pub calls: u64,
    /// Bytes requested by the current thread.
    pub bytes: u64,
    /// Process-wide live heap bytes.
    pub live_bytes: u64,
}

/// A function sampling the current thread's allocation counters.
pub type AllocProbe = fn() -> AllocSample;

/// One completed span, resolved for export and tests.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Span name (e.g. `exec.job`).
    pub name: String,
    /// Name of the track (thread/worker) the span ran on.
    pub track: String,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for roots.
    pub parent: u64,
    /// Start, in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric arguments (`job`, `queue_wait_us`, `alloc_calls`, ...).
    pub args: Vec<(String, f64)>,
}

/// One counter sample (a Chrome `C` event).
#[derive(Clone, Debug, PartialEq)]
pub struct CounterEvent {
    /// Counter name (e.g. `sim.ev_per_s`).
    pub name: String,
    /// Name of the track the sample was taken on.
    pub track: String,
    /// Sample time, in nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Sampled value.
    pub value: f64,
}

#[derive(Default)]
struct Inner {
    // One entry per span name, in first-closed order.
    totals: Vec<SpanEntry>,
    tracks: Vec<String>,
    spans: Vec<RawSpan>,
    counters: Vec<RawCounter>,
    out: Option<PathBuf>,
}

struct RawSpan {
    name: Cow<'static, str>,
    track: u32,
    id: u64,
    parent: u64,
    start_ns: u64,
    dur_ns: u64,
    args: Vec<(String, f64)>,
}

struct RawCounter {
    name: String,
    track: u32,
    ts_ns: u64,
    value: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ALLOC_PROBE: OnceLock<AllocProbe> = OnceLock::new();

fn inner() -> &'static Mutex<Inner> {
    static INNER: OnceLock<Mutex<Inner>> = OnceLock::new();
    INNER.get_or_init(|| Mutex::new(Inner::default()))
}

/// The instant all trace timestamps are relative to (fixed at first use).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    // u32::MAX = this thread has not resolved its track id yet.
    static TRACK: Cell<u32> = const { Cell::new(u32::MAX) };
    // Ids of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns capture on. Until [`disable`], every [`span`] also keeps its
/// full event.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns capture off (already-open guards still keep their event).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether capture is currently on.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drops the span totals, all captured events, track registrations, and
/// any pending output path (tests use this to isolate captures).
pub fn reset() {
    let mut g = inner().lock().expect("flight recorder poisoned");
    g.totals.clear();
    g.tracks.clear();
    g.spans.clear();
    g.counters.clear();
    g.out = None;
    // Thread-local track ids index into `tracks`; invalidate this
    // thread's cache. Other threads re-register on their next span.
    TRACK.with(|t| t.set(u32::MAX));
}

/// Turns capture on and remembers where [`flush`] should write the
/// Chrome trace (`--trace-out` plumbs through here).
pub fn set_output(path: &Path) {
    enable();
    inner().lock().expect("flight recorder poisoned").out = Some(path.to_owned());
}

/// Writes the Chrome trace to the path given to [`set_output`] and
/// returns it, or `Ok(None)` when no output is pending. Idempotent: the
/// pending path is consumed, so a second flush is a no-op.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn flush() -> io::Result<Option<PathBuf>> {
    let path = inner().lock().expect("flight recorder poisoned").out.take();
    let Some(path) = path else { return Ok(None) };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&path, chrome_trace().to_json_pretty())?;
    Ok(Some(path))
}

/// Installs the per-thread allocation probe (first caller wins; the
/// probe is a plain `fn` so `kobserve` stays dependency-free while
/// `oslay-perf` supplies the counting-allocator implementation).
pub fn set_alloc_probe(probe: AllocProbe) {
    let _ = ALLOC_PROBE.set(probe);
}

/// Samples the installed allocation probe, if any.
#[must_use]
pub fn alloc_probe_sample() -> Option<AllocSample> {
    ALLOC_PROBE.get().map(|p| p())
}

fn register_track(name: &str) -> u32 {
    let mut g = inner().lock().expect("flight recorder poisoned");
    if let Some(i) = g.tracks.iter().position(|t| t == name) {
        return u32::try_from(i).expect("track count fits u32");
    }
    g.tracks.push(name.to_owned());
    u32::try_from(g.tracks.len() - 1).expect("track count fits u32")
}

/// Names the current thread's track (e.g. `worker-3`). Worker pools call
/// this once per spawned worker so spans carry per-worker attribution.
/// No-op while capture is off.
pub fn set_thread_track(name: &str) {
    if !is_enabled() {
        return;
    }
    let id = register_track(name);
    TRACK.with(|t| t.set(id));
}

fn current_track() -> u32 {
    let cached = TRACK.with(Cell::get);
    if cached != u32::MAX {
        // A reset() may have shrunk the track table; re-register if the
        // cached id no longer resolves.
        let g = inner().lock().expect("flight recorder poisoned");
        if (cached as usize) < g.tracks.len() {
            return cached;
        }
        drop(g);
    }
    let name = std::thread::current().name().unwrap_or("thread").to_owned();
    let id = register_track(&name);
    TRACK.with(|t| t.set(id));
    id
}

/// Opens a span. It folds into the per-name totals when it closes; while
/// capture is off that is all it does.
///
/// ```
/// {
///     let _g = oslay_observe::span("study.profile");
///     // ... timed work ...
/// }
/// let totals = oslay_observe::flight::span_totals();
/// assert!(totals.iter().any(|t| t.name == "study.profile"));
/// ```
#[must_use]
pub fn span(name: impl Into<Cow<'static, str>>) -> FlightGuard {
    span_with_args(name, &[])
}

/// Opens a span carrying numeric arguments. The arguments are kept, and
/// shown in the trace viewer's detail pane, only while capture is on.
#[must_use]
pub fn span_with_args(name: impl Into<Cow<'static, str>>, args: &[(&str, f64)]) -> FlightGuard {
    let name = name.into();
    let start = Instant::now();
    let capture = is_enabled().then(|| {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Capture {
            id,
            parent,
            track: current_track(),
            // From the same instant as the duration, so a child's
            // interval always lies within its parent's.
            start_ns: u64::try_from(start.saturating_duration_since(epoch()).as_nanos())
                .unwrap_or(u64::MAX),
            alloc0: alloc_probe_sample(),
            args: args.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        }
    });
    FlightGuard {
        name,
        start,
        capture,
    }
}

/// Records one counter sample on the current thread's track. No-op while
/// disabled.
pub fn counter(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    let track = current_track();
    let ts_ns = now_ns();
    let mut g = inner().lock().expect("flight recorder poisoned");
    g.counters.push(RawCounter {
        name: name.to_owned(),
        track,
        ts_ns,
        value,
    });
}

/// What a span keeps beyond its total while capture is on.
#[derive(Debug)]
struct Capture {
    id: u64,
    parent: u64,
    track: u32,
    start_ns: u64,
    alloc0: Option<AllocSample>,
    args: Vec<(String, f64)>,
}

/// RAII guard for one span; folds it into the totals (and keeps its
/// event, if captured) on drop.
#[derive(Debug)]
pub struct FlightGuard {
    name: Cow<'static, str>,
    start: Instant,
    capture: Option<Capture>,
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let name = std::mem::take(&mut self.name);
        let event = self.capture.take().map(|mut c| {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                // Guards are dropped innermost-first, so our id is the top
                // of the stack; truncate defensively in case a guard leaked.
                if let Some(pos) = s.iter().rposition(|&id| id == c.id) {
                    s.truncate(pos);
                }
            });
            if let (Some(before), Some(after)) = (c.alloc0, alloc_probe_sample()) {
                c.args.push((
                    "alloc_calls".to_owned(),
                    after.calls.saturating_sub(before.calls) as f64,
                ));
                c.args.push((
                    "alloc_bytes".to_owned(),
                    after.bytes.saturating_sub(before.bytes) as f64,
                ));
            }
            c
        });
        let mut g = inner().lock().expect("flight recorder poisoned");
        match g.totals.iter_mut().find(|t| t.name == name) {
            Some(t) => {
                t.secs += elapsed.as_secs_f64();
                t.count += 1;
            }
            None => g.totals.push(SpanEntry {
                name: name.clone().into_owned(),
                secs: elapsed.as_secs_f64(),
                count: 1,
            }),
        }
        if let Some(c) = event {
            g.spans.push(RawSpan {
                name,
                track: c.track,
                id: c.id,
                parent: c.parent,
                start_ns: c.start_ns,
                dur_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                args: c.args,
            });
        }
    }
}

/// Snapshot of the per-name span totals, in first-closed order. Kept
/// whether or not capture is on.
#[must_use]
pub fn span_totals() -> Vec<SpanEntry> {
    inner()
        .lock()
        .expect("flight recorder poisoned")
        .totals
        .clone()
}

fn track_name(tracks: &[String], id: u32) -> String {
    tracks
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("track-{id}"))
}

/// Snapshot of all completed spans, with track ids resolved to names.
#[must_use]
pub fn span_events() -> Vec<SpanEvent> {
    let g = inner().lock().expect("flight recorder poisoned");
    g.spans
        .iter()
        .map(|s| SpanEvent {
            name: s.name.clone().into_owned(),
            track: track_name(&g.tracks, s.track),
            id: s.id,
            parent: s.parent,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            args: s.args.clone(),
        })
        .collect()
}

/// Snapshot of all counter samples, with track ids resolved to names.
#[must_use]
pub fn counter_events() -> Vec<CounterEvent> {
    let g = inner().lock().expect("flight recorder poisoned");
    g.counters
        .iter()
        .map(|c| CounterEvent {
            name: c.name.clone(),
            track: track_name(&g.tracks, c.track),
            ts_ns: c.ts_ns,
            value: c.value,
        })
        .collect()
}

const NS_PER_US: f64 = 1_000.0;

/// Exports everything captured so far as a Chrome trace-event JSON value
/// (the `{"traceEvents": [...]}` object form). Loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev); all spans
/// are complete (`"ph": "X"`) events with microsecond timestamps,
/// preceded by one `thread_name` metadata record per track and
/// interleaved with `"ph": "C"` counter samples. Within each track,
/// events are sorted by timestamp.
#[must_use]
pub fn chrome_trace() -> JsonValue {
    let g = inner().lock().expect("flight recorder poisoned");
    let mut events: Vec<JsonValue> = Vec::new();
    for (tid, name) in g.tracks.iter().enumerate() {
        events.push(JsonValue::object([
            ("ph".to_owned(), JsonValue::Str("M".to_owned())),
            ("name".to_owned(), JsonValue::Str("thread_name".to_owned())),
            ("pid".to_owned(), JsonValue::Num(1.0)),
            ("tid".to_owned(), JsonValue::Num(tid as f64)),
            (
                "args".to_owned(),
                JsonValue::object([("name".to_owned(), JsonValue::Str(name.clone()))]),
            ),
        ]));
    }
    // (track, ts, is_counter, index) sort keys: per-track monotonic ts.
    let mut order: Vec<(u32, u64, bool, usize)> = Vec::new();
    for (i, s) in g.spans.iter().enumerate() {
        order.push((s.track, s.start_ns, false, i));
    }
    for (i, c) in g.counters.iter().enumerate() {
        order.push((c.track, c.ts_ns, true, i));
    }
    order.sort_by_key(|&(track, ts, _, _)| (track, ts));
    for (track, _, is_counter, i) in order {
        if is_counter {
            let c = &g.counters[i];
            events.push(JsonValue::object([
                ("ph".to_owned(), JsonValue::Str("C".to_owned())),
                ("name".to_owned(), JsonValue::Str(c.name.clone())),
                ("pid".to_owned(), JsonValue::Num(1.0)),
                ("tid".to_owned(), JsonValue::Num(f64::from(track))),
                ("ts".to_owned(), JsonValue::Num(c.ts_ns as f64 / NS_PER_US)),
                (
                    "args".to_owned(),
                    JsonValue::object([("value".to_owned(), JsonValue::Num(c.value))]),
                ),
            ]));
        } else {
            let s = &g.spans[i];
            let mut args = vec![
                ("id".to_owned(), JsonValue::Num(s.id as f64)),
                ("parent".to_owned(), JsonValue::Num(s.parent as f64)),
            ];
            args.extend(s.args.iter().map(|(k, v)| (k.clone(), JsonValue::Num(*v))));
            events.push(JsonValue::object([
                ("ph".to_owned(), JsonValue::Str("X".to_owned())),
                (
                    "name".to_owned(),
                    JsonValue::Str(s.name.clone().into_owned()),
                ),
                ("cat".to_owned(), JsonValue::Str("oslay".to_owned())),
                ("pid".to_owned(), JsonValue::Num(1.0)),
                ("tid".to_owned(), JsonValue::Num(f64::from(s.track))),
                (
                    "ts".to_owned(),
                    JsonValue::Num(s.start_ns as f64 / NS_PER_US),
                ),
                (
                    "dur".to_owned(),
                    JsonValue::Num(s.dur_ns as f64 / NS_PER_US),
                ),
                ("args".to_owned(), JsonValue::Object(args)),
            ]));
        }
    }
    JsonValue::object([
        ("traceEvents".to_owned(), JsonValue::Array(events)),
        (
            "displayTimeUnit".to_owned(),
            JsonValue::Str("ms".to_owned()),
        ),
    ])
}

/// Aggregate facts about a validated trace file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// All events, including metadata.
    pub events: usize,
    /// Complete (`X`) span events.
    pub spans: usize,
    /// Counter (`C`) samples.
    pub counters: usize,
    /// Distinct `tid`s seen.
    pub tracks: usize,
    /// Deepest span nesting observed on any one track.
    pub max_depth: usize,
}

fn event_num(e: &JsonValue, key: &str) -> Option<f64> {
    e.get(key).and_then(JsonValue::as_f64)
}

/// Validates Chrome trace-event JSON text (see [`ChromeTrace::parse`])
/// and returns its aggregate facts. This is the schema checker behind
/// `perf check` and the CI trace gate.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    ChromeTrace::parse(text).map(|trace| trace.stats)
}

/// A trace file parsed back into a neutral form for the ASCII renderers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChromeTrace {
    /// `(tid, track name)` from the metadata records.
    pub thread_names: Vec<(u64, String)>,
    /// All complete spans: `(name, tid, ts_us, dur_us)`.
    pub spans: Vec<(String, u64, f64, f64)>,
    /// Aggregate facts about the file.
    pub stats: TraceStats,
}

impl ChromeTrace {
    /// Parses Chrome trace-event JSON text, validating it in the same
    /// walk: every event must carry a phase; `X` events need a name and
    /// non-negative `ts`/`dur`; `B`/`E` pairs must balance per track with
    /// matching names; within each track, timestamps must be
    /// monotonically non-decreasing in file order and every span
    /// interval must nest inside any span still open around it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let events = match v.get("traceEvents").and_then(JsonValue::as_array) {
            Some(a) => a,
            None => v
                .as_array()
                .ok_or("neither a traceEvents object nor a bare event array")?,
        };
        let mut out = ChromeTrace::default();
        out.stats.events = events.len();
        // Per-tid state: last ts, open B/E names, open X end-times.
        let mut last_ts: Vec<(u64, f64)> = Vec::new();
        let mut be_stack: Vec<(u64, Vec<String>)> = Vec::new();
        let mut x_stack: Vec<(u64, Vec<f64>)> = Vec::new();
        fn entry<T: Default>(v: &mut Vec<(u64, T)>, tid: u64) -> &mut T {
            if let Some(i) = v.iter().position(|(t, _)| *t == tid) {
                &mut v[i].1
            } else {
                v.push((tid, T::default()));
                &mut v.last_mut().expect("just pushed").1
            }
        }
        for (i, e) in events.iter().enumerate() {
            let ph = e
                .get("ph")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("event {i}: missing ph"))?;
            if ph == "M" {
                let name = e.get("name").and_then(JsonValue::as_str);
                let track = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(JsonValue::as_str);
                if let (Some("thread_name"), Some(track)) = (name, track) {
                    let tid = event_num(e, "tid").unwrap_or(0.0) as u64;
                    out.thread_names.push((tid, track.to_owned()));
                }
                continue;
            }
            let tid = event_num(e, "tid").ok_or_else(|| format!("event {i}: missing tid"))? as u64;
            let ts = event_num(e, "ts").ok_or_else(|| format!("event {i}: missing ts"))?;
            if ts < 0.0 {
                return Err(format!("event {i}: negative ts {ts}"));
            }
            let prev = entry(&mut last_ts, tid);
            if ts + 1e-6 < *prev {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards on tid {tid} (prev {prev})"
                ));
            }
            *prev = ts;
            match ph {
                "X" => {
                    out.stats.spans += 1;
                    let name = e
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("event {i}: X without name"))?;
                    let dur = event_num(e, "dur")
                        .ok_or_else(|| format!("event {i}: X \"{name}\" without dur"))?;
                    if dur < 0.0 {
                        return Err(format!("event {i}: X \"{name}\" negative dur {dur}"));
                    }
                    let ends = entry(&mut x_stack, tid);
                    while ends.last().is_some_and(|&end| end <= ts + 1e-6) {
                        ends.pop();
                    }
                    if let Some(&enclosing) = ends.last() {
                        if ts + dur > enclosing + 1e-6 {
                            return Err(format!(
                                "event {i}: span \"{name}\" [{ts}, {}] escapes its enclosing \
                                 span ending at {enclosing} on tid {tid}",
                                ts + dur
                            ));
                        }
                    }
                    ends.push(ts + dur);
                    out.stats.max_depth = out.stats.max_depth.max(ends.len());
                    out.spans.push((name.to_owned(), tid, ts, dur));
                }
                "B" => {
                    let name = e
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("event {i}: B without name"))?;
                    entry(&mut be_stack, tid).push(name.to_owned());
                }
                "E" => {
                    let open = entry(&mut be_stack, tid);
                    let top = open
                        .pop()
                        .ok_or_else(|| format!("event {i}: E with no open B on tid {tid}"))?;
                    if let Some(name) = e.get("name").and_then(JsonValue::as_str) {
                        if name != top {
                            return Err(format!(
                                "event {i}: E \"{name}\" does not match open B \"{top}\""
                            ));
                        }
                    }
                }
                "C" => {
                    out.stats.counters += 1;
                    let ok = e
                        .get("args")
                        .is_some_and(|a| matches!(a, JsonValue::Object(m) if !m.is_empty()));
                    if !ok {
                        return Err(format!("event {i}: C without args"));
                    }
                }
                "i" | "I" => {}
                other => return Err(format!("event {i}: unsupported phase {other:?}")),
            }
        }
        for (tid, open) in &be_stack {
            if let Some(name) = open.last() {
                return Err(format!("unbalanced B \"{name}\" left open on tid {tid}"));
            }
        }
        out.stats.tracks = last_ts.len();
        Ok(out)
    }

    fn track_label(&self, tid: u64) -> String {
        self.thread_names
            .iter()
            .find(|(t, _)| *t == tid)
            .map_or_else(|| format!("tid-{tid}"), |(_, n)| n.clone())
    }

    /// Renders the top spans by total (inclusive) time as an ASCII table.
    #[must_use]
    pub fn render_top(&self, n: usize) -> String {
        let mut agg: Vec<(String, u64, f64, f64)> = Vec::new(); // name, count, total, max
        for (name, _, _, dur) in &self.spans {
            if let Some(a) = agg.iter_mut().find(|(k, _, _, _)| k == name) {
                a.1 += 1;
                a.2 += dur;
                a.3 = a.3.max(*dur);
            } else {
                agg.push((name.clone(), 1, *dur, *dur));
            }
        }
        agg.sort_by(|a, b| b.2.total_cmp(&a.2));
        let wall = self.wall_us().max(1e-9);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>7} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "max_ms", "%wall"
        ));
        for (name, count, total, max) in agg.iter().take(n) {
            out.push_str(&format!(
                "{:<28} {:>7} {:>12.3} {:>12.3} {:>6.1}%\n",
                name,
                count,
                total / 1e3,
                max / 1e3,
                100.0 * total / wall
            ));
        }
        out
    }

    /// Wall-clock extent of the trace in microseconds.
    #[must_use]
    pub fn wall_us(&self) -> f64 {
        let start = self
            .spans
            .iter()
            .map(|&(_, _, ts, _)| ts)
            .fold(f64::INFINITY, f64::min);
        let end = self
            .spans
            .iter()
            .map(|&(_, _, ts, dur)| ts + dur)
            .fold(0.0, f64::max);
        if start.is_finite() && end > start {
            end - start
        } else {
            0.0
        }
    }

    /// Track `tid`'s `exec.job` spans as sorted, disjoint `(start, end)`
    /// intervals: nested or overlapping jobs merge into one.
    fn job_intervals(&self, tid: u64) -> Vec<(f64, f64)> {
        let mut jobs: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|&&(ref name, t, _, _)| t == tid && name == "exec.job")
            .map(|&(_, _, ts, dur)| (ts, ts + dur))
            .collect();
        jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(jobs.len());
        for (start, end) in jobs {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        merged
    }

    /// Share of the trace's wall-clock that track `tid` spent inside
    /// `exec.job` spans (nested or overlapping jobs count once): how busy
    /// a worker of `exec::parallel_map` was, or how much of the main
    /// track ran jobs inline.
    #[must_use]
    pub fn busy_share(&self, tid: u64) -> f64 {
        let busy = self
            .job_intervals(tid)
            .iter()
            .fold(0.0, |busy, &(s, e)| busy + (e - s));
        let wall = self.wall_us();
        if wall > 0.0 {
            busy / wall
        } else {
            0.0
        }
    }

    /// Renders one ASCII density row per track: each column covers an
    /// equal slice of wall time, shaded by the share of it the track
    /// spent in `exec.job` (` `, `.`, `:`, `*`, `#` for 0..100%), and the
    /// row ends with the same share over the whole trace
    /// ([`ChromeTrace::busy_share`]). A track waiting in
    /// `exec.parallel_map` stays blank. Makes load imbalance between
    /// workers visible at a glance.
    #[must_use]
    pub fn render_timeline(&self, width: usize) -> String {
        let width = width.max(10);
        let wall = self.wall_us();
        if wall <= 0.0 {
            return "(empty trace)\n".to_owned();
        }
        let t0 = self
            .spans
            .iter()
            .map(|&(_, _, ts, _)| ts)
            .fold(f64::INFINITY, f64::min);
        let mut tids: Vec<u64> = self.spans.iter().map(|&(_, tid, _, _)| tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut out = String::new();
        out.push_str(&format!(
            "timeline: {:.3} ms across {} track(s), {} span(s)\n",
            wall / 1e3,
            tids.len(),
            self.spans.len()
        ));
        let col_us = wall / width as f64;
        for tid in tids {
            let mut busy = vec![0.0f64; width];
            // The job intervals are disjoint, so no column overfills.
            for (start, end) in self.job_intervals(tid) {
                let (s, e) = (start - t0, end - t0);
                let first = ((s / col_us) as usize).min(width - 1);
                let last = ((e / col_us) as usize).min(width - 1);
                for (c, b) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                    let lo = c as f64 * col_us;
                    let hi = lo + col_us;
                    *b += (e.min(hi) - s.max(lo)).max(0.0);
                }
            }
            let row: String = busy
                .iter()
                .map(|&b| {
                    let f = (b / col_us).min(1.0);
                    match (f * 4.0).ceil() as u32 {
                        0 => ' ',
                        1 => '.',
                        2 => ':',
                        3 => '*',
                        _ => '#',
                    }
                })
                .collect();
            out.push_str(&format!(
                "{:>12} |{row}| {:>5.1}% in exec.job\n",
                self.track_label(tid),
                100.0 * self.busy_share(tid)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The recorder is process-global; tests that enable it must not
    // interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: StdMutex<()> = StdMutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn count_of(name: &str) -> u64 {
        span_totals()
            .iter()
            .find(|t| t.name == name)
            .map_or(0, |t| t.count)
    }

    #[test]
    fn capture_off_keeps_totals_but_no_events() {
        let _g = lock();
        disable();
        reset();
        const N: u64 = 100;
        for i in 0..N {
            let _s = span_with_args("flighttest.disabled", &[("i", i as f64)]);
        }
        counter("flighttest.disabled.counter", 1.0);
        assert!(span_events().is_empty());
        assert!(counter_events().is_empty());
        assert_eq!(count_of("flighttest.disabled"), N);
    }

    #[test]
    fn totals_fold_by_name_with_capture_on_and_reset_clears_them() {
        let _g = lock();
        reset();
        enable();
        for _ in 0..3 {
            let _s = span("flighttest.fold.a");
        }
        {
            let _s = span(format!("flighttest.fold.{}", 'b'));
        }
        disable();
        assert_eq!(count_of("flighttest.fold.a"), 3);
        assert_eq!(count_of("flighttest.fold.b"), 1);
        let events = span_events();
        assert_eq!(events.len(), 4, "one event per captured span");
        let a = span_totals()
            .into_iter()
            .find(|t| t.name == "flighttest.fold.a")
            .expect("a folded");
        let a_events: u64 = events
            .iter()
            .filter(|e| e.name == "flighttest.fold.a")
            .map(|e| e.dur_ns)
            .sum();
        // The total and the events time the same guards.
        assert!((a.secs * 1e9 - a_events as f64).abs() < 1.0, "{a:?}");
        reset();
        assert!(span_totals().is_empty());
        assert!(span_events().is_empty());
    }

    #[test]
    fn totals_are_exact_across_threads() {
        let _g = lock();
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let _s = span("flighttest.mt");
                    }
                });
            }
        });
        assert_eq!(count_of("flighttest.mt"), 200);
    }

    #[test]
    fn spans_nest_and_carry_parent_ids() {
        let _g = lock();
        reset();
        enable();
        {
            let _outer = span("flighttest.outer");
            {
                let _inner = span_with_args("flighttest.inner", &[("job", 7.0)]);
            }
        }
        disable();
        let spans = span_events();
        let outer = spans
            .iter()
            .find(|s| s.name == "flighttest.outer")
            .expect("outer recorded");
        let inner = spans
            .iter()
            .find(|s| s.name == "flighttest.inner")
            .expect("inner recorded");
        assert_eq!(inner.parent, outer.id, "inner's parent is outer");
        assert_eq!(outer.parent, 0, "outer is a root");
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(inner.args, vec![("job".to_owned(), 7.0)]);
        // Both ran on this (named) test thread's track.
        assert_eq!(inner.track, outer.track);
    }

    #[test]
    fn worker_tracks_attribute_spans_per_thread() {
        let _g = lock();
        reset();
        enable();
        std::thread::scope(|scope| {
            for w in 0..2 {
                scope.spawn(move || {
                    set_thread_track(&format!("flightworker-{w}"));
                    let _s = span("flighttest.job");
                });
            }
        });
        disable();
        let spans = span_events();
        for w in 0..2 {
            assert!(
                spans
                    .iter()
                    .any(|s| s.name == "flighttest.job" && s.track == format!("flightworker-{w}")),
                "missing span on worker {w}: {spans:?}"
            );
        }
    }

    #[test]
    fn chrome_export_validates_and_parses_back() {
        let _g = lock();
        reset();
        enable();
        {
            let _outer = span("flighttest.export");
            let _inner = span("flighttest.export.child");
            counter("flighttest.beat", 42.0);
        }
        disable();
        let text = chrome_trace().to_json_pretty();
        let stats = validate_chrome_trace(&text).expect("export passes its own validator");
        assert!(stats.spans >= 2, "{stats:?}");
        assert!(stats.counters >= 1, "{stats:?}");
        assert!(stats.max_depth >= 2, "{stats:?}");
        let parsed = ChromeTrace::parse(&text).expect("parses back");
        assert!(parsed.spans.iter().any(|(n, ..)| n == "flighttest.export"));
        let top = parsed.render_top(10);
        assert!(top.contains("flighttest.export"), "{top}");
        let timeline = parsed.render_timeline(40);
        assert!(timeline.contains("track(s)"), "{timeline}");
    }

    #[test]
    fn busy_share_is_job_time_over_wall_clock() {
        let text = r#"{"traceEvents": [
            {"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"main"}},
            {"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"worker-0"}},
            {"ph":"X","name":"study.layout.OptS","pid":1,"tid":0,"ts":0,"dur":40},
            {"ph":"X","name":"exec.parallel_map","pid":1,"tid":0,"ts":40,"dur":60},
            {"ph":"X","name":"exec.job","pid":1,"tid":1,"ts":40,"dur":30},
            {"ph":"X","name":"exec.job","pid":1,"tid":1,"ts":45,"dur":5},
            {"ph":"X","name":"exec.job","pid":1,"tid":1,"ts":80,"dur":10}
        ]}"#;
        let trace = ChromeTrace::parse(text).expect("valid");
        assert!((trace.wall_us() - 100.0).abs() < 1e-9);
        assert_eq!(trace.busy_share(0), 0.0, "main ran no job");
        assert!(
            (trace.busy_share(1) - 0.4).abs() < 1e-9,
            "nested job counts once"
        );
        // Shading counts job time only: main, which only waits in
        // `exec.parallel_map`, stays blank.
        let timeline = trace.render_timeline(10);
        let rows: Vec<&str> = timeline.lines().skip(1).collect();
        assert_eq!(
            rows,
            [
                "        main |          |   0.0% in exec.job",
                "    worker-0 |    ### # |  40.0% in exec.job",
            ],
            "{timeline}"
        );
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        let bad_order = r#"{"traceEvents": [
            {"ph":"X","name":"a","pid":1,"tid":0,"ts":100,"dur":5},
            {"ph":"X","name":"b","pid":1,"tid":0,"ts":50,"dur":5}
        ]}"#;
        assert!(validate_chrome_trace(bad_order)
            .unwrap_err()
            .contains("backwards"));

        let escapes = r#"{"traceEvents": [
            {"ph":"X","name":"parent","pid":1,"tid":0,"ts":0,"dur":10},
            {"ph":"X","name":"child","pid":1,"tid":0,"ts":5,"dur":50}
        ]}"#;
        assert!(validate_chrome_trace(escapes)
            .unwrap_err()
            .contains("escapes"));

        let unbalanced = r#"{"traceEvents": [
            {"ph":"B","name":"open","pid":1,"tid":3,"ts":0}
        ]}"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("unbalanced"));

        let mismatched = r#"{"traceEvents": [
            {"ph":"B","name":"a","pid":1,"tid":0,"ts":0},
            {"ph":"E","name":"b","pid":1,"tid":0,"ts":1}
        ]}"#;
        assert!(validate_chrome_trace(mismatched)
            .unwrap_err()
            .contains("does not match"));

        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("not json").is_err());

        let balanced = r#"{"traceEvents": [
            {"ph":"B","name":"a","pid":1,"tid":0,"ts":0},
            {"ph":"E","name":"a","pid":1,"tid":0,"ts":1}
        ]}"#;
        validate_chrome_trace(balanced).expect("balanced B/E pass");
    }

    #[test]
    fn flush_writes_once_then_goes_quiet() {
        let _g = lock();
        reset();
        let dir = std::env::temp_dir().join(format!("kobserve_flight_{}", std::process::id()));
        let path = dir.join("trace.json");
        set_output(&path);
        {
            let _s = span("flighttest.flush");
        }
        disable();
        let written = flush().expect("flush").expect("path pending");
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).expect("trace written");
        validate_chrome_trace(&text).expect("written trace validates");
        assert!(flush().expect("second flush").is_none(), "flush consumed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
