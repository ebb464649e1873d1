//! Simulated-time cache telemetry: the timeline recorder.
//!
//! The flight recorder ([`crate::flight`]) attributes *wall-clock* time;
//! this module attributes *simulated* time. While a replay runs, a
//! [`WindowRecorder`] samples the cache every `2^k` simulated events into
//! a bounded ring of [`TelemetryFrame`]s — miss rate split
//! compulsory/capacity/conflict, per-set occupancy quantiles, an
//! eviction-age histogram, and the OS-vs-user mix — then change-point
//! segmentation turns the frame stream into stable [`Phase`]s with
//! per-phase summary statistics.
//!
//! Design rules, mirrored from the flight recorder:
//!
//! * **Zero-cost when disabled.** [`recorder`] is one relaxed atomic load
//!   when the timeline is off; the hot path then carries a `None` it never
//!   touches again.
//! * **Allocation-free steady state.** A recorder holds a bounded frame
//!   vector; when it fills, adjacent frames are pair-merged and the window
//!   doubles, so arbitrarily long replays fit in constant memory.
//! * **Simulated quantities only.** Frames contain event counts and cache
//!   state — never wall-clock time — so the stream is byte-identical
//!   across machines and worker counts.
//! * **Deterministic merge.** Sharded drivers allocate a [`group`] before
//!   fanning out and open a [`scope`] per job; [`flush`] sorts completed
//!   runs by `(group, job index)`, so the output file is byte-identical at
//!   any worker count.
//!
//! The serialized document (`--telemetry-out FILE`) is the
//! `oslay.telemetry.v1` schema; [`validate_telemetry`] is the strict
//! checker behind `dash --check`.

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::{self, JsonValue};

/// Schema identifier written into every telemetry document.
pub const SCHEMA: &str = "oslay.telemetry.v1";

/// Initial sampling window: one frame per `2^8 = 256` simulated events.
pub const INITIAL_WINDOW_LOG2: u32 = 8;

/// Frame-ring capacity. When a run reaches this many frames, adjacent
/// pairs merge and the window doubles (capacity must stay even for the
/// pair-merge to preserve the `events % window == 0` boundary invariant).
pub const MAX_FRAMES: usize = 512;

/// Eviction-age histogram buckets: bucket `b` counts evictions whose
/// victim line was last touched `[2^b, 2^{b+1})` accesses ago.
pub const AGE_BUCKETS: usize = 64;

/// Point-in-time cache-state sample supplied by the cache itself (the
/// part of a [`CacheSnapshot`] that needs tag-array visibility).
///
/// `oslay-cache` implements this behind
/// `InstructionCache::telemetry_snapshot`; organizations without the
/// hooks return `None` and their frames carry zeros for these fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheProbeSnapshot {
    /// Median valid ways per set.
    pub occ_p50: u32,
    /// 95th-percentile valid ways per set.
    pub occ_p95: u32,
    /// Overall fill fraction in parts per million (`0..=1_000_000`).
    pub fill_ppm: u32,
    /// Cumulative eviction-age histogram (log2 buckets).
    pub evict_ages: [u64; AGE_BUCKETS],
    /// Cumulative compulsory/capacity/conflict miss counts, when the
    /// cache runs the attribution shadow store.
    pub attr: Option<[u64; 3]>,
}

/// Cumulative cache state at one sampling boundary. The replayer builds
/// one from `MissStats` plus the cache's [`CacheProbeSnapshot`]; the
/// recorder differences consecutive snapshots into frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Total instruction fetches so far.
    pub accesses: u64,
    /// Fetches issued by the operating system.
    pub os_accesses: u64,
    /// Total misses so far.
    pub misses: u64,
    /// Cold (first-reference) misses so far — the compulsory component
    /// when no attribution shadow store is running.
    pub cold_misses: u64,
    /// The cache's own state sample, if the organization provides one.
    pub probe: Option<CacheProbeSnapshot>,
}

/// One sampling window of a run: event-windowed deltas plus
/// point-in-time occupancy. All quantities are simulated-time integers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryFrame {
    /// Cumulative simulated events at the end of this frame.
    pub events: u64,
    /// Fetches in this window.
    pub accesses: u64,
    /// OS fetches in this window (the OS-vs-user mix).
    pub os_accesses: u64,
    /// Misses in this window.
    pub misses: u64,
    /// Compulsory misses in this window.
    pub compulsory: u64,
    /// Capacity misses in this window (zero without the attribution
    /// shadow store — unattributed runs fold capacity into `conflict`).
    pub capacity: u64,
    /// Conflict misses in this window.
    pub conflict: u64,
    /// Median valid ways per set at the frame boundary.
    pub occ_p50: u64,
    /// 95th-percentile valid ways per set at the frame boundary.
    pub occ_p95: u64,
    /// Fill fraction at the frame boundary, parts per million.
    pub fill_ppm: u64,
    /// Sparse eviction-age deltas for this window: `(log2 bucket, count)`.
    pub ages: Vec<(u32, u64)>,
}

impl TelemetryFrame {
    /// Integer quantile of the window's eviction-age distribution:
    /// the representative age `2^b` of the first bucket where the
    /// cumulative count crosses `num/den` of the total (0 when the
    /// window evicted nothing).
    #[must_use]
    pub fn age_quantile(&self, num: u64, den: u64) -> u64 {
        let total: u64 = self.ages.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0;
        }
        let target = (total * num).div_ceil(den);
        let mut cum = 0u64;
        for &(bucket, count) in &self.ages {
            cum += count;
            if cum >= target {
                // Cap so the serialized value stays in the integer-exact
                // JSON range (ages beyond 2^49 never occur in practice).
                return 1u64 << bucket.min(49);
            }
        }
        1u64 << self.ages.last().map_or(0, |&(b, _)| b.min(49))
    }

    /// The 12-integer serialized row of this frame, in schema order.
    #[must_use]
    pub fn row(&self) -> [u64; 12] {
        [
            self.events,
            self.accesses,
            self.os_accesses,
            self.misses,
            self.compulsory,
            self.capacity,
            self.conflict,
            self.occ_p50,
            self.occ_p95,
            self.fill_ppm,
            self.age_quantile(1, 2),
            self.age_quantile(19, 20),
        ]
    }

    fn merge_with(&self, next: &TelemetryFrame) -> TelemetryFrame {
        let mut ages = self.ages.clone();
        for &(bucket, count) in &next.ages {
            match ages.binary_search_by_key(&bucket, |&(b, _)| b) {
                Ok(i) => ages[i].1 += count,
                Err(i) => ages.insert(i, (bucket, count)),
            }
        }
        TelemetryFrame {
            events: next.events,
            accesses: self.accesses + next.accesses,
            os_accesses: self.os_accesses + next.os_accesses,
            misses: self.misses + next.misses,
            compulsory: self.compulsory + next.compulsory,
            capacity: self.capacity + next.capacity,
            conflict: self.conflict + next.conflict,
            // Occupancy is point-in-time; the merged frame keeps the
            // later boundary's sample.
            occ_p50: next.occ_p50,
            occ_p95: next.occ_p95,
            fill_ppm: next.fill_ppm,
            ages,
        }
    }
}

/// One segment of a run's frame stream with homogeneous miss behavior.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Sequential phase id (stable: segmentation is deterministic over a
    /// deterministic frame stream).
    pub id: u32,
    /// First frame of the phase.
    pub start_frame: usize,
    /// One past the last frame of the phase.
    pub end_frame: usize,
    /// Cumulative events at the phase start (end of the prior phase).
    pub events_start: u64,
    /// Cumulative events at the phase end.
    pub events_end: u64,
    /// Fetches within the phase.
    pub accesses: u64,
    /// Misses within the phase.
    pub misses: u64,
    /// Compulsory misses within the phase.
    pub compulsory: u64,
    /// Capacity misses within the phase.
    pub capacity: u64,
    /// Conflict misses within the phase.
    pub conflict: u64,
    /// Phase miss rate in parts per million.
    pub miss_rate_ppm: u64,
}

/// Change-point segmentation of a frame stream by per-frame miss rate.
///
/// Greedy binary segmentation: repeatedly split the segment whose best
/// split most reduces the sum of squared errors, while the reduction
/// exceeds a penalty proportional to the whole-series SSE. Minimum
/// segment length 4 frames, at most 12 phases. Purely a function of the
/// frame stream, so phase ids are stable across runs and worker counts.
#[must_use]
pub fn segment_phases(frames: &[TelemetryFrame]) -> Vec<Phase> {
    const MIN_SEG: usize = 4;
    const MAX_PHASES: usize = 12;
    let n = frames.len();
    if n == 0 {
        return Vec::new();
    }
    let rates: Vec<f64> = frames
        .iter()
        .map(|f| {
            if f.accesses == 0 {
                0.0
            } else {
                f.misses as f64 / f.accesses as f64
            }
        })
        .collect();
    // Prefix sums of x and x^2 make any segment's SSE O(1).
    let mut s = vec![0.0f64; n + 1];
    let mut s2 = vec![0.0f64; n + 1];
    for (i, &r) in rates.iter().enumerate() {
        s[i + 1] = s[i] + r;
        s2[i + 1] = s2[i] + r * r;
    }
    let sse = |a: usize, b: usize| -> f64 {
        let len = (b - a) as f64;
        let sum = s[b] - s[a];
        ((s2[b] - s2[a]) - sum * sum / len).max(0.0)
    };
    let penalty = (sse(0, n) * 0.05).max(1e-12);
    let mut bounds = vec![0usize, n];
    while bounds.len() - 1 < MAX_PHASES {
        let mut best: Option<(f64, usize)> = None;
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b - a < 2 * MIN_SEG {
                continue;
            }
            for k in a + MIN_SEG..=b - MIN_SEG {
                let gain = sse(a, b) - sse(a, k) - sse(k, b);
                // Strict comparison: ties keep the earliest split, so the
                // choice is deterministic.
                if best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, k));
                }
            }
        }
        match best {
            Some((gain, k)) if gain > penalty => {
                let at = bounds.partition_point(|&b| b < k);
                bounds.insert(at, k);
            }
            _ => break,
        }
    }
    bounds
        .windows(2)
        .enumerate()
        .map(|(id, w)| {
            let (a, b) = (w[0], w[1]);
            let slice = &frames[a..b];
            let accesses: u64 = slice.iter().map(|f| f.accesses).sum();
            let misses: u64 = slice.iter().map(|f| f.misses).sum();
            Phase {
                id: u32::try_from(id).expect("phase count fits u32"),
                start_frame: a,
                end_frame: b,
                events_start: if a == 0 { 0 } else { frames[a - 1].events },
                events_end: frames[b - 1].events,
                accesses,
                misses,
                compulsory: slice.iter().map(|f| f.compulsory).sum(),
                capacity: slice.iter().map(|f| f.capacity).sum(),
                conflict: slice.iter().map(|f| f.conflict).sum(),
                miss_rate_ppm: (misses * 1_000_000).checked_div(accesses).unwrap_or(0),
            }
        })
        .collect()
}

/// Cumulative counters at the last frame boundary, used to difference
/// the next snapshot into a frame.
#[derive(Clone, Debug)]
struct Baseline {
    accesses: u64,
    os_accesses: u64,
    misses: u64,
    cold_misses: u64,
    attr: Option<[u64; 3]>,
    ages: [u64; AGE_BUCKETS],
}

impl Default for Baseline {
    fn default() -> Self {
        Self {
            accesses: 0,
            os_accesses: 0,
            misses: 0,
            cold_misses: 0,
            attr: None,
            ages: [0; AGE_BUCKETS],
        }
    }
}

impl Baseline {
    fn from_snapshot(snap: &CacheSnapshot) -> Self {
        Self {
            accesses: snap.accesses,
            os_accesses: snap.os_accesses,
            misses: snap.misses,
            cold_misses: snap.cold_misses,
            attr: snap.probe.as_ref().and_then(|p| p.attr),
            ages: snap
                .probe
                .as_ref()
                .map_or([0; AGE_BUCKETS], |p| p.evict_ages),
        }
    }
}

/// The per-run windowed recorder the replayer drives: [`tick`] per
/// simulated event, [`WindowRecorder::sample`] at window boundaries,
/// [`WindowRecorder::finish`] at end of stream (which also runs phase
/// segmentation and hands the completed run to the global collector).
///
/// [`tick`]: WindowRecorder::tick
#[derive(Debug)]
pub struct WindowRecorder {
    group: u64,
    index: u64,
    label: String,
    window_log2: u32,
    seen: u64,
    last_sampled: u64,
    frames: Vec<TelemetryFrame>,
    last: Baseline,
}

impl WindowRecorder {
    fn new(group: u64, index: u64, label: String) -> Self {
        Self {
            group,
            index,
            label,
            window_log2: INITIAL_WINDOW_LOG2,
            seen: 0,
            last_sampled: 0,
            frames: Vec::new(),
            last: Baseline::default(),
        }
    }

    /// Counts one simulated event; true when the stream just crossed a
    /// window boundary and the caller should [`WindowRecorder::sample`].
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.seen += 1;
        self.seen & ((1u64 << self.window_log2) - 1) == 0
    }

    /// Simulated events seen so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.seen
    }

    /// Current window size in events (`2^k`; grows as frames coarsen).
    #[must_use]
    pub fn window(&self) -> u64 {
        1u64 << self.window_log2
    }

    /// Closes the current window against a fresh cumulative snapshot.
    pub fn sample(&mut self, snap: &CacheSnapshot) {
        let attr_now = snap.probe.as_ref().and_then(|p| p.attr);
        let (compulsory, capacity, conflict) = match (self.last.attr, attr_now) {
            (last, Some(now)) => {
                let last = last.unwrap_or([0; 3]);
                (
                    now[0].saturating_sub(last[0]),
                    now[1].saturating_sub(last[1]),
                    now[2].saturating_sub(last[2]),
                )
            }
            // Without the attribution shadow store, cold misses are the
            // compulsory component and the capacity/conflict split is
            // unknowable: everything non-cold reports as conflict.
            _ => {
                let misses = snap.misses - self.last.misses;
                let cold = snap.cold_misses - self.last.cold_misses;
                (cold, 0, misses.saturating_sub(cold))
            }
        };
        let ages_now = snap
            .probe
            .as_ref()
            .map_or([0; AGE_BUCKETS], |p| p.evict_ages);
        let mut ages = Vec::new();
        for (b, (&now, &then)) in ages_now.iter().zip(&self.last.ages).enumerate() {
            let delta = now - then;
            if delta > 0 {
                ages.push((u32::try_from(b).expect("bucket fits u32"), delta));
            }
        }
        self.frames.push(TelemetryFrame {
            events: self.seen,
            accesses: snap.accesses - self.last.accesses,
            os_accesses: snap.os_accesses - self.last.os_accesses,
            misses: snap.misses - self.last.misses,
            compulsory,
            capacity,
            conflict,
            occ_p50: snap.probe.as_ref().map_or(0, |p| u64::from(p.occ_p50)),
            occ_p95: snap.probe.as_ref().map_or(0, |p| u64::from(p.occ_p95)),
            fill_ppm: snap.probe.as_ref().map_or(0, |p| u64::from(p.fill_ppm)),
            ages,
        });
        self.last = Baseline::from_snapshot(snap);
        self.last_sampled = self.seen;
        if self.frames.len() >= MAX_FRAMES {
            self.coarsen();
        }
    }

    /// Halves the frame count by pair-merging and doubles the window.
    fn coarsen(&mut self) {
        let merged: Vec<TelemetryFrame> = self
            .frames
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => a.merge_with(b),
                [a] => a.clone(),
                _ => unreachable!("chunks(2)"),
            })
            .collect();
        self.frames = merged;
        self.window_log2 += 1;
    }

    /// Closes the final (possibly partial) window, segments the frame
    /// stream into phases, and records the completed run with the global
    /// collector for [`flush`].
    pub fn finish(mut self, snap: &CacheSnapshot) {
        if self.seen > self.last_sampled {
            self.sample(snap);
        }
        let phases = segment_phases(&self.frames);
        let run = CompletedRun {
            group: self.group,
            index: self.index,
            label: self.label,
            window_log2: self.window_log2,
            frames: self.frames,
            phases,
        };
        let mut g = inner().lock().expect("timeline poisoned");
        g.runs.push(run);
    }
}

/// A finished run held by the global collector until [`flush`].
#[derive(Clone, Debug)]
struct CompletedRun {
    group: u64,
    index: u64,
    label: String,
    window_log2: u32,
    frames: Vec<TelemetryFrame>,
    phases: Vec<Phase>,
}

#[derive(Default)]
struct Inner {
    out: Option<PathBuf>,
    runs: Vec<CompletedRun>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_GROUP: AtomicU64 = AtomicU64::new(1);

fn inner() -> &'static Mutex<Inner> {
    static INNER: OnceLock<Mutex<Inner>> = OnceLock::new();
    INNER.get_or_init(|| Mutex::new(Inner::default()))
}

thread_local! {
    // Scope stack: (group, job index, label) of the runs open on this
    // thread, outermost first.
    static SCOPE: RefCell<Vec<(u64, u64, String)>> = const { RefCell::new(Vec::new()) };
}

/// Turns the timeline on. Until [`disable`], replayers created inside a
/// [`scope`] record telemetry.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the timeline off.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the timeline is currently capturing.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drops all recorded runs, this thread's scope stack, and any pending
/// output path (tests use this to isolate captures).
pub fn reset() {
    let mut g = inner().lock().expect("timeline poisoned");
    g.runs.clear();
    g.out = None;
    SCOPE.with(|s| s.borrow_mut().clear());
}

/// Enables the timeline and remembers where [`flush`] should write the
/// telemetry document (`--telemetry-out` plumbs through here).
pub fn set_output(path: &Path) {
    enable();
    inner().lock().expect("timeline poisoned").out = Some(path.to_owned());
}

/// Number of completed runs currently held (test hook).
#[must_use]
pub fn runs_recorded() -> usize {
    inner().lock().expect("timeline poisoned").runs.len()
}

/// Allocates a merge group. Sharded drivers call this once on the
/// calling thread *before* fanning out, so group order follows driver
/// call order regardless of worker scheduling.
#[must_use]
pub fn group() -> u64 {
    NEXT_GROUP.fetch_add(1, Ordering::Relaxed)
}

/// Opens a recording scope on this thread: replayers constructed while
/// the guard lives record a run filed under `(group, index, label)`.
/// Inert (and free) while the timeline is disabled.
#[must_use]
pub fn scope(group: u64, index: u64, label: impl Into<String>) -> ScopeGuard {
    if !is_enabled() {
        return ScopeGuard { active: false };
    }
    SCOPE.with(|s| s.borrow_mut().push((group, index, label.into())));
    ScopeGuard { active: true }
}

/// Opens a scope inside this thread's innermost one, under its group
/// and index but with its own label: a job that replays several runs side
/// by side names each of them. Runs of one index merge in the order they
/// finish. Inert while the timeline is disabled or no scope is open.
#[must_use]
pub fn nested_scope(label: impl Into<String>) -> ScopeGuard {
    if !is_enabled() {
        return ScopeGuard { active: false };
    }
    SCOPE.with(|s| {
        let mut stack = s.borrow_mut();
        let Some(&(group, index, _)) = stack.last() else {
            return ScopeGuard { active: false };
        };
        stack.push((group, index, label.into()));
        ScopeGuard { active: true }
    })
}

/// Guard returned by [`scope`]; closes the scope on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    active: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.active {
            SCOPE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Hands the hot path its recorder: `Some` only when the timeline is
/// enabled *and* this thread has an open [`scope`] (one relaxed atomic
/// load otherwise — the zero-cost-when-disabled contract).
#[must_use]
pub fn recorder() -> Option<WindowRecorder> {
    if !is_enabled() {
        return None;
    }
    SCOPE.with(|s| {
        s.borrow()
            .last()
            .map(|(group, index, label)| WindowRecorder::new(*group, *index, label.clone()))
    })
}

fn run_to_json(run: &CompletedRun) -> JsonValue {
    JsonValue::object([
        ("label".to_owned(), JsonValue::Str(run.label.clone())),
        (
            "window_log2".to_owned(),
            JsonValue::Num(f64::from(run.window_log2)),
        ),
        (
            "frames".to_owned(),
            JsonValue::Array(
                run.frames
                    .iter()
                    .map(|f| {
                        JsonValue::Array(
                            f.row().iter().map(|&v| JsonValue::Num(v as f64)).collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "phases".to_owned(),
            JsonValue::Array(
                run.phases
                    .iter()
                    .map(|p| {
                        JsonValue::object([
                            ("id".to_owned(), JsonValue::Num(f64::from(p.id))),
                            (
                                "start_frame".to_owned(),
                                JsonValue::Num(p.start_frame as f64),
                            ),
                            ("end_frame".to_owned(), JsonValue::Num(p.end_frame as f64)),
                            (
                                "events_start".to_owned(),
                                JsonValue::Num(p.events_start as f64),
                            ),
                            ("events_end".to_owned(), JsonValue::Num(p.events_end as f64)),
                            ("accesses".to_owned(), JsonValue::Num(p.accesses as f64)),
                            ("misses".to_owned(), JsonValue::Num(p.misses as f64)),
                            ("compulsory".to_owned(), JsonValue::Num(p.compulsory as f64)),
                            ("capacity".to_owned(), JsonValue::Num(p.capacity as f64)),
                            ("conflict".to_owned(), JsonValue::Num(p.conflict as f64)),
                            (
                                "miss_rate_ppm".to_owned(),
                                JsonValue::Num(p.miss_rate_ppm as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Serializes every recorded run, sorted by `(group, job index)` — the
/// deterministic merge that makes the document byte-identical at any
/// worker count.
#[must_use]
pub fn document() -> JsonValue {
    let g = inner().lock().expect("timeline poisoned");
    let mut order: Vec<usize> = (0..g.runs.len()).collect();
    order.sort_by_key(|&i| (g.runs[i].group, g.runs[i].index));
    JsonValue::object([
        ("schema".to_owned(), JsonValue::Str(SCHEMA.to_owned())),
        (
            "runs".to_owned(),
            JsonValue::Array(order.iter().map(|&i| run_to_json(&g.runs[i])).collect()),
        ),
    ])
}

/// Writes the telemetry document to the path given to [`set_output`] and
/// returns it, or `Ok(None)` when no output is pending. Idempotent: the
/// pending path is consumed, so a second flush is a no-op.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn flush() -> io::Result<Option<PathBuf>> {
    let path = inner().lock().expect("timeline poisoned").out.take();
    let Some(path) = path else { return Ok(None) };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&path, document().to_json_pretty())?;
    Ok(Some(path))
}

/// Summary statistics returned by a successful [`validate_telemetry`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryStats {
    /// Runs in the document.
    pub runs: usize,
    /// Frames across all runs.
    pub frames: usize,
    /// Phases across all runs.
    pub phases: usize,
    /// Simulated events across all runs (sum of final frame counts).
    pub events: u64,
}

/// One parsed run of a telemetry document (the `dash` viewer's model).
#[derive(Clone, Debug)]
pub struct TelemetryRun {
    /// The run's scope label (e.g. `Null/OptS`).
    pub label: String,
    /// log2 of the final sampling window.
    pub window_log2: u32,
    /// The frame rows, each in [`TelemetryFrame::row`] order.
    pub rows: Vec<[u64; 12]>,
    /// The segmented phases.
    pub phases: Vec<Phase>,
}

impl TelemetryRun {
    /// Per-frame miss rate (misses / accesses), for rendering.
    #[must_use]
    pub fn miss_rates(&self) -> Vec<f64> {
        self.rows
            .iter()
            .map(|r| {
                if r[1] == 0 {
                    0.0
                } else {
                    r[3] as f64 / r[1] as f64
                }
            })
            .collect()
    }
}

/// A parsed, validated telemetry document.
#[derive(Clone, Debug, Default)]
pub struct TelemetryDoc {
    /// The runs, in merge order.
    pub runs: Vec<TelemetryRun>,
}

impl TelemetryDoc {
    /// Parses a telemetry document, validating it strictly in the same
    /// walk: schema tag, frame row shape and non-negativity, strictly
    /// increasing event counts, miss-split and OS-mix consistency, and
    /// phase coverage/summation. Sums that overflow `u64` are violations
    /// too, so hostile numbers yield an `Err`, never a panic or a wrap.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        if v.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
            return Err(format!("missing or wrong schema tag (want {SCHEMA:?})"));
        }
        let runs = v
            .get("runs")
            .and_then(JsonValue::as_array)
            .ok_or("missing runs array")?;
        let runs = runs
            .iter()
            .enumerate()
            .map(|(ri, run)| parse_run(ri, run))
            .collect::<Result<_, _>>()?;
        Ok(Self { runs })
    }

    /// Summary counts of the document.
    #[must_use]
    pub fn stats(&self) -> TelemetryStats {
        TelemetryStats {
            runs: self.runs.len(),
            frames: self.runs.iter().map(|r| r.rows.len()).sum(),
            phases: self.runs.iter().map(|r| r.phases.len()).sum(),
            events: self
                .runs
                .iter()
                .filter_map(|r| r.rows.last())
                .fold(0, |total, row| total.saturating_add(row[0])),
        }
    }
}

/// `a + b`, or the named violation when the sum overflows `u64`.
fn add(a: u64, b: u64, what: impl FnOnce() -> String) -> Result<u64, String> {
    a.checked_add(b)
        .ok_or_else(|| format!("{} overflows", what()))
}

/// Parses and validates run `ri` of a telemetry document.
fn parse_run(ri: usize, run: &JsonValue) -> Result<TelemetryRun, String> {
    let label = run
        .get("label")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("run {ri}: missing label"))?;
    if label.is_empty() {
        return Err(format!("run {ri}: empty label"));
    }
    let window = run
        .get("window_log2")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("run {label:?}: missing window_log2"))?;
    if window > 63 {
        return Err(format!("run {label:?}: window_log2 {window} out of range"));
    }
    let frames = run
        .get("frames")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("run {label:?}: missing frames"))?;
    let mut rows = Vec::with_capacity(frames.len());
    let mut prev_events = 0u64;
    let mut frame_sums = (0u64, 0u64); // (accesses, misses)
    for (fi, row) in frames.iter().enumerate() {
        let cells = row
            .as_array()
            .ok_or_else(|| format!("run {label:?} frame {fi}: not an array"))?;
        if cells.len() != 12 {
            return Err(format!(
                "run {label:?} frame {fi}: {} cells, want 12",
                cells.len()
            ));
        }
        let mut r = [0u64; 12];
        for (i, cell) in cells.iter().enumerate() {
            r[i] = cell.as_u64().ok_or_else(|| {
                format!("run {label:?} frame {fi} cell {i}: not a non-negative integer")
            })?;
        }
        let [events, accesses, os_accesses, misses, compulsory, capacity, conflict, occ_p50, occ_p95, fill_ppm, _, _] =
            r;
        if events <= prev_events {
            return Err(format!(
                "run {label:?} frame {fi}: events {events} not strictly increasing (prev {prev_events})"
            ));
        }
        prev_events = events;
        if misses > accesses {
            return Err(format!(
                "run {label:?} frame {fi}: misses {misses} exceed accesses {accesses}"
            ));
        }
        if os_accesses > accesses {
            return Err(format!(
                "run {label:?} frame {fi}: os_accesses {os_accesses} exceed accesses {accesses}"
            ));
        }
        let split = compulsory
            .checked_add(capacity)
            .and_then(|s| s.checked_add(conflict));
        if split != Some(misses) {
            return Err(format!(
                "run {label:?} frame {fi}: miss split {compulsory}+{capacity}+{conflict} != {misses}"
            ));
        }
        if occ_p50 > occ_p95 {
            return Err(format!(
                "run {label:?} frame {fi}: occ_p50 {occ_p50} exceeds occ_p95 {occ_p95}"
            ));
        }
        if fill_ppm > 1_000_000 {
            return Err(format!(
                "run {label:?} frame {fi}: fill_ppm {fill_ppm} exceeds 1e6"
            ));
        }
        let what = || format!("run {label:?}: frame sum at frame {fi}");
        frame_sums = (
            add(frame_sums.0, accesses, what)?,
            add(frame_sums.1, misses, what)?,
        );
        rows.push(r);
    }
    let phase_values = run
        .get("phases")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("run {label:?}: missing phases"))?;
    if frames.is_empty() && !phase_values.is_empty() {
        return Err(format!("run {label:?}: phases without frames"));
    }
    let mut phases = Vec::with_capacity(phase_values.len());
    let mut next_start = 0usize;
    let mut phase_sums = (0u64, 0u64);
    for (pi, phase) in phase_values.iter().enumerate() {
        let f = |key: &str| {
            phase
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("run {label:?} phase {pi}: missing {key}"))
        };
        let id = f("id")?;
        if id != pi as u64 {
            return Err(format!("run {label:?} phase {pi}: non-sequential id"));
        }
        let start = f("start_frame")? as usize;
        let end = f("end_frame")? as usize;
        if start != next_start || end <= start || end > frames.len() {
            return Err(format!(
                "run {label:?} phase {pi}: range {start}..{end} breaks contiguous coverage"
            ));
        }
        next_start = end;
        let (accesses, misses) = (f("accesses")?, f("misses")?);
        let (compulsory, capacity, conflict) = (f("compulsory")?, f("capacity")?, f("conflict")?);
        let split = compulsory
            .checked_add(capacity)
            .and_then(|s| s.checked_add(conflict));
        if split != Some(misses) {
            return Err(format!("run {label:?} phase {pi}: miss split mismatch"));
        }
        let scaled = misses
            .checked_mul(1_000_000)
            .ok_or_else(|| format!("run {label:?} phase {pi}: misses x 1e6 overflows"))?;
        let miss_rate_ppm = f("miss_rate_ppm")?;
        if miss_rate_ppm != scaled.checked_div(accesses).unwrap_or(0) {
            return Err(format!("run {label:?} phase {pi}: miss_rate_ppm mismatch"));
        }
        let what = || format!("run {label:?}: phase sum at phase {pi}");
        phase_sums = (
            add(phase_sums.0, accesses, what)?,
            add(phase_sums.1, misses, what)?,
        );
        phases.push(Phase {
            id: id as u32,
            start_frame: start,
            end_frame: end,
            events_start: f("events_start")?,
            events_end: f("events_end")?,
            accesses,
            misses,
            compulsory,
            capacity,
            conflict,
            miss_rate_ppm,
        });
    }
    if !frames.is_empty() && next_start != frames.len() {
        return Err(format!(
            "run {label:?}: phases cover {next_start} of {} frames",
            frames.len()
        ));
    }
    if !frames.is_empty() && phase_sums != frame_sums {
        return Err(format!(
            "run {label:?}: phase sums {phase_sums:?} disagree with frame sums {frame_sums:?}"
        ));
    }
    Ok(TelemetryRun {
        label: label.to_owned(),
        window_log2: window as u32,
        rows,
        phases,
    })
}

/// Strictly validates a serialized telemetry document (see
/// [`TelemetryDoc::parse`]) and returns its summary counts. Powers
/// `dash --check` (exit 0 on `Ok`, 1 on `Err`).
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_telemetry(text: &str) -> Result<TelemetryStats, String> {
    TelemetryDoc::parse(text).map(|doc| doc.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;
    use std::sync::MutexGuard;

    // The timeline is process-global; serialize tests that touch it.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: StdMutex<()> = StdMutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn snap(accesses: u64, misses: u64, cold: u64) -> CacheSnapshot {
        CacheSnapshot {
            accesses,
            os_accesses: accesses / 2,
            misses,
            cold_misses: cold,
            probe: None,
        }
    }

    #[test]
    fn recorder_windows_and_deltas() {
        let _g = lock();
        reset();
        enable();
        let _s = scope(group(), 0, "t");
        let mut rec = recorder().expect("enabled + scoped");
        let win = rec.window();
        assert_eq!(win, 1 << INITIAL_WINDOW_LOG2);
        for i in 1..=2 * win {
            let boundary = rec.tick();
            assert_eq!(boundary, i % win == 0, "event {i}");
            if boundary {
                rec.sample(&snap(10 * i, i, i / 2));
            }
        }
        rec.finish(&snap(20 * win, 2 * win, win));
        disable();
        let doc = document();
        let runs = doc.get("runs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(runs.len(), 1);
        let frames = runs[0].get("frames").and_then(JsonValue::as_array).unwrap();
        assert_eq!(frames.len(), 2, "two full windows, no partial tail");
        // Second frame's deltas: accesses 10*2w - 10*w, misses w.
        let row: Vec<u64> = frames[1]
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .collect();
        assert_eq!(row[0], 2 * win);
        assert_eq!(row[1], 10 * win);
        assert_eq!(row[3], win);
        reset();
    }

    #[test]
    fn recorder_coarsens_at_capacity() {
        let _g = lock();
        reset();
        enable();
        let _s = scope(group(), 0, "coarsen");
        let mut rec = recorder().unwrap();
        let win = rec.window();
        // Drive exactly MAX_FRAMES windows: the ring must coarsen once.
        let mut acc = 0u64;
        for f in 1..=(MAX_FRAMES as u64) {
            for _ in 0..win {
                if rec.tick() {
                    acc = f * 100;
                    rec.sample(&snap(acc, f, 0));
                }
            }
        }
        assert_eq!(rec.window(), 2 * win, "window doubled after coarsening");
        assert_eq!(rec.frames.len(), MAX_FRAMES / 2);
        // Merged deltas are sums; cumulative events keep the later edge.
        assert_eq!(rec.frames[0].events, 2 * win);
        assert_eq!(rec.frames[0].accesses, 200);
        rec.finish(&snap(acc, MAX_FRAMES as u64, 0));
        disable();
        reset();
    }

    #[test]
    fn partial_tail_window_is_sampled() {
        let _g = lock();
        reset();
        enable();
        let _s = scope(group(), 0, "tail");
        let mut rec = recorder().unwrap();
        for _ in 0..10 {
            assert!(!rec.tick());
        }
        rec.finish(&snap(100, 7, 7));
        disable();
        let doc = document().to_json_pretty();
        let stats = validate_telemetry(&doc).expect("valid");
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.events, 10);
        reset();
    }

    #[test]
    fn recorder_requires_enable_and_scope() {
        let _g = lock();
        reset();
        assert!(recorder().is_none(), "disabled");
        enable();
        assert!(recorder().is_none(), "enabled but unscoped");
        {
            let _s = scope(1, 0, "x");
            assert!(recorder().is_some());
        }
        assert!(recorder().is_none(), "scope closed");
        disable();
        reset();
    }

    #[test]
    fn runs_merge_in_group_index_order() {
        let _g = lock();
        reset();
        enable();
        let g1 = group();
        let g2 = group();
        // Record out of order: group 2 first, then group 1 jobs reversed.
        for (grp, idx, label) in [(g2, 0, "late"), (g1, 1, "b"), (g1, 0, "a")] {
            let _s = scope(grp, idx, label);
            let mut rec = recorder().unwrap();
            rec.tick();
            rec.finish(&snap(4, 1, 1));
        }
        disable();
        let doc = document();
        let labels: Vec<&str> = doc
            .get("runs")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|r| r.get("label").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(labels, ["a", "b", "late"]);
        reset();
    }

    #[test]
    fn nested_scopes_relabel_runs_of_their_job() {
        let _g = lock();
        reset();
        enable();
        {
            let _orphan = nested_scope("orphan");
            assert!(recorder().is_none(), "no scope open: nothing to nest in");
        }
        let g = group();
        for (idx, labels) in [(1, ["b/x", "b/y"]), (0, ["a/x", "a/y"])] {
            let _job = scope(g, idx, "job");
            let recs: Vec<WindowRecorder> = labels
                .iter()
                .map(|&label| {
                    let _cell = nested_scope(label);
                    recorder().unwrap()
                })
                .collect();
            assert_eq!(recorder().unwrap().label, "job", "nested scopes closed");
            for mut rec in recs {
                rec.tick();
                rec.finish(&snap(4, 1, 1));
            }
        }
        disable();
        let doc = TelemetryDoc::parse(&document().to_json_pretty()).unwrap();
        let labels: Vec<&str> = doc.runs.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["a/x", "a/y", "b/x", "b/y"]);
        reset();
    }

    #[test]
    fn segmentation_finds_a_step_change() {
        let frames: Vec<TelemetryFrame> = (0..32)
            .map(|i| TelemetryFrame {
                events: (i + 1) * 256,
                accesses: 1000,
                os_accesses: 500,
                misses: if i < 16 { 10 } else { 400 },
                compulsory: 0,
                capacity: 0,
                conflict: if i < 16 { 10 } else { 400 },
                occ_p50: 1,
                occ_p95: 1,
                fill_ppm: 500_000,
                ages: Vec::new(),
            })
            .collect();
        let phases = segment_phases(&frames);
        assert_eq!(phases.len(), 2, "{phases:?}");
        assert_eq!(phases[0].end_frame, 16);
        assert_eq!(phases[1].start_frame, 16);
        assert!(phases[1].miss_rate_ppm > 10 * phases[0].miss_rate_ppm);
        // Contiguous ids and full coverage.
        assert_eq!(phases[0].id, 0);
        assert_eq!(phases[1].id, 1);
        assert_eq!(phases[1].end_frame, 32);
    }

    #[test]
    fn segmentation_keeps_flat_series_whole() {
        let frames: Vec<TelemetryFrame> = (0..64)
            .map(|i| TelemetryFrame {
                events: (i + 1) * 256,
                accesses: 1000,
                os_accesses: 400,
                misses: 50,
                compulsory: 5,
                capacity: 0,
                conflict: 45,
                occ_p50: 2,
                occ_p95: 4,
                fill_ppm: 900_000,
                ages: vec![(3, 7)],
            })
            .collect();
        let phases = segment_phases(&frames);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].accesses, 64_000);
        assert_eq!(phases[0].miss_rate_ppm, 50_000);
        assert!(segment_phases(&[]).is_empty());
    }

    #[test]
    fn age_quantiles_from_sparse_buckets() {
        let f = TelemetryFrame {
            events: 256,
            accesses: 10,
            os_accesses: 5,
            misses: 0,
            compulsory: 0,
            capacity: 0,
            conflict: 0,
            occ_p50: 0,
            occ_p95: 0,
            fill_ppm: 0,
            ages: vec![(2, 10), (8, 9), (20, 1)],
        };
        assert_eq!(f.age_quantile(1, 2), 1 << 2, "median in the low bucket");
        assert_eq!(f.age_quantile(19, 20), 1 << 8);
        let empty = TelemetryFrame {
            ages: Vec::new(),
            ..f
        };
        assert_eq!(empty.age_quantile(1, 2), 0);
    }

    #[test]
    fn validator_accepts_fresh_document_and_rejects_corruption() {
        let _g = lock();
        reset();
        enable();
        {
            let _s = scope(group(), 0, "v");
            let mut rec = recorder().unwrap();
            let win = rec.window();
            for i in 1..=3 * win {
                if rec.tick() {
                    rec.sample(&snap(4 * i, i / 8, i / 16));
                }
            }
            rec.finish(&snap(12 * win, 3 * win / 8, 3 * win / 16));
        }
        disable();
        let text = document().to_json_pretty();
        reset();
        let stats = validate_telemetry(&text).expect("fresh document validates");
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.frames, 3);
        // Truncation must fail.
        let truncated = &text[..text.len() / 2];
        assert!(validate_telemetry(truncated).is_err());
        // A tampered cell (misses > accesses) must fail.
        let tampered = text.replacen("\"schema\"", "\"schema_x\"", 1);
        assert!(validate_telemetry(&tampered).is_err());
        // Round-trip through the viewer model.
        let doc = TelemetryDoc::parse(&text).expect("parse back");
        assert_eq!(doc.runs.len(), 1);
        assert_eq!(doc.runs[0].rows.len(), 3);
        assert_eq!(doc.runs[0].miss_rates().len(), 3);
    }

    #[test]
    fn validator_checks_phase_coverage() {
        let bad = format!(
            "{{\"schema\": {SCHEMA:?}, \"runs\": [{{\"label\": \"x\", \"window_log2\": 8, \
             \"frames\": [[256,10,5,2,1,0,1,0,0,0,0,0]], \"phases\": []}}]}}"
        );
        let err = validate_telemetry(&bad).expect_err("uncovered frames");
        assert!(err.contains("cover"), "{err}");
        let empty = format!("{{\"schema\": {SCHEMA:?}, \"runs\": []}}");
        assert_eq!(validate_telemetry(&empty).unwrap().runs, 0);
    }

    #[test]
    fn validator_rejects_overflowing_sums_without_panicking() {
        let doc = |frames: &str, phases: &str| {
            format!(
                "{{\"schema\": {SCHEMA:?}, \"runs\": [{{\"label\": \"x\", \"window_log2\": 8, \
                 \"frames\": [{frames}], \"phases\": [{phases}]}}]}}"
            )
        };
        let big = 18_000_000_000_000_000_000u64;
        // A frame whose miss split overflows u64.
        let split = doc(&format!("[256,10,5,2,{big},{big},{big},0,0,0,0,0]"), "");
        let err = validate_telemetry(&split).expect_err("overflowing miss split");
        assert!(err.contains("miss split"), "{err}");
        // A phase whose misses overflow the ppm scaling.
        let phase = format!(
            "{{\"id\": 0, \"start_frame\": 0, \"end_frame\": 1, \"events_start\": 0, \
             \"events_end\": 256, \"accesses\": 10, \"misses\": {big}, \"compulsory\": {big}, \
             \"capacity\": 0, \"conflict\": 0, \"miss_rate_ppm\": 0}}"
        );
        let ppm = doc("[256,10,5,2,1,0,1,0,0,0,0,0]", &phase);
        let err = validate_telemetry(&ppm).expect_err("overflowing ppm scaling");
        assert!(err.contains("overflows"), "{err}");
        // Frame accesses whose running sum overflows.
        let sums = doc(
            &format!("[256,{big},0,0,0,0,0,0,0,0,0,0],[512,{big},0,0,0,0,0,0,0,0,0,0]"),
            "",
        );
        let err = validate_telemetry(&sums).expect_err("overflowing frame sum");
        assert!(err.contains("overflows"), "{err}");
    }
}
