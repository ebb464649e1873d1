//! Zero-dependency observability for the `oslay` reproduction.
//!
//! The paper's methodology is measurement-first: a hardware performance
//! monitor drives every layout decision. This crate gives the software
//! reproduction the same discipline, with these pieces:
//!
//! * **Phase spans** ([`span`], [`span_with_args`]) — scoped wall-clock
//!   timers so a `Study` run can report how long it spent in synthesis,
//!   trace generation, profiling, each layout pass, and simulation. The
//!   [`flight`] module is their one store: every span folds into a
//!   per-name total that run reports read.
//! * **Metric registry** ([`MetricRegistry`], [`Probe`]) — named counters,
//!   gauges, and log2-bucketed histograms. The cache engines count in
//!   their own state and report into a [`Probe`] once per replay, so no
//!   probe call sits on a per-access path.
//! * **JSON run reports** ([`RunReport`], [`json`]) — hand-rolled JSON
//!   (serializer *and* parser, no serde) for machine-readable results
//!   written beside the human-readable `.txt` figures.
//! * **Flight recorder** ([`flight`]) — the span store, plus opt-in
//!   capture: while enabled, every [`span`] also keeps its full event
//!   (hierarchy, per-thread/worker attribution, allocator deltas), with
//!   counter samples and a Chrome trace-event / Perfetto exporter.
//! * **Timeline** ([`timeline`]) — the flight recorder's simulated-time
//!   twin: windowed miss/occupancy telemetry frames sampled every `2^k`
//!   simulated events, change-point phase segmentation, and the
//!   `oslay.telemetry.v1` document behind `--telemetry-out` and the
//!   `dash` viewer.
//!
//! Metric names are namespaced by pipeline stage: `cache.*`,
//! `cache.attr.*`, `study.*` (see `DESIGN.md` at the repository root).
//!
//! This crate depends on nothing outside `std`, so every other workspace
//! crate can depend on it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod json;
mod metrics;
mod report;
pub mod timeline;

pub use flight::{span, span_with_args};
pub use json::{DocError, JsonError, JsonValue};
pub use metrics::{
    AttrClass, AttributionProbe, Histogram, HistogramSummary, MetricRegistry, Probe,
};
pub use report::{RunReport, SpanEntry};
