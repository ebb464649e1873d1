//! `oslay` — a reproduction of Torrellas, Xia & Daigle, *"Optimizing
//! Instruction Cache Performance for Operating System Intensive
//! Workloads"* (HPCA 1995).
//!
//! This umbrella crate wires the subsystem crates into the paper's
//! pipeline and re-exports their public APIs:
//!
//! 1. **Model** ([`model`]): a synthetic multiprocessor-Unix kernel and
//!    application programs standing in for the unobtainable Concentrix /
//!    Alliant FX/8 system (see `DESIGN.md`).
//! 2. **Trace** ([`trace`]): block-level traces of the four standard
//!    workloads.
//! 3. **Profile** ([`profile`]): weighted flow graphs, loops, call graphs.
//! 4. **Layout** ([`layout`]): `Base`, `C-H`, `OptS`, `OptL`, `OptA`, and
//!    the Section 4.4 `Call` placement.
//! 5. **Cache** ([`cache`]): trace-driven simulation with interference
//!    classification, plus the `Sep` and `Resv` organizations.
//! 6. **Analysis / perf** ([`analysis`], [`perf`]): the characterization
//!    metrics and the execution-time model.
//!
//! The high-level entry point is [`Study`]: it generates the kernel and
//! workloads, collects profiles, builds layouts, and replays traces
//! through caches.
//!
//! # Example
//!
//! ```
//! use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
//! use oslay::cache::{Cache, CacheConfig};
//!
//! let study = Study::generate(&StudyConfig::tiny());
//! let base = study.os_layout(OsLayoutKind::Base, 8192);
//! let opts = study.os_layout(OsLayoutKind::OptS, 8192);
//! let case = &study.cases()[3]; // Shell
//! let a = study.simulate(case, &base.layout, None,
//!     &mut Cache::new(CacheConfig::paper_default()), &SimConfig::fast());
//! let b = study.simulate(case, &opts.layout, None,
//!     &mut Cache::new(CacheConfig::paper_default()), &SimConfig::fast());
//! assert!(b.stats.total_misses() < a.stats.total_misses());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exec;
mod sim;
mod study;

pub use sim::{FanoutSink, MultiLane, Replayer, SimConfig, SimResult};
pub use study::{OsLayout, OsLayoutKind, Study, StudyConfig, WorkloadCase};

pub use oslay_analysis as analysis;
pub use oslay_cache as cache;
pub use oslay_layout as layout;
pub use oslay_model as model;
pub use oslay_perf as perf;
pub use oslay_profile as profile;
pub use oslay_trace as trace;
pub use oslay_verify as verify;
