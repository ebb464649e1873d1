//! Metaheuristic layout search — the repo's first result the paper does
//! not contain.
//!
//! The paper's OptS/OptL layouts are hand-derived heuristics: classify
//! blocks by weight, pack sequences greedily, reserve a SelfConfFree
//! area. This crate searches the layout space *directly*, using the
//! machinery the earlier milestones built:
//!
//! * the trace-free conflict predictor
//!   ([`predict_from_spans`](oslay_verify::predict_from_spans)) supplies
//!   the conflict half of the objective, maintained incrementally by
//!   [`IncrementalPressure`](oslay_verify::IncrementalPressure) so one
//!   candidate costs a handful of array adds, not a full re-fold;
//! * an ext-TSP-style distance term (after Newell & Pupyrev's *Improved
//!   Basic Block Reordering* and Codestitcher's distance-bucketed
//!   placement) keeps hot arcs short: glued fall-throughs are free,
//!   short forward branches cheap, far jumps expensive;
//! * [`LayoutView`](oslay_verify::LayoutView) mutations — atom swaps and
//!   re-homes — are admission-gated before scoring so every candidate
//!   the walk scores would lint clean under KV001–KV008;
//! * multi-seed restarts (hill-climbing plus simulated annealing) fan
//!   out over [`oslay::exec::parallel_map`] with byte-identical winner
//!   selection at any thread count.
//!
//! The search moves *atoms*: maximal runs of blocks glued by placed
//! fall-through adjacency. Moving whole atoms preserves the layout's
//! stretch accounting (a block with no escape branch keeps its
//! fall-through adjacent), which is what lets a searched view be
//! re-materialized into a real `oslay_layout::Layout` via
//! `Layout::assemble` without re-deriving branch stretches.
//!
//! Everything is integer arithmetic: trial-apply-then-revert restores
//! state bit-for-bit, and the differential tests assert the incremental
//! score equals the full predictor exactly at every probed step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod atoms;
mod engine;
mod objective;
mod state;

pub use atoms::Atoms;
pub use engine::{run_search, RestartOutcome, SearchOutcome, SearchParams};
pub use objective::{
    distance_cost, distance_penalty_pm, Objective, BACKWARD_WINDOW, FORWARD_WINDOW,
};
pub use state::{Proposal, SearchState, StepOutcome, WalkStats};
