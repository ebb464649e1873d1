//! Static layout verification — invariants proved without a trace.
//!
//! The layouts this workspace builds (`OptS`, `OptL`, `OptA`, `Call`)
//! carry structural guarantees the paper's results depend on: the
//! SelfConfFree area really is conflict-free, sequences really follow the
//! descending threshold schedule, the loop area really holds the
//! high-iteration loops. Until now those guarantees were only checked
//! *dynamically* — simulate a trace, read the measured attribution. This
//! crate checks them *statically*, in milliseconds, from the CFG, the
//! profile, and the placed address map alone:
//!
//! * [`verify`] — the invariant checker. Each violation is a typed
//!   [`Diagnostic`] with a stable code (`KV001`…`KV008`), severity, and
//!   block/sequence provenance, collected into a [`VerifyReport`].
//! * [`predict_conflicts`] — the static conflict predictor: per-set fetch
//!   pressure and a predicted routine×routine conflict ranking from
//!   profile weights folded over the address map, cross-validated against
//!   the measured [`ConflictMatrix`](oslay_cache::ConflictMatrix) via
//!   [`ranking_overlap`].
//! * [`IncrementalPressure`] — the same per-set pressure model with
//!   exact constant-ish-time span add/remove, so a mutation-based layout
//!   search (`oslay-search`) can re-score only the sets a candidate
//!   touches.
//!
//! * [`absint`] — the abstract-interpretation cache analysis: a fixpoint
//!   dataflow engine over the profile's arc graph computing per-set
//!   must/may/persistence LRU-age states, classifying every placed line
//!   access as always-hit / always-miss / persistent / unclassified —
//!   soundness-gated against measured misses by the `analyze` binary.
//!
//! The `lint` binary (in `oslay-bench`) fronts both halves with an
//! exit-code contract; debug builds of the experiment drivers run
//! [`verify_os_layout`] on every OS layout before simulating it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod absint;
mod diagnostic;
mod incremental;
mod invariants;
mod predict;
mod view;

pub use absint::{
    block_line_addrs, classify_layout, AbsintParams, ClassPoint, Classification, LineClass,
};
pub use diagnostic::{DiagCode, Diagnostic, Severity, VerifyReport};
pub use incremental::IncrementalPressure;
pub use invariants::{verify, verify_structural, OptContext, VerifyInput};
pub use predict::{
    measured_pair_ranking, predict_conflicts, predict_from_spans, ranking_overlap, weighted_spans,
    PredictedConflicts, RoutineKey, SetPressure, WeightedSpan,
};
pub use view::LayoutView;

use oslay_layout::{OptLayout, OptParams};
use oslay_model::Program;
use oslay_profile::{LoopAnalysis, Profile};

/// Runs the full invariant suite on an optimized OS layout, using the same
/// parameters the optimizer was given.
///
/// `line_size` is only used to report which cache set a SelfConfFree
/// conflict lands in.
#[must_use]
pub fn verify_os_layout(
    program: &Program,
    profile: &Profile,
    loops: &LoopAnalysis,
    opt: &OptLayout,
    params: &OptParams,
    line_size: u32,
) -> VerifyReport {
    let view = LayoutView::from_layout(&opt.layout);
    verify(&VerifyInput {
        program,
        profile,
        view: &view,
        opt: Some(OptContext {
            classes: &opt.classes,
            sequences: &opt.sequences,
            schedule: &params.schedule,
            loops,
            scf_bytes: opt.scf_bytes,
            cache_size: params.cache_size,
            line_size,
            min_loop_iters: params.min_loop_iters,
            check_loop_area: params.extract_loops,
        }),
    })
}
