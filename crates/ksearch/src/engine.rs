//! Restart fan-out and the annealing schedule.
//!
//! Restart 0 is pure hill-climbing from the seed; every later restart
//! runs simulated annealing with a geometrically cooled temperature
//! (`T(step) = T0 · α^step`, with `α` chosen so the final temperature
//! is `T0 / 1000`) and a restart-specific starting temperature, so the
//! fan explores at several aggressiveness levels at once.
//!
//! **Determinism contract.** Each restart draws from its own
//! `Rng::seed_from_u64(master ^ (0x5EA7_C000 + restart))`, restarts fan
//! out over [`oslay::exec::parallel_map`] (which returns results in job
//! order regardless of thread count), and the winner is the minimum of
//! `(best objective, restart index)` — so the chosen layout, the
//! report, and every per-restart curve are byte-identical at any
//! `--threads N`.

use crate::state::{SearchState, WalkStats};
use oslay_cache::CacheConfig;
use oslay_model::rng::Rng;
use oslay_model::Program;
use oslay_observe::flight;
use oslay_profile::Profile;
use oslay_verify::LayoutView;

/// Search configuration.
#[derive(Clone, Copy, Debug)]
pub struct SearchParams {
    /// Candidate proposals per restart (default `100_000` — about a
    /// second of wall clock at the small scale).
    pub budget: u64,
    /// Number of independent restarts (restart 0 is pure hill-climbing).
    pub restarts: u32,
    /// Master seed; each restart derives its own stream.
    pub seed: u64,
}

/// Approximate number of best-so-far curve samples kept per restart.
const CURVE_POINTS: u64 = 32;

impl Default for SearchParams {
    fn default() -> Self {
        Self {
            budget: 100_000,
            restarts: 6,
            seed: 0x05_1995,
        }
    }
}

/// One restart's result.
#[derive(Clone, Debug)]
pub struct RestartOutcome {
    /// Restart index.
    pub restart: u32,
    /// Objective of the seed layout.
    pub initial: u64,
    /// Best objective reached.
    pub best: u64,
    /// Walk counters.
    pub stats: WalkStats,
    /// `(step, best objective so far)` samples, ending at the budget.
    pub curve: Vec<(u64, u64)>,
    /// The best layout this restart found.
    pub view: LayoutView,
}

/// The full fan-out's result.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Objective of the seed layout.
    pub initial: u64,
    /// Index of the winning restart.
    pub winner: u32,
    /// Every restart, in index order.
    pub restarts: Vec<RestartOutcome>,
    /// The winning layout, named `Search`.
    pub best_view: LayoutView,
}

fn run_restart(
    program: &Program,
    profile: &Profile,
    seed_view: &LayoutView,
    config: &CacheConfig,
    params: &SearchParams,
    restart: u32,
) -> RestartOutcome {
    let _g = oslay_observe::span_with_args(
        "search.restart",
        &[
            ("restart", f64::from(restart)),
            ("budget", params.budget as f64),
        ],
    );
    let mut state = SearchState::new(program, profile, seed_view, config);
    let mut rng = Rng::seed_from_u64(params.seed ^ (0x5EA7_C000 + u64::from(restart)));
    let initial = state.objective();
    let budget = params.budget.max(1);
    // Restart 0 climbs; later restarts anneal, hotter fans first.
    let t0 = if restart == 0 {
        0.0
    } else {
        initial as f64 / (100.0 * f64::from(restart))
    };
    let alpha = if t0 > 0.0 {
        (1e-3f64).powf(1.0 / budget as f64)
    } else {
        0.0
    };
    let stride = (budget / CURVE_POINTS).max(1);
    let mut temperature = t0;
    let mut curve = Vec::new();
    for step in 0..budget {
        if step % stride == 0 {
            curve.push((step, state.best_objective()));
        }
        state.step(&mut rng, temperature);
        temperature *= alpha;
    }
    curve.push((budget, state.best_objective()));
    let stats = state.stats();
    flight::counter("search.proposed", stats.proposed as f64);
    flight::counter("search.scored", stats.scored as f64);
    flight::counter("search.accepted", stats.accepted as f64);
    flight::counter("search.gate_rejected", stats.gate_rejected as f64);
    RestartOutcome {
        restart,
        initial,
        best: state.best_objective(),
        stats,
        curve,
        view: state.best_view("Search"),
    }
}

/// Runs the full multi-restart search, fanning restarts over
/// `threads` workers.
///
/// The result — winner, views, curves — is byte-identical at any
/// thread count (see the module docs for the contract).
#[must_use]
pub fn run_search(
    program: &Program,
    profile: &Profile,
    seed_view: &LayoutView,
    config: &CacheConfig,
    params: &SearchParams,
    threads: usize,
) -> SearchOutcome {
    let _g = oslay_observe::span_with_args(
        "search.run",
        &[
            ("restarts", f64::from(params.restarts.max(1))),
            ("budget", params.budget as f64),
        ],
    );
    let jobs: Vec<u32> = (0..params.restarts.max(1)).collect();
    let restarts = oslay::exec::parallel_map(threads, jobs, |_, r| {
        run_restart(program, profile, seed_view, config, params, r)
    });
    let winner = restarts
        .iter()
        .min_by_key(|r| (r.best, r.restart))
        .expect("at least one restart")
        .restart;
    let best_view = restarts[winner as usize].view.clone();
    SearchOutcome {
        initial: restarts[0].initial,
        winner,
        restarts,
        best_view,
    }
}
