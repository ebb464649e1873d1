//! Temporal locality (Figures 6, 7, 8).

use std::collections::HashMap;

use oslay_model::{fetch_words, BlockId, Domain, Program, RoutineId, Terminator};
use oslay_profile::{LoopAnalysis, Profile, RoutineStats};
use oslay_trace::{Trace, TraceEvent};

use crate::histogram::BoundedHistogram;

/// Figure 6: routines ranked by invocation count, normalized to 100.
#[derive(Clone, PartialEq, Debug)]
pub struct InvocationSkew {
    /// `(routine, percent of all invocations)`, most invoked first.
    pub ranked: Vec<(RoutineId, f64)>,
}

impl InvocationSkew {
    /// Measures the skew.
    #[must_use]
    pub fn measure(program: &Program, profile: &Profile) -> Self {
        let stats = RoutineStats::compute(program, profile);
        let total = profile.total_routine_invocations().max(1) as f64;
        let ranked = stats
            .ranked_by_invocations()
            .into_iter()
            .map(|(r, n)| (r, n as f64 / total * 100.0))
            .collect();
        Self { ranked }
    }

    /// Percentage of invocations absorbed by the `k` most invoked
    /// routines.
    #[must_use]
    pub fn top_share(&self, k: usize) -> f64 {
        self.ranked.iter().take(k).map(|&(_, p)| p).sum()
    }

    /// Number of routines ever invoked.
    #[must_use]
    pub fn num_invoked(&self) -> usize {
        self.ranked.len()
    }
}

/// Figure 8: basic blocks ranked by loop-flattened execution count.
#[derive(Clone, PartialEq, Debug)]
pub struct BlockSkew {
    /// `(block, percent of flattened executions)`, hottest first.
    pub ranked: Vec<(BlockId, f64)>,
}

impl BlockSkew {
    /// Measures the skew with loops flattened to one iteration per
    /// invocation (as the paper does to remove loop distortion).
    #[must_use]
    pub fn measure(profile: &Profile, loops: &LoopAnalysis) -> Self {
        let total: f64 = profile
            .executed_blocks()
            .map(|b| loops.flattened_weight(b, profile))
            .sum();
        let mut ranked: Vec<(BlockId, f64)> = profile
            .executed_blocks()
            .map(|b| {
                (
                    b,
                    loops.flattened_weight(b, profile) / total.max(1.0) * 100.0,
                )
            })
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        Self { ranked }
    }

    /// Number of blocks whose share is at least `percent`.
    #[must_use]
    pub fn blocks_above(&self, percent: f64) -> usize {
        self.ranked
            .iter()
            .take_while(|&&(_, p)| p >= percent)
            .count()
    }
}

/// Figure 7: OS instruction words fetched between consecutive calls to the
/// same routine, within one OS invocation, for the most popular routines.
#[derive(Clone, PartialEq, Debug)]
pub struct ReuseDistance {
    /// Distance histogram in instruction words (decade buckets up to 10⁵).
    pub histogram: BoundedHistogram,
    /// Calls that were the last to their routine within their invocation
    /// (the paper's `Last Inv` column, ≈ 9%).
    pub last_in_invocation: u64,
    /// Total calls considered.
    pub total_calls: u64,
}

impl ReuseDistance {
    /// Measures reuse distances for the `top_k` most invoked routines.
    #[must_use]
    pub fn measure(program: &Program, profile: &Profile, trace: &Trace, top_k: usize) -> Self {
        let stats = RoutineStats::compute(program, profile);
        let top: std::collections::HashSet<RoutineId> = stats
            .ranked_by_invocations()
            .into_iter()
            .take(top_k)
            .map(|(r, _)| r)
            .collect();

        let mut histogram = BoundedHistogram::decades(5);
        let mut last_in_invocation = 0u64;
        let mut total_calls = 0u64;

        let mut word_pos = 0u64;
        let mut last_call: HashMap<RoutineId, u64> = HashMap::new();
        let mut in_os = false;
        let mut prev: Option<BlockId> = None;
        let mut invocation_start = false;

        for event in trace.events() {
            match *event {
                TraceEvent::OsEnter(_) => {
                    in_os = true;
                    invocation_start = true;
                    word_pos = 0;
                    last_call.clear();
                    prev = None;
                }
                TraceEvent::OsExit => {
                    in_os = false;
                    last_in_invocation += last_call.len() as u64;
                    last_call.clear();
                    prev = None;
                }
                TraceEvent::Block { id, domain } => {
                    if domain != Domain::Os || !in_os {
                        continue;
                    }
                    let routine = program.block(id).routine();
                    let entry = program.routine(routine).entry();
                    let invoked = id == entry
                        && (invocation_start
                            || prev.is_some_and(|p| {
                                matches!(
                                    program.block(p).terminator(),
                                    Terminator::Call { callee, .. } if *callee == routine
                                )
                            }));
                    invocation_start = false;
                    if invoked && top.contains(&routine) {
                        total_calls += 1;
                        if let Some(&pos) = last_call.get(&routine) {
                            histogram.record((word_pos - pos) as f64);
                        }
                        last_call.insert(routine, word_pos);
                    }
                    word_pos += u64::from(fetch_words(program.block(id).size()));
                    prev = Some(id);
                }
            }
        }

        Self {
            histogram,
            last_in_invocation,
            total_calls,
        }
    }

    /// Probability that a call is followed by another call to the same
    /// routine within `words` instruction words (paper: ≈ 25% within 100,
    /// ≈ 70% within 1000).
    #[must_use]
    pub fn reuse_within(&self, words: f64) -> f64 {
        if self.total_calls == 0 {
            return 0.0;
        }
        let below = self.histogram.cumulative_fraction(words) * self.histogram.total() as f64;
        below / self.total_calls as f64
    }

    /// Fraction of calls that were the last in their invocation.
    #[must_use]
    pub fn last_invocation_fraction(&self) -> f64 {
        if self.total_calls == 0 {
            return 0.0;
        }
        self.last_in_invocation as f64 / self.total_calls as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::synth::{generate_kernel, KernelParams, Scale};
    use oslay_trace::{standard_workloads, Engine, EngineConfig};

    fn setup() -> (Program, Profile, Trace) {
        let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 71));
        let specs = standard_workloads(&k.tables);
        let t = Engine::new(&k.program, None, &specs[3], EngineConfig::new(13)).run(60_000);
        let p = Profile::collect(&k.program, &t);
        (k.program, p, t)
    }

    #[test]
    fn few_routines_dominate_invocations() {
        let (program, profile, _) = setup();
        let skew = InvocationSkew::measure(&program, &profile);
        assert!(skew.num_invoked() > 10);
        // The paper's Figure 6: a handful of routines absorb most
        // invocations.
        let share = skew.top_share(10);
        assert!(share > 30.0, "top-10 share only {share}%");
        // Percentages are sane.
        let total: f64 = skew.ranked.iter().map(|&(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn block_skew_is_heavier_than_uniform() {
        let (program, profile, _) = setup();
        let la = LoopAnalysis::analyze(&program, &profile);
        let skew = BlockSkew::measure(&profile, &la);
        let n = skew.ranked.len();
        assert!(n > 100);
        let uniform = 100.0 / n as f64;
        assert!(
            skew.ranked[0].1 > 10.0 * uniform,
            "hottest block {}% vs uniform {uniform}%",
            skew.ranked[0].1
        );
        assert!(skew.blocks_above(1.0) >= 1);
    }

    #[test]
    fn reuse_distance_shows_temporal_locality() {
        let (program, profile, trace) = setup();
        let rd = ReuseDistance::measure(&program, &profile, &trace, 10);
        assert!(rd.total_calls > 100, "too few calls: {}", rd.total_calls);
        // Reuse within 1000 words should be common (paper: ~70%).
        let w1000 = rd.reuse_within(1000.0);
        assert!(w1000 > 0.2, "reuse within 1000 words only {w1000}");
        // Monotone in the window size.
        assert!(rd.reuse_within(100.0) <= w1000 + 1e-12);
        // Some calls are the last of their invocation.
        let last = rd.last_invocation_fraction();
        assert!((0.0..1.0).contains(&last));
        assert!(last > 0.0);
    }

    #[test]
    fn reuse_distance_accounting_balances() {
        let (program, profile, trace) = setup();
        let rd = ReuseDistance::measure(&program, &profile, &trace, 5);
        // Every call either has a successor call in its invocation
        // (recorded as a distance) or is a last call.
        assert_eq!(rd.histogram.total() + rd.last_in_invocation, rd.total_calls);
    }
}
