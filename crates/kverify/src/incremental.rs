//! Exact incremental per-set pressure — the layout search engine's
//! inner-loop scorer.
//!
//! [`predict_from_spans`](crate::predict_from_spans) rebuilds every set
//! from scratch on each call; a mutation-based optimizer that moves one
//! small group of blocks per candidate cannot afford that. This model
//! keeps the predictor's per-set state — a flat per-line fetch-weight
//! array, each set's total weight and hottest line — and updates only the
//! lines a moved span touches, so scoring one candidate costs a handful
//! of array adds instead of a full re-fold.
//!
//! **Integer exactness.** Profile node weights are `u64` trace counts far
//! below 2^53, and `f64` addition of integers in that range is exact, so
//! the `f64` sums the full predictor folds are bit-equal to `u64`
//! arithmetic regardless of association order. The incremental model
//! therefore tracks weights as `u64` and matches
//! [`predict_from_spans`](crate::predict_from_spans) *exactly*, not
//! approximately — the differential test in `oslay-search` asserts
//! equality on every probed step of a seeded mutation walk.
//!
//! The only non-constant update is removing weight from a set's hottest
//! line: the new maximum is found by rescanning that set's lines, a
//! stride-`num_sets` walk over the flat array that touches
//! `addr_limit / cache_size` entries: 108 at paper scale, where the
//! search's address limit is 884,736 B over an 8 KB cache.

use oslay_cache::CacheConfig;

/// Incrementally maintained per-set fetch pressure over a bounded address
/// range `[0, addr_limit)`.
///
/// Spans are added and removed symmetrically; because all arithmetic is
/// integer, `remove_span` is an exact inverse of `add_span` and a
/// trial-and-revert search step restores the state bit-for-bit.
#[derive(Clone, Debug)]
pub struct IncrementalPressure {
    line_shift: u32,
    num_sets: usize,
    /// Fetch weight per cache line, indexed by line key (`addr >> shift`).
    line_weight: Vec<u64>,
    /// Total fetch weight per set.
    set_total: Vec<u64>,
    /// Weight of each set's hottest line.
    set_max: Vec<u64>,
    /// Sum over sets of `total - max` — the predictor's excess.
    total_excess: u64,
}

impl IncrementalPressure {
    /// Creates an empty model for `config` covering addresses in
    /// `[0, addr_limit)` (rounded up to a whole line).
    #[must_use]
    pub fn new(config: &CacheConfig, addr_limit: u64) -> Self {
        let line_shift = config.line_shift();
        let line = 1u64 << line_shift;
        let lines = usize::try_from((addr_limit + line - 1) >> line_shift)
            .expect("address limit fits in memory");
        let num_sets = config.num_sets() as usize;
        Self {
            line_shift,
            num_sets,
            line_weight: vec![0; lines],
            set_total: vec![0; num_sets],
            set_max: vec![0; num_sets],
            total_excess: 0,
        }
    }

    /// The exclusive address bound spans must stay under.
    #[must_use]
    pub fn addr_limit(&self) -> u64 {
        (self.line_weight.len() as u64) << self.line_shift
    }

    /// Number of cache sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Adds a placed span's fetch weight: every line the span touches
    /// gains `weight`, exactly as the full predictor folds it.
    ///
    /// # Panics
    ///
    /// Panics if the span reaches past the address limit.
    pub fn add_span(&mut self, addr: u64, len: u64, weight: u64) {
        if len == 0 || weight == 0 {
            return;
        }
        let first = (addr >> self.line_shift) as usize;
        let last = ((addr + len - 1) >> self.line_shift) as usize;
        assert!(
            last < self.line_weight.len(),
            "span [{addr}, {}) past the address limit {}",
            addr + len,
            self.addr_limit()
        );
        for line in first..=last {
            self.add_line(line, weight);
        }
    }

    /// Removes a previously added span. Exact inverse of
    /// [`IncrementalPressure::add_span`].
    ///
    /// # Panics
    ///
    /// Panics if the span reaches past the address limit (debug builds
    /// also catch removing weight that was never added).
    pub fn remove_span(&mut self, addr: u64, len: u64, weight: u64) {
        if len == 0 || weight == 0 {
            return;
        }
        let first = (addr >> self.line_shift) as usize;
        let last = ((addr + len - 1) >> self.line_shift) as usize;
        assert!(
            last < self.line_weight.len(),
            "span [{addr}, {}) past the address limit {}",
            addr + len,
            self.addr_limit()
        );
        for line in first..=last {
            self.remove_line(line, weight);
        }
    }

    fn add_line(&mut self, line: usize, weight: u64) {
        let set = line & (self.num_sets - 1);
        self.total_excess -= self.set_total[set] - self.set_max[set];
        self.line_weight[line] += weight;
        self.set_total[set] += weight;
        if self.line_weight[line] > self.set_max[set] {
            self.set_max[set] = self.line_weight[line];
        }
        self.total_excess += self.set_total[set] - self.set_max[set];
    }

    fn remove_line(&mut self, line: usize, weight: u64) {
        let set = line & (self.num_sets - 1);
        debug_assert!(
            self.line_weight[line] >= weight,
            "removing weight never added to line {line}"
        );
        self.total_excess -= self.set_total[set] - self.set_max[set];
        let was_max = self.line_weight[line] == self.set_max[set];
        self.line_weight[line] -= weight;
        self.set_total[set] -= weight;
        if was_max {
            // The hottest line may have cooled: rescan the set's lines.
            let mut max = 0;
            let mut l = set;
            while l < self.line_weight.len() {
                max = max.max(self.line_weight[l]);
                l += self.num_sets;
            }
            self.set_max[set] = max;
        }
        self.total_excess += self.set_total[set] - self.set_max[set];
    }

    /// Total fetch weight mapped to `set`.
    #[must_use]
    pub fn set_weight(&self, set: usize) -> u64 {
        self.set_total[set]
    }

    /// The set's pressure beyond its single hottest line — exactly
    /// [`SetPressure::excess`](crate::SetPressure::excess) as an integer.
    #[must_use]
    pub fn set_excess(&self, set: usize) -> u64 {
        self.set_total[set] - self.set_max[set]
    }

    /// Fetch weight of one line.
    #[must_use]
    pub fn line_weight(&self, line: usize) -> u64 {
        self.line_weight[line]
    }

    /// Sum of every set's excess — the conflict half of the search
    /// objective.
    #[must_use]
    pub fn total_excess(&self) -> u64 {
        self.total_excess
    }

    /// The set with the highest excess (lowest index on ties), or `None`
    /// when no set has any contention. A 256-entry scan — cheap enough
    /// for occasional predictor-targeted proposals, so no extra argmax
    /// state is maintained.
    #[must_use]
    pub fn top_excess_set(&self) -> Option<usize> {
        let (mut best, mut best_excess) = (None, 0u64);
        for set in 0..self.num_sets {
            let e = self.set_excess(set);
            if e > best_excess {
                best = Some(set);
                best_excess = e;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict_from_spans;
    use oslay_model::Domain;

    fn cfg() -> CacheConfig {
        // 256-byte cache, 32-byte lines → 8 sets.
        CacheConfig::new(256, 32, 1)
    }

    /// Deterministic pseudo-random spans without pulling in an RNG dep.
    fn spans(n: u64, limit: u64) -> Vec<(u64, u64, u64)> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = (x >> 20) % (limit - 64);
                let len = 1 + (x >> 8) % 60;
                let weight = 1 + (x >> 40) % 1000;
                (addr, len.min(limit - addr), weight)
            })
            .collect()
    }

    #[test]
    fn matches_full_predictor_exactly() {
        let config = cfg();
        let mut inc = IncrementalPressure::new(&config, 4096);
        let spans = spans(200, 4096);
        for &(addr, len, w) in &spans {
            inc.add_span(addr, len, w);
        }
        let weighted: Vec<crate::WeightedSpan> = spans
            .iter()
            .map(|&(addr, len, w)| (addr, len, (Domain::Os, 0), w as f64))
            .collect();
        let full = predict_from_spans(&weighted, &config);
        let mut full_excess = 0.0;
        for (set, p) in full.sets.iter().enumerate() {
            assert_eq!(p.weight, inc.set_weight(set) as f64, "set {set} weight");
            assert_eq!(p.excess, inc.set_excess(set) as f64, "set {set} excess");
            full_excess += p.excess;
        }
        assert_eq!(full_excess, inc.total_excess() as f64);
    }

    #[test]
    fn remove_is_an_exact_inverse() {
        let config = cfg();
        let mut inc = IncrementalPressure::new(&config, 4096);
        let spans = spans(100, 4096);
        for &(addr, len, w) in &spans {
            inc.add_span(addr, len, w);
        }
        let reference = inc.clone();
        // Move every span somewhere else and back again.
        for &(addr, len, w) in &spans {
            let new_addr = (addr + 1024) % 3500;
            inc.remove_span(addr, len, w);
            inc.add_span(new_addr, len, w);
            inc.remove_span(new_addr, len, w);
            inc.add_span(addr, len, w);
        }
        assert_eq!(inc.total_excess(), reference.total_excess());
        for set in 0..inc.num_sets() {
            assert_eq!(inc.set_weight(set), reference.set_weight(set));
            assert_eq!(inc.set_excess(set), reference.set_excess(set));
        }
        // Draining everything returns to a clean slate.
        for &(addr, len, w) in &spans {
            inc.remove_span(addr, len, w);
        }
        assert_eq!(inc.total_excess(), 0);
        for set in 0..inc.num_sets() {
            assert_eq!(inc.set_weight(set), 0);
        }
    }

    #[test]
    fn excess_counts_weight_beyond_the_hottest_line() {
        let config = cfg();
        let mut inc = IncrementalPressure::new(&config, 4096);
        // Two lines in set 0 (one cache size apart), one line alone.
        inc.add_span(0, 32, 100);
        inc.add_span(256, 32, 60);
        inc.add_span(128, 32, 500);
        assert_eq!(inc.set_weight(0), 160);
        assert_eq!(inc.set_excess(0), 60);
        assert_eq!(
            inc.set_excess(4),
            0,
            "a set with one line has no contention"
        );
        assert_eq!(inc.total_excess(), 60);
        assert_eq!(inc.top_excess_set(), Some(0));
        // Cooling the hottest line flips which line owns the set.
        inc.remove_span(0, 32, 100);
        assert_eq!(inc.set_excess(0), 0);
        assert_eq!(inc.total_excess(), 0);
        assert_eq!(inc.top_excess_set(), None);
    }

    #[test]
    fn zero_len_and_zero_weight_are_no_ops() {
        let mut inc = IncrementalPressure::new(&cfg(), 4096);
        inc.add_span(0, 0, 10);
        inc.add_span(0, 32, 0);
        inc.remove_span(0, 0, 10);
        assert_eq!(inc.total_excess(), 0);
        assert_eq!(inc.set_weight(0), 0);
    }

    #[test]
    #[should_panic(expected = "past the address limit")]
    fn spans_past_the_limit_are_rejected() {
        let mut inc = IncrementalPressure::new(&cfg(), 4096);
        inc.add_span(4090, 32, 1);
    }
}
