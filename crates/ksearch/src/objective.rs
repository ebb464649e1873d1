//! The composite search objective: predicted conflict excess plus an
//! ext-TSP-style distance cost, both maintained incrementally in exact
//! integer arithmetic.
//!
//! ```text
//! J(layout) = 1000 · Σ_set excess(set) + Σ_arc count(arc) · penalty_pm(arc)
//! ```
//!
//! The conflict term is the trace-free predictor's per-set excess (the
//! fetch weight each set carries beyond its single hottest line),
//! scaled by 1000 so both terms share a per-mille unit. The distance
//! term follows the ext-TSP objective of Newell & Pupyrev's *Improved
//! Basic Block Reordering*: each profiled arc pays a per-mille penalty
//! by placement distance — glued fall-throughs are free, short forward
//! branches cheap, short backward branches (loop backedges) a little
//! dearer, and anything outside Codestitcher-style locality windows
//! pays full price.
//!
//! Both halves update incrementally: moving a block re-scores only the
//! cache lines its span touches and the arcs incident to it. A
//! generation stamp per arc dedups arcs whose both endpoints moved in
//! the same mutation, so a candidate is scored with zero allocation.

use oslay_cache::CacheConfig;
use oslay_model::BlockId;
use oslay_profile::Profile;
use oslay_verify::{IncrementalPressure, LayoutView};

/// Arcs at least this far forward pay the full 1000‰ penalty.
pub const FORWARD_WINDOW: u64 = 1024;
/// Arcs at least this far backward pay the full 1000‰ penalty.
pub const BACKWARD_WINDOW: u64 = 640;

/// Per-mille penalty for one taken arc, by placement distance.
///
/// `src_end` is the *effective* end of the source block (including its
/// escape-branch stretch); `dst` is the target's start address.
#[must_use]
pub fn distance_penalty_pm(src_end: u64, dst: u64) -> u64 {
    if dst == src_end {
        // Glued fall-through: free, exactly what ext-TSP maximizes.
        0
    } else if dst > src_end {
        let d = dst - src_end;
        if d < FORWARD_WINDOW {
            100 + 900 * d / FORWARD_WINDOW
        } else {
            1000
        }
    } else {
        let d = src_end - dst;
        if d < BACKWARD_WINDOW {
            300 + 700 * d / BACKWARD_WINDOW
        } else {
            1000
        }
    }
}

/// Full-recompute distance cost of a view — the reference the
/// incremental bookkeeping is differential-tested against.
#[must_use]
pub fn distance_cost(profile: &Profile, view: &LayoutView) -> u64 {
    profile
        .arcs()
        .filter(|a| a.count > 0 && a.src != a.dst)
        .map(|a| a.count * distance_penalty_pm(view.end(a.src.index()), view.addr[a.dst.index()]))
        .sum()
}

struct Arc {
    src: u32,
    dst: u32,
    count: u64,
}

/// Incrementally maintained composite objective over one layout.
///
/// The caller owns the address array (the search state); the objective
/// mirrors per-set pressure and per-arc distance costs. A mutation is
/// reported in two phases: first [`Objective::move_block`] for every
/// moved block (pressure), then [`Objective::rescore_block_arcs`] for
/// every moved block against the *final* addresses (distance), with
/// [`Objective::begin_mutation`] bumping the dedup stamp in between
/// candidates.
pub struct Objective {
    pressure: IncrementalPressure,
    /// Profile node weight per block.
    weight: Vec<u64>,
    /// Effective (stretch-inclusive) size per block — constant under
    /// atom moves.
    size: Vec<u32>,
    arcs: Vec<Arc>,
    arc_cost: Vec<u64>,
    arc_stamp: Vec<u64>,
    /// CSR offsets into `incident` per block (length `num_blocks + 1`).
    incident_first: Vec<u32>,
    /// Arc ids incident to each block (each arc appears under both
    /// endpoints).
    incident: Vec<u32>,
    dist_total: u64,
    tick: u64,
}

impl std::fmt::Debug for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Objective")
            .field("arcs", &self.arcs.len())
            .field("conflict_excess", &self.pressure.total_excess())
            .field("distance_total", &self.dist_total)
            .finish()
    }
}

impl Objective {
    /// Builds the objective for `view`, admitting spans anywhere in
    /// `[0, addr_limit)`.
    #[must_use]
    pub fn new(
        profile: &Profile,
        view: &LayoutView,
        config: &CacheConfig,
        addr_limit: u64,
    ) -> Self {
        let n = view.num_blocks();
        let weight: Vec<u64> = (0..n)
            .map(|i| profile.node_weight(BlockId::new(i)))
            .collect();
        let size = view.size.clone();
        let mut pressure = IncrementalPressure::new(config, addr_limit);
        for i in 0..n {
            pressure.add_span(view.addr[i], u64::from(size[i]), weight[i]);
        }
        let arcs: Vec<Arc> = profile
            .arcs()
            .filter(|a| a.count > 0 && a.src != a.dst)
            .map(|a| Arc {
                src: a.src.index() as u32,
                dst: a.dst.index() as u32,
                count: a.count,
            })
            .collect();
        let mut incident_first = vec![0u32; n + 1];
        for a in &arcs {
            incident_first[a.src as usize + 1] += 1;
            incident_first[a.dst as usize + 1] += 1;
        }
        for i in 0..n {
            incident_first[i + 1] += incident_first[i];
        }
        let mut cursor = incident_first.clone();
        let mut incident = vec![0u32; arcs.len() * 2];
        for (id, a) in arcs.iter().enumerate() {
            for b in [a.src as usize, a.dst as usize] {
                incident[cursor[b] as usize] = id as u32;
                cursor[b] += 1;
            }
        }
        let mut this = Self {
            pressure,
            weight,
            size,
            arcs,
            arc_cost: Vec::new(),
            arc_stamp: Vec::new(),
            incident_first,
            incident,
            dist_total: 0,
            tick: 0,
        };
        this.arc_cost = (0..this.arcs.len())
            .map(|id| this.arc_cost_at(id, &view.addr))
            .collect();
        this.arc_stamp = vec![0; this.arcs.len()];
        this.dist_total = this.arc_cost.iter().sum();
        this
    }

    fn arc_cost_at(&self, id: usize, addr: &[u64]) -> u64 {
        let a = &self.arcs[id];
        let src_end = addr[a.src as usize] + u64::from(self.size[a.src as usize]);
        a.count * distance_penalty_pm(src_end, addr[a.dst as usize])
    }

    /// Current objective value.
    #[must_use]
    pub fn value(&self) -> u64 {
        1000 * self.pressure.total_excess() + self.dist_total
    }

    /// The conflict half: total predicted per-set excess (unscaled).
    #[must_use]
    pub fn conflict_excess(&self) -> u64 {
        self.pressure.total_excess()
    }

    /// The distance half: total per-mille arc cost.
    #[must_use]
    pub fn distance_total(&self) -> u64 {
        self.dist_total
    }

    /// Read-only access to the per-set pressure model (used by
    /// predictor-targeted proposals and the differential tests).
    #[must_use]
    pub fn pressure(&self) -> &IncrementalPressure {
        &self.pressure
    }

    /// Starts a new mutation: subsequent [`Objective::rescore_block_arcs`]
    /// calls dedup arcs against this generation.
    pub fn begin_mutation(&mut self) {
        self.tick += 1;
    }

    /// Phase 1: re-homes one block's fetch weight from `old` to `new`.
    pub fn move_block(&mut self, block: usize, old: u64, new: u64) {
        let (w, len) = (self.weight[block], u64::from(self.size[block]));
        self.pressure.remove_span(old, len, w);
        self.pressure.add_span(new, len, w);
    }

    /// Phase 2: re-prices every arc incident to `block` against the
    /// final `addr` array. Arcs already re-priced in this mutation (both
    /// endpoints moved) are skipped via the generation stamp.
    pub fn rescore_block_arcs(&mut self, block: usize, addr: &[u64]) {
        let (lo, hi) = (
            self.incident_first[block] as usize,
            self.incident_first[block + 1] as usize,
        );
        for k in lo..hi {
            let id = self.incident[k] as usize;
            if self.arc_stamp[id] == self.tick {
                continue;
            }
            self.arc_stamp[id] = self.tick;
            let new_cost = self.arc_cost_at(id, addr);
            self.dist_total = self.dist_total - self.arc_cost[id] + new_cost;
            self.arc_cost[id] = new_cost;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glued_fallthrough_is_free() {
        assert_eq!(distance_penalty_pm(128, 128), 0);
    }

    #[test]
    fn forward_window_prices_below_backward() {
        // A short forward branch is cheaper than a short backward one.
        assert!(distance_penalty_pm(100, 104) < distance_penalty_pm(104, 100));
        // Monotone in distance within each window.
        assert!(distance_penalty_pm(0, 8) < distance_penalty_pm(0, 512));
        assert!(distance_penalty_pm(512, 480) < distance_penalty_pm(512, 32));
    }

    #[test]
    fn far_arcs_pay_full_price_both_ways() {
        assert_eq!(distance_penalty_pm(0, FORWARD_WINDOW), 1000);
        assert_eq!(distance_penalty_pm(BACKWARD_WINDOW, 0), 1000);
        assert_eq!(distance_penalty_pm(0, 1 << 40), 1000);
    }

    #[test]
    fn window_edges_stay_in_per_mille_range() {
        assert_eq!(distance_penalty_pm(0, 1), 100);
        assert_eq!(distance_penalty_pm(1, 0), 301);
        assert!(distance_penalty_pm(0, FORWARD_WINDOW - 1) < 1000);
        assert!(distance_penalty_pm(BACKWARD_WINDOW - 1, 0) < 1000);
    }
}
