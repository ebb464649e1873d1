//! The mutable search state: one candidate layout, its atom geometry,
//! and the incrementally scored objective.
//!
//! A step proposes an atom mutation, admission-gates it (would the
//! result lint clean under KV001–KV008?), trial-applies it, and either
//! keeps it or applies the exact inverse. Because every score update is
//! integer arithmetic, revert restores the objective bit-for-bit — no
//! drift over millions of candidates.
//!
//! The admission gate is the search-side image of the static checker:
//! atom sizes never change (so KV008 zero-size and the stretch honesty
//! rule hold by construction) and the gate rejects any placement that
//! would overlap another atom or escape the address limit (KV001). The
//! property test in `tests/search.rs` closes the loop by running
//! `verify_structural` on accepted candidates.

use crate::atoms::Atoms;
use crate::objective::Objective;
use oslay_cache::CacheConfig;
use oslay_model::rng::Rng;
use oslay_model::Program;
use oslay_profile::Profile;
use oslay_verify::LayoutView;

/// Empty caches of address slack beyond the seed's span.
const HEADROOM_CACHES: u64 = 2;

/// One candidate mutation over atoms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proposal {
    /// Exchange the start addresses of two atoms.
    Swap {
        /// First atom.
        a: u32,
        /// Second atom.
        b: u32,
    },
    /// Move one atom to an explicit (line-aligned) start address.
    Rehome {
        /// The atom to move.
        atom: u32,
        /// Its new start address.
        addr: u64,
    },
}

/// What one search step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The proposal failed the admission gate; it was never scored.
    GateRejected,
    /// Scored no worse than the current layout and kept.
    Accepted,
    /// Scored worse but kept by the annealing acceptance rule.
    AcceptedWorse,
    /// Scored worse and reverted.
    RejectedWorse,
}

/// Counters over one walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Proposals drawn.
    pub proposed: u64,
    /// Proposals rejected by the admission gate before scoring.
    pub gate_rejected: u64,
    /// Candidates actually scored (applied at least trially).
    pub scored: u64,
    /// Candidates kept with objective ≤ the incumbent.
    pub accepted: u64,
    /// Worse candidates kept by annealing.
    pub accepted_worse: u64,
    /// Worse candidates reverted.
    pub rejected_worse: u64,
}

/// One walk's layout, geometry, and objective.
pub struct SearchState {
    config: CacheConfig,
    limit: u64,
    name: String,
    /// Current per-block addresses.
    addr: Vec<u64>,
    /// Per-block effective sizes (constant).
    size: Vec<u32>,
    atoms: Atoms,
    /// Cumulative atom weights (inclusive) for hot-atom sampling.
    weight_prefix: Vec<u64>,
    total_weight: u64,
    /// Atom indices sorted by current start address.
    order: Vec<u32>,
    /// The start of each atom in `order`: `ranked[i] ==
    /// atoms.start[order[i]]`, so one binary search over one contiguous
    /// array finds a rank.
    ranked: Vec<u64>,
    obj: Objective,
    stats: WalkStats,
    best: u64,
    best_addr: Vec<u64>,
}

impl std::fmt::Debug for SearchState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchState")
            .field("name", &self.name)
            .field("atoms", &self.atoms.count())
            .field("limit", &self.limit)
            .field("objective", &self.obj.value())
            .field("best", &self.best)
            .finish()
    }
}

impl SearchState {
    /// Builds a walk starting from `seed` (typically the OptS view).
    ///
    /// The address space is the seed's span rounded up to a whole cache,
    /// plus `HEADROOM_CACHES` empty caches of slack so atoms have room
    /// to move.
    #[must_use]
    pub fn new(
        program: &Program,
        profile: &Profile,
        seed: &LayoutView,
        config: &CacheConfig,
    ) -> Self {
        let atoms = Atoms::decompose(program, profile, seed);
        let span_end = (0..seed.num_blocks())
            .map(|b| seed.end(b))
            .max()
            .unwrap_or(0);
        let cache = u64::from(config.size());
        let limit = (span_end.div_ceil(cache) + HEADROOM_CACHES) * cache;
        let mut order: Vec<u32> = (0..atoms.count() as u32).collect();
        order.sort_by_key(|&a| atoms.start[a as usize]);
        let ranked = order.iter().map(|&a| atoms.start[a as usize]).collect();
        let mut total = 0u64;
        let weight_prefix = atoms
            .weight
            .iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        let obj = Objective::new(profile, seed, config, limit);
        let best = obj.value();
        Self {
            config: *config,
            limit,
            name: seed.name.clone(),
            addr: seed.addr.clone(),
            size: seed.size.clone(),
            atoms,
            weight_prefix,
            total_weight: total,
            order,
            ranked,
            obj,
            stats: WalkStats::default(),
            best,
            best_addr: seed.addr.clone(),
        }
    }

    /// The exclusive address bound placements must stay under.
    #[must_use]
    pub fn addr_limit(&self) -> u64 {
        self.limit
    }

    /// The atom decomposition (starts reflect the current layout).
    #[must_use]
    pub fn atoms(&self) -> &Atoms {
        &self.atoms
    }

    /// Current objective value.
    #[must_use]
    pub fn objective(&self) -> u64 {
        self.obj.value()
    }

    /// The scorer (conflict/distance halves, per-set pressure).
    #[must_use]
    pub fn scorer(&self) -> &Objective {
        &self.obj
    }

    /// Best objective seen on this walk.
    #[must_use]
    pub fn best_objective(&self) -> u64 {
        self.best
    }

    /// Walk counters so far.
    #[must_use]
    pub fn stats(&self) -> WalkStats {
        self.stats
    }

    /// The current layout as a view.
    #[must_use]
    pub fn current_view(&self, name: &str) -> LayoutView {
        LayoutView {
            name: name.to_owned(),
            addr: self.addr.clone(),
            size: self.size.clone(),
        }
    }

    /// The best layout seen on this walk as a view.
    #[must_use]
    pub fn best_view(&self, name: &str) -> LayoutView {
        LayoutView {
            name: name.to_owned(),
            addr: self.best_addr.clone(),
            size: self.size.clone(),
        }
    }

    fn line(&self) -> u64 {
        1u64 << self.config.line_shift()
    }

    /// A random line-aligned start at which an atom of `len` bytes still
    /// fits under the limit.
    fn random_slot(&self, rng: &mut Rng, len: u64) -> u64 {
        let lines = (self.limit - len.min(self.limit)) / self.line() + 1;
        rng.gen_range(0..lines) * self.line()
    }

    /// Draws the next proposal. Roughly 40% atom swaps, 40% uniform
    /// re-homes, 20% predictor-guided re-homes (a weight-proportional
    /// hot atom aimed at the coolest of a few candidate slots).
    pub fn propose(&self, rng: &mut Rng) -> Proposal {
        let n = self.atoms.count() as u32;
        match rng.gen_range(0u32..10) {
            0..=3 => Proposal::Swap {
                a: rng.gen_range(0..n),
                b: rng.gen_range(0..n),
            },
            4..=7 => {
                let atom = rng.gen_range(0..n);
                let addr = self.random_slot(rng, self.atoms.len[atom as usize]);
                Proposal::Rehome { atom, addr }
            }
            _ => {
                let atom = if self.total_weight == 0 {
                    rng.gen_range(0..n)
                } else {
                    let t = rng.gen_range(0..self.total_weight);
                    self.weight_prefix.partition_point(|&p| p <= t) as u32
                };
                let len = self.atoms.len[atom as usize];
                // Aim at the coolest of a few slots: the first line's
                // set pressure is the predictor's verdict on landing
                // there.
                let mut best_addr = self.random_slot(rng, len);
                let mut best_heat = self
                    .obj
                    .pressure()
                    .set_weight(self.config.set_of(best_addr) as usize);
                for _ in 0..3 {
                    let cand = self.random_slot(rng, len);
                    let set = self.config.set_of(cand) as usize;
                    let heat = self.obj.pressure().set_weight(set);
                    if heat < best_heat {
                        best_heat = heat;
                        best_addr = cand;
                    }
                }
                Proposal::Rehome {
                    atom,
                    addr: best_addr,
                }
            }
        }
    }

    /// Would placing `atom` at `new_start` overlap any atom other than
    /// the excluded pair, or escape the limit?
    fn fits(&self, atom: u32, new_start: u64, excl: [u32; 2]) -> bool {
        let len = self.atoms.len[atom as usize];
        if new_start
            .checked_add(len)
            .is_none_or(|end| end > self.limit)
        {
            return false;
        }
        let i = self.ranked.partition_point(|&s| s < new_start);
        // Nearest unexcluded predecessor must end at or before new_start.
        let mut j = i;
        while j > 0 {
            let o = self.order[j - 1];
            if o == excl[0] || o == excl[1] {
                j -= 1;
                continue;
            }
            if self.atoms.start[o as usize] + self.atoms.len[o as usize] > new_start {
                return false;
            }
            break;
        }
        // Nearest unexcluded successor must start at or after the end.
        let mut k = i;
        while k < self.order.len() {
            let o = self.order[k];
            if o == excl[0] || o == excl[1] {
                k += 1;
                continue;
            }
            if new_start + len > self.atoms.start[o as usize] {
                return false;
            }
            break;
        }
        true
    }

    /// The admission gate: `true` iff applying the proposal yields a
    /// layout the static checker would pass (no overlaps, in bounds).
    /// Sizes never change, so this is the whole KV001–KV008 surface a
    /// mutation can touch.
    #[must_use]
    pub fn admissible(&self, p: &Proposal) -> bool {
        match *p {
            Proposal::Swap { a, b } => {
                if a == b {
                    return false;
                }
                let (sa, sb) = (self.atoms.start[a as usize], self.atoms.start[b as usize]);
                let (la, lb) = (self.atoms.len[a as usize], self.atoms.len[b as usize]);
                // The two relocated atoms must not overlap each other…
                let disjoint = sb + la <= sa || sa + lb <= sb;
                // …or anyone else.
                disjoint && self.fits(a, sb, [a, b]) && self.fits(b, sa, [a, b])
            }
            Proposal::Rehome { atom, addr } => {
                addr != self.atoms.start[atom as usize] && self.fits(atom, addr, [atom, atom])
            }
        }
    }

    /// The proposal that exactly undoes `p` from the current state.
    /// Capture it *before* applying `p`.
    #[must_use]
    pub fn inverse_of(&self, p: &Proposal) -> Proposal {
        match *p {
            Proposal::Swap { a, b } => Proposal::Swap { a, b },
            Proposal::Rehome { atom, .. } => Proposal::Rehome {
                atom,
                addr: self.atoms.start[atom as usize],
            },
        }
    }

    /// Applies an **admissible** proposal, updating geometry and score.
    ///
    /// Callers must gate with [`SearchState::admissible`] first:
    /// applying an inadmissible proposal corrupts the overlap order.
    pub fn apply(&mut self, p: &Proposal) {
        self.obj.begin_mutation();
        match *p {
            Proposal::Swap { a, b } => {
                let (sa, sb) = (self.atoms.start[a as usize], self.atoms.start[b as usize]);
                self.relocate(a, sb);
                self.relocate(b, sa);
                self.rescore_atom_arcs(a);
                self.rescore_atom_arcs(b);
            }
            Proposal::Rehome { atom, addr } => {
                self.relocate(atom, addr);
                self.rescore_atom_arcs(atom);
            }
        }
    }

    /// Phase 1 of a move: new start, per-block addresses, pressure, and
    /// the atom's rank in the overlap order.
    fn relocate(&mut self, atom: u32, new_start: u64) {
        // The old rank: the first at the old start, then forward to the
        // atom itself (mid-swap, its partner already shares that start).
        let old_start = self.atoms.start[atom as usize];
        let mut old = self.ranked.partition_point(|&s| s < old_start);
        while self.order[old] != atom {
            old += 1;
        }
        self.atoms.start[atom as usize] = new_start;
        let (lo, hi) = (
            self.atoms.first[atom as usize] as usize,
            self.atoms.first[atom as usize + 1] as usize,
        );
        for k in lo..hi {
            let b = self.atoms.members[k] as usize;
            let new = new_start + self.atoms.rel[b];
            self.obj.move_block(b, self.addr[b], new);
            self.addr[b] = new;
        }
        self.order.remove(old);
        self.ranked.remove(old);
        let new = self.ranked.partition_point(|&s| s < new_start);
        self.order.insert(new, atom);
        self.ranked.insert(new, new_start);
    }

    /// Phase 2: re-price arcs against the final addresses.
    fn rescore_atom_arcs(&mut self, atom: u32) {
        let (lo, hi) = (
            self.atoms.first[atom as usize] as usize,
            self.atoms.first[atom as usize + 1] as usize,
        );
        for k in lo..hi {
            let b = self.atoms.members[k] as usize;
            self.obj.rescore_block_arcs(b, &self.addr);
        }
    }

    /// One search step: propose, gate, trial-apply, accept or revert.
    ///
    /// `temperature == 0` is pure hill-climbing (never accepts a worse
    /// candidate); positive temperatures accept a worse candidate with
    /// probability `exp(-Δ/T)`.
    pub fn step(&mut self, rng: &mut Rng, temperature: f64) -> StepOutcome {
        let p = self.propose(rng);
        self.stats.proposed += 1;
        if !self.admissible(&p) {
            self.stats.gate_rejected += 1;
            return StepOutcome::GateRejected;
        }
        let inverse = self.inverse_of(&p);
        let before = self.obj.value();
        self.apply(&p);
        self.stats.scored += 1;
        let after = self.obj.value();
        if after <= before {
            self.stats.accepted += 1;
            if after < self.best {
                self.best = after;
                self.best_addr.copy_from_slice(&self.addr);
            }
            StepOutcome::Accepted
        } else if temperature > 0.0
            && rng.gen_f64() < (-((after - before) as f64) / temperature).exp()
        {
            self.stats.accepted_worse += 1;
            StepOutcome::AcceptedWorse
        } else {
            self.apply(&inverse);
            self.stats.rejected_worse += 1;
            StepOutcome::RejectedWorse
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay::{OsLayoutKind, Study, StudyConfig};

    /// The gate's verdict recomputed from scratch: apply the proposal to
    /// a copy of the atom starts and check every atom pair for overlap
    /// and every atom against the limit.
    fn brute_admissible(state: &SearchState, p: &Proposal) -> bool {
        let mut start = state.atoms.start.clone();
        match *p {
            Proposal::Swap { a, b } => {
                if a == b {
                    return false;
                }
                start.swap(a as usize, b as usize);
            }
            Proposal::Rehome { atom, addr } => {
                if addr == start[atom as usize] {
                    return false;
                }
                start[atom as usize] = addr;
            }
        }
        let mut spans = Vec::with_capacity(start.len());
        for (&s, &len) in start.iter().zip(&state.atoms.len) {
            match s.checked_add(len) {
                Some(end) if end <= state.limit => spans.push((s, end)),
                _ => return false,
            }
        }
        spans.sort_unstable();
        spans.windows(2).all(|w| w[0].1 <= w[1].0)
    }

    /// The rank structures agree with the atom starts.
    fn assert_ranked(state: &SearchState) {
        let mut atoms = state.order.clone();
        atoms.sort_unstable();
        assert!(
            atoms.into_iter().eq(0..state.atoms.count() as u32),
            "order is a permutation"
        );
        let starts: Vec<u64> = state
            .order
            .iter()
            .map(|&o| state.atoms.start[o as usize])
            .collect();
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "order sorted by start"
        );
        assert_eq!(state.ranked, starts, "ranked[i] == atoms.start[order[i]]");
    }

    /// An annealed walk over the tiny study: after every step the rank
    /// order matches the starts and the gate matches a brute-force
    /// overlap check. The walk's result is pinned: re-ranking must not
    /// change a single decision.
    #[test]
    fn annealed_walk_keeps_the_rank_order_and_an_exact_gate() {
        let study = Study::generate(&StudyConfig::tiny());
        let config = CacheConfig::paper_default();
        let seed =
            LayoutView::from_layout(&study.os_layout(OsLayoutKind::OptS, config.size()).layout);
        let mut state = SearchState::new(
            &study.kernel().program,
            study.averaged_os_profile(),
            &seed,
            &config,
        );
        let mut rng = Rng::seed_from_u64(0x0005_EA7C);
        let temperature = state.objective() as f64 / 200.0;
        let (mut swaps, mut rehomes) = (0u32, 0u32);
        assert_ranked(&state);
        for _ in 0..4_000 {
            let p = state.propose(&mut rng.clone());
            let admissible = state.admissible(&p);
            assert_eq!(admissible, brute_admissible(&state, &p), "{p:?}");
            if admissible {
                match p {
                    Proposal::Swap { .. } => swaps += 1,
                    Proposal::Rehome { .. } => rehomes += 1,
                }
            }
            state.step(&mut rng, temperature);
            assert_ranked(&state);
        }
        assert!(swaps > 0 && rehomes > 0, "{swaps} swaps, {rehomes} rehomes");
        assert_eq!(state.best_objective(), 36_044_867);
        assert_eq!(
            state.stats(),
            WalkStats {
                proposed: 4_000,
                gate_rejected: 3_093,
                scored: 907,
                accepted: 482,
                accepted_worse: 180,
                rejected_worse: 245,
            }
        );
    }
}
