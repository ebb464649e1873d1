//! Single-pass multi-configuration simulation.
//!
//! [`MultiSim`] evaluates a whole family of cache organizations in one
//! pass over an access stream and reproduces, per configuration, exactly
//! what a dedicated [`crate::Cache`] would have measured: the same
//! [`MissStats`], the same per-kind miss classification, the same
//! eviction counts and the same final set-occupancy snapshot.
//!
//! Two mechanisms make one pass suffice:
//!
//! * **Stack inclusion (Mattson).** Under true LRU, the residents of an
//!   `A`-way set are exactly the `A` most recently used lines mapping to
//!   it. So all configurations sharing a line size *and* a set count are
//!   served by one **level** of per-set LRU recency stacks, each exactly
//!   as deep as the level's largest associativity. A line's position `p`
//!   in its set's stack is its stack distance: every point with
//!   `ways <= p` misses, and its victim is the stack entry at
//!   `ways - 1` (absent while the set is not yet full). Entries deeper
//!   than the level's largest associativity are resident in none of its
//!   points, so the bounded stack is exact by construction.
//! * **Banked tag arrays.** Configurations with different line sizes
//!   cannot share a stack (their keys differ), so each line size gets
//!   its own bank of levels and the banks run side by side on the same
//!   stream, each coalescing sequential fetches into line runs at its own
//!   line size.
//!
//! An access walks a bank's levels from the fewest sets to the most. A
//! line at the top of its coarse set's stack was the last line touched in
//! that set, hence also in every finer set that contains it: the walk
//! stops there, and the dominant case (a repeat of the last line) costs
//! one load. Otherwise each level scans its set's stack for the key, so a
//! non-MRU access costs at most the sum of the levels' largest
//! associativities. A large fully associative point is therefore
//! expensive: it is a one-set level whose scan is `O(ways)`.

use oslay_model::Domain;
use oslay_observe::Probe;

use crate::sim::{report_cache_metrics, EvictTable};
use crate::{CacheConfig, MissKind, MissStats};

/// Empty stack slot, and "no victim" for a miss into a set that is not
/// yet full. Line keys are `addr >> line_shift`; a real key collides with
/// the sentinel only for the topmost line of the address space, which
/// layouts never produce (the dense cache debug-asserts the same).
const NO_VICTIM: u64 = u64::MAX;

/// Per-configuration simulation state: everything a dedicated
/// [`crate::Cache`] would have accumulated, minus what is shared across
/// the group (word counts) or derivable from the level's stacks
/// (occupancy).
#[derive(Clone, Debug)]
struct PointState {
    cfg: CacheConfig,
    ways: u32,
    /// Index of the bank level holding this point's set count.
    level: usize,
    /// Who last evicted each line, the same table the dense cache keeps,
    /// so classification is the same too.
    evict: EvictTable,
    misses_by_kind: [u64; 5],
    /// Cold misses split by the accessing domain (needed to reconstruct
    /// per-domain hits: hits = accesses - misses suffered).
    cold_by_domain: [u64; 2],
    /// Evictions of valid lines, by evictor domain.
    evict_by_domain: [u64; 2],
}

impl PointState {
    /// Replicates the dense cache's miss path for `key`: record the
    /// eviction of `victim` (unless the set had a free way), then
    /// classify `key` by its last evictor.
    fn miss(&mut self, key: u64, victim: u64, domain: Domain) {
        if victim != NO_VICTIM {
            self.evict.record(victim, domain);
            self.evict_by_domain[domain.index()] += 1;
        }
        let kind = MissKind::classify(domain, self.evict.lookup(key));
        self.misses_by_kind[kind.index()] += 1;
        if kind == MissKind::Cold {
            self.cold_by_domain[domain.index()] += 1;
        }
    }
}

/// Every configuration of a bank that shares one set count, on per-set
/// LRU stacks exactly `depth` slots deep.
#[derive(Clone, Debug)]
struct Level {
    /// `num_sets - 1`: `key & set_mask` selects the stack.
    set_mask: u64,
    /// Slots per set: the largest associativity among the level's points.
    depth: usize,
    /// Stack entries (line keys), set-major, most recent first. Valid
    /// entries form a prefix of each stack; the rest hold [`NO_VICTIM`],
    /// which never equals a key.
    entries: Vec<u64>,
    /// The level's points as `(ways, point index)`, ways strictly
    /// ascending (within a bank `(sets, ways)` determines the
    /// configuration).
    points: Vec<(usize, usize)>,
}

/// One bank: every configuration sharing a line size, one [`Level`] per
/// distinct set count.
#[derive(Clone, Debug)]
struct Bank {
    /// `log2(line)`: `addr >> line_shift` is the line key.
    line_shift: u32,
    /// Levels in ascending set count.
    levels: Vec<Level>,
    points: Vec<PointState>,
}

impl Bank {
    fn new(line_shift: u32, cfgs: &[CacheConfig]) -> Self {
        debug_assert!(!cfgs.is_empty());
        let mut sets: Vec<u32> = cfgs.iter().map(CacheConfig::num_sets).collect();
        sets.sort_unstable();
        sets.dedup();
        let mut levels: Vec<Level> = sets
            .iter()
            .map(|&n| Level {
                set_mask: u64::from(n - 1),
                depth: 0,
                entries: Vec::new(),
                points: Vec::new(),
            })
            .collect();
        let mut points = Vec::with_capacity(cfgs.len());
        for (pi, cfg) in cfgs.iter().enumerate() {
            let li = sets
                .binary_search(&cfg.num_sets())
                .expect("set count is listed");
            levels[li].points.push((cfg.ways() as usize, pi));
            points.push(PointState {
                cfg: *cfg,
                ways: cfg.ways(),
                level: li,
                evict: EvictTable::new(),
                misses_by_kind: [0; 5],
                cold_by_domain: [0; 2],
                evict_by_domain: [0; 2],
            });
        }
        for level in &mut levels {
            level.points.sort_unstable();
            level.depth = level.points.last().expect("a level has a point").0;
            level.entries = vec![NO_VICTIM; (level.set_mask as usize + 1) * level.depth];
        }
        Self {
            line_shift,
            levels,
            points,
        }
    }

    /// Touches the stacks once per line a `words`-long sequential fetch
    /// touches at this bank's line size — after the first word of a line
    /// the rest of its words are guaranteed hits in every configuration
    /// of the bank (same line size), leaving all replacement state
    /// untouched, exactly as the dense cache's coalesced path reasons.
    fn access_run(&mut self, base: u64, words: u32, domain: Domain) {
        for key in self.points[0].cfg.line_keys(base, words) {
            self.access_line(key, domain);
        }
    }

    /// One line-granular access: per level, settle every point's outcome
    /// from the key's stack distance, then move `key` to the top.
    fn access_line(&mut self, key: u64, domain: Domain) {
        debug_assert_ne!(key, NO_VICTIM, "address in the topmost line");
        let Self { levels, points, .. } = self;
        for level in levels {
            let depth = level.depth;
            let set = (key & level.set_mask) as usize;
            let stack = &mut level.entries[set * depth..(set + 1) * depth];
            // MRU here means MRU in every finer set too (they hold a
            // subset of this set's lines): a universal hit that moves
            // nothing. Hits are derived from the shared access counts,
            // so there is nothing to record.
            if stack[0] == key {
                return;
            }
            // Hoist `key` to the top in one pass, shifting every entry
            // above its old slot down by one. `pos` ends as the key's
            // stack distance, or `depth` if it was resident in no point;
            // then `carry` holds the deepest entry, now pushed out of
            // every point of the level.
            let mut carry = key;
            let mut pos = depth;
            for (p, slot) in stack.iter_mut().enumerate() {
                let e = std::mem::replace(slot, carry);
                if e == key {
                    pos = p;
                    break;
                }
                carry = e;
            }
            for &(ways, pi) in &level.points {
                if ways > pos {
                    break;
                }
                // The `ways`-th most recent line before the hoist (now one
                // slot down) is this point's LRU resident; an empty slot
                // means the set had a free way.
                let victim = if ways < depth { stack[ways] } else { carry };
                points[pi].miss(key, victim, domain);
            }
        }
    }

    /// Final per-set occupancy of one point, read off its level: a set
    /// holds `min(valid stack entries, ways)` lines.
    fn occupancy(&self, pi: usize) -> impl Iterator<Item = usize> + '_ {
        let point = &self.points[pi];
        let level = &self.levels[point.level];
        level.entries.chunks_exact(level.depth).map(|stack| {
            let valid = stack.iter().take_while(|&&e| e != NO_VICTIM).count();
            valid.min(point.ways as usize)
        })
    }

    /// Structural stack invariants (test hook): in every set's stack the
    /// valid entries form a prefix, are unique, and map to that set. A
    /// violation means stack inclusion has been broken.
    fn check(&self) -> Result<(), String> {
        for level in &self.levels {
            let sets = level.set_mask + 1;
            for (set, stack) in level.entries.chunks_exact(level.depth).enumerate() {
                let valid = stack.iter().take_while(|&&e| e != NO_VICTIM).count();
                if let Some(hole) = stack[valid..].iter().position(|&e| e != NO_VICTIM) {
                    return Err(format!(
                        "{sets} sets, set {set}: valid slot {} after an empty one",
                        valid + hole
                    ));
                }
                for (i, &e) in stack[..valid].iter().enumerate() {
                    if (e & level.set_mask) as usize != set {
                        return Err(format!(
                            "{sets} sets, set {set}: entry {e:#x} belongs to set {}",
                            e & level.set_mask
                        ));
                    }
                    if stack[..i].contains(&e) {
                        return Err(format!("{sets} sets, set {set}: duplicate entry {e:#x}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A multi-configuration instruction-cache simulator: one pass over an
/// access stream yields, per [`CacheConfig`] point, results identical to
/// a dedicated [`crate::Cache`] replaying the same stream.
///
/// Construction groups the points into banks by line size; within a bank,
/// duplicate configurations collapse onto one simulation point (queries
/// by original index are fanned back out).
///
/// # Example
///
/// ```
/// use oslay_cache::{CacheConfig, MultiSim};
/// use oslay_model::Domain;
///
/// let grid = [
///     CacheConfig::new(4096, 32, 1),
///     CacheConfig::new(8192, 32, 2),
///     CacheConfig::new(8192, 64, 1),
/// ];
/// let mut multi = MultiSim::new(&grid);
/// multi.access_words(0x100, 12, Domain::Os);
/// assert_eq!(multi.stats(0).total_accesses(), 12);
/// ```
#[derive(Clone, Debug)]
pub struct MultiSim {
    banks: Vec<Bank>,
    /// Original point index -> (bank, point-in-bank).
    point_map: Vec<(usize, usize)>,
    /// Word fetches by domain — identical for every point (the stream is
    /// shared), so accounted once for the whole group.
    accesses: [u64; 2],
}

impl MultiSim {
    /// Builds a simulator for the given configuration grid. Duplicate
    /// configurations share state; per-index queries still answer for
    /// every input position.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    #[must_use]
    pub fn new(configs: &[CacheConfig]) -> Self {
        assert!(!configs.is_empty(), "multisim needs at least one point");
        // Group by line size, deduplicating identical configurations.
        let mut bank_cfgs: Vec<(u32, Vec<CacheConfig>)> = Vec::new();
        let mut point_map = Vec::with_capacity(configs.len());
        for cfg in configs {
            let shift = cfg.line_shift();
            let bi = match bank_cfgs.iter().position(|&(s, _)| s == shift) {
                Some(bi) => bi,
                None => {
                    bank_cfgs.push((shift, Vec::new()));
                    bank_cfgs.len() - 1
                }
            };
            let within = &mut bank_cfgs[bi].1;
            let pi = match within.iter().position(|c| c == cfg) {
                Some(pi) => pi,
                None => {
                    within.push(*cfg);
                    within.len() - 1
                }
            };
            point_map.push((bi, pi));
        }
        let banks = bank_cfgs
            .into_iter()
            .map(|(shift, cfgs)| Bank::new(shift, &cfgs))
            .collect();
        Self {
            banks,
            point_map,
            accesses: [0; 2],
        }
    }

    /// Number of input points (including duplicates).
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.point_map.len()
    }

    /// The configuration of one input point.
    #[must_use]
    pub fn config(&self, point: usize) -> CacheConfig {
        let (bi, pi) = self.point_map[point];
        self.banks[bi].points[pi].cfg
    }

    /// Simulates one instruction-word fetch, for every point at once.
    pub fn access(&mut self, addr: u64, domain: Domain) {
        self.accesses[domain.index()] += 1;
        for bank in &mut self.banks {
            bank.access_line(addr >> bank.line_shift, domain);
        }
    }

    /// Simulates `words` consecutive instruction-word fetches starting
    /// at `base`, for every point at once — the multi-configuration
    /// equivalent of [`crate::InstructionCache::access_words`], with
    /// fetch coalescing at each bank's own line size.
    pub fn access_words(&mut self, base: u64, words: u32, domain: Domain) {
        if words == 0 {
            return;
        }
        self.accesses[domain.index()] += u64::from(words);
        for bank in &mut self.banks {
            bank.access_run(base, words, domain);
        }
    }

    /// The statistics a dedicated [`crate::Cache`] would report for this
    /// point after the same stream.
    #[must_use]
    pub fn stats(&self, point: usize) -> MissStats {
        let (bi, pi) = self.point_map[point];
        let p = &self.banks[bi].points[pi];
        let mk = p.misses_by_kind;
        let suffered = [
            // Misses suffered by the OS: its cold misses plus both
            // kinds where the OS is the victim.
            p.cold_by_domain[Domain::Os.index()]
                + mk[MissKind::OsSelf.index()]
                + mk[MissKind::OsByApp.index()],
            p.cold_by_domain[Domain::App.index()]
                + mk[MissKind::AppSelf.index()]
                + mk[MissKind::AppByOs.index()],
        ];
        let hits = [
            self.accesses[0] - suffered[0],
            self.accesses[1] - suffered[1],
        ];
        MissStats::from_parts(self.accesses, hits, mk)
    }

    /// Reports one point's cache events into `probe` exactly as
    /// [`crate::Cache::report_into`] reports a dedicated cache's (both
    /// write through one helper): per-kind miss and per-evictor eviction
    /// counters, the per-set occupancy histogram and the fill gauge.
    pub fn report_into(&self, point: usize, probe: &dyn Probe) {
        let (bi, pi) = self.point_map[point];
        let bank = &self.banks[bi];
        let p = &bank.points[pi];
        report_cache_metrics(
            probe,
            &self.stats(point),
            p.evict_by_domain,
            bank.occupancy(pi),
            p.ways as usize,
        );
    }

    /// Verifies the structural invariants of every level's stacks (valid
    /// entries form a prefix, are unique, and are homed to their own
    /// set). Test hook for the property suite: any violation means the
    /// stacks have lost inclusion.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_inclusion(&self) -> Result<(), String> {
        for (bi, bank) in self.banks.iter().enumerate() {
            bank.check().map_err(|e| format!("bank {bi}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use oslay_model::rng::Rng;
    use oslay_observe::MetricRegistry;

    use super::*;
    use crate::{Cache, InstructionCache};

    /// A grid mixing sizes, associativities, and line sizes (three
    /// banks), plus a duplicate point.
    fn grid() -> Vec<CacheConfig> {
        vec![
            CacheConfig::new(1024, 32, 1),
            CacheConfig::new(2048, 32, 2),
            CacheConfig::new(4096, 32, 4),
            CacheConfig::new(2048, 32, 1),
            CacheConfig::new(2048, 16, 2),
            CacheConfig::new(4096, 64, 1),
            CacheConfig::new(2048, 32, 2),
        ]
    }

    fn random_stream(seed: u64, steps: u32, span: u32, mut sink: impl FnMut(u64, u32, Domain)) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..steps {
            let base = u64::from(rng.gen_range(0..span));
            let words = 1 + rng.gen_range(0..24u32);
            let domain = if rng.gen_range(0..3u32) == 0 {
                Domain::App
            } else {
                Domain::Os
            };
            sink(base, words, domain);
        }
    }

    #[test]
    fn matches_dense_caches_on_randomized_stream() {
        let grid = grid();
        let mut multi = MultiSim::new(&grid);
        let mut dense: Vec<Cache> = grid.iter().map(|&c| Cache::new(c)).collect();
        random_stream(0x51EE7, 20_000, 6 * 1024, |base, words, domain| {
            multi.access_words(base, words, domain);
            for c in &mut dense {
                c.access_words(base, words, domain);
            }
        });
        for (pi, c) in dense.iter().enumerate() {
            assert_eq!(multi.stats(pi), *c.stats(), "point {pi} ({})", grid[pi]);
        }
        multi.check_inclusion().expect("stack invariants hold");
    }

    #[test]
    fn matches_dense_caches_per_single_access() {
        // Word-at-a-time API, checked at every step so any divergence
        // pinpoints the first mismatching access.
        let grid = grid();
        let mut multi = MultiSim::new(&grid);
        let mut dense: Vec<Cache> = grid.iter().map(|&c| Cache::new(c)).collect();
        let mut rng = Rng::seed_from_u64(0xACCE55);
        for step in 0..30_000u32 {
            let addr = u64::from(rng.gen_range(0..4 * 1024u32));
            let domain = if rng.gen_range(0..4u32) == 0 {
                Domain::App
            } else {
                Domain::Os
            };
            multi.access(addr, domain);
            for (pi, c) in dense.iter_mut().enumerate() {
                c.access(addr, domain);
                assert_eq!(
                    multi.stats(pi),
                    *c.stats(),
                    "step {step} addr {addr:#x} point {pi} ({})",
                    grid[pi]
                );
            }
        }
    }

    #[test]
    fn eviction_pressure_preserves_equality() {
        // Tiny caches, address span far beyond every capacity: every
        // level's stacks overflow constantly, pushing lines out of the
        // deepest slot.
        let grid = vec![
            CacheConfig::new(64, 16, 1),
            CacheConfig::new(128, 16, 2),
            CacheConfig::new(256, 16, 1),
            CacheConfig::new(128, 32, 1),
        ];
        let mut multi = MultiSim::new(&grid);
        let mut dense: Vec<Cache> = grid.iter().map(|&c| Cache::new(c)).collect();
        random_stream(0x9B1D, 40_000, 64 * 1024, |base, words, domain| {
            multi.access_words(base, words, domain);
            for c in &mut dense {
                c.access_words(base, words, domain);
            }
            multi.check_inclusion().expect("stacks stay sound");
        });
        for (pi, c) in dense.iter().enumerate() {
            assert_eq!(multi.stats(pi), *c.stats(), "point {pi} ({})", grid[pi]);
        }
    }

    #[test]
    fn duplicate_points_share_state_and_answer_independently() {
        let grid = grid();
        let multi = MultiSim::new(&grid);
        assert_eq!(multi.num_points(), grid.len());
        assert_eq!(multi.config(1), multi.config(6));
        let mut multi = multi;
        multi.access_words(0x40, 9, Domain::Os);
        assert_eq!(multi.stats(1), multi.stats(6));
    }

    #[test]
    fn matches_reference_caches_on_seeded_streams() {
        // Property check against the *map-based* reference model rather
        // than the optimized dense cache: N independent `ReferenceCache`
        // instances aggregate the same stream access-by-access, and every
        // grid point must agree, per seed.
        use crate::reference::ReferenceCache;

        let grid = grid();
        for seed in [0xA11CEu64, 0xB0B5EED, 0xF1F7EE17] {
            let mut multi = MultiSim::new(&grid);
            let mut refs: Vec<(ReferenceCache, MissStats)> = grid
                .iter()
                .map(|&c| (ReferenceCache::new(c), MissStats::default()))
                .collect();
            let mut rng = Rng::seed_from_u64(seed);
            for _ in 0..20_000u32 {
                let addr = u64::from(rng.gen_range(0..6 * 1024u32));
                let domain = if rng.gen_range(0..3u32) == 0 {
                    Domain::App
                } else {
                    Domain::Os
                };
                multi.access(addr, domain);
                for (r, stats) in &mut refs {
                    let detail = r.access_detailed(addr, domain);
                    stats.record(domain, detail.outcome);
                }
            }
            multi.check_inclusion().expect("stack invariants hold");
            for (pi, (_, stats)) in refs.iter().enumerate() {
                assert_eq!(
                    multi.stats(pi),
                    *stats,
                    "seed {seed:#x} point {pi} ({})",
                    grid[pi]
                );
            }
        }
    }

    #[test]
    fn matches_reference_caches_under_eviction_pressure() {
        // Same property under constant overflow: tiny caches, an address
        // span far beyond every capacity, inclusion checked as lines fall
        // off the bottom of the stacks.
        use crate::reference::ReferenceCache;

        let grid = vec![
            CacheConfig::new(64, 16, 1),
            CacheConfig::new(128, 16, 2),
            CacheConfig::new(256, 16, 1),
            CacheConfig::new(128, 32, 1),
        ];
        let mut multi = MultiSim::new(&grid);
        let mut refs: Vec<(ReferenceCache, MissStats)> = grid
            .iter()
            .map(|&c| (ReferenceCache::new(c), MissStats::default()))
            .collect();
        let mut rng = Rng::seed_from_u64(0x9B1D5EED);
        for step in 0..30_000u32 {
            let addr = u64::from(rng.gen_range(0..16 * 1024u32));
            let domain = if rng.gen_range(0..4u32) == 0 {
                Domain::App
            } else {
                Domain::Os
            };
            multi.access(addr, domain);
            for (r, stats) in &mut refs {
                let detail = r.access_detailed(addr, domain);
                stats.record(domain, detail.outcome);
            }
            if step % 1024 == 0 {
                multi.check_inclusion().expect("stacks stay sound");
            }
        }
        multi.check_inclusion().expect("stacks stay sound");
        for (pi, (_, stats)) in refs.iter().enumerate() {
            assert_eq!(multi.stats(pi), *stats, "point {pi} ({})", grid[pi]);
        }
    }

    #[test]
    fn check_inclusion_detects_corrupted_stacks() {
        // `check_inclusion` is the property suite's oracle, so prove it
        // actually fires: plant each class of violation in a healthy
        // simulator and expect the matching report.
        let grid = grid();
        let filled = || {
            let mut m = MultiSim::new(&grid);
            random_stream(0x5EED, 3_000, 6 * 1024, |base, words, domain| {
                m.access_words(base, words, domain);
            });
            m.check_inclusion().expect("healthy after the stream");
            m
        };
        // The start of a stack holding at least two valid entries, in the
        // first level of the 32-byte bank (32 sets, four ways deep).
        let deep_stack = |m: &MultiSim| {
            let level = &m.banks[0].levels[0];
            assert!(level.set_mask > 0 && level.depth >= 2);
            let set = level
                .entries
                .chunks_exact(level.depth)
                .position(|s| s[1] != NO_VICTIM)
                .expect("a stack at least two deep");
            set * level.depth
        };

        // A duplicated entry.
        let mut m = filled();
        let at = deep_stack(&m);
        let entries = &mut m.banks[0].levels[0].entries;
        entries[at + 1] = entries[at];
        let err = m.check_inclusion().expect_err("duplicate goes undetected");
        assert!(err.contains("duplicate"), "{err}");

        // An entry homed to the wrong set (flipping the lowest key bit
        // moves it: the level has more than one set).
        let mut m = filled();
        let at = deep_stack(&m);
        m.banks[0].levels[0].entries[at] ^= 1;
        let err = m.check_inclusion().expect_err("mis-homed entry undetected");
        assert!(err.contains("belongs to"), "{err}");

        // A hole: a valid slot after an empty one.
        let mut m = filled();
        let at = deep_stack(&m);
        m.banks[0].levels[0].entries[at] = NO_VICTIM;
        let err = m.check_inclusion().expect_err("hole undetected");
        assert!(err.contains("after an empty one"), "{err}");
    }

    #[test]
    fn edge_geometries_match_dense_and_reference_caches() {
        // Each case is its own simulator, differenced per point against a
        // dense `Cache` and the map-based `ReferenceCache` on the same
        // stream: stats, the reported miss and eviction counters, the
        // occupancy gauge and the per-set occupancy histogram.
        use crate::reference::ReferenceCache;

        let cases: [(&str, Vec<CacheConfig>); 6] = [
            (
                "one set (fully associative)",
                vec![
                    CacheConfig::new(256, 32, 8),
                    CacheConfig::new(128, 32, 4),
                    CacheConfig::new(256, 32, 1),
                ],
            ),
            (
                "line = one word",
                vec![
                    CacheConfig::new(256, 4, 1),
                    CacheConfig::new(512, 4, 2),
                    CacheConfig::new(64, 4, 16),
                ],
            ),
            (
                "set counts 16 and 1024 only",
                vec![
                    CacheConfig::new(512, 32, 1),
                    CacheConfig::new(1024, 32, 2),
                    CacheConfig::new(32 * 1024, 32, 1),
                ],
            ),
            (
                "ways 1 and 4 at one set count",
                vec![CacheConfig::new(1024, 16, 1), CacheConfig::new(4096, 16, 4)],
            ),
            (
                "direct-mapped only",
                vec![
                    CacheConfig::new(1024, 64, 1),
                    CacheConfig::new(4096, 64, 1),
                    CacheConfig::new(512, 64, 1),
                ],
            ),
            (
                "duplicate configurations",
                vec![
                    CacheConfig::new(1024, 32, 2),
                    CacheConfig::new(1024, 32, 2),
                    CacheConfig::new(2048, 16, 1),
                    CacheConfig::new(1024, 32, 2),
                ],
            ),
        ];
        for (name, grid) in cases {
            let mut multi = MultiSim::new(&grid);
            let mut dense: Vec<Cache> = grid.iter().map(|&c| Cache::new(c)).collect();
            // Per point: the reference cache, its stats, and its
            // evictions by evictor domain.
            let mut refs: Vec<(ReferenceCache, MissStats, [u64; 2])> = grid
                .iter()
                .map(|&c| (ReferenceCache::new(c), MissStats::default(), [0; 2]))
                .collect();
            random_stream(0xED6E, 12_000, 8 * 1024, |base, words, domain| {
                multi.access_words(base, words, domain);
                for c in &mut dense {
                    c.access_words(base, words, domain);
                }
                for (r, stats, evicted) in &mut refs {
                    for w in 0..u64::from(words) {
                        let detail = r.access_detailed(base + 4 * w, domain);
                        stats.record(domain, detail.outcome);
                        if detail.evicted.is_some() {
                            evicted[domain.index()] += 1;
                        }
                    }
                }
            });
            multi.check_inclusion().expect("stacks stay sound");
            for (pi, (c, (_, ref_stats, ref_evicted))) in dense.iter().zip(&refs).enumerate() {
                let at = format!("{name}: point {pi} ({})", grid[pi]);
                assert_eq!(multi.stats(pi), *c.stats(), "{at} vs dense");
                assert_eq!(multi.stats(pi), *ref_stats, "{at} vs reference");
                let reg = MetricRegistry::new();
                c.report_into(&reg);
                let mine = MetricRegistry::new();
                multi.report_into(pi, &mine);
                assert_eq!(mine.counters(), reg.counters(), "{at} counters");
                assert_eq!(mine.gauges(), reg.gauges(), "{at} gauges");
                assert_eq!(mine.histograms(), reg.histograms(), "{at} histograms");
                for (domain, metric) in [
                    (Domain::Os, "cache.evict.by_os"),
                    (Domain::App, "cache.evict.by_app"),
                ] {
                    let n = mine
                        .counters()
                        .iter()
                        .find(|(k, _)| k == metric)
                        .map_or(0, |&(_, n)| n);
                    assert_eq!(n, ref_evicted[domain.index()], "{at} {metric}");
                }
            }
        }
    }

    #[test]
    fn every_engine_matches_reference_over_thousands_of_lines_per_set() {
        // A 1-set, 2-way point over ~16k distinct lines, all in one set:
        // the dense cache, the attributed cache and the single-pass point
        // must classify every access exactly as the map-based reference,
        // and a line misses cold only on its first touch.
        use std::collections::HashSet;
        use std::sync::Arc;

        use crate::reference::ReferenceCache;
        use crate::{AddressMap, AttributedCache};

        let cfg = CacheConfig::new(32, 16, 2);
        assert_eq!(cfg.num_sets(), 1);
        let lines = 4 * 4096u64;
        let mut multi = MultiSim::new(&[cfg]);
        let mut dense = Cache::new(cfg);
        let mut attributed = AttributedCache::new(
            Cache::new(cfg),
            Arc::new(AddressMap::build(std::iter::empty())),
        );
        let mut reference = ReferenceCache::new(cfg);
        let mut want = MissStats::default();
        let mut touched = HashSet::new();
        let mut rng = Rng::seed_from_u64(0xCA9);
        for step in 0..60_000u32 {
            let addr = 16 * rng.gen_range(0..lines);
            let domain = if rng.gen_range(0..3u32) == 0 {
                Domain::App
            } else {
                Domain::Os
            };
            let detail = reference.access_detailed(addr, domain);
            want.record(domain, detail.outcome);
            touched.insert(addr);
            assert_eq!(dense.access_detailed(addr, domain), detail, "step {step}");
            assert_eq!(
                attributed.access(addr, domain),
                detail.outcome,
                "step {step}"
            );
            multi.access(addr, domain);
            assert_eq!(multi.stats(0), want, "step {step}");
        }
        assert!(touched.len() > 3 * 4096, "{} distinct lines", touched.len());
        assert_eq!(want.misses(MissKind::Cold), touched.len() as u64);
        assert_eq!(*dense.stats(), want);
        assert_eq!(*attributed.inner().stats(), want);
        assert_eq!(multi.stats(0), want);
        let (mine, reg) = (MetricRegistry::new(), MetricRegistry::new());
        multi.report_into(0, &mine);
        dense.report_into(&reg);
        assert_eq!(mine.counters(), reg.counters());
        assert_eq!(mine.gauges(), reg.gauges());
        assert_eq!(mine.histograms(), reg.histograms());
    }

    #[test]
    fn empty_stream_reports_zeros() {
        let multi = MultiSim::new(&grid());
        for pi in 0..multi.num_points() {
            assert_eq!(multi.stats(pi), MissStats::default());
        }
        multi.check_inclusion().expect("empty stacks are sound");
    }
}
