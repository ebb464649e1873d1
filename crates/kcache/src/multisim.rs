//! Single-pass multi-configuration simulation.
//!
//! [`MultiSim`] evaluates a whole family of cache organizations in one
//! pass over an access stream and reproduces, per configuration, exactly
//! what a dedicated [`crate::Cache`] would have measured: the same
//! [`MissStats`], the same per-kind miss classification (including the
//! bounded eviction-provenance table's cap behavior), the same eviction
//! counts and the same final set-occupancy snapshot.
//!
//! Two mechanisms make one pass suffice:
//!
//! * **Stack inclusion (Mattson).** All configurations sharing a line
//!   size are served by one bank of per-set LRU recency stacks. Under
//!   true-LRU, the residents of an `A`-way set are exactly the `A` most
//!   recently used lines mapping to it, and set index masks nest:
//!   configurations with more sets split each stack's coarse set into
//!   finer ones selected by low key bits. One walk down the stack
//!   therefore yields, for every `(sets, ways)` point at once, the hit /
//!   miss outcome (stack distance within the point's set vs. its
//!   associativity) and the evicted line on a miss (the point's LRU
//!   resident, i.e. the `A`-th same-set entry from the top).
//! * **Banked tag arrays.** Configurations with different line sizes
//!   cannot share a stack (their keys differ), so each line size gets
//!   its own bank and the banks run side by side on the same stream,
//!   each coalescing sequential fetches into line runs at its own line
//!   size.
//!
//! Stacks are bounded: a coarse set's stack only needs the union of every
//! configuration's residents — `sum(A_c * sets_c / coarse_sets)` entries —
//! plus one slot of slack. Entries below every configuration's residency
//! depth are dead (no future access outcome can depend on them, see
//! [`Bank::prune`]) and are discarded lazily when a stack overflows.

use oslay_model::Domain;
use oslay_observe::Probe;

use crate::sim::EvictTable;
use crate::{CacheConfig, MissKind, MissStats};

/// Sentinel for "no eviction recorded for this point in this access".
/// Line keys are `addr >> line_shift`; a real key collides with the
/// sentinel only for the topmost line of the address space, which layouts
/// never produce (the dense cache debug-asserts the same).
const NO_VICTIM: u64 = u64::MAX;

/// Per-configuration simulation state: everything a dedicated
/// [`crate::Cache`] would have accumulated, minus what is shared across
/// the group (word counts) or derivable from the bank stack (occupancy).
#[derive(Clone, Debug)]
struct PointState {
    cfg: CacheConfig,
    /// `num_sets - 1` for this point.
    set_mask: u64,
    ways: u32,
    /// Index of this point's set-bit count in the bank's `svals`.
    si: usize,
    /// Mirrors the dense cache's bounded provenance table bit for bit:
    /// same per-set capacity, same round-robin drop, same record-then-
    /// classify order, so classification degrades identically under cap
    /// pressure.
    evict: EvictTable,
    misses_by_kind: [u64; 5],
    /// Cold misses split by the accessing domain (needed to reconstruct
    /// per-domain hits: hits = accesses - misses suffered).
    cold_by_domain: [u64; 2],
    /// Evictions of valid lines, by evictor domain.
    evict_by_domain: [u64; 2],
}

/// One bank: every configuration sharing a line size, on per-coarse-set
/// LRU recency stacks.
#[derive(Clone, Debug)]
struct Bank {
    /// `log2(line)`: `addr >> line_shift` is the line key.
    line_shift: u32,
    /// Set bits of the coarsest configuration in the bank.
    s_min: u32,
    /// `2^s_min - 1`: `key & coarse_mask` selects the stack.
    coarse_mask: u64,
    /// Stack slots per coarse set: `cap + 1` (one slot of slack so an
    /// insert can complete before the lazy prune runs).
    region: usize,
    /// Maximum live entries per coarse set: the union bound over every
    /// configuration's residents.
    cap: usize,
    /// Current stack depth per coarse set; read only off the MRU fast
    /// path (the hot path needs exactly one load to test the top slot —
    /// unused slots hold [`NO_VICTIM`], which never equals a key).
    lens: Vec<u32>,
    /// Stack entries (line keys), coarse-set-major, most recent first.
    entries: Vec<u64>,
    /// Distinct set-bit counts in the bank, ascending.
    svals: Vec<u32>,
    /// Per distinct set-bit count: the largest associativity (liveness
    /// bound used by the prune pass).
    max_ways: Vec<u32>,
    /// Flat eviction thresholds, grouped by `svals` index: block `si`
    /// spans `thr_start[si]..thr_start[si + 1]` of `thr_ways` /
    /// `thr_point`, its associativities strictly ascending (within a
    /// bank `(sets, ways)` determines the configuration). Flat arrays
    /// keep the walk's inner loop free of nested-`Vec` pointer chasing.
    thr_start: Vec<u32>,
    /// Associativity at which each threshold fires.
    thr_ways: Vec<u32>,
    /// Point index whose victim each threshold records.
    thr_point: Vec<u32>,
    points: Vec<PointState>,
    // Walk scratch, persisted to keep the hot path allocation-free.
    /// Same-set entries seen so far, per distinct set-bit count.
    counts: Vec<u32>,
    /// Next unfired threshold per distinct set-bit count (absolute index
    /// into the flat threshold arrays).
    thr_ptr: Vec<u32>,
    /// Victim line recorded per point. Valid only for points whose
    /// eviction threshold fired in the current walk (equivalently:
    /// whose same-set count reached its ways); stale slots are never
    /// read, so no per-access reset is needed.
    victims: Vec<u64>,
    /// Prune scratch: per distinct set-bit count, one counter per fine
    /// set within a coarse set.
    prune_counts: Vec<Vec<u32>>,
}

impl Bank {
    fn new(line_shift: u32, cfgs: &[CacheConfig]) -> Self {
        debug_assert!(!cfgs.is_empty());
        let svals_of = |c: &CacheConfig| c.num_sets().trailing_zeros();
        let s_min = cfgs.iter().map(svals_of).min().expect("non-empty bank");
        let mut svals: Vec<u32> = cfgs.iter().map(svals_of).collect();
        svals.sort_unstable();
        svals.dedup();
        let mut max_ways = vec![0u32; svals.len()];
        let mut grouped: Vec<Vec<(u32, u32)>> = vec![Vec::new(); svals.len()];
        let mut cap = 0usize;
        let mut points = Vec::with_capacity(cfgs.len());
        for (pi, cfg) in cfgs.iter().enumerate() {
            let s = svals_of(cfg);
            let si = svals.iter().position(|&v| v == s).expect("s is listed");
            grouped[si].push((cfg.ways(), pi as u32));
            max_ways[si] = max_ways[si].max(cfg.ways());
            cap += (cfg.ways() as usize) << (s - s_min);
            points.push(PointState {
                cfg: *cfg,
                set_mask: cfg.set_mask(),
                ways: cfg.ways(),
                si,
                evict: EvictTable::new(cfg.num_sets() as usize, EvictTable::DEFAULT_CAP),
                misses_by_kind: [0; 5],
                cold_by_domain: [0; 2],
                evict_by_domain: [0; 2],
            });
        }
        let mut thr_start = Vec::with_capacity(svals.len() + 1);
        let mut thr_ways = Vec::with_capacity(cfgs.len());
        let mut thr_point = Vec::with_capacity(cfgs.len());
        for g in &mut grouped {
            g.sort_unstable();
            thr_start.push(thr_ways.len() as u32);
            for &(ways, pi) in g.iter() {
                thr_ways.push(ways);
                thr_point.push(pi);
            }
        }
        thr_start.push(thr_ways.len() as u32);
        let coarse_sets = 1usize << s_min;
        let region = cap + 1;
        let prune_counts = svals
            .iter()
            .map(|&s| vec![0u32; 1usize << (s - s_min)])
            .collect();
        Self {
            line_shift,
            s_min,
            coarse_mask: (coarse_sets - 1) as u64,
            region,
            cap,
            lens: vec![0; coarse_sets],
            entries: vec![NO_VICTIM; coarse_sets * region],
            counts: vec![0; svals.len()],
            thr_ptr: vec![0; svals.len()],
            victims: vec![NO_VICTIM; points.len()],
            prune_counts,
            svals,
            max_ways,
            thr_start,
            thr_ways,
            thr_point,
            points,
        }
    }

    /// Splits a `words`-long sequential fetch into line runs at this
    /// bank's line size and touches the stack once per run — after the
    /// first word of a line the rest of the run is guaranteed hits in
    /// every configuration of the bank (same line size), leaving all
    /// replacement state untouched, exactly as the dense cache's
    /// coalesced path reasons.
    fn access_run(&mut self, base: u64, words: u32, domain: Domain) {
        for (addr, _) in crate::sim::line_runs(base, words, self.line_shift) {
            self.access_line(addr >> self.line_shift, domain);
        }
    }

    /// One line-granular access: walk the coarse set's recency stack,
    /// settle every configuration's outcome, then move `key` to the top.
    fn access_line(&mut self, key: u64, domain: Domain) {
        debug_assert_ne!(key, NO_VICTIM, "address in the topmost line");
        let coarse = (key & self.coarse_mask) as usize;
        let base = coarse * self.region;
        // MRU fast path: the key already tops its stack, so it has zero
        // same-set predecessors in every configuration — a universal hit
        // (every `ways >= 1`) that moves nothing. Hits are derived from
        // the shared access counts, so there is nothing to record; an
        // empty stack's top slot holds [`NO_VICTIM`], which never equals
        // a key. This is the only load the 90%+ common case performs.
        if self.entries[base] == key {
            return;
        }
        let len = self.lens[coarse] as usize;

        // Walk top (MRU) down, counting same-set predecessors per
        // distinct set-bit count. An entry `e` shares `key`'s set in
        // every configuration whose set bits fit inside the common low
        // bits: `s <= trailing_zeros(e ^ key)`. The walk stops at `key`:
        // entries below it cannot change any outcome (a hit needs only
        // the predecessors; a miss at depth >= A means the set is full
        // and its victim was already seen at depth A). Once every
        // threshold has fired the counting is over too — every point's
        // outcome and victim are settled — and only the key's position
        // is still unknown, so the remainder degrades to a plain scan.
        let mut found = false;
        let mut pos = len;
        let mut fired = 0u32;
        let total = self.victims.len() as u32;
        {
            let Self {
                entries,
                counts,
                thr_ptr,
                thr_start,
                thr_ways,
                thr_point,
                victims,
                svals,
                ..
            } = self;
            counts.fill(0);
            thr_ptr.copy_from_slice(&thr_start[..svals.len()]);
            let stack = &entries[base..base + len];
            let mut p = 0;
            while p < len {
                let e = stack[p];
                if e == key {
                    found = true;
                    pos = p;
                    break;
                }
                let t = (e ^ key).trailing_zeros();
                for ((&sv, c), (ptr, &end)) in svals
                    .iter()
                    .zip(counts.iter_mut())
                    .zip(thr_ptr.iter_mut().zip(thr_start[1..].iter()))
                {
                    if sv > t {
                        break;
                    }
                    *c += 1;
                    let idx = *ptr as usize;
                    if idx < end as usize && thr_ways[idx] == *c {
                        // `e` is this point's LRU resident: the line a
                        // dedicated cache would evict if this access
                        // misses.
                        victims[thr_point[idx] as usize] = e;
                        *ptr += 1;
                        fired += 1;
                    }
                }
                p += 1;
                if fired == total {
                    if let Some(off) = stack[p..].iter().position(|&x| x == key) {
                        found = true;
                        pos = p + off;
                    }
                    break;
                }
            }
        }

        // Settle each missing point by replicating the dense miss path:
        // record the eviction first, then classify against the provenance
        // table (order matters under its cap). A found key with no
        // threshold fired is a hit for every point (each count stayed
        // below its smallest associativity) — nothing to settle.
        if !found {
            // Global miss: the key is in no configuration (the stack
            // holds a superset of every point's residents), so every
            // point misses; those whose set is full (count reached ways,
            // i.e. their threshold fired) also evict their victim.
            for pi in 0..self.points.len() {
                let point = &mut self.points[pi];
                let set = (key & point.set_mask) as u32;
                if self.counts[point.si] >= point.ways {
                    point.evict.record(set, self.victims[pi], domain);
                    point.evict_by_domain[domain.index()] += 1;
                }
                let kind = MissKind::classify(domain, point.evict.lookup(set, key));
                point.misses_by_kind[kind.index()] += 1;
                if kind == MissKind::Cold {
                    point.cold_by_domain[domain.index()] += 1;
                }
            }
        } else if fired > 0 {
            // Hit in some configurations: exactly the points whose
            // threshold fired saw `ways` same-set lines above the key —
            // a conflict miss with a full set. The fired thresholds are
            // the walk-front prefix of each set-bit count's block, so
            // the missing points are enumerated directly; every other
            // point is a hit and is never touched.
            for si in 0..self.svals.len() {
                for idx in self.thr_start[si] as usize..self.thr_ptr[si] as usize {
                    let pi = self.thr_point[idx] as usize;
                    let point = &mut self.points[pi];
                    let set = (key & point.set_mask) as u32;
                    point.evict.record(set, self.victims[pi], domain);
                    point.evict_by_domain[domain.index()] += 1;
                    let kind = MissKind::classify(domain, point.evict.lookup(set, key));
                    point.misses_by_kind[kind.index()] += 1;
                    if kind == MissKind::Cold {
                        point.cold_by_domain[domain.index()] += 1;
                    }
                }
            }
        }

        // Update the stack: hoist `key` to the top, preserving the
        // relative recency of everything above its old position.
        if found {
            self.entries.copy_within(base..base + pos, base + 1);
            self.entries[base] = key;
        } else {
            self.entries.copy_within(base..base + len, base + 1);
            self.entries[base] = key;
            let new_len = len + 1;
            self.lens[coarse] = new_len as u32;
            if new_len > self.cap {
                self.prune(coarse);
            }
        }
    }

    /// Lazy liveness prune: drops stack entries resident in no
    /// configuration. Such an entry has, for every set-bit count `s`, at
    /// least `max_ways(s)` same-set entries above it — so any future
    /// access that would have walked past it already sees a full set
    /// (hit/miss unchanged) with its victim above (eviction unchanged),
    /// and deeper same-set entries keep at least `max_ways(s)`
    /// predecessors (their outcomes unchanged too). Residents of some
    /// configuration are never dropped, so at most
    /// `sum(ways_c * 2^(s_c - s_min))` = `cap` entries are live; called
    /// at `cap + 1`, the pass always reclaims at least one slot.
    fn prune(&mut self, coarse: usize) {
        let base = coarse * self.region;
        for c in &mut self.prune_counts {
            c.fill(0);
        }
        let len = self.lens[coarse] as usize;
        let mut write = 0usize;
        for p in 0..len {
            let e = self.entries[base + p];
            let mut live = false;
            for si in 0..self.svals.len() {
                // Fine-set index within this coarse set: the key bits
                // between `s_min` and `s`.
                let fid =
                    ((e >> self.s_min) & ((1u64 << (self.svals[si] - self.s_min)) - 1)) as usize;
                let seen = self.prune_counts[si][fid];
                if seen < self.max_ways[si] {
                    live = true;
                }
                // Dead entries still count: residency depth is measured
                // over all same-set lines in the stack, dead or not.
                self.prune_counts[si][fid] = seen + 1;
            }
            if live {
                self.entries[base + write] = e;
                write += 1;
            }
        }
        debug_assert!(write <= self.cap, "prune must reclaim the slack slot");
        // Clear the reclaimed tail so the MRU fast path stays safe on
        // any slot the stack may shrink back onto.
        self.entries[base + write..base + len].fill(NO_VICTIM);
        self.lens[coarse] = write as u32;
    }

    /// Final per-set occupancy of one point, reconstructed from the
    /// stack: a set holds `min(same-set stack entries, ways)` valid
    /// lines (the stack keeps at least every resident, and a set with
    /// fewer than `ways` distinct lines ever accessed has never pruned).
    fn occupancy(&self, pi: usize) -> Vec<u32> {
        let point = &self.points[pi];
        let mut occ = vec![0u32; point.cfg.num_sets() as usize];
        for (&len, stack) in self.lens.iter().zip(self.entries.chunks_exact(self.region)) {
            for &e in &stack[..len as usize] {
                let set = (e & point.set_mask) as usize;
                if occ[set] < point.ways {
                    occ[set] += 1;
                }
            }
        }
        occ
    }

    /// Structural stack invariants (test hook): depth within the cap,
    /// entries unique, and every entry in its home coarse set. A
    /// violation means stack inclusion has been broken.
    fn check(&self) -> Result<(), String> {
        for (coarse, (&len, stack)) in self
            .lens
            .iter()
            .zip(self.entries.chunks_exact(self.region))
            .enumerate()
        {
            let len = len as usize;
            if len > self.cap {
                return Err(format!(
                    "coarse set {coarse}: depth {len} exceeds cap {}",
                    self.cap
                ));
            }
            let slice = &stack[..len];
            for (i, &e) in slice.iter().enumerate() {
                if (e & self.coarse_mask) as usize != coarse {
                    return Err(format!(
                        "coarse set {coarse}: entry {e:#x} belongs to set {}",
                        e & self.coarse_mask
                    ));
                }
                if slice[..i].contains(&e) {
                    return Err(format!("coarse set {coarse}: duplicate entry {e:#x}"));
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

    /// Reports one point's cache events into `probe` exactly as a probed
    /// [`crate::Cache`] plus [`crate::Cache::record_occupancy`] would
    /// have: per-kind miss counters and per-evictor eviction counters
    /// (created only when nonzero, since a probed cache only touches a
    /// counter on an event), one `cache.set_occupancy` histogram sample
    /// per set in set order, and the `cache.occupancy` fill gauge.
    pub fn report_into(&self, point: usize, probe: &dyn Probe) {
        let (bi, pi) = self.point_map[point];
        let bank = &self.banks[bi];
        let p = &bank.points[pi];
        for kind in MissKind::ALL {
            let n = p.misses_by_kind[kind.index()];
            if n > 0 {
                probe.counter_add(kind.metric_name(), n);
            }
        }
        for (domain, name) in [
            (Domain::Os, "cache.evict.by_os"),
            (Domain::App, "cache.evict.by_app"),
        ] {
            let n = p.evict_by_domain[domain.index()];
            if n > 0 {
                probe.counter_add(name, n);
            }
        }
        let occ = bank.occupancy(pi);
        let mut valid_total = 0u64;
        for &o in &occ {
            valid_total += u64::from(o);
            probe.histogram_record("cache.set_occupancy", u64::from(o));
        }
        let slots = u64::from(p.cfg.num_sets()) * u64::from(p.ways);
        probe.gauge_set("cache.occupancy", valid_total as f64 / slots as f64);
    }

    /// Verifies the structural invariants of every bank stack (bounded
    /// depth, unique entries, correct coarse-set homing). Test hook for
    /// the property suite: any violation means the capped stack has lost
    /// inclusion.
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
    fn prune_pressure_preserves_equality() {
        // Tiny caches, address span far beyond every capacity: the
        // coarse stacks overflow constantly, exercising the lazy prune.
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
            multi.check_inclusion().expect("capped stack stays sound");
        });
        for (pi, c) in dense.iter().enumerate() {
            assert_eq!(multi.stats(pi), *c.stats(), "point {pi} ({})", grid[pi]);
        }
    }

    #[test]
    fn report_matches_probed_cache_and_occupancy() {
        use std::sync::Arc;

        let grid = grid();
        let mut multi = MultiSim::new(&grid);
        let probed: Vec<(Arc<MetricRegistry>, Cache)> = grid
            .iter()
            .map(|&c| {
                let reg = Arc::new(MetricRegistry::new());
                let cache = Cache::with_probe(c, reg.clone());
                (reg, cache)
            })
            .collect();
        let mut probed = probed;
        random_stream(0x0CC, 15_000, 6 * 1024, |base, words, domain| {
            multi.access_words(base, words, domain);
            for (_, c) in &mut probed {
                c.access_words(base, words, domain);
            }
        });
        for (pi, (reg, c)) in probed.iter().enumerate() {
            c.record_occupancy();
            let mine = MetricRegistry::new();
            multi.report_into(pi, &mine);
            assert_eq!(
                mine.counters(),
                reg.counters(),
                "point {pi} ({}) counters",
                grid[pi]
            );
            assert_eq!(
                mine.gauges(),
                reg.gauges(),
                "point {pi} ({}) gauges",
                grid[pi]
            );
            assert_eq!(
                mine.histograms(),
                reg.histograms(),
                "point {pi} ({}) histograms",
                grid[pi]
            );
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
    fn matches_reference_caches_under_prune_pressure() {
        // Same property on the capped stack: tiny caches, an address span
        // far beyond every capacity, inclusion checked as the lazy prune
        // fires.
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
                multi.check_inclusion().expect("capped stack stays sound");
            }
        }
        multi.check_inclusion().expect("capped stack stays sound");
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
        let deep_coarse = |m: &MultiSim| {
            m.banks[0]
                .lens
                .iter()
                .position(|&l| l >= 2)
                .expect("a stack at least two deep")
        };

        // A duplicated entry.
        let mut m = filled();
        let base = deep_coarse(&m) * m.banks[0].region;
        m.banks[0].entries[base + 1] = m.banks[0].entries[base];
        let err = m.check_inclusion().expect_err("duplicate goes undetected");
        assert!(err.contains("duplicate"), "{err}");

        // An entry homed to the wrong coarse set (flipping the lowest key
        // bit moves it: every grid bank has more than one coarse set).
        let mut m = filled();
        let base = deep_coarse(&m) * m.banks[0].region;
        m.banks[0].entries[base] ^= 1;
        let err = m.check_inclusion().expect_err("mis-homed entry undetected");
        assert!(err.contains("belongs to"), "{err}");

        // A stack deeper than the inclusion cap.
        let mut m = filled();
        let coarse = deep_coarse(&m);
        m.banks[0].lens[coarse] = m.banks[0].cap as u32 + 1;
        let err = m.check_inclusion().expect_err("over-deep stack undetected");
        assert!(err.contains("exceeds cap"), "{err}");
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
