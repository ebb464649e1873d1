//! The core set-associative LRU cache simulator.
//!
//! The hit path is dense and allocation-free: per-set tag/LRU arrays
//! indexed by a precomputed `(set, tag)` decomposition (shift + mask, no
//! division). Interference classification on the miss path costs one
//! probe of a flat open-addressed [`EvictTable`] per record or lookup.
//! A map-based twin is preserved in [`crate::reference`] and the test
//! suite replays randomized traces through both, asserting identical
//! per-access outcomes.

use oslay_model::Domain;
use oslay_observe::timeline::{self, CacheProbeSnapshot};
use oslay_observe::Probe;

use crate::{CacheConfig, InstructionCache, MissStats};

/// Why a miss happened.
///
/// This is the decomposition used throughout the paper's evaluation: cold
/// misses turn out to be negligible, operating-system *self*-interference
/// dominates (over 90% of OS misses in every workload studied), and the
/// optimizations attack exactly that component.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum MissKind {
    /// First-ever reference to the line.
    Cold,
    /// An OS line was evicted by other OS code and refetched.
    OsSelf,
    /// An OS line was evicted by application code and refetched.
    OsByApp,
    /// An application line was evicted by other application code.
    AppSelf,
    /// An application line was evicted by OS code.
    AppByOs,
}

impl MissKind {
    /// All kinds, in reporting order.
    pub const ALL: [MissKind; 5] = [
        MissKind::Cold,
        MissKind::OsSelf,
        MissKind::OsByApp,
        MissKind::AppSelf,
        MissKind::AppByOs,
    ];

    /// Dense index (`0..5`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            MissKind::Cold => 0,
            MissKind::OsSelf => 1,
            MissKind::OsByApp => 2,
            MissKind::AppSelf => 3,
            MissKind::AppByOs => 4,
        }
    }

    /// Short label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MissKind::Cold => "cold",
            MissKind::OsSelf => "os-self",
            MissKind::OsByApp => "os-by-app",
            MissKind::AppSelf => "app-self",
            MissKind::AppByOs => "app-by-os",
        }
    }

    /// Metric name in the `cache.*` namespace counting misses of this
    /// kind.
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            MissKind::Cold => "cache.miss.cold",
            MissKind::OsSelf => "cache.miss.os-self",
            MissKind::OsByApp => "cache.miss.os-by-app",
            MissKind::AppSelf => "cache.miss.app-self",
            MissKind::AppByOs => "cache.miss.app-by-os",
        }
    }

    /// Classifies a miss of `victim` domain given who evicted the line
    /// last (`None` = never cached).
    #[must_use]
    pub fn classify(victim: Domain, evictor: Option<Domain>) -> Self {
        match (victim, evictor) {
            (_, None) => MissKind::Cold,
            (Domain::Os, Some(Domain::Os)) => MissKind::OsSelf,
            (Domain::Os, Some(Domain::App)) => MissKind::OsByApp,
            (Domain::App, Some(Domain::App)) => MissKind::AppSelf,
            (Domain::App, Some(Domain::Os)) => MissKind::AppByOs,
        }
    }
}

/// Outcome of one fetch.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum AccessOutcome {
    /// The word was in the cache.
    Hit,
    /// The word missed, for the stated reason.
    Miss(MissKind),
}

impl AccessOutcome {
    /// True for misses.
    #[must_use]
    pub fn is_miss(self) -> bool {
        matches!(self, AccessOutcome::Miss(_))
    }
}

/// Detailed outcome of one fetch: the classical outcome plus the cache
/// coordinates diagnostics need — which line and set the access touched
/// and, on a fill that displaced a valid line, which line was evicted.
///
/// Produced by [`Cache::access_detailed`] and by the map-based
/// [`crate::reference::ReferenceCache`], so the two compare access by
/// access.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct AccessDetail {
    /// Hit, or miss with interference kind.
    pub outcome: AccessOutcome,
    /// The accessed (line-aligned) address.
    pub line: u64,
    /// The set the access mapped to.
    pub set: u32,
    /// The valid line displaced by this fill, if any.
    pub evicted: Option<u64>,
}

/// What [`Cache::fill`] did: the miss it classified, the slot it filled
/// (`set * ways + way`) and the key of the valid line it displaced.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Fill {
    pub(crate) kind: MissKind,
    pub(crate) slot: usize,
    pub(crate) evicted: Option<u64>,
}

/// Sentinel tag marking an invalid (never filled) way. Line keys are
/// `addr >> line_shift`, so a real key can only collide with the sentinel
/// for addresses in the topmost line of the address space — which the
/// layouts never produce (debug-asserted on access).
const TAG_EMPTY: u64 = u64::MAX;

/// Empty slot of an [`EvictTable`]. A record packs `key << 1 |
/// evictor_is_app`, and a line key (`addr >> line_shift`, with a line of
/// at least two bytes) leaves the top bit free, so no record equals it.
const SLOT_EMPTY: u64 = u64::MAX;

/// Multiplier of the table's multiply-shift hash (2^64 / golden ratio).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slots of a fresh [`EvictTable`]; the table doubles from here.
const MIN_SLOTS: usize = 16;

/// Who last evicted each line: a flat map from line key to the evicting
/// domain, as [`crate::reference::ReferenceCache`] keeps it. A line that
/// was never evicted has no record and classifies as `Cold`.
///
/// One linear-probing table of packed `u64` records (`key << 1 |
/// evictor_is_app`, multiply-shift hashed, doubled at half load), so a
/// record or a lookup is one probe. Records are never dropped: memory is
/// bounded by the number of distinct lines the stream evicts, i.e. by its
/// code footprint in lines.
#[derive(Clone, Debug)]
pub(crate) struct EvictTable {
    /// Packed records and [`SLOT_EMPTY`]s; a power of two long, at most
    /// half full.
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: a key's home slot is the top bits of
    /// `key * HASH_MUL`.
    shift: u32,
    len: usize,
}

impl EvictTable {
    pub(crate) fn new() -> Self {
        Self {
            slots: vec![SLOT_EMPTY; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.ilog2(),
            len: 0,
        }
    }

    pub(crate) fn lookup(&self, key: u64) -> Option<Domain> {
        match self.slots[self.find(key)] {
            SLOT_EMPTY => None,
            word if word & 1 == 1 => Some(Domain::App),
            _ => Some(Domain::Os),
        }
    }

    pub(crate) fn record(&mut self, key: u64, evictor: Domain) {
        debug_assert!(key < SLOT_EMPTY >> 1, "line key leaves no tag bit");
        let slot = self.find(key);
        if self.slots[slot] == SLOT_EMPTY {
            self.len += 1;
        }
        self.slots[slot] = key << 1 | u64::from(evictor == Domain::App);
        if 2 * self.len > self.slots.len() {
            self.grow();
        }
    }

    fn clear(&mut self) {
        self.slots.fill(SLOT_EMPTY);
        self.len = 0;
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// The slot holding `key`'s record, or the empty slot ending its probe
    /// run (one exists: the table is at most half full).
    fn find(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let word = self.slots[i];
            if word == SLOT_EMPTY || word >> 1 == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let doubled = vec![SLOT_EMPTY; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for word in old.into_iter().filter(|&w| w != SLOT_EMPTY) {
            let slot = self.find(word >> 1);
            self.slots[slot] = word;
        }
    }
}

/// A unified set-associative LRU instruction cache.
///
/// # Example
///
/// ```
/// use oslay_cache::{AccessOutcome, Cache, CacheConfig, InstructionCache, MissKind};
/// use oslay_model::Domain;
///
/// let mut cache = Cache::new(CacheConfig::paper_default());
/// assert_eq!(
///     cache.access(0x100, Domain::Os),
///     AccessOutcome::Miss(MissKind::Cold)
/// );
/// assert_eq!(cache.access(0x104, Domain::Os), AccessOutcome::Hit);
/// ```
#[derive(Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line)`: `addr >> line_shift` is the line key.
    line_shift: u32,
    /// `num_sets - 1`: `key & set_mask` is the set index.
    set_mask: u64,
    ways_per_set: usize,
    /// Line key per way, set-major ([`TAG_EMPTY`] = invalid).
    tags: Vec<u64>,
    /// Last-touch clock per way, parallel to `tags`.
    lru: Vec<u64>,
    /// Last evictor per line (absent = never evicted = cold).
    evicted_by: EvictTable,
    clock: u64,
    stats: MissStats,
    /// Evictions of valid lines, by evictor domain.
    evictions: [u64; 2],
    /// Eviction-age histogram (log2 buckets of `clock - last_touch`),
    /// touched only on the eviction path.
    evict_ages: [u64; timeline::AGE_BUCKETS],
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("cfg", &self.cfg)
            .field("clock", &self.clock)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Cache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let slots = (cfg.num_sets() * cfg.ways()) as usize;
        Self {
            cfg,
            line_shift: cfg.line_shift(),
            set_mask: cfg.set_mask(),
            ways_per_set: cfg.ways() as usize,
            tags: vec![TAG_EMPTY; slots],
            lru: vec![0; slots],
            evicted_by: EvictTable::new(),
            clock: 0,
            stats: MissStats::default(),
            evictions: [0; 2],
            evict_ages: [0; timeline::AGE_BUCKETS],
        }
    }

    /// This cache's geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Reports the replay so far into `probe`: a `cache.miss.<kind>`
    /// counter per miss kind and a `cache.evict.by_<domain>` counter per
    /// evictor domain (each only when nonzero), the `cache.set_occupancy`
    /// histogram (one sample per set: its valid ways) and the
    /// `cache.occupancy` fill gauge. Call it once per replay; every call
    /// adds the counts again.
    pub fn report_into(&self, probe: &dyn Probe) {
        report_cache_metrics(
            probe,
            &self.stats,
            self.evictions,
            self.set_occupancy(),
            self.ways_per_set,
        );
    }

    /// Valid ways per set, in set order.
    fn set_occupancy(&self) -> impl Iterator<Item = usize> + '_ {
        self.tags
            .chunks(self.ways_per_set)
            .map(|set| set.iter().filter(|&&tag| tag != TAG_EMPTY).count())
    }

    /// Like [`InstructionCache::access`], but also reports the touched
    /// line, its set, and the line evicted by the fill (if any).
    ///
    /// The hit path is branch-light: one shift-and-mask decomposition, a
    /// scan of at most `ways` dense tags, one LRU stamp. Maps are only
    /// consulted on misses.
    #[inline]
    pub fn access_detailed(&mut self, addr: u64, domain: Domain) -> AccessDetail {
        let key = addr >> self.line_shift;
        let set = (key & self.set_mask) as u32;
        let line = key << self.line_shift;
        if self.hit_slot(key).is_some() {
            self.stats.record(domain, AccessOutcome::Hit);
            return AccessDetail {
                outcome: AccessOutcome::Hit,
                line,
                set,
                evicted: None,
            };
        }
        let fill = self.fill(key, domain);
        AccessDetail {
            outcome: AccessOutcome::Miss(fill.kind),
            line,
            set,
            evicted: fill.evicted.map(|evictee| evictee << self.line_shift),
        }
    }

    /// The hit test of one line access: advances the LRU clock and, if
    /// `key` is resident, stamps its way most recently used and returns
    /// that way's slot (`set * ways + way`, an index into the tag array).
    /// Records no statistics; a `None` must be followed by
    /// [`Cache::fill`].
    #[inline]
    pub(crate) fn hit_slot(&mut self, key: u64) -> Option<usize> {
        debug_assert_ne!(key, TAG_EMPTY, "address in the topmost line");
        self.clock += 1;
        let base = (key & self.set_mask) as usize * self.ways_per_set;
        // A key never equals TAG_EMPTY, so no validity check.
        let way = self.tags[base..base + self.ways_per_set]
            .iter()
            .position(|&tag| tag == key)?;
        self.lru[base + way] = self.clock;
        Some(base + way)
    }

    /// The miss path of the access [`Cache::hit_slot`] just found absent:
    /// fills the first invalid way, else the first-least-recently used
    /// one (matching the reference implementation's tie-break), records
    /// the eviction and the classified miss, and reports the miss kind,
    /// the slot filled and the key of the valid line displaced (if any).
    #[inline(never)]
    pub(crate) fn fill(&mut self, key: u64, domain: Domain) -> Fill {
        let clock = self.clock;
        let base = (key & self.set_mask) as usize * self.ways_per_set;
        let mut victim = base;
        let mut best = (self.tags[base] != TAG_EMPTY, self.lru[base]);
        for i in base + 1..base + self.ways_per_set {
            let rank = (self.tags[i] != TAG_EMPTY, self.lru[i]);
            if rank < best {
                best = rank;
                victim = i;
            }
        }
        let evictee = self.tags[victim];
        let evicted_valid = evictee != TAG_EMPTY;
        // Victim's last-touch stamp, read before the fill overwrites it:
        // the eviction age is how long the line sat untouched.
        let victim_last = self.lru[victim];
        self.tags[victim] = key;
        self.lru[victim] = clock;
        if evicted_valid {
            self.evicted_by.record(evictee, domain);
            self.evictions[domain.index()] += 1;
            self.evict_ages[(clock - victim_last).ilog2() as usize] += 1;
        }
        // A line is non-cold iff it was ever evicted — residency implies a
        // prior fill, and every displacement of a valid line leaves a
        // provenance record — so the evict table doubles as the seen-set.
        let kind = MissKind::classify(domain, self.evicted_by.lookup(key));
        self.stats.record(domain, AccessOutcome::Miss(kind));
        Fill {
            kind,
            slot: victim,
            evicted: evicted_valid.then_some(evictee),
        }
    }

    /// Counts `n` hits by `domain` without touching replacement state:
    /// a block's hits, bulk-counted once its line runs have been replayed
    /// through [`Cache::hit_slot`] and [`Cache::fill`].
    #[inline]
    pub(crate) fn record_hits(&mut self, domain: Domain, n: u64) {
        self.stats.record_hits(domain, n);
    }
}

/// The one writer of the `cache.*` metrics, shared by
/// [`Cache::report_into`] and [`crate::MultiSim::report_into`] (see the
/// former for the names). `set_occupancy` yields each set's valid ways.
/// The occupancy histogram takes one call per distinct value, so the
/// probe calls are bounded by the geometry, not by the trace.
pub(crate) fn report_cache_metrics(
    probe: &dyn Probe,
    stats: &MissStats,
    evictions: [u64; 2],
    set_occupancy: impl Iterator<Item = usize>,
    ways: usize,
) {
    for kind in MissKind::ALL {
        let n = stats.misses(kind);
        if n > 0 {
            probe.counter_add(kind.metric_name(), n);
        }
    }
    for (domain, name) in [
        (Domain::Os, "cache.evict.by_os"),
        (Domain::App, "cache.evict.by_app"),
    ] {
        let n = evictions[domain.index()];
        if n > 0 {
            probe.counter_add(name, n);
        }
    }
    // `sets_with[v]` = number of sets holding `v` valid ways.
    let mut sets_with = vec![0u64; ways + 1];
    let mut valid_total = 0usize;
    for occupied in set_occupancy {
        sets_with[occupied] += 1;
        valid_total += occupied;
    }
    for (occupied, &n) in sets_with.iter().enumerate() {
        if n > 0 {
            probe.histogram_record("cache.set_occupancy", occupied as u64, n);
        }
    }
    let slots = sets_with.iter().sum::<u64>() as usize * ways;
    probe.gauge_set("cache.occupancy", valid_total as f64 / slots as f64);
}

impl InstructionCache for Cache {
    #[inline]
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        self.access_detailed(addr, domain).outcome
    }

    /// One hit test per line the block touches ([`CacheConfig::line_keys`]):
    /// only a line's first word can change replacement state, and the
    /// words after it are guaranteed hits on the line it just made MRU,
    /// so hits are counted once per block as `words - misses`.
    #[inline]
    fn access_words(&mut self, base: u64, words: u32, domain: Domain) -> u64 {
        let mut missed = 0u64;
        for key in self.cfg.line_keys(base, words) {
            if self.hit_slot(key).is_none() {
                self.fill(key, domain);
                missed += 1;
            }
        }
        self.stats.record_hits(domain, u64::from(words) - missed);
        missed
    }

    fn stats(&self) -> &MissStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.tags.fill(TAG_EMPTY);
        self.lru.fill(0);
        self.evicted_by.clear();
        self.clock = 0;
        self.stats = MissStats::default();
        self.evictions = [0; 2];
        self.evict_ages = [0; timeline::AGE_BUCKETS];
    }

    fn telemetry_snapshot(&self) -> Option<CacheProbeSnapshot> {
        // Occupancy histogram: how many sets hold exactly `n` valid ways
        // (fixed-size so the scan is one pass, no allocation per call).
        let mut counts = [0u64; 65];
        let mut valid_total = 0u64;
        for occupied in self.set_occupancy() {
            valid_total += occupied as u64;
            counts[occupied.min(64)] += 1;
        }
        let sets = (self.tags.len() / self.ways_per_set) as u64;
        let quantile = |num: u64, den: u64| -> u32 {
            let target = (sets * num).div_ceil(den).max(1);
            let mut cum = 0u64;
            for (occ, &n) in counts.iter().enumerate() {
                cum += n;
                if cum >= target {
                    return occ as u32;
                }
            }
            self.ways_per_set as u32
        };
        Some(CacheProbeSnapshot {
            occ_p50: quantile(1, 2),
            occ_p95: quantile(19, 20),
            fill_ppm: (valid_total * 1_000_000 / self.tags.len() as u64) as u32,
            evict_ages: self.evict_ages,
            attr: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm64() -> Cache {
        // 64-byte direct-mapped cache with 16-byte lines: 4 sets.
        Cache::new(CacheConfig::new(64, 16, 1))
    }

    #[test]
    fn telemetry_snapshot_tracks_occupancy_and_evict_ages() {
        let mut c = dm64();
        // Empty cache: zero fill, zero quantiles, no evictions.
        let snap = c.telemetry_snapshot().expect("sim cache always samples");
        assert_eq!((snap.occ_p50, snap.occ_p95, snap.fill_ppm), (0, 0, 0));
        assert!(snap.evict_ages.iter().all(|&n| n == 0));
        assert_eq!(snap.attr, None);
        // Fill all four sets, then evict set 0's line after 4 more ticks.
        for set in 0..4u64 {
            c.access(set * 16, Domain::Os);
        }
        let full = c.telemetry_snapshot().unwrap();
        assert_eq!((full.occ_p50, full.occ_p95), (1, 1));
        assert_eq!(full.fill_ppm, 1_000_000);
        c.access(64, Domain::App); // maps to set 0, evicts line 0 at age 4
        let evicted = c.telemetry_snapshot().unwrap();
        assert_eq!(evicted.evict_ages.iter().sum::<u64>(), 1);
        assert_eq!(evicted.evict_ages[2], 1, "age 4 lands in bucket log2(4)");
        // reset() clears the histogram along with the contents.
        c.reset();
        assert!(c
            .telemetry_snapshot()
            .unwrap()
            .evict_ages
            .iter()
            .all(|&n| n == 0));
    }

    #[test]
    fn cold_then_hit_within_line() {
        let mut c = dm64();
        assert_eq!(c.access(0, Domain::Os), AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(c.access(4, Domain::Os), AccessOutcome::Hit);
        assert_eq!(c.access(15, Domain::Os), AccessOutcome::Hit);
        assert_eq!(
            c.access(16, Domain::Os),
            AccessOutcome::Miss(MissKind::Cold)
        );
    }

    #[test]
    fn self_interference_classified() {
        let mut c = dm64();
        // 0 and 64 conflict in set 0.
        assert!(c.access(0, Domain::Os).is_miss()); // cold
        assert!(c.access(64, Domain::Os).is_miss()); // cold, evicts 0 by OS
        assert_eq!(
            c.access(0, Domain::Os),
            AccessOutcome::Miss(MissKind::OsSelf)
        );
    }

    #[test]
    fn cross_interference_classified_both_ways() {
        let mut c = dm64();
        assert!(c.access(0, Domain::Os).is_miss());
        assert!(c.access(64, Domain::App).is_miss()); // app evicts OS line
        assert_eq!(
            c.access(0, Domain::Os),
            AccessOutcome::Miss(MissKind::OsByApp)
        );
        // Now OS evicted the app line at 64.
        assert_eq!(
            c.access(64, Domain::App),
            AccessOutcome::Miss(MissKind::AppByOs)
        );
    }

    #[test]
    fn app_self_interference() {
        let mut c = dm64();
        assert!(c.access(0, Domain::App).is_miss());
        assert!(c.access(64, Domain::App).is_miss());
        assert_eq!(
            c.access(0, Domain::App),
            AccessOutcome::Miss(MissKind::AppSelf)
        );
    }

    #[test]
    fn two_way_cache_holds_both_conflicting_lines() {
        let mut c = Cache::new(CacheConfig::new(64, 16, 2));
        assert!(c.access(0, Domain::Os).is_miss());
        assert!(c.access(64, Domain::Os).is_miss());
        assert_eq!(c.access(0, Domain::Os), AccessOutcome::Hit);
        assert_eq!(c.access(64, Domain::Os), AccessOutcome::Hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2 sets × 2 ways, 16B lines: set 0 holds lines 0, 32, 64, ...
        let mut c = Cache::new(CacheConfig::new(64, 16, 2));
        c.access(0, Domain::Os); // line 0
        c.access(32, Domain::Os); // line 32 (same set)
        c.access(0, Domain::Os); // touch line 0: 32 is now LRU
        c.access(64, Domain::Os); // evicts 32
        assert_eq!(c.access(0, Domain::Os), AccessOutcome::Hit);
        assert!(c.access(32, Domain::Os).is_miss());
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut c = dm64();
        c.access(0, Domain::Os);
        c.access(0, Domain::Os);
        c.access(64, Domain::App);
        let s = c.stats();
        assert_eq!(s.accesses(Domain::Os), 2);
        assert_eq!(s.accesses(Domain::App), 1);
        assert_eq!(s.total_misses(), 2);
        c.reset();
        assert_eq!(c.stats().total_accesses(), 0);
        // After reset, previously-seen lines are cold again.
        assert_eq!(c.access(0, Domain::Os), AccessOutcome::Miss(MissKind::Cold));
    }

    #[test]
    fn classification_matrix() {
        assert_eq!(MissKind::classify(Domain::Os, None), MissKind::Cold);
        assert_eq!(
            MissKind::classify(Domain::Os, Some(Domain::Os)),
            MissKind::OsSelf
        );
        assert_eq!(
            MissKind::classify(Domain::Os, Some(Domain::App)),
            MissKind::OsByApp
        );
        assert_eq!(
            MissKind::classify(Domain::App, Some(Domain::App)),
            MissKind::AppSelf
        );
        assert_eq!(
            MissKind::classify(Domain::App, Some(Domain::Os)),
            MissKind::AppByOs
        );
    }

    #[test]
    fn probe_sees_misses_evictions_and_occupancy() {
        use oslay_observe::MetricRegistry;

        let reg = MetricRegistry::new();
        let mut c = Cache::new(CacheConfig::new(64, 16, 1));
        c.access(0, Domain::Os); // cold
        c.access(64, Domain::App); // cold; app evicts the OS line
        c.access(0, Domain::Os); // os-by-app; OS evicts the app line
        c.access(0, Domain::Os); // hit: counted in no metric
        c.report_into(&reg);
        assert_eq!(reg.counter("cache.miss.cold"), 2);
        assert_eq!(reg.counter("cache.miss.os-by-app"), 1);
        assert_eq!(reg.counter("cache.evict.by_app"), 1);
        assert_eq!(reg.counter("cache.evict.by_os"), 1);

        // 4 direct-mapped sets, exactly one holds a line.
        let occ = reg.histogram("cache.set_occupancy").expect("histogram");
        assert_eq!(occ.count(), 4);
        assert_eq!(occ.sum(), 1);
        assert_eq!(reg.gauge("cache.occupancy"), Some(0.25));
    }

    #[test]
    fn access_detailed_reports_line_set_and_eviction() {
        let mut c = dm64();
        let d = c.access_detailed(20, Domain::Os); // line 16, set 1
        assert_eq!(d.outcome, AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(d.line, 16);
        assert_eq!(d.set, 1);
        assert_eq!(d.evicted, None, "filling an invalid way evicts nothing");
        let d = c.access_detailed(16, Domain::Os);
        assert_eq!(d.outcome, AccessOutcome::Hit);
        assert_eq!(d.evicted, None);
        let d = c.access_detailed(80, Domain::Os); // line 80, also set 1
        assert!(d.outcome.is_miss());
        assert_eq!(d.evicted, Some(16));
    }

    #[test]
    fn eviction_attribution_updates_over_time() {
        let mut c = dm64();
        c.access(0, Domain::Os);
        c.access(64, Domain::App); // app evicts OS:0
        c.access(0, Domain::Os); // OsByApp; OS evicts App:64
        c.access(64, Domain::Os); // OS line now at 64; evicts OS:0 by OS
        assert_eq!(
            c.access(0, Domain::Os),
            AccessOutcome::Miss(MissKind::OsSelf)
        );
    }

    #[test]
    fn evict_table_matches_plain_map_model() {
        use oslay_model::rng::Rng;
        use std::collections::HashMap;

        // Seeded record/lookup/clear streams over key pools from a few
        // colliding keys to thousands spread over a wide key range.
        let mut clears = 0;
        for (seed, pool, stride) in [(1u64, 5u64, 1u64), (2, 300, 64), (3, 20_000, 1 << 20)] {
            let mut table = EvictTable::new();
            let mut model: HashMap<u64, Domain> = HashMap::new();
            let mut rng = Rng::seed_from_u64(seed);
            let mut max_slots = 0;
            for step in 0..40_000u32 {
                let key = stride * rng.gen_range(0..pool);
                match rng.gen_range(0..10_000u32) {
                    0 => {
                        table.clear();
                        model.clear();
                        clears += 1;
                    }
                    1..=4_999 => {
                        let evictor = if rng.gen_range(0..2u32) == 0 {
                            Domain::Os
                        } else {
                            Domain::App
                        };
                        table.record(key, evictor);
                        model.insert(key, evictor);
                    }
                    _ => assert_eq!(
                        table.lookup(key),
                        model.get(&key).copied(),
                        "pool {pool} step {step} key {key}"
                    ),
                }
                assert_eq!(table.len, model.len(), "pool {pool} step {step}");
                max_slots = max_slots.max(table.slots.len());
            }
            if pool >= 64 {
                assert!(
                    max_slots >= 8 * MIN_SLOTS,
                    "pool {pool}: table never doubled thrice"
                );
            }
        }
        assert!(clears > 0, "no stream cleared the table");
    }

    #[test]
    fn access_words_matches_per_word_loop() {
        use oslay_model::rng::Rng;
        for ways in [1u32, 2, 4] {
            let cfg = CacheConfig::new(1024, 32, ways);
            let mut coalesced = Cache::new(cfg);
            let mut per_word = Cache::new(cfg);
            let mut rng = Rng::seed_from_u64(0xC0A1 + u64::from(ways));
            for _ in 0..5_000 {
                // Random (possibly line-straddling) block fetch at a
                // byte-granular, not necessarily word-aligned, base.
                let base = u64::from(rng.gen_range(0..4800u32));
                let words = 1 + rng.gen_range(0..24u32);
                let domain = if rng.gen_range(0..2u32) == 0 {
                    Domain::Os
                } else {
                    Domain::App
                };
                let fast = coalesced.access_words(base, words, domain);
                let mut slow = 0u64;
                for w in 0..words {
                    let addr = base + u64::from(w) * u64::from(oslay_model::WORD_BYTES);
                    if matches!(per_word.access(addr, domain), AccessOutcome::Miss(_)) {
                        slow += 1;
                    }
                }
                assert_eq!(fast, slow);
                assert_eq!(coalesced.stats(), per_word.stats());
            }
        }
    }

    #[test]
    fn access_words_matches_reference_per_word_on_edge_geometries() {
        use crate::reference::ReferenceCache;
        use oslay_model::rng::Rng;

        // One single-line set, one fully associative set, one-word
        // lines (direct-mapped and 4-way), and the paper's cache.
        for (seed, cfg) in [
            (1u64, CacheConfig::new(32, 32, 1)),
            (2, CacheConfig::new(256, 32, 8)),
            (3, CacheConfig::new(64, 4, 1)),
            (4, CacheConfig::new(64, 4, 4)),
            (5, CacheConfig::paper_default()),
        ] {
            let mut cache = Cache::new(cfg);
            let mut reference = ReferenceCache::new(cfg);
            let mut ref_stats = MissStats::default();
            // The same replay one line run at a time: pins the LRU clock
            // (one tick per line) and with it the eviction ages.
            let mut by_run = Cache::new(cfg);
            let mut rng = Rng::seed_from_u64(0xED6E + seed);
            for step in 0..20_000u32 {
                // Byte-granular bases over a few cache sizes of address
                // space; `words = 0` included.
                let base = u64::from(rng.gen_range(0..4 * cfg.size()));
                let words = rng.gen_range(0..2 * cfg.line() / 4 + 3);
                let domain = if rng.gen_range(0..3u32) == 0 {
                    Domain::App
                } else {
                    Domain::Os
                };
                let missed = cache.access_words(base, words, domain);
                let mut want = 0u64;
                for w in 0..words {
                    let addr = base + u64::from(w) * u64::from(oslay_model::WORD_BYTES);
                    let outcome = reference.access_detailed(addr, domain).outcome;
                    ref_stats.record(domain, outcome);
                    want += u64::from(outcome.is_miss());
                }
                for (addr, run) in cfg.line_runs(base, words) {
                    by_run.access_detailed(addr, domain);
                    by_run.record_hits(domain, u64::from(run) - 1);
                }
                let what = format!("{cfg} step {step} base {base} words {words}");
                assert_eq!(missed, want, "{what}");
                assert_eq!(cache.stats(), &ref_stats, "{what}");
                assert_eq!(cache.stats(), by_run.stats(), "{what}");
                assert_eq!(cache.clock, by_run.clock, "{what}");
                assert_eq!(cache.evictions, by_run.evictions, "{what}");
                assert_eq!(
                    cache.telemetry_snapshot(),
                    by_run.telemetry_snapshot(),
                    "{what}"
                );
                // A single-word probe must see the same replacement state
                // (victim and classification) in the reference.
                if step % 7 == 0 {
                    let addr = u64::from(rng.gen_range(0..4 * cfg.size()));
                    let got = cache.access_detailed(addr, domain);
                    let want = reference.access_detailed(addr, domain);
                    assert_eq!(got, want, "probe after {what}");
                    ref_stats.record(domain, want.outcome);
                    by_run.access_detailed(addr, domain);
                }
            }
        }
    }

    #[test]
    fn matches_reference_cache_on_randomized_trace() {
        use crate::reference::ReferenceCache;
        use oslay_model::rng::Rng;

        // Several geometries, domains interleaved, addresses spanning many
        // sets with heavy conflict pressure.
        for (seed, cfg) in [
            (1u64, CacheConfig::new(64, 16, 1)),
            (2, CacheConfig::new(256, 16, 2)),
            (3, CacheConfig::new(1024, 32, 4)),
            (4, CacheConfig::paper_default()),
        ] {
            let mut dense = Cache::new(cfg);
            let mut reference = ReferenceCache::new(cfg);
            let mut rng = Rng::seed_from_u64(seed);
            for step in 0..50_000u32 {
                let addr = u64::from(rng.gen_range(0..8 * cfg.size()));
                let domain = if rng.gen_range(0..4u32) == 0 {
                    Domain::App
                } else {
                    Domain::Os
                };
                let got = dense.access_detailed(addr, domain);
                let want = reference.access_detailed(addr, domain);
                assert_eq!(got, want, "cfg {cfg} step {step} addr {addr:#x}");
            }
        }
    }
}
