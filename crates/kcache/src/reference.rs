//! Bit-exact reference implementations of the pre-optimization cache and
//! shadow tag store, kept as fixtures for the equivalence test suite.
//!
//! The production hot path (`sim::Cache`, `attribution::ShadowTags`) was
//! rewritten for throughput — dense per-set tag arrays, a flat
//! open-addressed evict table, an intrusive O(1) LRU — under the contract
//! that observable results (stats, per-access outcomes, miss
//! classifications, shadow residency) are **identical** to these
//! map-based versions on every stream. The tests in `sim`, `multisim`,
//! `attribution` and `crates/core/tests/engine_equivalence.rs` replay
//! randomized traces through both and compare access-by-access.
//!
//! Not part of the supported API; do not use outside tests and benches.

use std::collections::{BTreeMap, HashMap, HashSet};

use oslay_model::Domain;

use crate::{AccessDetail, AccessOutcome, CacheConfig, MissKind};

#[derive(Copy, Clone, Debug)]
struct Way {
    line: u64,
    lru: u64,
    valid: bool,
}

impl Way {
    const EMPTY: Way = Way {
        line: 0,
        lru: 0,
        valid: false,
    };
}

/// The original map-based set-associative LRU cache: unbounded
/// `evicted_by` HashMap plus a `seen` HashSet for cold-miss detection.
#[derive(Clone, Debug, Default)]
pub struct ReferenceCache {
    cfg: Option<CacheConfig>,
    ways: Vec<Way>,
    evicted_by: HashMap<u64, Domain>,
    seen: HashSet<u64>,
    clock: u64,
}

impl ReferenceCache {
    /// Creates an empty reference cache.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let slots = (cfg.num_sets() * cfg.ways()) as usize;
        Self {
            cfg: Some(cfg),
            ways: vec![Way::EMPTY; slots],
            evicted_by: HashMap::new(),
            seen: HashSet::new(),
            clock: 0,
        }
    }

    /// One access, returning the same [`AccessDetail`] the production
    /// cache reports (statistics are the caller's concern here).
    pub fn access_detailed(&mut self, addr: u64, domain: Domain) -> AccessDetail {
        let cfg = self.cfg.expect("constructed via new");
        self.clock += 1;
        let clock = self.clock;
        let line = cfg.line_addr(addr);
        let set = cfg.set_of(addr);
        let w = cfg.ways() as usize;
        let base = set as usize * w;
        let ways = &mut self.ways[base..base + w];

        for way in ways.iter_mut() {
            if way.valid && way.line == line {
                way.lru = clock;
                return AccessDetail {
                    outcome: AccessOutcome::Hit,
                    line,
                    set,
                    evicted: None,
                };
            }
        }

        let victim_slot = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| (w.valid, w.lru))
            .map(|(i, _)| i)
            .expect("cache sets are never empty");
        let evictee = ways[victim_slot];
        ways[victim_slot] = Way {
            line,
            lru: clock,
            valid: true,
        };
        if evictee.valid {
            self.evicted_by.insert(evictee.line, domain);
        }
        let kind = if self.seen.insert(line) {
            MissKind::Cold
        } else {
            MissKind::classify(domain, self.evicted_by.get(&line).copied())
        };
        AccessDetail {
            outcome: AccessOutcome::Miss(kind),
            line,
            set,
            evicted: evictee.valid.then_some(evictee.line),
        }
    }
}

/// The original fully-associative LRU shadow tag store: per-line stamps in
/// a `HashMap` mirrored by a `BTreeMap` ordered on stamp, giving
/// `O(log n)` touch and evict.
#[derive(Clone, Debug)]
pub struct ReferenceShadowTags {
    capacity: usize,
    stamp: u64,
    stamps: HashMap<u64, u64>,
    by_stamp: BTreeMap<u64, u64>,
}

impl ReferenceShadowTags {
    /// Creates a store tracking the `capacity` most recent lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shadow store needs capacity");
        Self {
            capacity,
            stamp: 0,
            stamps: HashMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    /// Touches `line`: returns whether it was already resident, then marks
    /// it most-recently-used (evicting the LRU line if over capacity).
    pub fn touch(&mut self, line: u64) -> bool {
        self.stamp += 1;
        match self.stamps.insert(line, self.stamp) {
            Some(old) => {
                self.by_stamp.remove(&old);
                self.by_stamp.insert(self.stamp, line);
                true
            }
            None => {
                self.by_stamp.insert(self.stamp, line);
                if self.stamps.len() > self.capacity {
                    let (&coldest, &victim) =
                        self.by_stamp.iter().next().expect("store is non-empty");
                    self.by_stamp.remove(&coldest);
                    self.stamps.remove(&victim);
                }
                false
            }
        }
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// True when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }
}
