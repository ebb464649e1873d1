//! Miss attribution: *why* did each miss happen, and *who* caused it.
//!
//! The aggregate [`MissStats`] say how many misses a layout suffered; this
//! module explains them, reproducing the diagnostic views behind the
//! paper's evaluation:
//!
//! * **Three-way classification** ([`AttrClass`]): every miss is
//!   compulsory (first reference), capacity (an LRU *shadow tag store* of
//!   the same total capacity, fully associative, would also have missed),
//!   or conflict (the shadow store still held the line — only the set
//!   mapping evicted it). Conflict misses are the component code layout
//!   can remove, so the split tells you how much headroom a layout pass
//!   has left.
//! * **Per-set pressure** ([`AttributionReport::set_misses`]): the sharp
//!   per-set peaks of Figure 1 / Figure 14, measured instead of plotted
//!   from addresses.
//! * **Block-class census** ([`AttributionReport::census_misses`]):
//!   misses keyed by the Figure 13 placement classes ([`CodeClass`]:
//!   MainSeq, SelfConfFree, Loops, OtherSeq, Cold). The reference column
//!   beside it needs no replay: it is the block profile's execution
//!   counts spread over the map ([`AddressMap::count_words`]).
//! * **Evictor→victim pairs and the routine×routine conflict matrix**
//!   ([`ConflictMatrix`]): when a conflict miss refetches a line, the
//!   engine charges the pair *(block that evicted it → block that
//!   missed)*, and rolls the pairs up per routine — the measured analogue
//!   of the static loop×routine matrix driving the Section 4.4 `Call`
//!   optimization.
//!
//! The engine is a wrapper cache ([`AttributedCache`]) so any experiment
//! can opt in without touching the simulation driver; an attached
//! [`AttributionProbe`](oslay_observe::AttributionProbe) receives the
//! `cache.attr.*` metrics once, from [`AttributedCache::report`]. Two
//! [`AttributionReport`]s from different layouts diff against each other
//! ([`diff_attribution`]): which pairs stopped conflicting, which new
//! conflicts appeared.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use oslay_model::{Domain, SeedKind};
use oslay_observe::{AttrClass, AttributionProbe};

use crate::{AccessOutcome, Cache, CacheConfig, InstructionCache, MissKind, MissStats};

/// Placement class of a code address — the categories of the paper's
/// Figure 13 (mirrors the layout crate's block classes; the cache crate
/// cannot depend on it).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum CodeClass {
    /// In the SelfConfFree area.
    SelfConfFree,
    /// In a sequence with `ExecThresh ≥ 0.01%`.
    MainSeq,
    /// In a less popular sequence.
    OtherSeq,
    /// Extracted into a loop area / logical cache.
    Loop,
    /// Never executed under the layout's profile.
    Cold,
}

impl CodeClass {
    /// All classes, in reporting order.
    pub const ALL: [CodeClass; 5] = [
        CodeClass::SelfConfFree,
        CodeClass::MainSeq,
        CodeClass::OtherSeq,
        CodeClass::Loop,
        CodeClass::Cold,
    ];

    /// Dense index (`0..5`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CodeClass::SelfConfFree => 0,
            CodeClass::MainSeq => 1,
            CodeClass::OtherSeq => 2,
            CodeClass::Loop => 3,
            CodeClass::Cold => 4,
        }
    }

    /// Label matching the paper's Figure 13.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CodeClass::SelfConfFree => "SelfConfFree",
            CodeClass::MainSeq => "MainSeq",
            CodeClass::OtherSeq => "OtherSeq",
            CodeClass::Loop => "Loops",
            CodeClass::Cold => "Cold",
        }
    }
}

/// Census slots: the five [`CodeClass`]es plus one for addresses the
/// [`AddressMap`] does not cover (layout gaps, stretch padding).
pub const CENSUS_SLOTS: usize = CodeClass::ALL.len() + 1;

/// Label of census slot `i` (`CodeClass` labels, then `"unmapped"`).
#[must_use]
pub fn census_label(i: usize) -> &'static str {
    CodeClass::ALL
        .get(i)
        .map_or("unmapped", |class| class.label())
}

/// What an address belongs to: which program, block, routine, and
/// placement class. Blocks and routines are dense indices into the
/// owning program (kept as raw `u32`s so the map is program-agnostic).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct CodeRef {
    /// Which program the code belongs to.
    pub domain: Domain,
    /// Block index within the program.
    pub block: u32,
    /// Routine index within the program.
    pub routine: u32,
    /// Placement class under the layout the map was built from.
    pub class: CodeClass,
}

impl CodeRef {
    /// The layout-independent identity of the code: `(domain, block)`.
    /// Pair diffs across layouts key on this, because the placement class
    /// and address change between layouts while the block does not.
    #[must_use]
    pub fn block_key(&self) -> (Domain, u32) {
        (self.domain, self.block)
    }

    /// The routine-level identity: `(domain, routine)`.
    #[must_use]
    pub fn routine_key(&self) -> (Domain, u32) {
        (self.domain, self.routine)
    }
}

/// Address → [`CodeRef`] reverse map for one layout pair.
///
/// Built once per layout from `(start, len, code)` spans (the layout
/// crate provides the builder for its `Layout` type). Spans must not
/// overlap; gaps are allowed and resolve to `None`.
///
/// Lookups run in O(1) through a *rank index* built alongside the sorted
/// span table. The spans are grouped into dense *regions*, split wherever
/// two neighbours sit more than 64 KiB apart (the OS image and the
/// application code are two regions). Each region is cut into
/// equal address buckets, and the index records, per bucket, how many
/// spans start at or before the bucket's first byte. A lookup reads that
/// count and steps over the few spans starting inside the bucket, instead
/// of binary-searching the whole table. Buckets are cache-line sized
/// (32 bytes) unless that would take more than four index entries per
/// span of the region; sparser regions get coarser buckets, so the index
/// never outgrows the span table.
#[derive(Clone, Debug, Default)]
pub struct AddressMap {
    /// Sorted, non-overlapping `(start, end, code)` spans.
    spans: Vec<(u64, u64, CodeRef)>,
    /// Dense regions of `spans`, by ascending address.
    regions: Vec<MapRegion>,
    /// Per region, per bucket: the number of spans starting at or before
    /// the bucket's first address (an index into `spans`).
    ranks: Vec<u32>,
}

/// Neighbouring spans further apart than this many bytes go into
/// separate [`AddressMap`] regions, so a large hole costs no index.
const REGION_GAP: u64 = 1 << 16;

/// log2 of the finest [`AddressMap`] bucket: one 32-byte cache line.
const MIN_BUCKET_SHIFT: u32 = 5;

/// Index entries a region may spend per span it holds.
const BUCKETS_PER_SPAN: u64 = 4;

/// One dense run of spans and its slice of the rank index.
#[derive(Copy, Clone, Debug)]
struct MapRegion {
    /// Start of the region's first span.
    lo: u64,
    /// First bucket's address: `lo` aligned down to a bucket. A coarse
    /// bucket may reach back over the previous region, so lookups pick
    /// the region by `lo`, never by `base`.
    base: u64,
    /// End of the region's last span.
    end: u64,
    /// log2 of the bucket size.
    shift: u32,
    /// Where the region's buckets start in `ranks`.
    offset: usize,
    /// Index one past the region's last span.
    last: usize,
}

impl AddressMap {
    /// Builds a map from spans, sorting them by start address.
    ///
    /// # Panics
    ///
    /// Panics if two spans overlap.
    #[must_use]
    pub fn build(spans: impl IntoIterator<Item = (u64, u64, CodeRef)>) -> Self {
        let mut spans: Vec<(u64, u64, CodeRef)> = spans
            .into_iter()
            .filter(|&(_, len, _)| len > 0)
            .map(|(start, len, code)| (start, start + len, code))
            .collect();
        spans.sort_unstable_by_key(|&(start, _, _)| start);
        for pair in spans.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "overlapping code spans at {:#x}",
                pair[1].0
            );
        }
        assert!(
            u32::try_from(spans.len()).is_ok(),
            "span count fits the rank index"
        );
        let mut regions = Vec::new();
        let mut ranks = Vec::new();
        let mut first = 0;
        while first < spans.len() {
            let mut last = first + 1;
            while last < spans.len() && spans[last].0 - spans[last - 1].1 <= REGION_GAP {
                last += 1;
            }
            let (lo, end) = (spans[first].0, spans[last - 1].1);
            let budget = BUCKETS_PER_SPAN * (last - first) as u64;
            let buckets = |shift: u32| ((end - 1) >> shift) - (lo >> shift) + 1;
            let mut shift = MIN_BUCKET_SHIFT;
            while buckets(shift) > budget {
                shift += 1;
            }
            let base = lo >> shift << shift;
            let offset = ranks.len();
            let mut i = first;
            for b in 0..buckets(shift) {
                let at = base + (b << shift);
                while i < last && spans[i].0 <= at {
                    i += 1;
                }
                ranks.push(i as u32);
            }
            regions.push(MapRegion {
                lo,
                base,
                end,
                shift,
                offset,
                last,
            });
            first = last;
        }
        Self {
            spans,
            regions,
            ranks,
        }
    }

    /// Number of spans starting at or before `addr` (the index of the
    /// first span starting after it).
    #[inline]
    fn rank(&self, addr: u64) -> usize {
        let r = self.regions.partition_point(|region| region.lo <= addr);
        let Some(region) = r.checked_sub(1).map(|r| &self.regions[r]) else {
            return 0;
        };
        if addr >= region.end {
            return region.last;
        }
        let bucket = ((addr - region.base) >> region.shift) as usize;
        let mut i = self.ranks[region.offset + bucket] as usize;
        while i < region.last && self.spans[i].0 <= addr {
            i += 1;
        }
        i
    }

    /// The code containing `addr`, if any span covers it.
    #[must_use]
    pub fn lookup(&self, addr: u64) -> Option<CodeRef> {
        let &(start, end, code) = self.spans.get(self.rank(addr).checked_sub(1)?)?;
        debug_assert!(start <= addr);
        (addr < end).then_some(code)
    }

    /// Adds `weight` to the census slot of each of the `words` word
    /// fetches from `addr`, keyed by the word's start address (the last
    /// slot for gaps). One index lookup, then span arithmetic along the
    /// spans the fetch crosses; no per-word lookup.
    pub fn count_words(
        &self,
        addr: u64,
        words: u32,
        weight: u64,
        census: &mut [u64; CENSUS_SLOTS],
    ) {
        let word = u64::from(oslay_model::WORD_BYTES);
        let (mut addr, mut left) = (addr, u64::from(words));
        let mut i = self.rank(addr);
        while left > 0 {
            // `addr` lies in span `i - 1` or in the gap before span `i`.
            let (end, slot) = match i.checked_sub(1).map(|j| &self.spans[j]) {
                Some(&(_, end, code)) if addr < end => (end, code.class.index()),
                _ => (
                    self.spans.get(i).map_or(u64::MAX, |&(start, _, _)| start),
                    CENSUS_SLOTS - 1,
                ),
            };
            let n = (end - addr).div_ceil(word).min(left);
            census[slot] += n * weight;
            left -= n;
            addr += n * word;
            while self
                .spans
                .get(i)
                .is_some_and(|&(start, _, _)| start <= addr)
            {
                i += 1;
            }
        }
    }

    /// Number of spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the map covers nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// A fully-associative LRU stack over line addresses: the *shadow tag
/// store* behind the capacity/conflict split.
///
/// Holds at most `capacity` tags. [`ShadowTags::touch`] reports whether
/// the line was resident — i.e. whether a fully-associative LRU cache of
/// the same total capacity would have hit — and promotes it to
/// most-recently-used.
///
/// Touch and evict are O(1) and allocation-free after construction: an
/// intrusive doubly-linked LRU list threaded through a fixed slab of
/// nodes, found via a preallocated open-addressed hash index (linear
/// probing, backward-shift deletion, so no tombstones accumulate). A
/// caller that already knows a line's node ([`AttributedCache`] links
/// nodes to cache slots) promotes it without the index. The map-based
/// original survives as [`crate::reference::ReferenceShadowTags`]; the
/// equivalence tests drive both with identical touch sequences.
#[derive(Clone, Debug)]
pub struct ShadowTags {
    capacity: usize,
    /// Slab: line tag per node.
    lines: Vec<u64>,
    /// Intrusive list links per node, `(prev, next)` ([`SHADOW_NIL`]
    /// terminated).
    links: Vec<(u32, u32)>,
    /// Most-recently-used node.
    head: u32,
    /// Least-recently-used node (the eviction candidate).
    tail: u32,
    len: usize,
    /// Open-addressed index: `(line, node)` pairs, node == [`SHADOW_NIL`]
    /// meaning empty. Power-of-two sized, ≥2× capacity, so load factor
    /// stays ≤ 0.5.
    index: Vec<(u64, u32)>,
}

/// Null node index for [`ShadowTags`]' intrusive list and hash index,
/// and the "no node" / "no slot" mark of [`AttributedCache`]'s links.
const SHADOW_NIL: u32 = u32::MAX;

impl ShadowTags {
    /// Creates a store holding `capacity` line tags.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shadow store needs capacity");
        let index_size = (capacity * 2).next_power_of_two();
        Self {
            capacity,
            lines: vec![0; capacity],
            links: vec![(SHADOW_NIL, SHADOW_NIL); capacity],
            head: SHADOW_NIL,
            tail: SHADOW_NIL,
            len: 0,
            index: vec![(0, SHADOW_NIL); index_size],
        }
    }

    /// Fibonacci-hash home bucket of a line.
    #[inline]
    fn home(&self, line: u64) -> usize {
        let hash = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// Index position holding `line`, or the empty position where it
    /// would be inserted.
    #[inline]
    fn index_pos(&self, line: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut i = self.home(line);
        loop {
            let (key, node) = self.index[i];
            if node == SHADOW_NIL || key == line {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `line`'s index entry with backward-shift deletion (keeps
    /// probe chains contiguous without tombstones).
    fn index_remove(&mut self, line: u64) {
        let mask = self.index.len() - 1;
        let mut hole = self.index_pos(line);
        debug_assert_ne!(self.index[hole].1, SHADOW_NIL, "removing absent line");
        self.index[hole] = (0, SHADOW_NIL);
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (key, node) = self.index[j];
            if node == SHADOW_NIL {
                return;
            }
            // Move the entry back iff the hole lies within its probe
            // chain (i.e. between its home bucket and its position).
            let home = self.home(key);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.index[hole] = (key, node);
                self.index[j] = (0, SHADOW_NIL);
                hole = j;
            }
        }
    }

    /// Unlinks `node` from the LRU list.
    #[inline]
    fn unlink(&mut self, node: u32) {
        let (p, n) = self.links[node as usize];
        if p == SHADOW_NIL {
            self.head = n;
        } else {
            self.links[p as usize].1 = n;
        }
        if n == SHADOW_NIL {
            self.tail = p;
        } else {
            self.links[n as usize].0 = p;
        }
    }

    /// Links `node` at the MRU end.
    #[inline]
    fn push_front(&mut self, node: u32) {
        self.links[node as usize] = (SHADOW_NIL, self.head);
        if self.head == SHADOW_NIL {
            self.tail = node;
        } else {
            self.links[self.head as usize].0 = node;
        }
        self.head = node;
    }

    /// The node holding `line`, if it is resident: one index probe.
    #[inline]
    fn find(&self, line: u64) -> Option<u32> {
        let (_, node) = self.index[self.index_pos(line)];
        (node != SHADOW_NIL).then_some(node)
    }

    /// Makes resident `node` the most-recently-used.
    #[inline]
    fn promote(&mut self, node: u32) {
        if self.head != node {
            self.unlink(node);
            self.push_front(node);
        }
    }

    /// Inserts `line`, which must not be resident, as the
    /// most-recently-used tag: into a free node, or, once the store is
    /// full, into the least-recently-used node, whose line it evicts.
    /// Returns the node.
    fn insert(&mut self, line: u64) -> u32 {
        let node = if self.len == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.index_remove(self.lines[victim as usize]);
            victim
        } else {
            self.len += 1;
            (self.len - 1) as u32
        };
        self.lines[node as usize] = line;
        // Probed after the eviction, which may have shifted entries.
        let pos = self.index_pos(line);
        self.index[pos] = (line, node);
        self.push_front(node);
        node
    }

    /// Touches `line`, returning true if it was resident (an LRU-stack
    /// hit). Non-resident lines are inserted, evicting the coldest tag
    /// once the store is full.
    pub fn touch(&mut self, line: u64) -> bool {
        match self.find(line) {
            Some(node) => {
                self.promote(node);
                true
            }
            None => {
                self.insert(line);
                false
            }
        }
    }

    /// Number of resident tags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tag is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears all tags.
    pub fn clear(&mut self) {
        self.lines.fill(0);
        self.links.fill((SHADOW_NIL, SHADOW_NIL));
        self.head = SHADOW_NIL;
        self.tail = SHADOW_NIL;
        self.len = 0;
        self.index.fill((0, SHADOW_NIL));
    }
}

/// One evictor→victim conflict pair with its miss count.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ConflictPair {
    /// The block whose fill displaced the victim's line.
    pub evictor: CodeRef,
    /// The block that later missed on the displaced line.
    pub victim: CodeRef,
    /// Conflict misses charged to the pair.
    pub count: u64,
}

/// Layout-independent identity of a routine: `(domain, routine index)`.
/// The same shape also keys blocks ([`CodeRef::block_key`]).
pub type RoutineKey = (Domain, u32);

/// One conflict-matrix cell: `(evictor, victim, count)`.
pub type MatrixCell = (RoutineKey, RoutineKey, u64);

/// The routine×routine conflict matrix: entry `(evictor, victim)` counts
/// conflict misses where code of `evictor` displaced a line that code of
/// `victim` then refetched.
///
/// This is the measured analogue of the static loop×routine matrix the
/// Section 4.4 `Call` optimization builds from the call graph; the layout
/// crate can rank its rows to pick `Call` candidates from measurement
/// instead of structure.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConflictMatrix {
    entries: BTreeMap<(RoutineKey, RoutineKey), u64>,
}

impl ConflictMatrix {
    /// Adds `n` conflicts to entry `(evictor, victim)`.
    pub fn add(&mut self, evictor: (Domain, u32), victim: (Domain, u32), n: u64) {
        *self.entries.entry((evictor, victim)).or_insert(0) += n;
    }

    /// Count of entry `(evictor, victim)`.
    #[must_use]
    pub fn count(&self, evictor: (Domain, u32), victim: (Domain, u32)) -> u64 {
        self.entries.get(&(evictor, victim)).copied().unwrap_or(0)
    }

    /// Sum of all entries.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.entries.values().sum()
    }

    /// Number of non-zero entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no conflict was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries as `(evictor, victim, count)`, key order.
    pub fn entries(&self) -> impl Iterator<Item = MatrixCell> + '_ {
        self.entries.iter().map(|(&(e, v), &c)| (e, v, c))
    }

    /// The `k` heaviest entries, by count descending (ties by key).
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<MatrixCell> {
        let mut all: Vec<_> = self.entries().collect();
        all.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    /// Conflicts suffered *by* a routine (its victim row sum).
    #[must_use]
    pub fn victim_row_sum(&self, victim: (Domain, u32)) -> u64 {
        self.entries
            .iter()
            .filter(|&(&(_, v), _)| v == victim)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Conflicts caused *by* a routine (its evictor column sum).
    #[must_use]
    pub fn evictor_row_sum(&self, evictor: (Domain, u32)) -> u64 {
        self.entries
            .iter()
            .filter(|&(&(e, _), _)| e == evictor)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Asymmetry of the matrix: `Σ |c(a,b) − c(b,a)|` over unordered
    /// routine pairs, as a fraction of the total. Two routines ping-pong
    /// evicting each other in a direct-mapped set, so sustained thrash
    /// shows up as near-symmetric entries; a strongly one-sided matrix
    /// means transient (streaming) interference instead.
    #[must_use]
    pub fn asymmetry(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut defect = 0u64;
        for (&(e, v), &c) in &self.entries {
            if e < v {
                let back = self.count(v, e);
                defect += c.abs_diff(back);
            } else if e == v {
                // Self-conflict of one routine is its own mirror.
            } else if !self.entries.contains_key(&(v, e)) {
                // Counted once from the smaller-keyed side only when the
                // mirror entry exists; a one-sided entry lands here.
                defect += c;
            }
        }
        defect as f64 / total as f64
    }
}

/// Everything the attribution engine measured in one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributionReport {
    /// Geometry of the attributed cache.
    pub config: CacheConfig,
    /// Total fetches observed.
    pub total_accesses: u64,
    /// Total misses observed.
    pub total_misses: u64,
    /// Misses per [`AttrClass`] (compulsory, capacity, conflict).
    pub class_misses: [u64; 3],
    /// Accesses per cache set.
    pub set_accesses: Vec<u64>,
    /// Misses per cache set (the per-set pressure histogram).
    pub set_misses: Vec<u64>,
    /// Misses per census slot (see [`census_label`]). The matching
    /// reference column is a function of the block profile, not of the
    /// replay: [`AddressMap::count_words`] weighted by execution counts.
    pub census_misses: [u64; CENSUS_SLOTS],
    /// Misses per OS entry class (`SeedKind` order), slot 4 = outside any
    /// OS invocation (application code, idle loop).
    pub entry_misses: [u64; 5],
    /// Evictor→victim block pairs, heaviest first.
    pub pairs: Vec<ConflictPair>,
    /// The routine×routine conflict matrix.
    pub matrix: ConflictMatrix,
}

impl AttributionReport {
    /// Misses of one class.
    #[must_use]
    pub fn misses_of(&self, class: AttrClass) -> u64 {
        self.class_misses[class.index()]
    }

    /// Conflict misses as a fraction of all misses (0 if no misses).
    #[must_use]
    pub fn conflict_share(&self) -> f64 {
        if self.total_misses == 0 {
            return 0.0;
        }
        self.misses_of(AttrClass::Conflict) as f64 / self.total_misses as f64
    }

    /// Coefficient of variation (σ/μ) of the per-set miss counts — 0 for
    /// perfectly even pressure, large when a few sets thrash.
    #[must_use]
    pub fn set_imbalance(&self) -> f64 {
        let n = self.set_misses.len() as f64;
        let mean = self.set_misses.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .set_misses
            .iter()
            .map(|&m| {
                let d = m as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }

    /// Fraction of all misses concentrated in the `k` worst sets.
    #[must_use]
    pub fn set_peak_share(&self, k: usize) -> f64 {
        let total: u64 = self.set_misses.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut sorted = self.set_misses.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.iter().take(k).sum::<u64>() as f64 / total as f64
    }

    /// The `k` heaviest evictor→victim pairs.
    #[must_use]
    pub fn top_pairs(&self, k: usize) -> &[ConflictPair] {
        &self.pairs[..k.min(self.pairs.len())]
    }

    /// Flattens the report into the numeric fields a
    /// [`RunReport`](oslay_observe::RunReport) section stores; the run
    /// reports of `diag`, the digest and `fig13` record each layout's
    /// attribution this way. All fields are lower-is-better.
    #[must_use]
    pub fn section_fields(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("misses".to_owned(), self.total_misses as f64),
            (
                "compulsory".to_owned(),
                self.misses_of(AttrClass::Compulsory) as f64,
            ),
            (
                "capacity".to_owned(),
                self.misses_of(AttrClass::Capacity) as f64,
            ),
            (
                "conflict".to_owned(),
                self.misses_of(AttrClass::Conflict) as f64,
            ),
            ("conflict_share".to_owned(), self.conflict_share()),
            ("set_imbalance".to_owned(), self.set_imbalance()),
            ("set_peak_share_5".to_owned(), self.set_peak_share(5)),
            // Note: the number of *distinct* matrix entries is deliberately
            // not a field — an optimization that spreads fewer conflicts
            // over more, lighter pairs would look like a regression.
            ("matrix_total".to_owned(), self.matrix.total() as f64),
            (
                "top_pair_count".to_owned(),
                self.pairs.first().map_or(0, |p| p.count) as f64,
            ),
        ];
        for i in 0..CENSUS_SLOTS {
            out.push((
                format!("census_miss.{}", census_label(i)),
                self.census_misses[i] as f64,
            ));
        }
        out
    }
}

/// A cache wrapper that attributes every miss.
///
/// Wraps a concrete [`Cache`] and replays each block through the same
/// line-run walk as [`Cache::access_words`]: per line, the cache's
/// inlined hit test, and on a miss an out-of-line path that fills, asks
/// the shadow tag store for its verdict and updates the per-set,
/// per-class and per-pair rollups. Hits are counted once per block. The
/// shadow store sees every line access, but a hit reaches the line's
/// shadow node through the cache slot it hit (`slot_node`), not through
/// the store's hash index; only a miss resolves code through the
/// [`AddressMap`] (its own block, and its evictor's). Implements
/// [`InstructionCache`], so the standard simulation driver works
/// unchanged; call [`AttributedCache::report`] afterwards for the
/// rollups, which equal a word-by-word replay's.
pub struct AttributedCache {
    inner: Cache,
    map: Arc<AddressMap>,
    shadow: ShadowTags,
    /// `log2(line)` and `num_sets - 1` of the geometry.
    line_shift: u32,
    set_mask: u64,
    /// Per cache slot (`set * ways + way`): the shadow node of the line
    /// the slot holds, or [`SHADOW_NIL`] when the slot is empty or the
    /// shadow store has evicted its line.
    slot_node: Vec<u32>,
    /// Per shadow node: the cache slot linked to it ([`SHADOW_NIL`] when
    /// the cache does not hold the node's line). The inverse of
    /// `slot_node` on every linked pair.
    node_slot: Vec<u32>,
    /// victim line key → key of the line whose fill displaced it.
    last_evictor: FastMap<u64, u64>,
    set_accesses: Vec<u64>,
    set_misses: Vec<u64>,
    class_misses: [u64; 3],
    /// Conflict misses whose evicting line is known.
    evictor_known: u64,
    census_misses: [u64; CENSUS_SLOTS],
    entry_misses: [u64; 5],
    /// Current OS entry class (None = outside the OS).
    context: Option<SeedKind>,
    pairs: PairTable,
    probe: Option<Arc<dyn AttributionProbe + Send + Sync>>,
}

/// Pair rollup keyed by the stable `(block, block)` identity; the value
/// keeps the first-seen [`CodeRef`]s alongside the count.
type PairTable = FastMap<(RoutineKey, RoutineKey), (CodeRef, CodeRef, u64)>;

/// A hash map on [`MulHasher`].
type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// A small multiplicative hasher for the engine's integer-keyed tables
/// (line addresses, block-pair keys). SipHash's flooding resistance buys
/// nothing for keys the simulator itself produces, and the workspace takes
/// no external dependencies. Each word is folded in as
/// `(h.rotl(5) ^ w) · φ`; `finish` rotates the well-mixed high bits down,
/// because line addresses leave the product's low bits zero and the
/// table picks buckets from the low bits.
#[derive(Copy, Clone, Debug, Default)]
struct MulHasher(u64);

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

impl std::fmt::Debug for AttributedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttributedCache")
            .field("inner", &self.inner)
            .field("class_misses", &self.class_misses)
            .field("pairs", &self.pairs.len())
            .field("probe", &self.probe.is_some())
            .finish_non_exhaustive()
    }
}

impl AttributedCache {
    /// Wraps `inner`, attributing through `map`.
    #[must_use]
    pub fn new(inner: Cache, map: Arc<AddressMap>) -> Self {
        let cfg = inner.config();
        let sets = cfg.num_sets() as usize;
        let lines = (cfg.size() / cfg.line()) as usize;
        Self {
            inner,
            map,
            shadow: ShadowTags::new(lines),
            line_shift: cfg.line_shift(),
            set_mask: cfg.set_mask(),
            slot_node: vec![SHADOW_NIL; sets * cfg.ways() as usize],
            node_slot: vec![SHADOW_NIL; lines],
            last_evictor: FastMap::default(),
            set_accesses: vec![0; sets],
            set_misses: vec![0; sets],
            class_misses: [0; 3],
            evictor_known: 0,
            census_misses: [0; CENSUS_SLOTS],
            entry_misses: [0; 5],
            context: None,
            pairs: FastMap::default(),
            probe: None,
        }
    }

    /// Like [`AttributedCache::new`], additionally reporting the
    /// `cache.attr.*` metrics into `probe` from
    /// [`AttributedCache::report`].
    #[must_use]
    pub fn with_probe(
        inner: Cache,
        map: Arc<AddressMap>,
        probe: Arc<dyn AttributionProbe + Send + Sync>,
    ) -> Self {
        let mut cache = Self::new(inner, map);
        cache.probe = Some(probe);
        cache
    }

    /// The wrapped cache.
    #[must_use]
    pub fn inner(&self) -> &Cache {
        &self.inner
    }

    /// Extracts the measured rollups. With a probe attached, it also
    /// reports `cache.attr.{compulsory,capacity,conflict,evictor_known}`
    /// (each only when nonzero) and the `cache.attr.set` histogram (the
    /// set of every classified miss) into it: call it once per replay,
    /// since every call adds the counts again.
    #[must_use]
    pub fn report(&self) -> AttributionReport {
        let _g = oslay_observe::span("cache.attr.report");
        if let Some(probe) = &self.probe {
            for class in AttrClass::ALL {
                let n = self.class_misses[class.index()];
                if n > 0 {
                    probe.counter_add(class.metric_name(), n);
                }
            }
            if self.evictor_known > 0 {
                probe.counter_add("cache.attr.evictor_known", self.evictor_known);
            }
            for (set, &n) in self.set_misses.iter().enumerate() {
                if n > 0 {
                    probe.histogram_record("cache.attr.set", set as u64, n);
                }
            }
        }
        let mut pairs: Vec<ConflictPair> = self
            .pairs
            .values()
            .map(|&(evictor, victim, count)| ConflictPair {
                evictor,
                victim,
                count,
            })
            .collect();
        // The routine matrix is the pair table rolled up per routine (a
        // block belongs to one routine, so the first-seen refs suffice).
        let mut matrix = ConflictMatrix::default();
        for pair in &pairs {
            matrix.add(
                pair.evictor.routine_key(),
                pair.victim.routine_key(),
                pair.count,
            );
        }
        pairs.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.evictor.block_key().cmp(&b.evictor.block_key()))
                .then(a.victim.block_key().cmp(&b.victim.block_key()))
        });
        AttributionReport {
            config: self.inner.config(),
            total_accesses: self.inner.stats().total_accesses(),
            total_misses: self.inner.stats().total_misses(),
            class_misses: self.class_misses,
            set_accesses: self.set_accesses.clone(),
            set_misses: self.set_misses.clone(),
            census_misses: self.census_misses,
            entry_misses: self.entry_misses,
            pairs,
            matrix,
        }
    }

    fn census_slot(code: Option<CodeRef>) -> usize {
        code.map_or(CENSUS_SLOTS - 1, |c| c.class.index())
    }

    /// One line run: the attributed access of the word at `addr`, then
    /// `run - 1` further words of the same line. Those are hits on the
    /// line the first access just made MRU, in the cache and in the
    /// shadow store alike, so they only bump the set's access count.
    /// Records the miss, if any, but no hit: the caller bulk-counts hits.
    #[inline]
    fn access_line(&mut self, addr: u64, run: u32, domain: Domain) -> Option<MissKind> {
        let key = addr >> self.line_shift;
        self.set_accesses[(key & self.set_mask) as usize] += u64::from(run);
        let Some(slot) = self.inner.hit_slot(key) else {
            return Some(self.miss(addr, key, domain));
        };
        // The shadow stack sees every access (hits keep its LRU order
        // honest); a hit's verdict is never read, so the store is reached
        // through the slot link, not the index.
        match self.slot_node[slot] {
            SHADOW_NIL => self.shadow_insert(key, slot),
            node => {
                debug_assert_eq!(self.shadow.lines[node as usize], key, "stale slot link");
                self.shadow.promote(node);
            }
        }
        None
    }

    /// The miss path of [`AttributedCache::access_line`]: fills the line
    /// into the cache, reads the shadow store's verdict (before touching
    /// it) through its index, and attributes the miss.
    #[inline(never)]
    fn miss(&mut self, addr: u64, key: u64, domain: Domain) -> MissKind {
        let fill = self.inner.fill(key, domain);
        // The fill overwrote the slot: its old line's node loses the link.
        let old = std::mem::replace(&mut self.slot_node[fill.slot], SHADOW_NIL);
        if old != SHADOW_NIL {
            self.node_slot[old as usize] = SHADOW_NIL;
        }
        let was_resident = match self.shadow.find(key) {
            Some(node) => {
                self.shadow.promote(node);
                self.link(fill.slot, node);
                true
            }
            None => {
                self.shadow_insert(key, fill.slot);
                false
            }
        };

        self.set_misses[(key & self.set_mask) as usize] += 1;
        let code = self.map.lookup(addr);
        self.census_misses[Self::census_slot(code)] += 1;
        self.entry_misses[self.context.map_or(4, SeedKind::index)] += 1;
        let class = if fill.kind == MissKind::Cold {
            AttrClass::Compulsory
        } else if was_resident {
            AttrClass::Conflict
        } else {
            AttrClass::Capacity
        };
        self.class_misses[class.index()] += 1;
        if class == AttrClass::Conflict {
            if let Some(&evictor) = self.last_evictor.get(&key) {
                self.evictor_known += 1;
                let evictor_line = evictor << self.line_shift;
                if let (Some(victim), Some(evictor)) = (code, self.map.lookup(evictor_line)) {
                    self.pairs
                        .entry((evictor.block_key(), victim.block_key()))
                        .or_insert((evictor, victim, 0))
                        .2 += 1;
                }
            }
        }
        if let Some(victim) = fill.evicted {
            self.last_evictor.insert(victim, key);
        }
        fill.kind
    }

    /// Inserts `key`, held in cache `slot` and absent from the shadow
    /// store, into the store and links it to `slot`. A node recycled from
    /// an evicted shadow line first drops that line's slot link.
    fn shadow_insert(&mut self, key: u64, slot: usize) {
        let node = self.shadow.insert(key);
        let old = std::mem::replace(&mut self.node_slot[node as usize], SHADOW_NIL);
        if old != SHADOW_NIL {
            self.slot_node[old as usize] = SHADOW_NIL;
        }
        self.link(slot, node);
    }

    /// Links cache `slot` and shadow `node`, both unlinked.
    #[inline]
    fn link(&mut self, slot: usize, node: u32) {
        debug_assert_eq!(
            self.node_slot[node as usize], SHADOW_NIL,
            "node linked twice"
        );
        self.slot_node[slot] = node;
        self.node_slot[node as usize] = slot as u32;
    }
}

impl InstructionCache for AttributedCache {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        match self.access_line(addr, 1, domain) {
            Some(kind) => AccessOutcome::Miss(kind),
            None => {
                self.inner.record_hits(domain, 1);
                AccessOutcome::Hit
            }
        }
    }

    fn access_words(&mut self, base: u64, words: u32, domain: Domain) -> u64 {
        let mut missed = 0u64;
        for (addr, run) in self.inner.config().line_runs(base, words) {
            missed += u64::from(self.access_line(addr, run, domain).is_some());
        }
        self.inner.record_hits(domain, u64::from(words) - missed);
        missed
    }

    fn stats(&self) -> &MissStats {
        self.inner.stats()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.shadow.clear();
        self.slot_node.fill(SHADOW_NIL);
        self.node_slot.fill(SHADOW_NIL);
        self.last_evictor.clear();
        self.set_accesses.fill(0);
        self.set_misses.fill(0);
        self.class_misses = [0; 3];
        self.evictor_known = 0;
        self.census_misses = [0; CENSUS_SLOTS];
        self.entry_misses = [0; 5];
        self.context = None;
        self.pairs.clear();
    }

    fn note_os_enter(&mut self, kind: SeedKind) {
        self.context = Some(kind);
    }

    fn note_os_exit(&mut self) {
        self.context = None;
    }

    fn telemetry_snapshot(&self) -> Option<oslay_observe::timeline::CacheProbeSnapshot> {
        // The inner cache supplies occupancy and eviction ages; this
        // wrapper adds the attribution split the timeline uses for the
        // compulsory/capacity/conflict decomposition per window.
        self.inner.telemetry_snapshot().map(|mut snap| {
            snap.attr = Some(self.class_misses);
            snap
        })
    }
}

/// One pair's before/after counts in a layout diff.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PairDelta {
    /// The pair, with the [`CodeRef`]s of whichever side recorded it.
    pub evictor: CodeRef,
    /// Victim side of the pair.
    pub victim: CodeRef,
    /// Conflict count in the baseline report.
    pub base: u64,
    /// Conflict count in the current report.
    pub current: u64,
}

impl PairDelta {
    /// Signed change (`current − base`).
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.current as i64 - self.base as i64
    }
}

/// The difference between two layouts' attributions: which block pairs
/// stopped conflicting, which new conflicts the new layout introduced.
#[derive(Clone, Debug, Default)]
pub struct AttributionDiff {
    /// Pairs that conflicted under the baseline and no longer do (or far
    /// less), heaviest baseline count first.
    pub resolved: Vec<PairDelta>,
    /// Pairs the current layout introduced (or made heavier), heaviest
    /// current count first.
    pub introduced: Vec<PairDelta>,
    /// Per-class miss change (`current − base`, [`AttrClass`] order).
    pub class_delta: [i64; 3],
    /// Per-set miss change (`current − base`).
    pub set_delta: Vec<i64>,
    /// Matrix totals `(base, current)`.
    pub matrix_total: (u64, u64),
}

impl AttributionDiff {
    /// Net conflict-miss change.
    #[must_use]
    pub fn conflict_delta(&self) -> i64 {
        self.class_delta[AttrClass::Conflict.index()]
    }
}

/// Diffs two attributions of the *same workload* under different layouts.
/// Pairs are matched by `(domain, block)` identity, which is stable
/// across layouts.
///
/// # Panics
///
/// Panics if the two reports come from different cache geometries.
#[must_use]
pub fn diff_attribution(base: &AttributionReport, current: &AttributionReport) -> AttributionDiff {
    assert_eq!(
        base.config, current.config,
        "attribution diffs need identical cache geometry"
    );
    type Key = ((Domain, u32), (Domain, u32));
    let index = |r: &AttributionReport| -> BTreeMap<Key, ConflictPair> {
        r.pairs
            .iter()
            .map(|&p| ((p.evictor.block_key(), p.victim.block_key()), p))
            .collect()
    };
    let base_pairs = index(base);
    let current_pairs = index(current);

    let mut resolved = Vec::new();
    let mut introduced = Vec::new();
    for (key, p) in &base_pairs {
        let cur = current_pairs.get(key).map_or(0, |c| c.count);
        if cur < p.count {
            resolved.push(PairDelta {
                evictor: p.evictor,
                victim: p.victim,
                base: p.count,
                current: cur,
            });
        }
    }
    for (key, p) in &current_pairs {
        let was = base_pairs.get(key).map_or(0, |b| b.count);
        if p.count > was {
            introduced.push(PairDelta {
                evictor: p.evictor,
                victim: p.victim,
                base: was,
                current: p.count,
            });
        }
    }
    resolved.sort_by_key(|p| std::cmp::Reverse(p.base - p.current));
    introduced.sort_by_key(|p| std::cmp::Reverse(p.current - p.base));

    let mut class_delta = [0i64; 3];
    for (delta, (&cur, &was)) in class_delta
        .iter_mut()
        .zip(current.class_misses.iter().zip(&base.class_misses))
    {
        *delta = cur as i64 - was as i64;
    }
    let set_delta = base
        .set_misses
        .iter()
        .zip(&current.set_misses)
        .map(|(&b, &c)| c as i64 - b as i64)
        .collect();

    AttributionDiff {
        resolved,
        introduced,
        class_delta,
        set_delta,
        matrix_total: (base.matrix.total(), current.matrix.total()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(domain: Domain, block: u32, routine: u32, class: CodeClass) -> CodeRef {
        CodeRef {
            domain,
            block,
            routine,
            class,
        }
    }

    /// 64-byte direct-mapped cache, 16-byte lines (4 sets, 4 lines), with
    /// a map of one block per 16-byte line over the first 8 lines.
    fn rig() -> AttributedCache {
        let spans = (0..8u64).map(|i| {
            (
                i * 16,
                16,
                code(Domain::Os, i as u32, (i / 2) as u32, CodeClass::MainSeq),
            )
        });
        AttributedCache::new(
            Cache::new(CacheConfig::new(64, 16, 1)),
            Arc::new(AddressMap::build(spans)),
        )
    }

    #[test]
    fn address_map_lookup_hits_spans_and_gaps() {
        let map = AddressMap::build([
            (0, 16, code(Domain::Os, 0, 0, CodeClass::MainSeq)),
            (32, 8, code(Domain::Os, 1, 0, CodeClass::Cold)),
        ]);
        assert_eq!(map.len(), 2);
        assert_eq!(map.lookup(0).unwrap().block, 0);
        assert_eq!(map.lookup(15).unwrap().block, 0);
        assert_eq!(map.lookup(16), None, "gap");
        assert_eq!(map.lookup(32).unwrap().block, 1);
        assert_eq!(map.lookup(39).unwrap().block, 1);
        assert_eq!(map.lookup(40), None);
    }

    #[test]
    fn count_words_splits_fetches_at_spans_and_gaps() {
        // A 6-byte MainSeq span, a 2-byte Loop span too short to hold a
        // word start, a gap, then Cold code.
        let map = AddressMap::build([
            (16, 6, code(Domain::Os, 0, 0, CodeClass::MainSeq)),
            (22, 2, code(Domain::Os, 1, 0, CodeClass::Loop)),
            (40, 12, code(Domain::Os, 2, 0, CodeClass::Cold)),
        ]);
        let (main, cold, unmapped) = (
            CodeClass::MainSeq.index(),
            CodeClass::Cold.index(),
            CENSUS_SLOTS - 1,
        );
        let mut census = [0; CENSUS_SLOTS];
        // Words at 16 and 20 start in MainSeq (20 straddles into the Loop
        // span), 24..36 in the gap, 40..48 in Cold, 52 past the end.
        map.count_words(16, 10, 3, &mut census);
        let mut want = [0; CENSUS_SLOTS];
        (want[main], want[unmapped], want[cold]) = (2 * 3, 5 * 3, 3 * 3);
        assert_eq!(census, want);
        let mut empty = [0; CENSUS_SLOTS];
        AddressMap::default().count_words(8, 4, 2, &mut empty);
        assert_eq!(empty[unmapped], 8, "an empty map is all gap");
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn address_map_rejects_overlap() {
        let _ = AddressMap::build([
            (0, 20, code(Domain::Os, 0, 0, CodeClass::MainSeq)),
            (16, 8, code(Domain::Os, 1, 0, CodeClass::MainSeq)),
        ]);
    }

    #[test]
    fn shadow_tags_track_lru_stack_residency() {
        let mut s = ShadowTags::new(2);
        assert!(!s.touch(1));
        assert!(!s.touch(2));
        assert!(s.touch(1), "still resident");
        assert!(!s.touch(3), "evicts 2 (LRU)");
        assert!(!s.touch(2), "2 was evicted");
        assert!(s.touch(3));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn shadow_tags_match_reference_on_randomized_touches() {
        use crate::reference::ReferenceShadowTags;
        use oslay_model::rng::Rng;

        // Capacities around and below the working-set size, line keys drawn
        // from a range a few times the capacity so hits, evictions and
        // re-fetches all occur constantly.
        for (seed, capacity) in [(1u64, 1usize), (2, 2), (3, 7), (4, 64), (5, 256)] {
            let mut fast = ShadowTags::new(capacity);
            let mut reference = ReferenceShadowTags::new(capacity);
            let mut rng = Rng::seed_from_u64(seed);
            let span = (capacity as u32) * 4 + 3;
            for step in 0..50_000u32 {
                let line = u64::from(rng.gen_range(0..span)) * 32;
                let got = fast.touch(line);
                let want = reference.touch(line);
                assert_eq!(got, want, "capacity {capacity} step {step} line {line}");
                assert_eq!(
                    fast.len(),
                    reference.len(),
                    "capacity {capacity} step {step}"
                );
            }
        }
    }

    #[test]
    fn conflict_miss_is_shadow_resident() {
        let mut c = rig();
        // Lines 0 and 64 share set 0; both fit the 4-line shadow store.
        c.access(0, Domain::Os); // compulsory
        c.access(64, Domain::Os); // compulsory, evicts 0
        c.access(0, Domain::Os); // conflict: shadow still holds line 0
        let r = c.report();
        assert_eq!(r.misses_of(AttrClass::Compulsory), 2);
        assert_eq!(r.misses_of(AttrClass::Conflict), 1);
        assert_eq!(r.misses_of(AttrClass::Capacity), 0);
        assert_eq!(r.total_misses, 3);
    }

    #[test]
    fn capacity_miss_is_shadow_evicted() {
        let mut c = rig();
        // Cycle through 5 distinct lines: one more than the shadow store
        // holds, so round-robin LRU keeps every line shadow-non-resident
        // on revisit. In the real 4-set cache only lines 0 and 4 collide
        // (set 0); their revisit misses must classify as capacity, never
        // conflict.
        for round in 0..3 {
            for line in 0..5u64 {
                c.access(line * 16, Domain::Os);
            }
            let _ = round;
        }
        let r = c.report();
        assert_eq!(r.misses_of(AttrClass::Compulsory), 5);
        assert_eq!(r.misses_of(AttrClass::Conflict), 0);
        assert_eq!(r.misses_of(AttrClass::Capacity), 4);
        assert_eq!(r.total_misses, 9);
    }

    #[test]
    fn classes_partition_total_misses() {
        let mut c = rig();
        // A mixed pattern: ping-pong plus a cycling sweep.
        for i in 0..200u64 {
            c.access((i % 7) * 16, Domain::Os);
            c.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        let r = c.report();
        assert_eq!(r.class_misses.iter().sum::<u64>(), r.total_misses);
        assert_eq!(
            r.misses_of(AttrClass::Compulsory),
            c.inner().stats().misses(crate::MissKind::Cold),
            "compulsory must equal the simulator's cold count"
        );
        assert_eq!(r.set_misses.iter().sum::<u64>(), r.total_misses);
        assert_eq!(r.set_accesses.iter().sum::<u64>(), r.total_accesses);
        assert_eq!(r.census_misses.iter().sum::<u64>(), r.total_misses);
        assert_eq!(r.entry_misses.iter().sum::<u64>(), r.total_misses);
    }

    #[test]
    fn evictor_victim_pairs_are_charged_on_conflicts() {
        let mut c = rig();
        // Blocks 0 (line 0) and 4 (line 64) ping-pong in set 0.
        for i in 0..21u64 {
            c.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        let r = c.report();
        // 21 accesses: 2 compulsory, 19 conflicts. The first conflict
        // (refetch of line 0) knows its evictor; every later one does too.
        assert_eq!(r.misses_of(AttrClass::Conflict), 19);
        let ab = r
            .pairs
            .iter()
            .find(|p| p.evictor.block == 4 && p.victim.block == 0)
            .expect("pair 4→0");
        let ba = r
            .pairs
            .iter()
            .find(|p| p.evictor.block == 0 && p.victim.block == 4)
            .expect("pair 0→4");
        assert_eq!(ab.count + ba.count, 19);
        // Alternation makes the pair nearly symmetric.
        assert!(ab.count.abs_diff(ba.count) <= 1);
        // Routine rollup: blocks 0 and 4 belong to routines 0 and 2.
        assert_eq!(r.matrix.total(), 19);
        assert_eq!(
            r.matrix.count((Domain::Os, 2), (Domain::Os, 0)),
            ab.count,
            "matrix mirrors the block pairs at routine granularity"
        );
        assert!(r.matrix.asymmetry() < 0.1);
    }

    #[test]
    fn matrix_row_sums_bound_known_conflicts() {
        let mut c = rig();
        for i in 0..50u64 {
            c.access(if i % 2 == 0 { 16 } else { 80 }, Domain::Os);
        }
        let r = c.report();
        let conflicts = r.misses_of(AttrClass::Conflict);
        assert!(r.matrix.total() <= conflicts);
        // Every matrix entry shows up in exactly one victim row sum.
        let victims: std::collections::BTreeSet<_> =
            r.matrix.entries().map(|(_, v, _)| v).collect();
        let by_rows: u64 = victims.iter().map(|&v| r.matrix.victim_row_sum(v)).sum();
        assert_eq!(by_rows, r.matrix.total());
        let evictors: std::collections::BTreeSet<_> =
            r.matrix.entries().map(|(e, _, _)| e).collect();
        let by_cols: u64 = evictors.iter().map(|&e| r.matrix.evictor_row_sum(e)).sum();
        assert_eq!(by_cols, r.matrix.total());
    }

    #[test]
    fn entry_context_attributes_misses_per_seed_class() {
        let mut c = rig();
        c.note_os_enter(SeedKind::SysCall);
        c.access(0, Domain::Os);
        c.access(64, Domain::Os);
        c.note_os_exit();
        c.access(0, Domain::Os); // conflict, but outside the OS context
        let r = c.report();
        assert_eq!(r.entry_misses[SeedKind::SysCall.index()], 2);
        assert_eq!(r.entry_misses[4], 1);
    }

    #[test]
    fn diff_finds_resolved_and_introduced_pairs() {
        // Baseline: 0 and 64 ping-pong.
        let mut base = rig();
        for i in 0..20u64 {
            base.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        // "Optimized": blocks no longer collide; 16/80 collide instead.
        let mut cur = rig();
        for i in 0..20u64 {
            cur.access(if i % 2 == 0 { 16 } else { 80 }, Domain::Os);
        }
        let d = diff_attribution(&base.report(), &cur.report());
        assert!(!d.resolved.is_empty());
        assert!(!d.introduced.is_empty());
        assert!(d.resolved.iter().all(|p| p.current == 0));
        assert!(d.introduced.iter().all(|p| p.base == 0));
        assert_eq!(d.conflict_delta(), 0, "same volume, different pairs");
        assert_eq!(d.matrix_total.0, d.matrix_total.1);
        // Set pressure moved from set 0 to set 1.
        assert!(d.set_delta[0] < 0);
        assert!(d.set_delta[1] > 0);
    }

    #[test]
    fn reset_clears_all_rollups() {
        let mut c = rig();
        c.note_os_enter(SeedKind::Interrupt);
        for i in 0..10u64 {
            c.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        c.reset();
        let r = c.report();
        assert_eq!(r.total_accesses, 0);
        assert_eq!(r.total_misses, 0);
        assert_eq!(r.class_misses, [0; 3]);
        assert!(r.pairs.is_empty());
        assert!(r.matrix.is_empty());
        // And the engine still classifies correctly afterwards.
        c.access(0, Domain::Os);
        assert_eq!(c.report().misses_of(AttrClass::Compulsory), 1);
    }

    #[test]
    fn probe_sees_every_classified_miss() {
        use oslay_observe::MetricRegistry;
        let reg = Arc::new(MetricRegistry::new());
        let spans = (0..8u64).map(|i| {
            (
                i * 16,
                16,
                code(Domain::Os, i as u32, 0, CodeClass::MainSeq),
            )
        });
        let mut c = AttributedCache::with_probe(
            Cache::new(CacheConfig::new(64, 16, 1)),
            Arc::new(AddressMap::build(spans)),
            reg.clone(),
        );
        for i in 0..11u64 {
            c.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        c.access(0, Domain::Os); // hit: counted in no metric
        let _ = c.report();
        assert_eq!(reg.counter("cache.attr.compulsory"), 2);
        assert_eq!(reg.counter("cache.attr.conflict"), 9);
        assert_eq!(reg.counter("cache.attr.capacity"), 0);
        let sets = reg.histogram("cache.attr.set").expect("set histogram");
        assert_eq!(sets.count(), 11);
    }

    #[test]
    fn section_fields_expose_the_regression_surface() {
        let mut c = rig();
        for i in 0..30u64 {
            c.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        let fields = c.report().section_fields();
        let get = |k: &str| {
            fields
                .iter()
                .find(|(n, _)| n == k)
                .unwrap_or_else(|| panic!("missing field {k}"))
                .1
        };
        assert_eq!(get("misses"), 30.0);
        assert_eq!(get("compulsory") + get("capacity") + get("conflict"), 30.0);
        assert!(get("matrix_total") > 0.0);
        assert!(get("top_pair_count") > 0.0);
        assert!(get("census_miss.MainSeq") > 0.0);
    }
}
