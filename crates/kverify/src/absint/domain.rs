//! LRU-age abstract cache states: the must/may lattice elements.
//!
//! One [`AbsState`] abstracts the set of concrete cache contents that can
//! reach a program point:
//!
//! * the **must** component maps line → *upper* bound on its LRU age.
//!   A line present here is cached in *every* concrete state, at an age
//!   no greater than the bound — accessing it is a guaranteed hit.
//! * the **may** component maps line → *lower* bound on its LRU age,
//!   together with a per-set **unknown pool** bound: lines not explicitly
//!   tracked may still be cached (with age at least the pool bound). A
//!   line outside the may component whose set's pool is exhausted
//!   (`unknown == ways`) is cached in *no* concrete state — accessing it
//!   is a guaranteed miss.
//!
//! Both components share one transfer rule (the abstract image of an LRU
//! access): the touched line's age drops to zero and every same-set line
//! strictly younger than the touched line's old bound ages by one, with
//! eviction at `age >= ways`. The join is component-wise: must joins by
//! intersection with maximum age, may joins by union with minimum age,
//! pool bounds join by minimum — exactly the Ferdinand-style abstract
//! interpretation of set-associative LRU caches.

/// Abstract cache state at one program point.
///
/// Lines are dense `u32` ids assigned by the analysis; each id's set
/// index is supplied externally (`line_set`) so states stay small. Ages
/// are `u8`, which bounds supported associativity at 255 ways — far
/// beyond the paper's 1–8-way sweep.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AbsState {
    /// `(line, max-age)` sorted by line id; every entry is a guaranteed
    /// hit.
    must: Vec<(u32, u8)>,
    /// `(line, min-age)` sorted by line id; possible residents.
    may: Vec<(u32, u8)>,
    /// Per-set minimum age of *untracked* possible residents; `ways`
    /// means the pool is empty (no untracked line can be cached).
    unknown: Box<[u8]>,
}

fn age_of(entries: &[(u32, u8)], line: u32) -> Option<u8> {
    entries
        .binary_search_by_key(&line, |&(l, _)| l)
        .ok()
        .map(|i| entries[i].1)
}

fn set_age(entries: &mut Vec<(u32, u8)>, line: u32, age: u8) {
    match entries.binary_search_by_key(&line, |&(l, _)| l) {
        Ok(i) => entries[i].1 = age,
        Err(i) => entries.insert(i, (line, age)),
    }
}

impl AbsState {
    /// The havoc state: nothing guaranteed resident, anything possibly
    /// resident at any age. Used for operating-system invocation seeds,
    /// where arbitrary foreign code (and prior invocations) ran since.
    #[must_use]
    pub fn havoc(num_sets: usize) -> Self {
        Self {
            must: Vec::new(),
            may: Vec::new(),
            unknown: vec![0; num_sets].into_boxed_slice(),
        }
    }

    /// The must component's age bound for `line`, if guaranteed resident.
    #[must_use]
    pub fn must_age(&self, line: u32) -> Option<u8> {
        age_of(&self.must, line)
    }

    /// Whether `line` is guaranteed resident (an always-hit access).
    #[must_use]
    pub fn must_hit(&self, line: u32) -> bool {
        self.must_age(line).is_some()
    }

    /// Whether `line` (mapping to `set`) can be resident in any concrete
    /// state — explicitly tracked, or hiding in the set's unknown pool.
    #[must_use]
    pub fn may_contain(&self, line: u32, set: u32, ways: u8) -> bool {
        age_of(&self.may, line).is_some() || self.unknown[set as usize] < ways
    }

    /// Number of explicit may entries (diagnostics).
    #[must_use]
    pub fn may_len(&self) -> usize {
        self.may.len()
    }

    /// Abstract image of one LRU access to `line` in `set`.
    ///
    /// The shared age-shift rule, applied to each component with its own
    /// bound for the touched line: age 0 for the line itself; same-set
    /// lines strictly younger than the touched line's old bound age by
    /// one; eviction at `ways`. In the may component an untracked line
    /// inherits the pool bound, and the pool itself ages like any line.
    pub fn access(&mut self, line: u32, set: u32, ways: u8, line_set: &[u32]) {
        // Must: the touched line's *upper* bound (absent = ways, i.e.
        // treat as the oldest possible — everything younger may age).
        let h_must = age_of(&self.must, line).unwrap_or(ways);
        for entry in &mut self.must {
            if entry.0 != line && line_set[entry.0 as usize] == set && entry.1 < h_must {
                entry.1 += 1;
            }
        }
        self.must.retain(|&(_, age)| age < ways);
        set_age(&mut self.must, line, 0);

        // May: the touched line's *lower* bound (absent = pool bound).
        // Unlike must, aging is at `<=`: concrete ages within a set are
        // distinct, so a line sharing the touched line's lower bound
        // cannot actually sit below it — its minimum age rises too.
        let pool = self.unknown[set as usize];
        let h_may = age_of(&self.may, line).unwrap_or(pool);
        for entry in &mut self.may {
            if entry.0 != line && line_set[entry.0 as usize] == set && entry.1 <= h_may {
                entry.1 += 1;
            }
        }
        self.may.retain(|&(_, age)| age < ways);
        if pool <= h_may && pool < ways {
            self.unknown[set as usize] = pool + 1;
        }
        set_age(&mut self.may, line, 0);
    }

    /// Joins `other` into `self`; returns whether `self` changed.
    ///
    /// Must: intersection, maximum age. May: union, minimum age — a line
    /// explicit on one side only meets the other side's unknown pool.
    /// Pool bounds: per-set minimum. The result is normalized (pool
    /// subsumption and the per-set may cap), so the havoc state is
    /// absorbing and the join count per block bounds the lattice climb.
    pub fn join_from(&mut self, other: &Self, line_set: &[u32], ways: u8, may_cap: usize) -> bool {
        let mut must = Vec::with_capacity(self.must.len().min(other.must.len()));
        {
            let (mut i, mut j) = (0, 0);
            while i < self.must.len() && j < other.must.len() {
                let (la, aa) = self.must[i];
                let (lb, ab) = other.must[j];
                match la.cmp(&lb) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        must.push((la, aa.max(ab)));
                        i += 1;
                        j += 1;
                    }
                }
            }
        }

        let mut may = Vec::with_capacity(self.may.len().max(other.may.len()));
        {
            // An entry explicit on one side only meets the other side's
            // unknown pool (that side may hold the line untracked).
            let from_a = |may: &mut Vec<(u32, u8)>, la: u32, aa: u8| {
                let pool = other.unknown[line_set[la as usize] as usize];
                may.push((la, aa.min(pool)));
            };
            let from_b = |may: &mut Vec<(u32, u8)>, lb: u32, ab: u8| {
                let pool = self.unknown[line_set[lb as usize] as usize];
                may.push((lb, ab.min(pool)));
            };
            let (mut i, mut j) = (0, 0);
            loop {
                match (self.may.get(i).copied(), other.may.get(j).copied()) {
                    (None, None) => break,
                    (Some((la, aa)), None) => {
                        from_a(&mut may, la, aa);
                        i += 1;
                    }
                    (None, Some((lb, ab))) => {
                        from_b(&mut may, lb, ab);
                        j += 1;
                    }
                    (Some((la, aa)), Some((lb, ab))) => match la.cmp(&lb) {
                        std::cmp::Ordering::Equal => {
                            may.push((la, aa.min(ab)));
                            i += 1;
                            j += 1;
                        }
                        std::cmp::Ordering::Less => {
                            from_a(&mut may, la, aa);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            from_b(&mut may, lb, ab);
                            j += 1;
                        }
                    },
                }
            }
        }
        may.retain(|&(_, age)| age < ways);

        let unknown: Box<[u8]> = self
            .unknown
            .iter()
            .zip(other.unknown.iter())
            .map(|(&a, &b)| a.min(b))
            .collect();

        let mut joined = Self { must, may, unknown };
        joined.normalize(line_set, ways, may_cap);
        if joined == *self {
            false
        } else {
            *self = joined;
            true
        }
    }

    /// Normalization: drop may entries subsumed by their set's unknown
    /// pool, then enforce the per-set explicit-entry cap by folding the
    /// oldest entries into the pool (keeping the youngest explicit —
    /// they carry the always-miss precision).
    pub fn normalize(&mut self, line_set: &[u32], ways: u8, may_cap: usize) {
        let unknown = &self.unknown;
        self.may
            .retain(|&(l, age)| age < ways && age < unknown[line_set[l as usize] as usize]);
        if self.may.len() <= may_cap {
            return;
        }
        // Count explicit entries per set; fold overflow per set.
        let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for &(l, _) in &self.may {
            *counts.entry(line_set[l as usize]).or_insert(0) += 1;
        }
        for (&set, &n) in &counts {
            if n <= may_cap {
                continue;
            }
            // The set's entries, youngest first (ties by line id for
            // determinism); fold everything past the cap into the pool.
            let mut entries: Vec<(u8, u32)> = self
                .may
                .iter()
                .filter(|&&(l, _)| line_set[l as usize] == set)
                .map(|&(l, age)| (age, l))
                .collect();
            entries.sort_unstable();
            let folded_min = entries[may_cap..].iter().map(|&(age, _)| age).min();
            if let Some(min_age) = folded_min {
                let s = set as usize;
                self.unknown[s] = self.unknown[s].min(min_age);
                let keep: std::collections::HashSet<u32> =
                    entries[..may_cap].iter().map(|&(_, l)| l).collect();
                let pool = self.unknown[s];
                self.may.retain(|&(l, age)| {
                    line_set[l as usize] != set || (keep.contains(&l) && age < pool)
                });
            }
        }
    }

    /// Lattice-consistency check: every must entry is also possible (must
    /// ⊆ may) with its upper age bound no smaller than the may lower
    /// bound, and no component holds an evicted (`age >= ways`) entry.
    /// Returns the number of violations (0 = consistent).
    #[must_use]
    pub fn invariant_violations(&self, line_set: &[u32], ways: u8) -> u64 {
        let mut bad = 0;
        for &(line, ub) in &self.must {
            if ub >= ways {
                bad += 1;
                continue;
            }
            let set = line_set[line as usize];
            match age_of(&self.may, line) {
                Some(lb) => {
                    if lb > ub {
                        bad += 1;
                    }
                }
                None => {
                    if self.unknown[set as usize] > ub {
                        bad += 1;
                    }
                }
            }
        }
        bad += self.may.iter().filter(|&&(_, age)| age >= ways).count() as u64;
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Four lines: 0,1 in set 0; 2,3 in set 1.
    const LINE_SET: [u32; 4] = [0, 0, 1, 1];

    fn fresh() -> AbsState {
        AbsState::havoc(2)
    }

    #[test]
    fn access_makes_line_a_must_hit() {
        let mut s = fresh();
        assert!(!s.must_hit(0));
        s.access(0, 0, 1, &LINE_SET);
        assert!(s.must_hit(0));
        assert!(s.may_contain(0, 0, 1));
    }

    #[test]
    fn direct_mapped_conflict_evicts_must() {
        let mut s = fresh();
        s.access(0, 0, 1, &LINE_SET);
        s.access(1, 0, 1, &LINE_SET);
        // Same set, one way: line 0 evicted, line 1 resident.
        assert!(!s.must_hit(0));
        assert!(s.must_hit(1));
        // Other set untouched.
        s.access(2, 1, 1, &LINE_SET);
        assert!(s.must_hit(1));
        assert!(s.must_hit(2));
    }

    #[test]
    fn two_way_set_keeps_both() {
        let mut s = fresh();
        s.access(0, 0, 2, &LINE_SET);
        s.access(1, 0, 2, &LINE_SET);
        assert!(s.must_hit(0));
        assert!(s.must_hit(1));
        assert_eq!(s.must_age(0), Some(1));
        assert_eq!(s.must_age(1), Some(0));
    }

    #[test]
    fn may_pool_exhausts_after_ways_distinct_accesses() {
        let mut s = fresh();
        // Havoc: anything may be cached.
        assert!(s.may_contain(3, 1, 1));
        s.access(0, 0, 1, &LINE_SET);
        // Accessing an (absent-or-unknown) line ages the pool past the
        // single way: untracked lines in set 0 are now provably absent.
        assert!(!s.may_contain(1, 0, 1));
        assert!(s.may_contain(0, 0, 1));
        // Set 1's pool is untouched.
        assert!(s.may_contain(3, 1, 1));
    }

    #[test]
    fn join_must_intersects_with_max_age() {
        let mut a = fresh();
        a.access(0, 0, 2, &LINE_SET);
        a.access(1, 0, 2, &LINE_SET); // a: 0@1, 1@0
        let mut b = fresh();
        b.access(1, 0, 2, &LINE_SET);
        b.access(0, 0, 2, &LINE_SET); // b: 1@1, 0@0
        let changed = a.join_from(&b, &LINE_SET, 2, 8);
        assert!(changed);
        assert_eq!(a.must_age(0), Some(1));
        assert_eq!(a.must_age(1), Some(1));
    }

    #[test]
    fn join_with_havoc_is_absorbing() {
        let mut a = fresh();
        a.access(0, 0, 1, &LINE_SET);
        a.access(2, 1, 1, &LINE_SET);
        let havoc = AbsState::havoc(2);
        let changed = a.join_from(&havoc, &LINE_SET, 1, 8);
        assert!(changed);
        assert_eq!(a, havoc);
        // And joining anything further into havoc changes nothing.
        let mut h = AbsState::havoc(2);
        let mut rich = fresh();
        rich.access(1, 0, 1, &LINE_SET);
        assert!(!h.join_from(&rich, &LINE_SET, 1, 8));
    }

    #[test]
    fn join_keeps_miss_guarantee_only_when_both_sides_have_it() {
        // Side a proved set 0's pool empty; side b did not.
        let mut a = fresh();
        a.access(0, 0, 1, &LINE_SET);
        let b = fresh();
        let mut j = a.clone();
        j.join_from(&b, &LINE_SET, 1, 8);
        assert!(j.may_contain(1, 0, 1), "join must re-admit the pool");
        assert!(!a.may_contain(1, 0, 1));
    }

    #[test]
    fn may_cap_folds_oldest_entries_into_pool() {
        // 6 lines in one set, 4 ways, cap 2.
        let line_set = [0u32; 6];
        let mut s = AbsState::havoc(1);
        for l in 0..6u32 {
            s.access(l, 0, 4, &line_set);
        }
        s.normalize(&line_set, 4, 2);
        assert!(s.may_len() <= 2);
        // The youngest lines stay explicit; the fold keeps soundness:
        // every line is still possibly resident.
        for l in 0..6u32 {
            assert!(s.may_contain(l, 0, 4), "line {l} lost from may");
        }
    }

    #[test]
    fn invariants_hold_through_a_random_walk() {
        let line_set: Vec<u32> = (0..32).map(|i| i % 4).collect();
        let mut s = AbsState::havoc(4);
        let mut x = 0x9E37_79B9_u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let line = (x >> 33) as u32 % 32;
            s.access(line, line_set[line as usize], 2, &line_set);
            assert_eq!(s.invariant_violations(&line_set, 2), 0);
        }
    }
}
