//! Cache geometry.

use std::fmt;

/// Geometry of one cache: total size, line size, associativity.
///
/// The paper sweeps 4–32 KB total size (Figure 15), 16–128 byte lines
/// (Figure 17-a) and 1–8 way associativity (Figure 17-b); its default
/// evaluation cache is 8 KB direct-mapped with 32-byte lines.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct CacheConfig {
    size: u32,
    line: u32,
    ways: u32,
}

impl CacheConfig {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `size`, `line` and `ways` are powers of two,
    /// `line` holds at least one instruction word, `line <= size`, and
    /// `ways <= size / line`.
    #[must_use]
    pub fn new(size: u32, line: u32, ways: u32) -> Self {
        assert!(size.is_power_of_two(), "cache size must be a power of two");
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(
            ways.is_power_of_two(),
            "associativity must be a power of two"
        );
        assert!(
            line >= oslay_model::WORD_BYTES,
            "line shorter than an instruction word"
        );
        assert!(line <= size, "line larger than cache");
        assert!(ways <= size / line, "more ways than lines");
        Self { size, line, ways }
    }

    /// The paper's default evaluation cache: 8 KB, direct-mapped, 32-byte
    /// lines.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(8 * 1024, 32, 1)
    }

    /// The Alliant FX/8's per-processor instruction cache: 16 KB
    /// direct-mapped (Figure 1 uses this geometry).
    #[must_use]
    pub fn alliant() -> Self {
        Self::new(16 * 1024, 32, 1)
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line(&self) -> u32 {
        self.line
    }

    /// Associativity (1 = direct-mapped).
    #[must_use]
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> u32 {
        self.size / self.line / self.ways
    }

    /// Line-aligned address (the unit of caching and of miss
    /// classification).
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !u64::from(self.line - 1)
    }

    /// Set index of an address.
    #[must_use]
    pub fn set_of(&self, addr: u64) -> u32 {
        ((addr >> self.line_shift()) & u64::from(self.num_sets() - 1)) as u32
    }

    /// Shift that converts an address to its line key (`log2(line)`).
    ///
    /// The hot path precomputes this: `addr >> line_shift` is the line
    /// key, `key & set_mask` the set index, `key << line_shift` the
    /// line-aligned address — one decomposition, no division.
    #[must_use]
    pub fn line_shift(&self) -> u32 {
        self.line.trailing_zeros()
    }

    /// Mask extracting the set index from a line key
    /// (`num_sets - 1`; valid because set counts are powers of two).
    #[must_use]
    pub fn set_mask(&self) -> u64 {
        u64::from(self.num_sets() - 1)
    }

    /// Splits the fetch of `words` consecutive instruction words at `base`
    /// into per-line runs `(first word address, words in the run)`: the
    /// one place a block fetch becomes cache lines.
    ///
    /// Block layouts are byte-granular, so a fetch base need not be
    /// word-aligned: a run counts the words left in the line rounding up,
    /// and a partial trailing word still belongs to (and ends) its line.
    /// Only the first word of a run can change replacement state; the
    /// rest are guaranteed hits on the line it just made MRU.
    ///
    /// ```
    /// use oslay_cache::CacheConfig;
    ///
    /// // 32-byte lines: words at 30 and 34 straddle the boundary at 32.
    /// let runs: Vec<_> = CacheConfig::paper_default().line_runs(30, 3).collect();
    /// assert_eq!(runs, vec![(30, 1), (34, 2)]);
    /// ```
    #[inline]
    pub fn line_runs(self, base: u64, words: u32) -> impl Iterator<Item = (u64, u32)> {
        let word = u64::from(oslay_model::WORD_BYTES);
        let mask = u64::from(self.line - 1);
        let (mut addr, mut left) = (base, words);
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let in_line = (mask + 1 - (addr & mask)).div_ceil(word) as u32;
            let run = in_line.min(left);
            let first = addr;
            left -= run;
            addr += u64::from(run) * word;
            Some((first, run))
        })
    }

    /// The line keys (`addr >> line_shift`) the fetch of `words`
    /// consecutive instruction words at `base` touches, in fetch order:
    /// the keys of [`CacheConfig::line_runs`]' run starts, for callers
    /// that need only which lines a fetch touches, not how many words
    /// each run holds.
    ///
    /// A line holds at least one word, so consecutive words never skip a
    /// line: the keys are exactly the range from the first word's key to
    /// the last word's.
    ///
    /// ```
    /// use oslay_cache::CacheConfig;
    ///
    /// // 32-byte lines: words at 30, 34 and 38 touch lines 0 and 1.
    /// assert_eq!(CacheConfig::paper_default().line_keys(30, 3), 0..2);
    /// ```
    #[inline]
    #[must_use]
    pub fn line_keys(self, base: u64, words: u32) -> std::ops::Range<u64> {
        let shift = self.line_shift();
        let first = base >> shift;
        match words.checked_sub(1) {
            None => first..first,
            Some(last_word) => {
                let last = base + u64::from(last_word) * u64::from(oslay_model::WORD_BYTES);
                first..(last >> shift) + 1
            }
        }
    }

    /// Returns this geometry with a different total size.
    #[must_use]
    pub fn with_size(self, size: u32) -> Self {
        Self::new(size, self.line, self.ways.min(size / self.line))
    }

    /// Returns this geometry with a different associativity.
    #[must_use]
    pub fn with_ways(self, ways: u32) -> Self {
        Self::new(self.size, self.line, ways)
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}KB/{}B/{}-way", self.size / 1024, self.line, self.ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        let c = CacheConfig::paper_default();
        assert_eq!(c.size(), 8192);
        assert_eq!(c.line(), 32);
        assert_eq!(c.ways(), 1);
        assert_eq!(c.num_sets(), 256);
        assert_eq!(c.to_string(), "8KB/32B/1-way");
    }

    #[test]
    fn alliant_geometry_matches_the_fx8() {
        let c = CacheConfig::alliant();
        assert_eq!(c.size(), 16 * 1024);
        assert_eq!(c.ways(), 1);
        assert_eq!(c.num_sets() * c.line(), c.size());
    }

    #[test]
    fn set_mapping_wraps_at_cache_size() {
        let c = CacheConfig::paper_default();
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(31), 0);
        assert_eq!(c.set_of(32), 1);
        // Two addresses one cache-size apart conflict (direct-mapped).
        assert_eq!(c.set_of(100), c.set_of(100 + 8192));
    }

    #[test]
    fn line_addr_aligns_down() {
        let c = CacheConfig::paper_default();
        assert_eq!(c.line_addr(0), 0);
        assert_eq!(c.line_addr(33), 32);
        assert_eq!(c.line_addr(63), 32);
    }

    #[test]
    fn with_ways_changes_sets() {
        let c = CacheConfig::paper_default().with_ways(4);
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.ways(), 4);
    }

    #[test]
    fn with_size_clamps_ways() {
        let c = CacheConfig::new(8192, 32, 8).with_size(512);
        assert!(c.ways() <= c.size() / c.line());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = CacheConfig::new(3000, 32, 1);
    }

    #[test]
    #[should_panic(expected = "line shorter than an instruction word")]
    fn sub_word_line_rejected() {
        let _ = CacheConfig::new(64, 2, 1);
    }

    #[test]
    fn line_keys_are_the_line_run_starts() {
        use oslay_model::rng::Rng;
        let mut rng = Rng::seed_from_u64(0x11E5);
        for (size, line) in [(64u32, 4u32), (1024, 16), (8192, 32), (8192, 128)] {
            let cfg = CacheConfig::new(size, line, 1);
            for _ in 0..2_000 {
                let base = u64::from(rng.gen_range(0..4 * size));
                let words = rng.gen_range(0..40u32);
                let starts: Vec<u64> = cfg
                    .line_runs(base, words)
                    .map(|(addr, _)| addr >> cfg.line_shift())
                    .collect();
                let keys: Vec<u64> = cfg.line_keys(base, words).collect();
                assert_eq!(keys, starts, "{cfg} base {base} words {words}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "more ways than lines")]
    fn too_many_ways_rejected() {
        let _ = CacheConfig::new(64, 32, 4);
    }
}
