//! The layout representation: block → address, with branch-stretch
//! accounting.

use std::error::Error;
use std::fmt;

use oslay_model::{fetch_words, BlockId, Program, WORD_BYTES};
use oslay_profile::Profile;

/// Errors detected when finalizing a layout.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum LayoutError {
    /// A block was never placed.
    Unplaced(BlockId),
    /// Two blocks overlap in memory.
    Overlap {
        /// First block (lower address).
        a: BlockId,
        /// Second block.
        b: BlockId,
    },
    /// An assembled block's effective size is not its block size plus a
    /// valid stretch (zero or one escape-branch word).
    BadSpan(BlockId),
    /// An assembled block claims fall-through adjacency (zero stretch)
    /// but its fall-through successor is placed elsewhere.
    MissingStretch(BlockId),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Unplaced(b) => write!(f, "block {b} was never placed"),
            LayoutError::Overlap { a, b } => write!(f, "blocks {a} and {b} overlap"),
            LayoutError::BadSpan(b) => {
                write!(f, "block {b} has an invalid effective size")
            }
            LayoutError::MissingStretch(b) => write!(
                f,
                "block {b} has no escape branch but its fall-through is not adjacent"
            ),
        }
    }
}

impl Error for LayoutError {}

/// A finished code layout: every block of one program has an address.
///
/// Moving a block away from its natural fall-through successor costs one
/// extra instruction word (an unconditional branch). That *stretch* is
/// charged exactly — a block followed immediately by its fall-through pays
/// nothing — so [`Layout::dynamic_overhead`] reproduces the dynamic code
/// growth the paper measures at about 2% (Section 4.3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Layout {
    name: String,
    addr: Vec<u64>,
    /// Effective size in bytes (block size + stretch).
    bytes: Vec<u32>,
    /// Number of word fetches per block execution.
    words: Vec<u32>,
    /// Stretch bytes per block.
    stretch: Vec<u32>,
    span_end: u64,
}

impl Layout {
    /// The layout's name (e.g. `"Base"`, `"OptS"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Start address of a block.
    #[must_use]
    pub fn addr(&self, block: BlockId) -> u64 {
        self.addr[block.index()]
    }

    /// Effective size of a block in bytes, including stretch.
    #[must_use]
    pub fn effective_size(&self, block: BlockId) -> u32 {
        self.bytes[block.index()]
    }

    /// Number of instruction-word fetches one execution of `block` issues.
    #[must_use]
    pub fn fetch_words(&self, block: BlockId) -> u32 {
        self.words[block.index()]
    }

    /// Stretch (added branch bytes) of a block.
    #[must_use]
    pub fn stretch(&self, block: BlockId) -> u32 {
        self.stretch[block.index()]
    }

    /// Highest used address plus one.
    #[must_use]
    pub fn span_end(&self) -> u64 {
        self.span_end
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.addr.len()
    }

    /// Dynamic code-size overhead of the layout under a profile: extra
    /// words fetched (stretch) divided by baseline words fetched.
    #[must_use]
    pub fn dynamic_overhead(&self, program: &Program, profile: &Profile) -> f64 {
        let mut base_words = 0u64;
        let mut extra_words = 0u64;
        for (id, block) in program.blocks() {
            let n = profile.node_weight(id);
            if n == 0 {
                continue;
            }
            base_words += n * u64::from(fetch_words(block.size()));
            let with_stretch = fetch_words(block.size() + self.stretch(id));
            extra_words += n * u64::from(with_stretch - fetch_words(block.size()));
        }
        if base_words == 0 {
            return 0.0;
        }
        extra_words as f64 / base_words as f64
    }

    /// Static code size in bytes (sum of effective sizes).
    #[must_use]
    pub fn static_bytes(&self) -> u64 {
        self.bytes.iter().map(|&b| u64::from(b)).sum()
    }

    /// Materializes a layout from an explicit per-block address map —
    /// the way a searched `LayoutView` becomes a placed, simulatable
    /// layout again.
    ///
    /// [`LayoutBuilder`] charges stretch *online* while placing; an
    /// address map produced by mutating a finished layout already carries
    /// its stretch inside each effective size, so this constructor
    /// validates the accounting instead of re-deriving it. For every
    /// block, `bytes[i]` must equal the block's size plus a stretch of
    /// zero or one escape-branch word ([`WORD_BYTES`]), and a block with
    /// a fall-through successor must either pay the stretch word or have
    /// that successor placed exactly at its end. Mutations that move
    /// whole fall-through-glued runs (the search engine's atoms) preserve
    /// this by construction; anything else is rejected rather than
    /// silently mis-costed.
    ///
    /// # Errors
    ///
    /// [`LayoutError::BadSpan`] for an invalid effective size,
    /// [`LayoutError::MissingStretch`] for a broken unstretch'd
    /// fall-through, [`LayoutError::Overlap`] for intersecting spans.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the program's block
    /// count.
    pub fn assemble(
        program: &Program,
        name: impl Into<String>,
        addr: &[u64],
        bytes: &[u32],
    ) -> Result<Layout, LayoutError> {
        let n = program.num_blocks();
        assert_eq!(addr.len(), n, "one address per block");
        assert_eq!(bytes.len(), n, "one effective size per block");

        let mut words = vec![0u32; n];
        let mut stretch = vec![0u32; n];
        for (id, block) in program.blocks() {
            let i = id.index();
            let s = bytes[i]
                .checked_sub(block.size())
                .ok_or(LayoutError::BadSpan(id))?;
            if s != 0 && s != WORD_BYTES {
                return Err(LayoutError::BadSpan(id));
            }
            if s == 0 {
                if let Some(ft) = block.fallthrough() {
                    if addr[ft.index()] != addr[i] + u64::from(block.size()) {
                        return Err(LayoutError::MissingStretch(id));
                    }
                }
            }
            stretch[i] = s;
            words[i] = fetch_words(bytes[i]);
        }

        let mut by_addr: Vec<BlockId> = (0..n).map(BlockId::new).collect();
        by_addr.sort_by_key(|b| addr[b.index()]);
        for pair in by_addr.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let end_a = addr[a.index()] + u64::from(bytes[a.index()]);
            if end_a > addr[b.index()] {
                return Err(LayoutError::Overlap { a, b });
            }
        }
        let span_end = by_addr
            .last()
            .map(|&b| addr[b.index()] + u64::from(bytes[b.index()]))
            .unwrap_or(0);

        Ok(Layout {
            name: name.into(),
            addr: addr.to_vec(),
            bytes: bytes.to_vec(),
            words,
            stretch,
            span_end,
        })
    }
}

/// Builds a [`Layout`] by placing blocks in memory order.
///
/// [`LayoutBuilder::place`] appends a block at the cursor;
/// [`LayoutBuilder::skip_to`] moves the cursor forward (leaving a gap);
/// [`LayoutBuilder::place_at`] jumps anywhere. Stretch is resolved online:
/// when a placed block's natural fall-through is the very next placement,
/// no branch is charged; any other continuation charges one word to the
/// earlier block (its escape branch) before the next address is assigned.
#[derive(Debug)]
pub struct LayoutBuilder<'p> {
    program: &'p Program,
    name: String,
    cursor: u64,
    addr: Vec<Option<u64>>,
    stretch: Vec<u32>,
    /// Last sequentially placed block whose stretch is still undecided.
    pending: Option<BlockId>,
}

impl<'p> LayoutBuilder<'p> {
    /// Starts a layout at base address `base`.
    #[must_use]
    pub fn new(program: &'p Program, name: impl Into<String>, base: u64) -> Self {
        Self {
            program,
            name: name.into(),
            cursor: base,
            addr: vec![None; program.num_blocks()],
            stretch: vec![0; program.num_blocks()],
            pending: None,
        }
    }

    /// Upper bound on the next placement address: the cursor plus the
    /// pending block's potential stretch word. Use this for region
    /// bookkeeping (e.g. logical-cache window checks).
    #[must_use]
    pub fn cursor(&self) -> u64 {
        let pending_stretch = self
            .pending
            .filter(|&b| self.program.block(b).fallthrough().is_some())
            .map_or(0, |_| u64::from(WORD_BYTES));
        self.cursor + pending_stretch
    }

    fn resolve_pending(&mut self, next: Option<BlockId>) {
        if let Some(prev) = self.pending.take() {
            let ft = self.program.block(prev).fallthrough();
            if ft.is_some() && ft != next {
                self.stretch[prev.index()] = WORD_BYTES;
                self.cursor += u64::from(WORD_BYTES);
            }
        }
    }

    /// Places `block` at the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the block is already placed.
    pub fn place(&mut self, block: BlockId) {
        assert!(
            self.addr[block.index()].is_none(),
            "block {block} placed twice"
        );
        self.resolve_pending(Some(block));
        self.addr[block.index()] = Some(self.cursor);
        self.cursor += u64::from(self.program.block(block).size());
        self.pending = Some(block);
    }

    /// Moves the cursor forward to `addr`, leaving a gap.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is behind the (stretch-resolved) cursor.
    pub fn skip_to(&mut self, addr: u64) {
        self.resolve_pending(None);
        assert!(addr >= self.cursor, "cannot move the cursor backwards");
        self.cursor = addr;
    }

    /// Places `block` at an explicit address and continues the cursor from
    /// its end (the address may be anywhere, including before the cursor).
    ///
    /// # Panics
    ///
    /// Panics if the block is already placed.
    pub fn place_at(&mut self, block: BlockId, addr: u64) {
        assert!(
            self.addr[block.index()].is_none(),
            "block {block} placed twice"
        );
        self.resolve_pending(None);
        self.cursor = addr;
        self.addr[block.index()] = Some(addr);
        self.cursor += u64::from(self.program.block(block).size());
        self.pending = Some(block);
    }

    /// Finalizes the layout.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if a block is unplaced or two blocks
    /// overlap.
    pub fn finish(mut self) -> Result<Layout, LayoutError> {
        self.resolve_pending(None);
        let n = self.program.num_blocks();
        let mut addr = vec![0u64; n];
        for (i, slot) in self.addr.iter().enumerate() {
            match slot {
                Some(a) => addr[i] = *a,
                None => return Err(LayoutError::Unplaced(BlockId::new(i))),
            }
        }

        let mut bytes = vec![0u32; n];
        let mut words = vec![0u32; n];
        for (id, block) in self.program.blocks() {
            let b = block.size() + self.stretch[id.index()];
            bytes[id.index()] = b;
            words[id.index()] = fetch_words(b);
        }

        let mut by_addr: Vec<BlockId> = (0..n).map(BlockId::new).collect();
        by_addr.sort_by_key(|b| addr[b.index()]);
        for pair in by_addr.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let end_a = addr[a.index()] + u64::from(bytes[a.index()]);
            if end_a > addr[b.index()] {
                return Err(LayoutError::Overlap { a, b });
            }
        }

        let span_end = by_addr
            .last()
            .map(|&b| addr[b.index()] + u64::from(bytes[b.index()]))
            .unwrap_or(0);

        Ok(Layout {
            name: self.name,
            addr,
            bytes,
            words,
            stretch: self.stretch,
            span_end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::{Domain, ProgramBuilder, SeedKind, Terminator};

    fn chain_program() -> (Program, Vec<BlockId>) {
        let mut b = ProgramBuilder::new(Domain::Os);
        let r = b.begin_routine("f");
        let x = b.add_block(10);
        let y = b.add_block(20);
        let z = b.add_block(30);
        b.terminate(x, Terminator::Jump(y));
        b.terminate(y, Terminator::Jump(z));
        b.terminate(z, Terminator::Return);
        b.end_routine();
        for kind in SeedKind::ALL {
            b.set_seed(kind, r);
        }
        (b.build().unwrap(), vec![x, y, z])
    }

    #[test]
    fn sequential_placement_is_tight_and_stretch_free() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        for &b in &blocks {
            lb.place(b);
        }
        let l = lb.finish().unwrap();
        assert_eq!(l.addr(blocks[0]), 0);
        assert_eq!(l.addr(blocks[1]), 10);
        assert_eq!(l.addr(blocks[2]), 30);
        assert_eq!(l.stretch(blocks[0]), 0);
        assert_eq!(l.stretch(blocks[1]), 0);
        assert_eq!(l.span_end(), 60);
    }

    #[test]
    fn reordered_placement_charges_stretch() {
        let (p, blocks) = chain_program();
        let (x, y, z) = (blocks[0], blocks[1], blocks[2]);
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        lb.place(y); // y falls through to z originally
        lb.place(x); // ...but x comes next: y is stretched
        lb.place(z); // x falls through to y, not z: x is stretched
        let l = lb.finish().unwrap();
        assert_eq!(l.stretch(y), WORD_BYTES);
        assert_eq!(l.stretch(x), WORD_BYTES);
        assert_eq!(l.stretch(z), 0, "z has no fall-through");
        assert_eq!(l.addr(y), 0);
        assert_eq!(l.addr(x), 24); // 20 + 4 stretch
        assert_eq!(l.addr(z), 38); // 24 + 10 + 4 stretch
    }

    #[test]
    fn unplaced_block_is_an_error() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        lb.place(blocks[0]);
        lb.place(blocks[1]);
        assert_eq!(lb.finish().unwrap_err(), LayoutError::Unplaced(blocks[2]));
    }

    #[test]
    fn overlap_is_detected() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        lb.place_at(blocks[0], 0);
        lb.place_at(blocks[1], 4); // overlaps x (size 10)
        lb.place_at(blocks[2], 100);
        assert!(matches!(
            lb.finish().unwrap_err(),
            LayoutError::Overlap { .. }
        ));
    }

    #[test]
    fn skip_to_breaks_adjacency() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        lb.place(blocks[0]);
        lb.skip_to(1000);
        lb.place(blocks[1]);
        lb.place(blocks[2]);
        let l = lb.finish().unwrap();
        assert_eq!(l.addr(blocks[1]), 1000);
        assert_eq!(l.stretch(blocks[0]), WORD_BYTES);
        assert_eq!(l.stretch(blocks[1]), 0);
    }

    #[test]
    fn cursor_is_conservative_about_pending_stretch() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        lb.place(blocks[0]); // size 10, may need a stretch word
        assert_eq!(lb.cursor(), 14);
        lb.place(blocks[1]); // adjacent fall-through: stretch resolved to 0
        assert_eq!(lb.cursor(), 34, "y(20) at 10, pending stretch 4");
        let l = {
            let mut lb = lb;
            lb.place(blocks[2]);
            lb.finish().unwrap()
        };
        assert_eq!(l.stretch(blocks[0]), 0);
    }

    #[test]
    fn place_at_can_go_backwards() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 1000);
        lb.place(blocks[1]);
        lb.place(blocks[2]);
        lb.place_at(blocks[0], 0);
        let l = lb.finish().unwrap();
        assert_eq!(l.addr(blocks[0]), 0);
        assert_eq!(l.addr(blocks[1]), 1000);
    }

    #[test]
    fn place_at_chains_adjacency_for_following_place() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        lb.place_at(blocks[0], 100);
        lb.place(blocks[1]); // x's fall-through: adjacent, no stretch
        lb.place(blocks[2]);
        let l = lb.finish().unwrap();
        assert_eq!(l.addr(blocks[1]), 110);
        assert_eq!(l.stretch(blocks[0]), 0);
        assert_eq!(l.stretch(blocks[1]), 0);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_placement_panics() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        lb.place(blocks[0]);
        lb.place(blocks[0]);
    }

    /// Round-trips a finished layout through its raw address map.
    fn reassemble(p: &Program, l: &Layout) -> Result<Layout, LayoutError> {
        let n = l.num_blocks();
        let addr: Vec<u64> = (0..n).map(|i| l.addr(BlockId::new(i))).collect();
        let bytes: Vec<u32> = (0..n).map(|i| l.effective_size(BlockId::new(i))).collect();
        Layout::assemble(p, l.name(), &addr, &bytes)
    }

    #[test]
    fn assemble_round_trips_builder_layouts() {
        let (p, blocks) = chain_program();
        // A stretched layout exercises both stretch cases.
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        lb.place(blocks[1]);
        lb.place(blocks[0]);
        lb.place(blocks[2]);
        let l = lb.finish().unwrap();
        let r = reassemble(&p, &l).expect("honest address map assembles");
        assert_eq!(r, l, "assemble reproduces the builder's layout exactly");
    }

    #[test]
    fn assemble_rejects_broken_fallthrough_adjacency() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        for &b in &blocks {
            lb.place(b);
        }
        let l = lb.finish().unwrap();
        let n = l.num_blocks();
        let mut addr: Vec<u64> = (0..n).map(|i| l.addr(BlockId::new(i))).collect();
        let bytes: Vec<u32> = (0..n).map(|i| l.effective_size(BlockId::new(i))).collect();
        // Move y away from x's end without charging x a stretch word.
        addr[blocks[1].index()] = 1000;
        assert_eq!(
            Layout::assemble(&p, "t", &addr, &bytes).unwrap_err(),
            LayoutError::MissingStretch(blocks[0])
        );
    }

    #[test]
    fn assemble_rejects_bad_spans_and_overlaps() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        for &b in &blocks {
            lb.place(b);
        }
        let l = lb.finish().unwrap();
        let n = l.num_blocks();
        let addr: Vec<u64> = (0..n).map(|i| l.addr(BlockId::new(i))).collect();
        let mut bytes: Vec<u32> = (0..n).map(|i| l.effective_size(BlockId::new(i))).collect();
        bytes[blocks[2].index()] += 1; // not a whole stretch word
        assert_eq!(
            Layout::assemble(&p, "t", &addr, &bytes).unwrap_err(),
            LayoutError::BadSpan(blocks[2])
        );
        let bad_addr = vec![0u64, 4, 100];
        let sizes: Vec<u32> = (0..n).map(|i| l.effective_size(BlockId::new(i))).collect();
        assert!(matches!(
            Layout::assemble(&p, "t", &bad_addr, &sizes).unwrap_err(),
            LayoutError::Overlap { .. } | LayoutError::MissingStretch(_)
        ));
    }

    #[test]
    fn dynamic_overhead_zero_for_empty_profile() {
        let (p, blocks) = chain_program();
        let mut lb = LayoutBuilder::new(&p, "t", 0);
        for &b in &blocks {
            lb.place(b);
        }
        let l = lb.finish().unwrap();
        let profile = Profile::empty(&p);
        assert_eq!(l.dynamic_overhead(&p, &profile), 0.0);
    }
}
