//! The paper's operating-system layout: `OptS` and `OptL` (Section 4).

use oslay_model::{BlockId, Program, WORD_BYTES};
use oslay_profile::{LoopAnalysis, Profile};

use crate::{build_sequences, Layout, LogicalCacheAllocator, SequenceSet, ThresholdSchedule};

/// Placement class of a block in an optimized layout — the categories of
/// the paper's Figure 13.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum BlockClass {
    /// Pulled into the SelfConfFree area (globally hottest blocks).
    SelfConfFree,
    /// In a sequence with `ExecThresh ≥ 0.01%`.
    MainSeq,
    /// In a less popular sequence.
    OtherSeq,
    /// Extracted into the loop area (OptL).
    Loop,
    /// Never executed; placed in SCF windows of other logical caches and
    /// after the hot region.
    Cold,
}

impl BlockClass {
    /// Short label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BlockClass::SelfConfFree => "SelfConfFree",
            BlockClass::MainSeq => "MainSeq",
            BlockClass::OtherSeq => "OtherSeq",
            BlockClass::Loop => "Loops",
            BlockClass::Cold => "Cold",
        }
    }
}

/// Parameters of the OS layout optimization.
#[derive(Clone, Debug)]
pub struct OptParams {
    /// Target cache size in bytes (logical-cache granularity).
    pub cache_size: u32,
    /// SelfConfFree area budget in bytes: the globally hottest
    /// (loop-flattened) blocks are pulled out of the sequences and placed
    /// into the area, in order, until it fills (Section 4.2). `None`
    /// disables the area.
    ///
    /// The paper parameterizes this by an execution-frequency cut-off;
    /// cut-off and area size are in bijection on a given profile, and the
    /// paper reports its 3.0% / 2.0% / 1.0% cut-offs yield areas of
    /// 376 / 1286 / 2514 bytes, recommending "a 1-Kbyte SelfConfFree area
    /// for 4-16 Kbyte caches". The default budget is the paper's 2.0%
    /// area: 1286 bytes.
    pub scf_budget: Option<u32>,
    /// Threshold schedule for sequence construction.
    pub schedule: ThresholdSchedule,
    /// Extract loops with at least `min_loop_iters` iterations per
    /// invocation into a contiguous loop area (`OptL`, Section 4.3).
    pub extract_loops: bool,
    /// Minimum measured iterations per invocation for loop extraction
    /// (the paper uses 6).
    pub min_loop_iters: f64,
}

impl OptParams {
    /// `OptS`: sequences + SelfConfFree area, no loop extraction.
    #[must_use]
    pub fn opt_s(cache_size: u32) -> Self {
        Self {
            cache_size,
            scf_budget: Some(Self::PAPER_SCF_BYTES),
            schedule: ThresholdSchedule::paper(),
            extract_loops: false,
            min_loop_iters: 6.0,
        }
    }

    /// The paper's 2.0%-cut-off SelfConfFree area size (1286 bytes, "about
    /// 1 Kbyte").
    pub const PAPER_SCF_BYTES: u32 = 1286;

    /// `OptL`: `OptS` plus the simple loop optimization.
    #[must_use]
    pub fn opt_l(cache_size: u32) -> Self {
        Self {
            extract_loops: true,
            ..Self::opt_s(cache_size)
        }
    }

    /// Replaces the SCF budget (Figure 16's sweep: `None`, 376, 1286,
    /// 2514 bytes — the paper's 3.0% / 2.0% / 1.0% cut-off areas).
    #[must_use]
    pub fn with_scf_budget(mut self, budget: Option<u32>) -> Self {
        self.scf_budget = budget;
        self
    }
}

/// An optimized layout plus the per-block placement classes that the
/// evaluation's Figure 13 breakdown needs.
#[derive(Clone, Debug)]
pub struct OptLayout {
    /// The memory layout.
    pub layout: Layout,
    /// Placement class per block.
    pub classes: Vec<BlockClass>,
    /// Bytes reserved for the SelfConfFree area (0 when disabled).
    pub scf_bytes: u64,
    /// The sequences the layout was built from.
    pub sequences: SequenceSet,
}

impl OptLayout {
    /// The class of one block.
    #[must_use]
    pub fn class(&self, block: BlockId) -> BlockClass {
        self.classes[block.index()]
    }
}

/// Selects the SelfConfFree residents: the hottest loop-flattened blocks,
/// in order, until the byte budget fills. The budget is clamped to half
/// the cache size.
pub(crate) fn select_scf_blocks(
    program: &Program,
    profile: &Profile,
    loops: &LoopAnalysis,
    budget: Option<u32>,
    cache_size: u32,
) -> (Vec<BlockId>, u64) {
    let Some(budget) = budget else {
        return (Vec::new(), 0);
    };
    let budget = u64::from(budget.min(cache_size / 2));
    let mut candidates: Vec<(f64, BlockId)> = profile
        .executed_blocks()
        .map(|b| (loops.flattened_weight(b, profile), b))
        .collect();
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut blocks = Vec::new();
    let mut bytes = 0u64;
    for (_, b) in candidates {
        let upper = u64::from(program.block(b).size() + WORD_BYTES);
        if bytes + upper > budget {
            break;
        }
        bytes += upper;
        blocks.push(b);
    }
    (blocks, bytes)
}

/// Builds the paper's optimized OS layout.
///
/// Steps (Sections 4.1–4.3): grow sequences under the descending threshold
/// schedule; pull the globally hottest (loop-flattened) blocks into the
/// SelfConfFree area at the bottom of logical cache 0; optionally extract
/// high-iteration loops into a loop area at the end of the sequences;
/// fill every other logical cache's SelfConfFree window, and the tail of
/// memory, with never-executed code.
///
/// # Panics
///
/// Panics only on internal errors (the construction places every block).
#[must_use]
pub fn optimize_os(
    program: &Program,
    profile: &Profile,
    loops: &LoopAnalysis,
    params: &OptParams,
) -> OptLayout {
    let sequences = build_sequences(program, profile, &params.schedule);
    let mut classes = vec![BlockClass::Cold; program.num_blocks()];

    // --- SelfConfFree selection (Section 4.2) ---------------------------
    let (scf_blocks, scf_bytes) = select_scf_blocks(
        program,
        profile,
        loops,
        params.scf_budget,
        params.cache_size,
    );
    for &b in &scf_blocks {
        classes[b.index()] = BlockClass::SelfConfFree;
    }

    // --- Loop extraction (Section 4.3) ----------------------------------
    let mut loop_blocks: Vec<BlockId> = Vec::new();
    let mut in_loop_area = vec![false; program.num_blocks()];
    if params.extract_loops {
        for l in loops.executed_loops() {
            if l.iterations_per_entry() < params.min_loop_iters {
                continue;
            }
            for &b in &l.body {
                if profile.node_weight(b) == 0
                    || in_loop_area[b.index()]
                    || classes[b.index()] == BlockClass::SelfConfFree
                {
                    continue;
                }
                in_loop_area[b.index()] = true;
            }
        }
        // Keep the order the blocks had in the sequences ("in the same
        // order, in a contiguous area at the end of the sequences").
        for (_, b) in sequences.blocks_in_order() {
            if in_loop_area[b.index()] {
                loop_blocks.push(b);
                classes[b.index()] = BlockClass::Loop;
            }
        }
    }

    // --- Placement (Figure 10) -------------------------------------------
    let name = if params.extract_loops { "OptL" } else { "OptS" };
    let mut alloc = LogicalCacheAllocator::new(program, name, params.cache_size, scf_bytes);
    if !scf_blocks.is_empty() {
        alloc.place_scf(&scf_blocks);
    }
    for (seq_idx, b) in sequences.blocks_in_order() {
        if classes[b.index()] == BlockClass::SelfConfFree || in_loop_area[b.index()] {
            continue; // pulled out of the sequences
        }
        let seq = &sequences.sequences()[seq_idx];
        classes[b.index()] = if seq.exec_thresh >= ThresholdSchedule::MAIN_SEQ_EXEC_THRESH {
            BlockClass::MainSeq
        } else {
            BlockClass::OtherSeq
        };
        alloc.place_hot(b);
    }
    for &b in &loop_blocks {
        alloc.place_hot(b);
    }
    // Never-executed code: window fill first, then the tail.
    let cold: Vec<BlockId> = program
        .source_order()
        .filter(|&b| !sequences.contains(b))
        .collect();
    alloc.fill_cold(cold);

    let layout = alloc.finish().expect("optimized layout places all blocks");
    OptLayout {
        layout,
        classes,
        scf_bytes,
        sequences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::synth::{generate_kernel, KernelParams, Scale};
    use oslay_trace::{standard_workloads, Engine, EngineConfig};

    fn setup() -> (Program, Profile, LoopAnalysis) {
        let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 99));
        let specs = standard_workloads(&k.tables);
        let t = Engine::new(&k.program, None, &specs[3], EngineConfig::new(8)).run(60_000);
        let p = Profile::collect(&k.program, &t);
        let la = LoopAnalysis::analyze(&k.program, &p);
        (k.program, p, la)
    }

    #[test]
    fn opts_layout_is_valid_and_complete() {
        let (program, profile, loops) = setup();
        let opt = optimize_os(&program, &profile, &loops, &OptParams::opt_s(8192));
        assert_eq!(opt.layout.num_blocks(), program.num_blocks());
        assert_eq!(opt.layout.name(), "OptS");
    }

    #[test]
    fn scf_blocks_are_the_hottest_and_sit_low() {
        let (program, profile, loops) = setup();
        let opt = optimize_os(&program, &profile, &loops, &OptParams::opt_s(8192));
        let scf: Vec<BlockId> = (0..program.num_blocks())
            .map(BlockId::new)
            .filter(|&b| opt.class(b) == BlockClass::SelfConfFree)
            .collect();
        assert!(!scf.is_empty(), "expected a nonempty SCF area");
        for &b in &scf {
            assert!(opt.layout.addr(b) < opt.scf_bytes);
        }
        // No non-SCF executed block may share SCF cache offsets.
        for b in profile.executed_blocks() {
            if opt.class(b) == BlockClass::SelfConfFree {
                continue;
            }
            let offset = opt.layout.addr(b) % 8192;
            assert!(
                offset >= opt.scf_bytes,
                "executed block {b} ({:?}) at SCF offset {offset}",
                opt.class(b)
            );
        }
    }

    #[test]
    fn cold_code_fills_other_windows() {
        let (program, profile, loops) = setup();
        for params in [OptParams::opt_s(8192), OptParams::opt_l(8192)] {
            let opt = optimize_os(&program, &profile, &loops, &params);
            let any_cold_in_window = (0..program.num_blocks()).map(BlockId::new).any(|b| {
                opt.class(b) == BlockClass::Cold
                    && opt.layout.addr(b) >= 8192
                    && opt.layout.addr(b) % 8192 < opt.scf_bytes
            });
            assert!(
                any_cold_in_window,
                "{}: SCF windows of later logical caches should hold cold code",
                opt.layout.name()
            );
        }
    }

    #[test]
    fn optl_extracts_loop_blocks_after_sequences() {
        let (program, profile, loops) = setup();
        let opt = optimize_os(&program, &profile, &loops, &OptParams::opt_l(8192));
        assert_eq!(opt.layout.name(), "OptL");
        let loop_blocks: Vec<BlockId> = (0..program.num_blocks())
            .map(BlockId::new)
            .filter(|&b| opt.class(b) == BlockClass::Loop)
            .collect();
        assert!(!loop_blocks.is_empty(), "expected extracted loops (bzero)");
        // Loop area comes after every sequence block.
        let max_seq = (0..program.num_blocks())
            .map(BlockId::new)
            .filter(|&b| matches!(opt.class(b), BlockClass::MainSeq | BlockClass::OtherSeq))
            .map(|b| opt.layout.addr(b))
            .max()
            .unwrap();
        let min_loop = loop_blocks
            .iter()
            .map(|&b| opt.layout.addr(b))
            .min()
            .unwrap();
        assert!(
            min_loop > max_seq,
            "loop area ({min_loop}) must follow sequences ({max_seq})"
        );
    }

    #[test]
    fn no_scf_budget_means_no_scf_area() {
        let (program, profile, loops) = setup();
        let params = OptParams::opt_s(8192).with_scf_budget(None);
        let opt = optimize_os(&program, &profile, &loops, &params);
        assert_eq!(opt.scf_bytes, 0);
        assert!((0..program.num_blocks())
            .map(BlockId::new)
            .all(|b| opt.class(b) != BlockClass::SelfConfFree));
    }

    #[test]
    fn larger_budget_gives_larger_scf() {
        let (program, profile, loops) = setup();
        let a = optimize_os(
            &program,
            &profile,
            &loops,
            &OptParams::opt_s(8192).with_scf_budget(Some(2514)),
        );
        let b = optimize_os(
            &program,
            &profile,
            &loops,
            &OptParams::opt_s(8192).with_scf_budget(Some(376)),
        );
        assert!(a.scf_bytes >= b.scf_bytes);
    }

    #[test]
    fn executed_blocks_are_never_cold_class() {
        let (program, profile, loops) = setup();
        let opt = optimize_os(&program, &profile, &loops, &OptParams::opt_s(8192));
        for b in profile.executed_blocks() {
            assert_ne!(opt.class(b), BlockClass::Cold, "executed block {b} cold");
        }
    }

    #[test]
    fn deterministic() {
        let (program, profile, loops) = setup();
        let a = optimize_os(&program, &profile, &loops, &OptParams::opt_s(8192));
        let b = optimize_os(&program, &profile, &loops, &OptParams::opt_s(8192));
        assert_eq!(a.layout, b.layout);
        assert_eq!(a.classes, b.classes);
    }
}
