//! The advanced loops-with-callees optimization (`Call`, Section 4.4).
//!
//! Idea: a loop that calls routines should be placed so that the loop body
//! and every routine it (transitively) calls never conflict in the cache —
//! then all misses are confined to the first iteration. Each qualifying
//! loop gets its own *logical cache*; a **conflict matrix** (loops ×
//! routines, capped at the 50 most invoked routines) drives the placement
//! of shared callees: a routine called by two loops is placed at an offset
//! left free in *both* loops' logical caches, and the non-host logical
//! cache keeps a same-sized gap filled with rarely-executed code.
//!
//! The paper implements this, measures it, and **rejects** it: the callee
//! routines pulled out of the sequences lose spatial locality, and the
//! loops iterate too few times for the saved conflicts to pay for it
//! (Figure 18, `Call` bars, 20–100% more OS misses than `OptA`). The
//! reproduction includes it to regenerate that negative result.

use std::collections::{BTreeMap, BTreeSet};

use oslay_model::{BlockId, Program, RoutineId, Terminator, WORD_BYTES};
use oslay_profile::{CallGraph, LoopAnalysis, Profile};

use crate::{build_sequences, BlockClass, LogicalCacheAllocator, OptLayout, ThresholdSchedule};

/// Parameters of the Section 4.4 optimization.
#[derive(Clone, Debug)]
pub struct CallOptParams {
    /// Target cache size in bytes.
    pub cache_size: u32,
    /// SelfConfFree byte budget, as in [`crate::OptParams`].
    pub scf_budget: Option<u32>,
    /// Threshold schedule for the sequences.
    pub schedule: ThresholdSchedule,
    /// Minimum measured iterations per invocation for a loop to qualify
    /// (the paper uses 6).
    pub min_loop_iters: f64,
    /// Maximum number of routines kept in the conflict matrix (the paper
    /// keeps 50).
    pub max_matrix_routines: usize,
}

impl CallOptParams {
    /// Paper defaults for a given cache size.
    #[must_use]
    pub fn new(cache_size: u32) -> Self {
        Self {
            cache_size,
            scf_budget: Some(crate::OptParams::PAPER_SCF_BYTES),
            schedule: ThresholdSchedule::paper(),
            min_loop_iters: 6.0,
            max_matrix_routines: 50,
        }
    }
}

struct LoopPlan {
    /// Executed body blocks, in sequence order (filled later).
    blocks: Vec<BlockId>,
    /// Free offset within this loop's logical cache (grows as callees are
    /// placed).
    free: u64,
}

/// Builds the `Call` layout: OptS plus per-loop logical caches for loops
/// with callees.
///
/// # Panics
///
/// Panics only on internal errors.
#[must_use]
pub fn call_opt_layout(
    program: &Program,
    profile: &Profile,
    loops: &LoopAnalysis,
    params: &CallOptParams,
) -> OptLayout {
    let cache = u64::from(params.cache_size);
    let sequences = build_sequences(program, profile, &params.schedule);
    let call_graph = CallGraph::compute(program, profile);
    let mut classes = vec![BlockClass::Cold; program.num_blocks()];

    // --- SelfConfFree selection (same rule as OptS) ----------------------
    let (scf_blocks, scf_bytes) = crate::opts::select_scf_blocks(
        program,
        profile,
        loops,
        params.scf_budget,
        params.cache_size,
    );
    for &b in &scf_blocks {
        classes[b.index()] = BlockClass::SelfConfFree;
    }

    // --- Qualifying loops and the conflict matrix ------------------------
    let mut extracted = vec![false; program.num_blocks()];
    for &b in &scf_blocks {
        extracted[b.index()] = true;
    }
    let qualifying: Vec<&oslay_profile::NaturalLoop> = loops
        .executed_loops()
        .filter(|l| l.has_calls && l.iterations_per_entry() >= params.min_loop_iters)
        .collect();

    let mut plans: Vec<LoopPlan> = Vec::new();
    // routine → loop indices that call it (the conflict matrix).
    let mut matrix: BTreeMap<RoutineId, BTreeSet<usize>> = BTreeMap::new();
    for l in &qualifying {
        let idx = plans.len();
        let mut bytes = 0u64;
        for &b in &l.body {
            if profile.node_weight(b) > 0 && !extracted[b.index()] {
                bytes += u64::from(program.block(b).size() + WORD_BYTES);
            }
        }
        plans.push(LoopPlan {
            blocks: Vec::new(),
            free: scf_bytes + bytes,
        });
        // Direct callees of the loop body, then their executed closure.
        let callees: Vec<RoutineId> = l
            .body
            .iter()
            .filter_map(|&b| match program.block(b).terminator() {
                Terminator::Call { callee, .. } if profile.node_weight(b) > 0 => Some(*callee),
                _ => None,
            })
            .collect();
        for r in call_graph.executed_closure(&callees) {
            matrix.entry(r).or_default().insert(idx);
        }
    }

    // Keep only the most invoked routines (the paper trims the matrix to
    // 50 rows).
    let mut ranked: Vec<(RoutineId, u64)> = matrix
        .keys()
        .map(|&r| (r, profile.routine_invocations(r)))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(params.max_matrix_routines);

    // Plan routine placements: (routine, host loop, offset in chunk).
    // Every extracted block is assigned to exactly one placement list (a
    // routine slot or a loop plan) the moment it is marked, so overlapping
    // loop bodies or a loop whose own routine sits in the conflict matrix
    // cannot be placed twice.
    let mut routine_slots: Vec<(RoutineId, usize, u64)> = Vec::new();
    let mut slot_blocks: Vec<Vec<BlockId>> = Vec::new();
    // Gap ranges (loop index, offset range) for cold fill.
    let mut gaps: Vec<(usize, std::ops::Range<u64>)> = Vec::new();
    for &(routine, _) in &ranked {
        let callers: Vec<usize> = matrix[&routine].iter().copied().collect();
        if callers.is_empty() {
            continue;
        }
        let exec_bytes: u64 = program
            .routine(routine)
            .blocks()
            .iter()
            .filter(|&&b| profile.node_weight(b) > 0 && !extracted[b.index()])
            .map(|&b| u64::from(program.block(b).size() + WORD_BYTES))
            .sum();
        if exec_bytes == 0 {
            continue;
        }
        let offset = callers
            .iter()
            .map(|&c| plans[c].free)
            .max()
            .expect("nonempty callers");
        if offset + exec_bytes > cache {
            // The logical cache is full; leave this routine in the
            // sequences.
            continue;
        }
        // Host: the caller loop with the most head executions.
        let host = callers
            .iter()
            .copied()
            .max_by_key(|&c| qualifying[c].head_executions)
            .expect("nonempty callers");
        for &c in &callers {
            if c != host && plans[c].free < offset + exec_bytes {
                gaps.push((c, plans[c].free..offset + exec_bytes));
            }
            if c == host && plans[c].free < offset {
                gaps.push((c, plans[c].free..offset));
            }
            plans[c].free = offset + exec_bytes;
        }
        let mut blocks = Vec::new();
        for &b in program.routine(routine).blocks() {
            if profile.node_weight(b) > 0 && !extracted[b.index()] {
                extracted[b.index()] = true;
                classes[b.index()] = BlockClass::Loop;
                blocks.push(b);
            }
        }
        routine_slots.push((routine, host, offset));
        slot_blocks.push(blocks);
    }
    // The loop bodies themselves; blocks already claimed by a routine slot
    // (or by an overlapping earlier loop) stay where they were assigned.
    for (plan, l) in plans.iter_mut().zip(&qualifying) {
        for &b in &l.body {
            if profile.node_weight(b) > 0 && !extracted[b.index()] {
                extracted[b.index()] = true;
                classes[b.index()] = BlockClass::Loop;
                plan.blocks.push(b);
            }
        }
    }

    // --- Placement --------------------------------------------------------
    let mut alloc = LogicalCacheAllocator::new(program, "Call", params.cache_size, scf_bytes);
    if !scf_blocks.is_empty() {
        alloc.place_scf(&scf_blocks);
    }
    for (seq_idx, b) in sequences.blocks_in_order() {
        if extracted[b.index()] {
            continue;
        }
        let seq = &sequences.sequences()[seq_idx];
        classes[b.index()] = if seq.exec_thresh >= ThresholdSchedule::MAIN_SEQ_EXEC_THRESH {
            BlockClass::MainSeq
        } else {
            BlockClass::OtherSeq
        };
        alloc.place_hot(b);
    }

    // Per-loop logical caches after the sequence region.
    let chunk0 = alloc.next_chunk_base();
    let chunk_base = |idx: usize| chunk0 + idx as u64 * cache;
    let mut high_water = alloc.hot_end();
    for (idx, plan) in plans.iter().enumerate() {
        let base = chunk_base(idx);
        // The chunk's own SCF window must stay conflict-free w.r.t. the
        // real SCF area: reserve it for cold fill.
        if scf_bytes > 0 {
            alloc.add_cold_window(base..base + scf_bytes);
        }
        let mut pos = base + scf_bytes;
        for &b in &plan.blocks {
            alloc.builder_mut().place_at(b, pos);
            pos += u64::from(program.block(b).size() + WORD_BYTES);
        }
        high_water = high_water.max(pos);
    }
    for ((_, host, offset), blocks) in routine_slots.iter().zip(&slot_blocks) {
        let mut pos = chunk_base(*host) + offset;
        for &b in blocks {
            alloc.builder_mut().place_at(b, pos);
            pos += u64::from(program.block(b).size() + WORD_BYTES);
        }
        high_water = high_water.max(pos);
    }
    // Gaps in non-host chunks become cold windows.
    for (idx, range) in gaps {
        let base = chunk_base(idx);
        alloc.add_cold_window(base + range.start..base + range.end);
        high_water = high_water.max(base + range.end);
    }

    let cold: Vec<BlockId> = program
        .source_order()
        .filter(|&b| !sequences.contains(b))
        .collect();
    alloc.fill_cold_from(high_water, cold);

    let layout = alloc.finish().expect("Call layout places all blocks");
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
        let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 123));
        let specs = standard_workloads(&k.tables);
        let t = Engine::new(&k.program, None, &specs[3], EngineConfig::new(10)).run(80_000);
        let p = Profile::collect(&k.program, &t);
        let la = LoopAnalysis::analyze(&k.program, &p);
        (k.program, p, la)
    }

    #[test]
    fn call_layout_is_complete() {
        let (program, profile, loops) = setup();
        let opt = call_opt_layout(&program, &profile, &loops, &CallOptParams::new(8192));
        assert_eq!(opt.layout.num_blocks(), program.num_blocks());
        assert_eq!(opt.layout.name(), "Call");
    }

    #[test]
    fn loop_class_blocks_live_in_dedicated_chunks_or_sequences_end() {
        let (program, profile, loops) = setup();
        let opt = call_opt_layout(&program, &profile, &loops, &CallOptParams::new(8192));
        // Extracted blocks (class Loop) must all sit above the last
        // sequence block.
        let seq_max = (0..program.num_blocks())
            .map(BlockId::new)
            .filter(|&b| matches!(opt.class(b), BlockClass::MainSeq | BlockClass::OtherSeq))
            .map(|b| opt.layout.addr(b))
            .max();
        let loop_min = (0..program.num_blocks())
            .map(BlockId::new)
            .filter(|&b| opt.class(b) == BlockClass::Loop)
            .map(|b| opt.layout.addr(b))
            .min();
        if let (Some(seq_max), Some(loop_min)) = (seq_max, loop_min) {
            assert!(loop_min > seq_max, "chunks must follow sequences");
        }
    }

    #[test]
    fn scf_area_is_still_protected() {
        let (program, profile, loops) = setup();
        let opt = call_opt_layout(&program, &profile, &loops, &CallOptParams::new(8192));
        if opt.scf_bytes == 0 {
            return;
        }
        for b in profile.executed_blocks() {
            if opt.class(b) == BlockClass::SelfConfFree {
                assert!(opt.layout.addr(b) < opt.scf_bytes);
            } else {
                let offset = opt.layout.addr(b) % 8192;
                assert!(
                    offset >= opt.scf_bytes,
                    "executed block {b} ({:?}) at protected offset {offset}",
                    opt.class(b)
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let (program, profile, loops) = setup();
        let a = call_opt_layout(&program, &profile, &loops, &CallOptParams::new(8192));
        let b = call_opt_layout(&program, &profile, &loops, &CallOptParams::new(8192));
        assert_eq!(a.layout, b.layout);
    }
}
