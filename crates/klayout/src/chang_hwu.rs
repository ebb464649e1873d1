//! The Chang–Hwu / Hwu–Chang profile-guided layout (`C-H`).
//!
//! The strongest prior scheme the paper compares against ("Achieving High
//! Instruction Cache Performance with an Optimizing Compiler", ISCA 1989):
//!
//! 1. **Trace selection within each routine** — groups of basic blocks that
//!    tend to execute in sequence are identified from the profile and
//!    placed contiguously, hottest trace first;
//! 2. **Routine ordering** — routines are placed so that frequent callees
//!    follow immediately after their callers, by greedily merging placement
//!    chains along call-graph edges in decreasing weight order (the classic
//!    Pettis–Hansen closest-is-best discipline).
//!
//! Unlike the paper's `OptS`, traces never cross routine boundaries — that
//! restriction is precisely what `OptS` lifts.

use std::collections::HashMap;

use oslay_model::{BlockId, Program, RoutineId, Terminator};
use oslay_profile::{CallGraph, Profile};

use crate::{Layout, LayoutBuilder};

/// Computes the Chang–Hwu layout of a program.
///
/// Works for both kernel and application programs (the paper applies C-H
/// to both in Section 5.1).
#[must_use]
pub fn chang_hwu_layout(program: &Program, profile: &Profile, base_addr: u64) -> Layout {
    let mut lb = LayoutBuilder::new(program, "C-H", base_addr);
    for routine in routine_order(program, profile) {
        for block in trace_order(program, profile, routine) {
            lb.place(block);
        }
    }
    lb.finish().expect("every routine placed exactly once")
}

/// Intra-routine successor weights. Measured arcs are used directly; a
/// call block's fall-through to its continuation is credited with the call
/// block's own weight (the call virtually always returns), since the
/// measured transition into the continuation comes from the callee's
/// return block, not from the call block itself.
fn intra_edges(
    program: &Program,
    profile: &Profile,
    routine: RoutineId,
) -> HashMap<BlockId, Vec<(BlockId, u64)>> {
    let r = program.routine(routine);
    let mut out: HashMap<BlockId, Vec<(BlockId, u64)>> = HashMap::new();
    for &b in r.blocks() {
        let block = program.block(b);
        let mut edges = Vec::new();
        match block.terminator() {
            Terminator::Call { ret_to, .. } => {
                edges.push((*ret_to, profile.node_weight(b)));
            }
            term => {
                for dst in term.intra_successors() {
                    let w = profile.arc_weight(b, dst);
                    if w > 0 {
                        edges.push((dst, w));
                    }
                }
            }
        }
        edges.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.insert(b, edges);
    }
    out
}

/// Orders one routine's blocks by trace selection: hottest unplaced block
/// seeds a trace, grown forward along the heaviest intra-routine edge and
/// backward along the heaviest intra-routine in-edge; cold blocks follow
/// in source order.
fn trace_order(program: &Program, profile: &Profile, routine: RoutineId) -> Vec<BlockId> {
    let r = program.routine(routine);
    let edges = intra_edges(program, profile, routine);
    let mut in_edges: HashMap<BlockId, Vec<(BlockId, u64)>> = HashMap::new();
    for (&src, outs) in &edges {
        for &(dst, w) in outs {
            in_edges.entry(dst).or_default().push((src, w));
        }
    }
    for v in in_edges.values_mut() {
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }

    let mut by_weight: Vec<BlockId> = r
        .blocks()
        .iter()
        .copied()
        .filter(|&b| profile.node_weight(b) > 0)
        .collect();
    by_weight.sort_by(|&a, &b| {
        profile
            .node_weight(b)
            .cmp(&profile.node_weight(a))
            .then(a.cmp(&b))
    });

    let mut placed = vec![false; program.num_blocks()];
    let mut order: Vec<BlockId> = Vec::with_capacity(r.num_blocks());
    for &seed in &by_weight {
        if placed[seed.index()] {
            continue;
        }
        let mut trace = std::collections::VecDeque::new();
        trace.push_back(seed);
        placed[seed.index()] = true;
        // Grow forward.
        let mut cur = seed;
        while let Some(&(next, _)) = edges
            .get(&cur)
            .and_then(|es| es.iter().find(|&&(d, w)| w > 0 && !placed[d.index()]))
        {
            trace.push_back(next);
            placed[next.index()] = true;
            cur = next;
        }
        // Grow backward.
        let mut cur = seed;
        while let Some(&(prev, _)) = in_edges
            .get(&cur)
            .and_then(|es| es.iter().find(|&&(s, w)| w > 0 && !placed[s.index()]))
        {
            trace.push_front(prev);
            placed[prev.index()] = true;
            cur = prev;
        }
        order.extend(trace);
    }
    // Cold blocks in source order.
    for &b in r.blocks() {
        if !placed[b.index()] {
            placed[b.index()] = true;
            order.push(b);
        }
    }
    order
}

/// Pettis–Hansen routine ordering over the weighted call graph.
fn routine_order(program: &Program, profile: &Profile) -> Vec<RoutineId> {
    let cg = CallGraph::compute(program, profile);
    let n = program.num_routines();

    // Each routine starts as its own chain.
    let mut chain_of: Vec<usize> = (0..n).collect();
    let mut chains: Vec<Vec<RoutineId>> = (0..n).map(|i| vec![RoutineId::new(i)]).collect();

    for (caller, callee, _w) in cg.edges_by_weight() {
        let (a, b) = (chain_of[caller.index()], chain_of[callee.index()]);
        if a == b {
            continue;
        }
        // Concatenate the callee's chain after the caller's: frequent
        // callees end up immediately after their callers.
        let moved = std::mem::take(&mut chains[b]);
        for r in &moved {
            chain_of[r.index()] = a;
        }
        chains[a].extend(moved);
    }

    // Order chains by their hottest routine's invocation count, then by
    // first routine id for determinism; unexecuted singleton chains go
    // last in source order.
    let mut chain_list: Vec<Vec<RoutineId>> =
        chains.into_iter().filter(|c| !c.is_empty()).collect();
    let heat = |c: &Vec<RoutineId>| {
        c.iter()
            .map(|&r| profile.routine_invocations(r))
            .max()
            .unwrap_or(0)
    };
    chain_list.sort_by(|a, b| heat(b).cmp(&heat(a)).then(a.first().cmp(&b.first())));
    chain_list.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::synth::{generate_kernel, KernelParams, Scale};
    use oslay_trace::{standard_workloads, Engine, EngineConfig};

    fn setup() -> (Program, Profile) {
        let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 77));
        let specs = standard_workloads(&k.tables);
        let t = Engine::new(&k.program, None, &specs[3], EngineConfig::new(7)).run(50_000);
        let p = Profile::collect(&k.program, &t);
        (k.program, p)
    }

    #[test]
    fn layout_places_every_block() {
        let (program, profile) = setup();
        let l = chang_hwu_layout(&program, &profile, 0);
        assert_eq!(l.num_blocks(), program.num_blocks());
    }

    #[test]
    fn routine_blocks_stay_contiguous() {
        let (program, profile) = setup();
        let l = chang_hwu_layout(&program, &profile, 0);
        for r in program.routines() {
            let mut addrs: Vec<u64> = r.blocks().iter().map(|&b| l.addr(b)).collect();
            addrs.sort_unstable();
            let lo = addrs[0];
            let hi = *addrs.last().unwrap();
            let total: u64 = r
                .blocks()
                .iter()
                .map(|&b| u64::from(l.effective_size(b)))
                .sum();
            // Blocks of one routine occupy one contiguous region.
            assert!(
                hi - lo < total,
                "routine {} scattered: span {} vs bytes {total}",
                r.name(),
                hi - lo
            );
        }
    }

    #[test]
    fn hot_callee_follows_its_main_caller() {
        let (program, profile) = setup();
        let cg = CallGraph::compute(&program, &profile);
        let l = chang_hwu_layout(&program, &profile, 0);
        // Pick the single heaviest call edge: callee should be placed
        // after the caller and reasonably close (same merged chain).
        if let Some(&(caller, callee, _)) = cg.edges_by_weight().first() {
            let caller_addr = l.addr(program.routine(caller).entry());
            let callee_addr = l.addr(program.routine(callee).entry());
            assert!(
                callee_addr > caller_addr,
                "heaviest callee should follow caller"
            );
        }
    }

    #[test]
    fn executed_code_precedes_cold_code_in_each_routine() {
        let (program, profile) = setup();
        let l = chang_hwu_layout(&program, &profile, 0);
        let mut checked = 0;
        for r in program.routines() {
            let (hot, cold): (Vec<BlockId>, Vec<BlockId>) = r
                .blocks()
                .iter()
                .partition(|&&b| profile.node_weight(b) > 0);
            let last_hot = hot.iter().map(|&b| l.addr(b)).max();
            let first_cold = cold.iter().map(|&b| l.addr(b)).min();
            if let (Some(last_hot), Some(first_cold)) = (last_hot, first_cold) {
                assert!(
                    last_hot < first_cold,
                    "executed block of {} placed after never-executed code",
                    r.name()
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no routine mixes executed and cold blocks");
    }

    #[test]
    fn deterministic() {
        let (program, profile) = setup();
        let a = chang_hwu_layout(&program, &profile, 0);
        let b = chang_hwu_layout(&program, &profile, 0);
        assert_eq!(a, b);
    }
}
