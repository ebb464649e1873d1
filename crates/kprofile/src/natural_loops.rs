//! Natural-loop detection and loop behaviour measurement.
//!
//! Section 3.2.2 of the paper divides the kernel's loops into those that do
//! not call procedures (small, shallow, easily cached) and those that do
//! (shallow but spanning kilobytes of callees). This module finds natural
//! loops via back edges over the dominator tree, merges loops sharing a
//! head, and measures — from the profile, not from ground truth — each
//! loop's entries, iterations per invocation, executed body size, and
//! executed span including the call closure.

use oslay_model::{BlockId, Program, RoutineId, Terminator};

use crate::{CallGraph, Dominators, Profile};

/// One natural loop (all back edges to a common head merged).
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// Containing routine.
    pub routine: RoutineId,
    /// Loop-head block (the back-edge target).
    pub head: BlockId,
    /// Body blocks, including the head, sorted by id.
    pub body: Vec<BlockId>,
    /// True if any body block is a call site (the paper's
    /// "loops with procedure calls").
    pub has_calls: bool,
    /// Measured entries into the loop (arc traversals into the head from
    /// outside the body).
    pub entries: u64,
    /// Measured executions of the head block.
    pub head_executions: u64,
    /// Bytes of body code executed at least once.
    pub executed_body_bytes: u64,
    /// Executed span: body bytes plus executed bytes of every routine in
    /// the call closure of the body's call sites (Figure 5's
    /// "static size ... including the routines they call and their
    /// descendants").
    pub executed_span_bytes: u64,
}

impl NaturalLoop {
    /// Average iterations per invocation (head executions per entry).
    ///
    /// Loops that were never entered report 0.
    #[must_use]
    pub fn iterations_per_entry(&self) -> f64 {
        if self.entries == 0 {
            return 0.0;
        }
        self.head_executions as f64 / self.entries as f64
    }

    /// True if the loop body executed at least once.
    #[must_use]
    pub fn is_executed(&self) -> bool {
        self.head_executions > 0
    }
}

/// Loop structure of one program under one profile.
#[derive(Clone, Debug)]
pub struct LoopAnalysis {
    loops: Vec<NaturalLoop>,
    /// Per-block multiplier that converts execution counts into
    /// loop-flattened counts ("we assume that loops only perform one
    /// iteration per invocation", Section 4.2).
    flatten: Vec<f64>,
}

impl LoopAnalysis {
    /// Detects loops and measures their behaviour.
    #[must_use]
    pub fn analyze(program: &Program, profile: &Profile) -> Self {
        let call_graph = CallGraph::compute(program, profile);
        let mut exec_routine_bytes = vec![0u64; program.num_routines()];
        for (id, block) in program.blocks() {
            if profile.node_weight(id) > 0 {
                exec_routine_bytes[block.routine().index()] += u64::from(block.size());
            }
        }

        // Routines come in id order and each routine's heads ascending, so
        // `loops` is ordered by (routine, head).
        let mut loops = Vec::new();
        for routine in program.routines() {
            let dom = Dominators::compute(program, routine.id());
            // Back edges as (head, tail), sorted to group them by head.
            let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new();
            for &b in routine.blocks() {
                for succ in program.block(b).terminator().intra_successors() {
                    if dom.is_reachable(b) && dom.dominates(succ, b) {
                        back_edges.push((succ, b));
                    }
                }
            }
            back_edges.sort_unstable();
            for group in back_edges.chunk_by(|x, y| x.0 == y.0) {
                let head = group[0].0;
                let body = natural_loop_body(program, head, group);
                let has_calls = body
                    .iter()
                    .any(|&b| matches!(program.block(b).terminator(), Terminator::Call { .. }));
                let executed_body_bytes = body
                    .iter()
                    .filter(|&&b| profile.node_weight(b) > 0)
                    .map(|&b| u64::from(program.block(b).size()))
                    .sum();
                let callees: Vec<RoutineId> = body
                    .iter()
                    .filter_map(|&b| match program.block(b).terminator() {
                        Terminator::Call { callee, .. } if profile.node_weight(b) > 0 => {
                            Some(*callee)
                        }
                        _ => None,
                    })
                    .collect();
                let closure = call_graph.executed_closure(&callees);
                let executed_span_bytes = executed_body_bytes
                    + closure
                        .iter()
                        .map(|r| exec_routine_bytes[r.index()])
                        .sum::<u64>();
                loops.push(NaturalLoop {
                    routine: routine.id(),
                    head,
                    body,
                    has_calls,
                    entries: 0,
                    head_executions: profile.node_weight(head),
                    executed_body_bytes,
                    executed_span_bytes,
                });
            }
        }

        // Entries: arc traversals into a head from outside its body. Heads
        // are unique, so one pass over the arcs counts every loop.
        let mut loop_of_head = vec![None; profile.num_blocks()];
        for (i, l) in loops.iter().enumerate() {
            loop_of_head[l.head.index()] = Some(i);
        }
        for arc in profile.arcs() {
            if let Some(i) = loop_of_head[arc.dst.index()] {
                let l = &mut loops[i];
                if l.body.binary_search(&arc.src).is_err() {
                    l.entries += arc.count;
                }
            }
        }

        // Flatten factors: each executed enclosing loop contributes
        // entries / head_executions (≤ 1).
        let mut flatten = vec![1.0f64; profile.num_blocks()];
        for l in &loops {
            if !l.is_executed() || l.entries == 0 {
                continue;
            }
            let f = l.entries as f64 / l.head_executions as f64;
            for &b in &l.body {
                flatten[b.index()] *= f.min(1.0);
            }
        }

        Self { loops, flatten }
    }

    /// All detected loops (executed or not).
    #[must_use]
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// Loops whose body executed at least once.
    pub fn executed_loops(&self) -> impl Iterator<Item = &NaturalLoop> {
        self.loops.iter().filter(|l| l.is_executed())
    }

    /// Execution count of `block` with every enclosing loop flattened to
    /// one iteration per invocation — the count used to choose
    /// SelfConfFree residents (Section 4.2) and to rank blocks in Figure 8.
    #[must_use]
    pub fn flattened_weight(&self, block: BlockId, profile: &Profile) -> f64 {
        profile.node_weight(block) as f64 * self.flatten[block.index()]
    }
}

/// Standard natural-loop body: `head` plus all blocks that reach a tail
/// of `back_edges` without passing through `head` (computed by reverse
/// traversal from the tails). Returned sorted by id.
fn natural_loop_body(
    program: &Program,
    head: BlockId,
    back_edges: &[(BlockId, BlockId)],
) -> Vec<BlockId> {
    // A routine's blocks are contiguous: index the tables by position.
    let blocks = program.routine(program.block(head).routine()).blocks();
    let local = |b: BlockId| b.index().wrapping_sub(blocks[0].index());
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); blocks.len()];
    for &b in blocks {
        for s in program.block(b).terminator().intra_successors() {
            if let Some(ps) = preds.get_mut(local(s)) {
                ps.push(b);
            }
        }
    }
    let mut in_body = vec![false; blocks.len()];
    in_body[local(head)] = true;
    let mut stack: Vec<BlockId> = Vec::new();
    for &(_, t) in back_edges {
        if !std::mem::replace(&mut in_body[local(t)], true) {
            stack.push(t);
        }
    }
    while let Some(b) = stack.pop() {
        for &p in &preds[local(b)] {
            if !std::mem::replace(&mut in_body[local(p)], true) {
                stack.push(p);
            }
        }
    }
    blocks
        .iter()
        .zip(&in_body)
        .filter(|&(_, &inside)| inside)
        .map(|(&b, _)| b)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::synth::{generate_kernel, KernelParams, Scale};
    use oslay_trace::{standard_workloads, Engine, EngineConfig};

    fn setup() -> (Program, Profile) {
        let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 17));
        let specs = standard_workloads(&k.tables);
        let t = Engine::new(&k.program, None, &specs[3], EngineConfig::new(5)).run(60_000);
        let p = Profile::collect(&k.program, &t);
        (k.program, p)
    }

    #[test]
    fn kernel_has_both_loop_kinds() {
        let (program, profile) = setup();
        let la = LoopAnalysis::analyze(&program, &profile);
        let executed: Vec<_> = la.executed_loops().collect();
        assert!(!executed.is_empty(), "no executed loops found");
        assert!(executed.iter().any(|l| !l.has_calls), "no call-free loops");
    }

    #[test]
    fn bzero_loop_iterates_many_times() {
        let (program, profile) = setup();
        let la = LoopAnalysis::analyze(&program, &profile);
        let bzero = program.routine_by_name("bzero").unwrap().id();
        let l = la
            .executed_loops()
            .find(|l| l.routine == bzero)
            .expect("bzero loop executed");
        // Generated with mean 32 iterations; measurement should land in a
        // generous band around it.
        let iters = l.iterations_per_entry();
        assert!((10.0..80.0).contains(&iters), "bzero iters {iters}");
        assert!(!l.has_calls);
    }

    #[test]
    fn body_contains_head_and_respects_size() {
        let (program, profile) = setup();
        let la = LoopAnalysis::analyze(&program, &profile);
        for l in la.loops() {
            assert!(l.body.contains(&l.head));
            assert!(l.executed_body_bytes <= l.executed_span_bytes);
            // All body blocks belong to the loop's routine.
            for &b in &l.body {
                assert_eq!(program.block(b).routine(), l.routine);
            }
        }
    }

    #[test]
    fn call_loops_span_more_than_their_body() {
        let (program, profile) = setup();
        let la = LoopAnalysis::analyze(&program, &profile);
        let with_calls: Vec<_> = la
            .executed_loops()
            .filter(|l| l.has_calls && l.entries > 0)
            .collect();
        if let Some(l) = with_calls.first() {
            assert!(l.executed_span_bytes > l.executed_body_bytes);
        }
    }

    #[test]
    fn flattened_weight_is_at_most_raw_weight() {
        let (program, profile) = setup();
        let la = LoopAnalysis::analyze(&program, &profile);
        for b in profile.executed_blocks() {
            let raw = profile.node_weight(b) as f64;
            let flat = la.flattened_weight(b, &profile);
            assert!(flat <= raw + 1e-9);
            assert!(flat >= 0.0);
        }
    }

    #[test]
    fn loop_blocks_are_flattened_below_raw() {
        let (program, profile) = setup();
        let la = LoopAnalysis::analyze(&program, &profile);
        let bzero = program.routine_by_name("bzero").unwrap().id();
        let l = la
            .executed_loops()
            .find(|l| l.routine == bzero)
            .expect("bzero loop");
        let head_raw = profile.node_weight(l.head) as f64;
        let head_flat = la.flattened_weight(l.head, &profile);
        assert!(
            head_flat < head_raw / 2.0,
            "flattening should shrink a 32-iteration loop head"
        );
    }
}
