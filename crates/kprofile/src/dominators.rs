//! Per-routine dominator trees.
//!
//! The loop detection of Section 3.2.2 ("to identify the loops, we use
//! dataflow analysis [2]") needs dominators: a back edge is an arc `u → v`
//! where `v` dominates `u`. We use the iterative algorithm of Cooper,
//! Harvey & Kennedy over the routine's static intra-procedural CFG (call
//! terminators fall through to their continuation block).

use oslay_model::{BlockId, Program, RoutineId};

/// Dominator tree of one routine.
#[derive(Clone, Debug)]
pub struct Dominators {
    routine: RoutineId,
    /// Index of the routine's first block. A routine's blocks are
    /// contiguous, so block `b` has local index `b - first`.
    first: usize,
    /// Immediate dominator in local indices; `idom[entry] == entry`.
    idom: Vec<usize>,
    reachable: Vec<bool>,
}

impl Dominators {
    /// Computes dominators for `routine`'s intra-procedural CFG.
    #[must_use]
    pub fn compute(program: &Program, routine: RoutineId) -> Self {
        let r = program.routine(routine);
        let blocks = r.blocks();
        let first = blocks[0].index();
        let n = blocks.len();
        let local = |b: BlockId| Some(b.index().wrapping_sub(first)).filter(|&i| i < n);
        let entry = local(r.entry()).expect("entry belongs to its routine");

        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &b) in blocks.iter().enumerate() {
            for s in program.block(b).terminator().intra_successors() {
                if let Some(j) = local(s) {
                    succs[i].push(j);
                }
            }
        }

        // Reverse postorder from the entry.
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack = vec![(entry, 0usize)];
        visited[entry] = true;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < succs[node].len() {
                let s = succs[node][*next];
                *next += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
        order.reverse(); // now reverse postorder
        let mut rpo_number = vec![usize::MAX; n];
        for (rank, &node) in order.iter().enumerate() {
            rpo_number[node] = rank;
        }

        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(i);
            }
        }

        const UNDEF: usize = usize::MAX;
        let mut idom = vec![UNDEF; n];
        idom[entry] = entry;
        let intersect = |idom: &[usize], rpo: &[usize], mut a: usize, mut b: usize| -> usize {
            while a != b {
                while rpo[a] > rpo[b] {
                    a = idom[a];
                }
                while rpo[b] > rpo[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &node in &order {
                if node == entry {
                    continue;
                }
                let mut new_idom = UNDEF;
                for &p in &preds[node] {
                    if idom[p] == UNDEF {
                        continue;
                    }
                    new_idom = if new_idom == UNDEF {
                        p
                    } else {
                        intersect(&idom, &rpo_number, new_idom, p)
                    };
                }
                if new_idom != UNDEF && idom[node] != new_idom {
                    idom[node] = new_idom;
                    changed = true;
                }
            }
        }

        Self {
            routine,
            first,
            idom,
            reachable: visited,
        }
    }

    /// `block`'s local index, if it belongs to the routine.
    fn local(&self, block: BlockId) -> Option<usize> {
        Some(block.index().wrapping_sub(self.first)).filter(|&i| i < self.idom.len())
    }

    /// The routine this tree describes.
    #[must_use]
    pub fn routine(&self) -> RoutineId {
        self.routine
    }

    /// True if `block` is reachable from the routine entry.
    ///
    /// Unreachable code exists in real kernels (and in the synthetic one:
    /// cold tails that no detour happens to target); it has no dominator
    /// relationships.
    #[must_use]
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.local(block).is_some_and(|i| self.reachable[i])
    }

    /// Immediate dominator of `block` (the entry dominates itself).
    #[must_use]
    pub fn idom(&self, block: BlockId) -> Option<BlockId> {
        let i = self.local(block)?;
        if !self.reachable[i] || self.idom[i] == usize::MAX {
            return None;
        }
        Some(BlockId::new(self.first + self.idom[i]))
    }

    /// True if `a` dominates `b` (reflexive).
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (Some(ia), Some(ib)) = (self.local(a), self.local(b)) else {
            return false;
        };
        if !self.reachable[ia] || !self.reachable[ib] {
            return false;
        }
        let mut cur = ib;
        loop {
            if cur == ia {
                return true;
            }
            let up = self.idom[cur];
            if up == cur || up == usize::MAX {
                return false;
            }
            cur = up;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::{BranchTarget, Domain, ProgramBuilder, SeedKind, Terminator};

    /// Diamond with a loop: e → a → (b | c) → d → a (back edge), d → x.
    fn looped_diamond() -> (Program, Vec<BlockId>, RoutineId) {
        let mut bld = ProgramBuilder::new(Domain::Os);
        let r = bld.begin_routine("f");
        let e = bld.add_block(8);
        let a = bld.add_block(8);
        let b = bld.add_block(8);
        let c = bld.add_block(8);
        let d = bld.add_block(8);
        let x = bld.add_block(8);
        bld.terminate(e, Terminator::Jump(a));
        bld.terminate(
            a,
            Terminator::branch([BranchTarget::new(b, 0.5), BranchTarget::new(c, 0.5)]),
        );
        bld.terminate(b, Terminator::Jump(d));
        bld.terminate(c, Terminator::Jump(d));
        bld.terminate(
            d,
            Terminator::branch([BranchTarget::new(a, 0.6), BranchTarget::new(x, 0.4)]),
        );
        bld.terminate(x, Terminator::Return);
        bld.end_routine();
        for kind in SeedKind::ALL {
            bld.set_seed(kind, r);
        }
        let p = bld.build().unwrap();
        (p, vec![e, a, b, c, d, x], r)
    }

    #[test]
    fn entry_dominates_everything() {
        let (p, blocks, r) = looped_diamond();
        let dom = Dominators::compute(&p, r);
        for &b in &blocks {
            assert!(dom.dominates(blocks[0], b));
            assert!(dom.is_reachable(b));
        }
    }

    #[test]
    fn join_is_dominated_by_branch_head_not_arms() {
        let (p, blocks, r) = looped_diamond();
        let dom = Dominators::compute(&p, r);
        let (a, b, c, d) = (blocks[1], blocks[2], blocks[3], blocks[4]);
        assert!(dom.dominates(a, d));
        assert!(!dom.dominates(b, d));
        assert!(!dom.dominates(c, d));
        assert_eq!(dom.idom(d), Some(a));
    }

    #[test]
    fn back_edge_target_dominates_source() {
        let (p, blocks, r) = looped_diamond();
        let dom = Dominators::compute(&p, r);
        // d → a is the back edge: a dominates d.
        assert!(dom.dominates(blocks[1], blocks[4]));
    }

    #[test]
    fn dominance_is_reflexive_and_antisymmetric() {
        let (p, blocks, r) = looped_diamond();
        let dom = Dominators::compute(&p, r);
        for &x in &blocks {
            assert!(dom.dominates(x, x));
        }
        assert!(!dom.dominates(blocks[4], blocks[1]));
    }

    #[test]
    fn unreachable_block_reported() {
        let mut bld = ProgramBuilder::new(Domain::Os);
        let r = bld.begin_routine("f");
        let e = bld.add_block(8);
        bld.terminate(e, Terminator::Return);
        let orphan = bld.add_block_no_fallthrough(8);
        bld.terminate(orphan, Terminator::Return);
        bld.end_routine();
        for kind in SeedKind::ALL {
            bld.set_seed(kind, r);
        }
        let p = bld.build().unwrap();
        let dom = Dominators::compute(&p, r);
        assert!(dom.is_reachable(e));
        assert!(!dom.is_reachable(orphan));
        assert_eq!(dom.idom(orphan), None);
        assert!(!dom.dominates(e, orphan));
    }
}
