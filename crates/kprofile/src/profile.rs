//! The weighted basic-block flow graph.

use oslay_model::{BlockId, Domain, Program, SeedKind};

/// One measured arc of the flow graph.
///
/// Arcs cover every kind of control transfer the paper's graph includes:
/// conditional and unconditional branches, fall-throughs, procedure calls
/// (caller block → callee entry) and returns (returning block → caller's
/// continuation).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct ArcRecord {
    /// Source block.
    pub src: BlockId,
    /// Destination block.
    pub dst: BlockId,
    /// Number of times the transition was observed.
    pub count: u64,
}

/// A measured execution profile of one program under one or more traces.
///
/// Node weights are block execution counts; arc weights are transition
/// counts. Unexecuted blocks simply have weight zero (the paper prunes
/// them; here pruning is implicit — iterate [`Profile::executed_blocks`]).
///
/// Arcs live in one store, a `(dst, count)` list per source block, sorted
/// heaviest first (`dst` ascending on ties); most lists hold one or two.
#[derive(Clone, Debug)]
pub struct Profile {
    pub(crate) domain: Domain,
    pub(crate) num_blocks: usize,
    pub(crate) node: Vec<u64>,
    pub(crate) out_adj: Vec<Vec<(BlockId, u64)>>,
    pub(crate) routine_invocations: Vec<u64>,
    pub(crate) seed_invocations: [u64; 4],
    pub(crate) total_node_weight: u64,
}

impl Profile {
    /// Creates an empty profile shaped for `program`.
    #[must_use]
    pub fn empty(program: &Program) -> Self {
        Self {
            domain: program.domain(),
            num_blocks: program.num_blocks(),
            node: vec![0; program.num_blocks()],
            out_adj: vec![Vec::new(); program.num_blocks()],
            routine_invocations: vec![0; program.num_routines()],
            seed_invocations: [0; 4],
            total_node_weight: 0,
        }
    }

    /// The domain of the profiled program.
    #[must_use]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of blocks in the profiled program.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Execution count of a block.
    #[must_use]
    pub fn node_weight(&self, block: BlockId) -> u64 {
        self.node[block.index()]
    }

    /// Sum of all block execution counts.
    #[must_use]
    pub fn total_node_weight(&self) -> u64 {
        self.total_node_weight
    }

    /// A block's weight as a fraction of the total (compared against
    /// `ExecThresh` by the sequence builder).
    #[must_use]
    pub fn exec_ratio(&self, block: BlockId) -> f64 {
        if self.total_node_weight == 0 {
            return 0.0;
        }
        self.node_weight(block) as f64 / self.total_node_weight as f64
    }

    /// Measured count of the `src → dst` transition.
    #[must_use]
    pub fn arc_weight(&self, src: BlockId, dst: BlockId) -> u64 {
        self.out_adj[src.index()]
            .iter()
            .find(|&&(d, _)| d == dst)
            .map_or(0, |&(_, count)| count)
    }

    /// Probability that leaving `src` goes to `dst` (arc weight over source
    /// node weight; compared against `BranchThresh`).
    #[must_use]
    pub fn arc_prob(&self, src: BlockId, dst: BlockId) -> f64 {
        let n = self.node_weight(src);
        if n == 0 {
            return 0.0;
        }
        self.arc_weight(src, dst) as f64 / n as f64
    }

    /// Out-arcs of a block, heaviest first.
    #[must_use]
    pub fn out_arcs(&self, block: BlockId) -> &[(BlockId, u64)] {
        &self.out_adj[block.index()]
    }

    /// All measured arcs, source-major (ascending `src`), each source's
    /// arcs heaviest first.
    pub fn arcs(&self) -> impl Iterator<Item = ArcRecord> + '_ {
        self.out_adj.iter().enumerate().flat_map(|(i, succs)| {
            let src = BlockId::new(i);
            succs
                .iter()
                .map(move |&(dst, count)| ArcRecord { src, dst, count })
        })
    }

    /// Adds `count` traversals of `src → dst`, leaving the list unsorted.
    pub(crate) fn add_arc(&mut self, src: BlockId, dst: BlockId, count: u64) {
        let succs = &mut self.out_adj[src.index()];
        match succs.iter_mut().find(|(d, _)| *d == dst) {
            Some((_, w)) => *w += count,
            None => succs.push((dst, count)),
        }
    }

    /// Blocks with nonzero weight.
    pub fn executed_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.node
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0)
            .map(|(i, _)| BlockId::new(i))
    }

    /// Number of executed (weight > 0) blocks.
    #[must_use]
    pub fn num_executed_blocks(&self) -> usize {
        self.node.iter().filter(|&&w| w > 0).count()
    }

    /// Total bytes of executed code (Table 1, "Size of Executed OS Code").
    #[must_use]
    pub fn executed_bytes(&self, program: &Program) -> u64 {
        assert_eq!(program.num_blocks(), self.num_blocks, "program mismatch");
        self.executed_blocks()
            .map(|b| u64::from(program.block(b).size()))
            .sum()
    }

    /// Number of times a routine was invoked (entered through a call or as
    /// an invocation seed).
    #[must_use]
    pub fn routine_invocations(&self, routine: oslay_model::RoutineId) -> u64 {
        self.routine_invocations[routine.index()]
    }

    /// Total routine invocations across the program.
    #[must_use]
    pub fn total_routine_invocations(&self) -> u64 {
        self.routine_invocations.iter().sum()
    }

    /// Number of routines invoked at least once.
    #[must_use]
    pub fn num_invoked_routines(&self) -> usize {
        self.routine_invocations.iter().filter(|&&n| n > 0).count()
    }

    /// OS invocations by seed class (zero for application profiles).
    #[must_use]
    pub fn seed_invocations(&self, kind: SeedKind) -> u64 {
        self.seed_invocations[kind.index()]
    }

    /// Sums `other`'s counts into this profile, leaving the arc lists
    /// unsorted.
    fn add_counts(&mut self, other: &Profile) {
        assert_eq!(self.domain, other.domain, "domain mismatch");
        assert_eq!(self.num_blocks, other.num_blocks, "program mismatch");
        for (a, b) in self.node.iter_mut().zip(&other.node) {
            *a += b;
        }
        for (i, succs) in other.out_adj.iter().enumerate() {
            for &(dst, count) in succs {
                self.add_arc(BlockId::new(i), dst, count);
            }
        }
        for (a, b) in self
            .routine_invocations
            .iter_mut()
            .zip(&other.routine_invocations)
        {
            *a += b;
        }
        for (a, b) in self
            .seed_invocations
            .iter_mut()
            .zip(&other.seed_invocations)
        {
            *a += b;
        }
        self.total_node_weight += other.total_node_weight;
    }

    /// Merges many profiles of one program into one (the paper's averaged
    /// profile).
    ///
    /// The paper builds its layouts "after taking the average of the
    /// profiles of all the workloads"; summation is equivalent to averaging
    /// for every ratio-based decision the algorithms make.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or the profiles describe different
    /// programs.
    #[must_use]
    pub fn merge_all<'a>(profiles: impl IntoIterator<Item = &'a Profile>) -> Profile {
        let mut profiles = profiles.into_iter();
        let mut acc = profiles.next().expect("need at least one profile").clone();
        for p in profiles {
            acc.add_counts(p);
        }
        acc.sort_arcs();
        acc
    }

    /// Sorts every successor list heaviest first, `dst` ascending on ties
    /// (destinations are unique within a list, so the order is total).
    pub(crate) fn sort_arcs(&mut self) {
        for succs in &mut self.out_adj {
            succs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::{Domain, ProgramBuilder, SeedKind, Terminator};

    fn two_block_program() -> Program {
        let mut b = ProgramBuilder::new(Domain::Os);
        let r = b.begin_routine("f");
        let x = b.add_block(8);
        let y = b.add_block(8);
        b.terminate(x, Terminator::Jump(y));
        b.terminate(y, Terminator::Return);
        b.end_routine();
        for kind in SeedKind::ALL {
            b.set_seed(kind, r);
        }
        b.build().unwrap()
    }

    #[test]
    fn empty_profile_is_all_zero() {
        let p = two_block_program();
        let prof = Profile::empty(&p);
        assert_eq!(prof.total_node_weight(), 0);
        assert_eq!(prof.num_executed_blocks(), 0);
        assert_eq!(prof.exec_ratio(BlockId::new(0)), 0.0);
        assert_eq!(prof.arc_prob(BlockId::new(0), BlockId::new(1)), 0.0);
    }

    #[test]
    fn merge_sums_counts() {
        let p = two_block_program();
        let mut a = Profile::empty(&p);
        a.node[0] = 3;
        a.total_node_weight = 3;
        a.add_arc(BlockId::new(0), BlockId::new(1), 2);
        let mut b = Profile::empty(&p);
        b.node[0] = 5;
        b.total_node_weight = 5;
        b.add_arc(BlockId::new(0), BlockId::new(1), 4);
        let m = Profile::merge_all([&a, &b]);
        assert_eq!(m.node_weight(BlockId::new(0)), 8);
        assert_eq!(m.arc_weight(BlockId::new(0), BlockId::new(1)), 6);
        assert_eq!(m.total_node_weight(), 8);
        assert_eq!(m.out_arcs(BlockId::new(0)), &[(BlockId::new(1), 6)]);
    }

    #[test]
    fn merge_all_equals_sequential_merges() {
        let p = two_block_program();
        let mut a = Profile::empty(&p);
        a.node[1] = 1;
        a.total_node_weight = 1;
        let b = a.clone();
        let merged = Profile::merge_all(&[a.clone(), b]);
        assert_eq!(merged.node_weight(BlockId::new(1)), 2);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn merge_all_empty_panics() {
        let _ = Profile::merge_all(&[]);
    }
}
