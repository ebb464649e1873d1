//! Trace-free abstract-interpretation cache analysis.
//!
//! A fixpoint dataflow engine over the profile's arc graph and one
//! placed layout, computing per cache set **must** (lines guaranteed
//! resident), **may** (lines possibly resident) and **persistence**
//! (lines never evicted once loaded) abstract states with LRU-age
//! lattices — then classifying every placed block's line accesses as
//! always-hit, always-miss, persistent (first-miss-only) or
//! unclassified, without replaying a single trace event.
//!
//! Soundness rests on three facts the rest of the repo establishes:
//!
//! 1. the trace engine keeps OS invocations *atomic* (no nesting, no
//!    application blocks inside), so everything between two invocations
//!    collapses into the havoc in-state pinned at each invocation seed;
//! 2. profile arcs are recorded only *within* invocations, so the arc
//!    graph is exactly the set of consecutive same-invocation block
//!    pairs — and a merged profile's arc set is a superset of every
//!    individual workload's, making one analysis sound for each;
//! 3. line accesses are enumerated from *fetch words* (the unit the
//!    replayer actually touches), not byte spans, so the static and
//!    measured access sequences agree line for line.
//!
//! The `analyze` binary's soundness gate replays all four workloads and
//! checks the classes against measured misses: zero on always-hit
//! points, at most one per persistent line.

mod domain;
mod fixpoint;

use std::collections::HashMap;

pub use domain::AbsState;

use oslay_cache::CacheConfig;
use oslay_model::{fetch_words, Program, SeedKind};
use oslay_profile::Profile;

use crate::LayoutView;

/// Parameters of one abstract-interpretation run.
#[derive(Clone, Debug)]
pub struct AbsintParams {
    /// Cache geometry the layout is analyzed against.
    pub config: CacheConfig,
    /// Per-block join budget before the widening havocs the block's
    /// in-state (termination insurance; the lattice is finite, so this
    /// only fires on pathological graphs).
    pub join_bound: u32,
    /// Maximum explicit may entries per set before the oldest fold into
    /// the set's unknown pool.
    pub may_cap_per_set: usize,
    /// Line-aligned addresses of *foreign* code (application blocks the
    /// workloads execute). They never enter the abstract states — the
    /// seed havoc already covers them — but they count against each
    /// set's persistence budget.
    pub foreign_lines: Vec<u64>,
}

impl AbsintParams {
    /// Default parameters for a geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            join_bound: 64,
            may_cap_per_set: 8,
            foreign_lines: Vec::new(),
        }
    }

    /// Sets the foreign (application) line addresses.
    #[must_use]
    pub fn with_foreign_lines(mut self, lines: Vec<u64>) -> Self {
        self.foreign_lines = lines;
        self
    }
}

/// Static class of one line access point.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum LineClass {
    /// The line is resident in every concrete state reaching the point.
    AlwaysHit,
    /// The line's set never holds more distinct lines than ways: once
    /// loaded it is never evicted, so the point misses at most once per
    /// run.
    Persistent,
    /// The line is resident in no concrete state reaching the point.
    AlwaysMiss,
    /// Neither bound applies.
    Unclassified,
}

impl LineClass {
    /// All classes, strongest guarantee first.
    pub const ALL: [LineClass; 4] = [
        LineClass::AlwaysHit,
        LineClass::Persistent,
        LineClass::AlwaysMiss,
        LineClass::Unclassified,
    ];

    /// Dense index (`0..4`) in [`LineClass::ALL`] order.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            LineClass::AlwaysHit => 0,
            LineClass::Persistent => 1,
            LineClass::AlwaysMiss => 2,
            LineClass::Unclassified => 3,
        }
    }

    /// Short label used in tables and JSON section keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LineClass::AlwaysHit => "always-hit",
            LineClass::Persistent => "persistent",
            LineClass::AlwaysMiss => "always-miss",
            LineClass::Unclassified => "unclassified",
        }
    }
}

/// One classified line access point: block × line slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClassPoint {
    /// Block index in the program.
    pub block: u32,
    /// Line slot within the block's fetch sequence (0-based).
    pub slot: u32,
    /// Line-aligned address the slot touches.
    pub line_addr: u64,
    /// Cache set the line maps to.
    pub set: u32,
    /// Profile weight (block executions — accesses at this point).
    pub weight: u64,
    /// The static class.
    pub class: LineClass,
}

/// Result of classifying one layout: every executed block's line access
/// points, plus effort and coverage accounting.
#[derive(Clone, PartialEq, Debug)]
pub struct Classification {
    /// Name of the classified layout.
    pub layout: String,
    /// All points of executed blocks, ordered by (block, slot).
    pub points: Vec<ClassPoint>,
    /// Point counts per class, [`LineClass::ALL`] order.
    pub count: [u64; 4],
    /// Execution-weighted point counts per class.
    pub weighted: [u64; 4],
    /// Worklist pops until the fixpoint stabilized.
    pub iterations: u64,
    /// Blocks widened to havoc by the join budget.
    pub havocked: u32,
    /// Executed blocks analyzed.
    pub analyzed_blocks: u32,
    /// Lattice-consistency violations observed at classification time
    /// (must ⊆ may with consistent age bounds at every point); always 0
    /// unless the engine is broken — asserted by the property tests.
    pub invariant_violations: u64,
}

impl Classification {
    /// Total execution-weighted accesses across all points.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.weighted.iter().sum()
    }

    /// Weighted share of one class (0 when nothing is weighted).
    #[must_use]
    pub fn weighted_share(&self, class: LineClass) -> f64 {
        let total = self.total_weight();
        if total == 0 {
            0.0
        } else {
            self.weighted[class.index()] as f64 / total as f64
        }
    }

    /// Coverage: the fraction of weighted accesses carrying any
    /// guarantee (everything but unclassified).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        1.0 - self.weighted_share(LineClass::Unclassified)
    }
}

/// The line-aligned addresses a block at `addr` with `effective_size`
/// bytes touches, in fetch order: its [`CacheConfig::line_keys`] (the
/// starts of its line runs), exactly as the replayer touches them (a
/// byte-span enumeration can claim a trailing line no fetch ever
/// reaches). Slot `k` of a block is its `k`-th line run.
#[must_use]
pub fn block_line_addrs(addr: u64, effective_size: u32, config: &CacheConfig) -> Vec<u64> {
    config
        .line_keys(addr, fetch_words(effective_size))
        .map(|key| key << config.line_shift())
        .collect()
}

/// Classifies every executed block's line accesses under `view`.
///
/// `profile` supplies the arc graph and weights; pass the *merged*
/// profile to get a classification sound for every workload it merges.
/// `program` supplies the invocation seed blocks.
///
/// # Panics
///
/// Panics if `view` and `profile` disagree on the block count, or if the
/// geometry's associativity exceeds 255.
#[must_use]
pub fn classify_layout(
    program: &Program,
    profile: &Profile,
    view: &LayoutView,
    params: &AbsintParams,
) -> Classification {
    assert_eq!(
        view.num_blocks(),
        profile.num_blocks(),
        "layout and profile describe different programs"
    );
    let cfg = &params.config;
    let ways = u8::try_from(cfg.ways()).expect("associativity fits u8");
    let num_sets = cfg.num_sets() as usize;

    // Dense node ids for executed blocks; dense line ids for their
    // line-aligned addresses.
    let executed: Vec<usize> = profile.executed_blocks().map(|b| b.index()).collect();
    let mut node_of: HashMap<usize, u32> = HashMap::with_capacity(executed.len());
    for (node, &block) in executed.iter().enumerate() {
        node_of.insert(block, node as u32);
    }
    let mut line_ids: HashMap<u64, u32> = HashMap::new();
    let mut line_set: Vec<u32> = Vec::new();
    let mut line_addr_of: Vec<u64> = Vec::new();
    let mut lines: Vec<Vec<(u32, u32)>> = Vec::with_capacity(executed.len());
    for &block in &executed {
        let slots: Vec<(u32, u32)> = block_line_addrs(view.addr[block], view.size[block], cfg)
            .into_iter()
            .map(|addr| {
                let next = line_ids.len() as u32;
                let id = *line_ids.entry(addr).or_insert(next);
                if id == next {
                    line_set.push(cfg.set_of(addr));
                    line_addr_of.push(addr);
                }
                (id, line_set[id as usize])
            })
            .collect();
        lines.push(slots);
    }

    // CSR successor lists from the profile's arcs (both ends executed).
    let mut arcs: Vec<(u32, u32)> = profile
        .arcs()
        .filter(|a| a.count > 0)
        .filter_map(
            |a| match (node_of.get(&a.src.index()), node_of.get(&a.dst.index())) {
                (Some(&s), Some(&d)) => Some((s, d)),
                _ => None,
            },
        )
        .collect();
    arcs.sort_unstable();
    arcs.dedup();
    let mut succ_first = vec![0u32; executed.len() + 1];
    for &(s, _) in &arcs {
        succ_first[s as usize + 1] += 1;
    }
    for i in 0..executed.len() {
        succ_first[i + 1] += succ_first[i];
    }
    let succ: Vec<u32> = arcs.iter().map(|&(_, d)| d).collect();

    // Invocation seeds with at least one recorded entry.
    let seeds: Vec<u32> = SeedKind::ALL
        .iter()
        .filter(|&&k| profile.seed_invocations(k) > 0)
        .filter_map(|&k| program.seed_block(k))
        .filter_map(|b| node_of.get(&b.index()).copied())
        .collect();

    let graph = fixpoint::Graph {
        lines,
        succ_first,
        succ,
        seeds,
    };
    let fx = fixpoint::solve(
        &graph,
        num_sets,
        ways,
        &line_set,
        params.may_cap_per_set,
        params.join_bound,
    );

    // Persistence: a set whose distinct ever-accessed lines (executed OS
    // lines plus foreign application lines) fit within its ways never
    // evicts — every line in it misses at most once per run.
    let mut set_lines = vec![0u64; num_sets];
    for &s in &line_set {
        set_lines[s as usize] += 1;
    }
    let mut foreign_seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for &addr in &params.foreign_lines {
        let line = cfg.line_addr(addr);
        if line_ids.contains_key(&line) {
            continue; // already counted as an OS line
        }
        if foreign_seen.insert(line) {
            set_lines[cfg.set_of(line) as usize] += 1;
        }
    }
    let persistent_ok: Vec<bool> = set_lines.iter().map(|&n| n <= u64::from(ways)).collect();

    // Classification walk: each slot is judged against the state after
    // its block's earlier slots.
    let havoc = AbsState::havoc(num_sets);
    let mut points = Vec::new();
    let mut count = [0u64; 4];
    let mut weighted = [0u64; 4];
    let mut invariant_violations = 0u64;
    for (node, &block) in executed.iter().enumerate() {
        let weight = profile.node_weight(oslay_model::BlockId::new(block));
        let mut state = fx.in_states[node].clone().unwrap_or_else(|| havoc.clone());
        for (slot, &(line, set)) in graph.lines[node].iter().enumerate() {
            invariant_violations += state.invariant_violations(&line_set, ways);
            let class = if state.must_hit(line) {
                LineClass::AlwaysHit
            } else if persistent_ok[set as usize] {
                LineClass::Persistent
            } else if !state.may_contain(line, set, ways) {
                LineClass::AlwaysMiss
            } else {
                LineClass::Unclassified
            };
            count[class.index()] += 1;
            weighted[class.index()] += weight;
            points.push(ClassPoint {
                block: block as u32,
                slot: slot as u32,
                line_addr: line_addr_of[line as usize],
                set,
                weight,
                class,
            });
            state.access(line, set, ways, &line_set);
        }
    }

    Classification {
        layout: view.name.clone(),
        points,
        count,
        weighted,
        iterations: fx.iterations,
        havocked: fx.havocked,
        analyzed_blocks: executed.len() as u32,
        invariant_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_layout::base_layout;
    use oslay_model::synth::{generate_kernel, KernelParams, Scale};
    use oslay_trace::{standard_workloads, Engine, EngineConfig};

    fn tiny_classification() -> Classification {
        let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 13));
        let specs = standard_workloads(&k.tables);
        let t = Engine::new(&k.program, None, &specs[3], EngineConfig::new(16)).run(40_000);
        let p = oslay_profile::Profile::collect(&k.program, &t);
        let layout = base_layout(&k.program, 0);
        let view = LayoutView::from_layout(&layout);
        let params = AbsintParams::new(CacheConfig::paper_default());
        classify_layout(&k.program, &p, &view, &params)
    }

    #[test]
    fn block_lines_follow_fetch_words_not_byte_spans() {
        let cfg = CacheConfig::paper_default();
        // addr 2, 31 bytes: byte span [2, 33) touches line 32, but the
        // last fetch word sits at addr 30 — only line 0 is fetched.
        assert_eq!(block_line_addrs(2, 31, &cfg), vec![0]);
        // addr 30, 8 bytes: words at 30 and 34 straddle the boundary.
        assert_eq!(block_line_addrs(30, 8, &cfg), vec![0, 32]);
        // Zero-size block fetches nothing.
        assert_eq!(block_line_addrs(64, 0, &cfg), Vec::<u64>::new());
    }

    #[test]
    fn classification_accounts_are_consistent() {
        let c = tiny_classification();
        assert!(c.analyzed_blocks > 0);
        assert_eq!(c.count.iter().sum::<u64>(), c.points.len() as u64);
        assert_eq!(
            c.total_weight(),
            c.points.iter().map(|p| p.weight).sum::<u64>()
        );
        assert!((0.0..=1.0).contains(&c.coverage()));
        assert_eq!(c.invariant_violations, 0);
        // A real trace produces within-invocation locality: some points
        // must be provably always-hit.
        assert!(c.count[LineClass::AlwaysHit.index()] > 0);
        // And the fixpoint did real work.
        assert!(c.iterations >= u64::from(c.analyzed_blocks));
    }

    #[test]
    fn classification_is_deterministic() {
        let a = tiny_classification();
        let b = tiny_classification();
        assert_eq!(a, b);
    }

    #[test]
    fn foreign_lines_shrink_persistence() {
        let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 13));
        let specs = standard_workloads(&k.tables);
        let t = Engine::new(&k.program, None, &specs[3], EngineConfig::new(16)).run(40_000);
        let p = oslay_profile::Profile::collect(&k.program, &t);
        let layout = base_layout(&k.program, 0);
        let view = LayoutView::from_layout(&layout);
        let cfg = CacheConfig::paper_default();
        let plain = classify_layout(&k.program, &p, &view, &AbsintParams::new(cfg));
        // Flood every set with `ways` foreign lines (placed far above
        // any OS address): no set can stay under its persistence budget.
        let flood: Vec<u64> = (0..cfg.num_sets() * cfg.ways())
            .map(|i| (1u64 << 40) + u64::from(i) * u64::from(cfg.line()))
            .collect();
        let flooded = classify_layout(
            &k.program,
            &p,
            &view,
            &AbsintParams::new(cfg).with_foreign_lines(flood),
        );
        assert_eq!(flooded.count[LineClass::Persistent.index()], 0);
        assert!(
            plain.count[LineClass::Persistent.index()]
                >= flooded.count[LineClass::Persistent.index()]
        );
    }
}
