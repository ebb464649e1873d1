//! Randomized-property tests on the core data structures: random programs
//! must always produce valid layouts, and the cache simulator must agree
//! with a simple reference LRU model on arbitrary address streams.
//!
//! The random cases are drawn from the workspace's own deterministic
//! [`Rng`] under fixed seeds — same coverage as a property-testing
//! framework, no external crate, and any failure reproduces exactly from
//! the seed embedded in the test.

use oslay::cache::{Cache, CacheConfig, InstructionCache};
use oslay::layout::{base_layout, chang_hwu_layout, optimize_os, OptParams};
use oslay::model::{
    BranchTarget, Domain, Program, ProgramBuilder, RoutineId, SeedKind, Terminator,
};
use oslay::profile::{LoopAnalysis, Profile};
use oslay::trace::{Engine, EngineConfig, WorkloadSpec};
use oslay_model::rng::Rng;

// ---------- random program generation ------------------------------------

#[derive(Clone, Debug)]
struct RoutineSpec {
    sizes: Vec<u32>,
    /// Per non-final block: 0 = jump to next; 1 = branch next/skip;
    /// 2 = call a previous routine (if any) then continue.
    shapes: Vec<u8>,
    /// Back-edge: if true, the second-to-last block branches back to 0.
    back_edge: bool,
}

fn routine_spec(rng: &mut Rng) -> RoutineSpec {
    let num_blocks = rng.gen_range(2usize..9);
    RoutineSpec {
        sizes: (0..num_blocks).map(|_| rng.gen_range(4u32..64)).collect(),
        shapes: (0..8).map(|_| rng.gen_range(0u32..3) as u8).collect(),
        back_edge: rng.gen_bool(0.5),
    }
}

fn random_specs(rng: &mut Rng, routines: std::ops::Range<usize>) -> Vec<RoutineSpec> {
    let n = rng.gen_range(routines);
    (0..n).map(|_| routine_spec(rng)).collect()
}

fn build_program(specs: &[RoutineSpec]) -> Program {
    let mut b = ProgramBuilder::new(Domain::Os);
    let mut routines: Vec<RoutineId> = Vec::new();
    for (ri, spec) in specs.iter().enumerate() {
        let r = b.begin_routine(format!("r{ri}"));
        let blocks: Vec<_> = spec.sizes.iter().map(|&s| b.add_block(s)).collect();
        let n = blocks.len();
        for i in 0..n - 1 {
            let this = blocks[i];
            let next = blocks[i + 1];
            let shape = spec.shapes.get(i).copied().unwrap_or(0);
            if spec.back_edge && i == n - 2 && i > 0 {
                b.terminate(
                    this,
                    Terminator::branch([
                        BranchTarget::new(blocks[0], 0.6),
                        BranchTarget::new(next, 0.4),
                    ]),
                );
            } else if shape == 1 && i + 2 < n {
                b.terminate(
                    this,
                    Terminator::branch([
                        BranchTarget::new(next, 0.8),
                        BranchTarget::new(blocks[i + 2], 0.2),
                    ]),
                );
            } else if shape == 2 && !routines.is_empty() {
                let callee = routines[i % routines.len()];
                b.terminate(
                    this,
                    Terminator::Call {
                        callee,
                        ret_to: next,
                    },
                );
            } else {
                b.terminate(this, Terminator::Jump(next));
            }
        }
        b.terminate(blocks[n - 1], Terminator::Return);
        b.end_routine();
        routines.push(r);
    }
    // Seeds: the four last routines (or repeats for tiny programs).
    for (i, kind) in SeedKind::ALL.into_iter().enumerate() {
        let r = routines[routines.len().saturating_sub(1 + i).min(routines.len() - 1)];
        b.set_seed(kind, r);
    }
    b.build().expect("generated random program validates")
}

fn assert_layout_valid(program: &Program, layout: &oslay::layout::Layout) {
    // Complete.
    assert_eq!(layout.num_blocks(), program.num_blocks());
    // Non-overlapping.
    let mut spans: Vec<(u64, u64)> = (0..program.num_blocks())
        .map(oslay::model::BlockId::new)
        .map(|b| {
            (
                layout.addr(b),
                layout.addr(b) + u64::from(layout.effective_size(b)),
            )
        })
        .collect();
    spans.sort_unstable();
    for pair in spans.windows(2) {
        assert!(pair[0].1 <= pair[1].0, "overlap {pair:?}");
    }
    // Stretch only ever adds one word.
    for i in 0..program.num_blocks() {
        let b = oslay::model::BlockId::new(i);
        assert!(layout.stretch(b) <= 4);
        assert!(layout.effective_size(b) >= program.block(b).size());
    }
}

#[test]
fn random_programs_produce_valid_layouts() {
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0x1a70_0000 + case);
        let specs = random_specs(&mut rng, 4..14);
        let seed = rng.gen_range(0u64..1000);
        let program = build_program(&specs);
        // Base layout needs no profile.
        assert_layout_valid(&program, &base_layout(&program, 0));

        // Trace it briefly, then build the profile-guided layouts.
        let spec = WorkloadSpec {
            name: "prop".into(),
            invocation_mix: [0.4, 0.3, 0.2, 0.1],
            dispatch_weights: Default::default(),
            app_burst_mean: 0.0,
        };
        let trace = Engine::new(&program, None, &spec, EngineConfig::new(seed)).run(3_000);
        let profile = Profile::collect(&program, &trace);
        let loops = LoopAnalysis::analyze(&program, &profile);

        assert_layout_valid(&program, &chang_hwu_layout(&program, &profile, 0));
        let opt = optimize_os(&program, &profile, &loops, &OptParams::opt_s(1024));
        assert_layout_valid(&program, &opt.layout);
        let optl = optimize_os(&program, &profile, &loops, &OptParams::opt_l(1024));
        assert_layout_valid(&program, &optl.layout);
    }
}

#[test]
fn profile_conservation_on_random_programs() {
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0x9207_0000 + case);
        let specs = random_specs(&mut rng, 3..10);
        let seed = rng.gen_range(0u64..1000);
        let program = build_program(&specs);
        let spec = WorkloadSpec {
            name: "prop".into(),
            invocation_mix: [0.25, 0.25, 0.25, 0.25],
            dispatch_weights: Default::default(),
            app_burst_mean: 0.0,
        };
        let trace = Engine::new(&program, None, &spec, EngineConfig::new(seed)).run(2_000);
        let profile = Profile::collect(&program, &trace);
        // Node weights sum to traced blocks.
        assert_eq!(profile.total_node_weight(), trace.os_blocks());
        // Out-arc weights never exceed the node weight.
        for b in profile.executed_blocks() {
            let out: u64 = profile.out_arcs(b).iter().map(|&(_, w)| w).sum();
            assert!(out <= profile.node_weight(b));
        }
    }
}

#[test]
fn sequence_invariants_on_random_programs() {
    use oslay::layout::{build_sequences, ThresholdSchedule};
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x5e90_0000 + case);
        let specs = random_specs(&mut rng, 4..12);
        let seed = rng.gen_range(0u64..1000);
        let program = build_program(&specs);
        let spec = WorkloadSpec {
            name: "prop".into(),
            invocation_mix: [0.4, 0.3, 0.2, 0.1],
            dispatch_weights: Default::default(),
            app_burst_mean: 0.0,
        };
        let trace = Engine::new(&program, None, &spec, EngineConfig::new(seed)).run(3_000);
        let profile = Profile::collect(&program, &trace);
        let seqs = build_sequences(&program, &profile, &ThresholdSchedule::paper());

        // 1. Every executed block is captured by the final (0,0) pass.
        for b in profile.executed_blocks() {
            assert!(seqs.contains(b), "executed block {b} missed");
        }
        // 2. No unexecuted block is ever captured.
        for i in 0..program.num_blocks() {
            let b = oslay::model::BlockId::new(i);
            if profile.node_weight(b) == 0 {
                assert!(!seqs.contains(b), "cold block {b} captured");
            }
        }
        // 3. No block appears in two sequences.
        let mut seen = vec![false; program.num_blocks()];
        for (_, b) in seqs.blocks_in_order() {
            assert!(!seen[b.index()], "block {b} captured twice");
            seen[b.index()] = true;
        }
        // 4. Per-pass exec thresholds are respected.
        for s in seqs.sequences() {
            for &b in &s.blocks {
                assert!(profile.exec_ratio(b) >= s.exec_thresh);
            }
        }
    }
}

#[test]
fn scf_protection_on_random_programs() {
    use oslay::layout::BlockClass;
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x5cf0_0000 + case);
        let specs = random_specs(&mut rng, 4..12);
        let seed = rng.gen_range(0u64..1000);
        let program = build_program(&specs);
        let spec = WorkloadSpec {
            name: "prop".into(),
            invocation_mix: [0.25, 0.25, 0.25, 0.25],
            dispatch_weights: Default::default(),
            app_burst_mean: 0.0,
        };
        let trace = Engine::new(&program, None, &spec, EngineConfig::new(seed)).run(4_000);
        let profile = Profile::collect(&program, &trace);
        let loops = LoopAnalysis::analyze(&program, &profile);
        let cache_size = 512u32;
        let opt = optimize_os(&program, &profile, &loops, &OptParams::opt_s(cache_size));
        // SelfConfFree protection: no executed non-SCF block may occupy an
        // SCF cache offset.
        for b in profile.executed_blocks() {
            let offset = opt.layout.addr(b) % u64::from(cache_size);
            if opt.class(b) == BlockClass::SelfConfFree {
                assert!(opt.layout.addr(b) < opt.scf_bytes);
            } else if opt.scf_bytes > 0 {
                assert!(
                    offset >= opt.scf_bytes,
                    "executed block {b} at protected offset {offset}"
                );
            }
            // Executed blocks are never classified Cold.
            assert!(opt.class(b) != BlockClass::Cold);
        }
    }
}

#[test]
fn traces_are_well_formed_on_random_programs() {
    use oslay::trace::TraceEvent;
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x7ace_0000 + case);
        let specs = random_specs(&mut rng, 3..10);
        let seed = rng.gen_range(0u64..1000);
        let program = build_program(&specs);
        let spec = WorkloadSpec {
            name: "prop".into(),
            invocation_mix: [1.0, 0.0, 0.0, 0.0],
            dispatch_weights: Default::default(),
            app_burst_mean: 0.0,
        };
        let trace = Engine::new(&program, None, &spec, EngineConfig::new(seed)).run(1_000);
        let mut in_os = false;
        for e in trace.events() {
            match e {
                TraceEvent::OsEnter(_) => {
                    assert!(!in_os);
                    in_os = true;
                }
                TraceEvent::OsExit => {
                    assert!(in_os);
                    in_os = false;
                }
                TraceEvent::Block { id, .. } => {
                    assert!(in_os);
                    assert!(id.index() < program.num_blocks());
                }
            }
        }
        assert!(!in_os);
    }
}

// ---------- cache vs reference model -------------------------------------

/// Straightforward reference LRU implementation (vectors of lines, most
/// recently used last).
struct RefCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            ways: cfg.ways() as usize,
            line: u64::from(cfg.line()),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line * self.line;
        let set = ((addr / self.line) as usize) % self.sets.len();
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&l| l == line) {
            s.remove(pos);
            s.push(line);
            true
        } else {
            if s.len() == self.ways {
                s.remove(0);
            }
            s.push(line);
            false
        }
    }
}

#[test]
fn cache_agrees_with_reference_lru() {
    for case in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0xca5e_0000 + case);
        let num_addrs = rng.gen_range(1usize..600);
        let addrs: Vec<u64> = (0..num_addrs).map(|_| rng.gen_range(0u64..4096)).collect();
        let ways_pow = rng.gen_range(0u32..3);
        let line_pow = rng.gen_range(4u32..7);
        let cfg = CacheConfig::new(1024, 1 << line_pow, 1 << ways_pow);
        let mut cache = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for &addr in &addrs {
            let hit = !cache.access(addr, Domain::Os).is_miss();
            let ref_hit = reference.access(addr);
            assert_eq!(hit, ref_hit, "divergence at {addr:#x}");
        }
        // Accounting invariant.
        let s = cache.stats();
        assert_eq!(s.hits(Domain::Os) + s.total_misses(), addrs.len() as u64);
    }
}
