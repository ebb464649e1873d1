//! The stochastic trace engine.
//!
//! Walks the kernel (and optionally an application) control-flow graph,
//! emitting a block-level trace. The walk interleaves application *bursts*
//! with operating-system *invocations*, mimicking a processor that runs
//! user code until an interrupt, fault, or system call transfers control to
//! the kernel. The application walk is suspended — call stack and all —
//! during each OS invocation and resumed afterwards.

use oslay_model::rng::Rng;
use oslay_model::{BlockId, Domain, Program, SeedKind, Terminator};

use crate::{Trace, TraceEvent, TraceSink, WorkloadSpec};

/// Engine tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct EngineConfig {
    /// RNG seed; traces are bit-reproducible for a given seed.
    pub seed: u64,
    /// Hard cap on blocks per OS invocation (safety net against
    /// pathological user-supplied programs).
    pub max_invocation_blocks: usize,
    /// Maximum call-stack depth; deeper calls are skipped rather than
    /// followed (the synthetic kernel's call graph is acyclic, so this only
    /// matters for user-supplied recursive programs).
    pub max_call_depth: usize,
}

impl EngineConfig {
    /// Default configuration with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            max_invocation_blocks: 200_000,
            max_call_depth: 64,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

/// A suspended walk through one program: current block + call stack of
/// return continuations.
#[derive(Clone, Debug)]
struct Walk {
    current: Option<BlockId>,
    stack: Vec<BlockId>,
}

impl Walk {
    fn at(block: BlockId) -> Self {
        Self {
            current: Some(block),
            stack: Vec::new(),
        }
    }
}

/// Generates block-level traces for one workload on one kernel.
///
/// # Example
///
/// ```
/// use oslay_model::synth::{generate_kernel, KernelParams, Scale};
/// use oslay_trace::{standard_workloads, Engine, EngineConfig};
///
/// let kernel = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 1));
/// let spec = &standard_workloads(&kernel.tables)[3]; // Shell: OS only
/// let mut engine = Engine::new(&kernel.program, None, spec, EngineConfig::new(7));
/// let trace = engine.run(10_000);
/// assert!(trace.os_blocks() >= 10_000);
/// ```
pub struct Engine<'a> {
    kernel: &'a Program,
    app: Option<&'a Program>,
    spec: &'a WorkloadSpec,
    cfg: EngineConfig,
    rng: Rng,
    app_walk: Option<Walk>,
    truncated_invocations: u64,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("spec", &self.spec.name)
            .field("cfg", &self.cfg)
            .field("truncated_invocations", &self.truncated_invocations)
            .finish_non_exhaustive()
    }
}

impl<'a> Engine<'a> {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is not an OS program, if `app` is not an App
    /// program with an entry, or if the spec requests an application burst
    /// but no application was supplied.
    #[must_use]
    pub fn new(
        kernel: &'a Program,
        app: Option<&'a Program>,
        spec: &'a WorkloadSpec,
        cfg: EngineConfig,
    ) -> Self {
        assert_eq!(kernel.domain(), Domain::Os, "kernel must be an OS program");
        if let Some(app) = app {
            assert_eq!(app.domain(), Domain::App, "app must be an App program");
            assert!(app.entry().is_some(), "app needs an entry routine");
        }
        assert!(
            !spec.has_app() || app.is_some(),
            "workload {:?} interleaves an application but none was supplied",
            spec.name
        );
        let app_walk = app.and_then(|p| {
            if spec.has_app() {
                let entry = p.routine(p.entry().expect("checked above")).entry();
                Some(Walk::at(entry))
            } else {
                None
            }
        });
        Self {
            kernel,
            app,
            spec,
            cfg,
            rng: Rng::seed_from_u64(cfg.seed),
            app_walk,
            truncated_invocations: 0,
        }
    }

    /// Runs until at least `target_os_blocks` operating-system block events
    /// have been emitted, finishing the final invocation cleanly.
    ///
    /// Buffered compatibility shim over [`Engine::run_into`]: collects the
    /// stream into a [`Trace`]. Streaming consumers that only need the
    /// events once should pass their own sink to `run_into` instead and
    /// skip the event vector entirely.
    pub fn run(&mut self, target_os_blocks: u64) -> Trace {
        let mut trace = Trace::default();
        self.run_into(target_os_blocks, &mut trace);
        trace
    }

    /// Streaming run: generates the same event sequence as [`Engine::run`]
    /// (bit-identical for a given seed) but hands each event to `sink` as
    /// it is produced, so nothing is buffered.
    pub fn run_into<S: TraceSink + ?Sized>(&mut self, target_os_blocks: u64, sink: &mut S) {
        let mut os_blocks = 0u64;
        while os_blocks < target_os_blocks {
            self.app_burst(sink);
            os_blocks += self.os_invocation(sink);
        }
    }

    /// Number of invocations cut short by the
    /// [`EngineConfig::max_invocation_blocks`] safety cap (should be zero
    /// for well-formed programs).
    #[must_use]
    pub fn truncated_invocations(&self) -> u64 {
        self.truncated_invocations
    }

    /// Executes one complete OS invocation into `sink`; returns the number
    /// of OS block events emitted.
    fn os_invocation<S: TraceSink + ?Sized>(&mut self, sink: &mut S) -> u64 {
        let kind = self.sample_seed_kind();
        sink.event(TraceEvent::OsEnter(kind));
        let entry = self
            .kernel
            .seed_block(kind)
            .expect("OS program has all seeds");
        let mut walk = Walk::at(entry);
        let mut steps = 0usize;
        while let Some(block) = walk.current {
            sink.event(TraceEvent::Block {
                id: block,
                domain: Domain::Os,
            });
            steps += 1;
            if steps >= self.cfg.max_invocation_blocks {
                self.truncated_invocations += 1;
                break;
            }
            self.advance(self.kernel, &mut walk);
        }
        sink.event(TraceEvent::OsExit);
        steps as u64
    }

    /// Executes one application burst into `sink` (no-op for OS-only
    /// workloads).
    fn app_burst<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        let Some(walk) = self.app_walk.as_mut() else {
            return;
        };
        let app = self.app.expect("app_walk implies app");
        // Exponentially distributed burst length with the configured mean:
        // OS invocations arrive as a Poisson-like process over user
        // instructions.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let len = (-self.spec.app_burst_mean * u.ln()).ceil() as usize;
        for _ in 0..len.max(1) {
            let Some(block) = walk.current else {
                // The job loop returned all the way out (does not happen
                // with generated apps); restart at main.
                let entry = app.routine(app.entry().expect("validated")).entry();
                walk.current = Some(entry);
                walk.stack.clear();
                continue;
            };
            sink.event(TraceEvent::Block {
                id: block,
                domain: Domain::App,
            });
            Self::advance_walk(app, walk, &mut self.rng, self.spec, &self.cfg);
        }
    }

    fn advance(&mut self, program: &Program, walk: &mut Walk) {
        Self::advance_walk(program, walk, &mut self.rng, self.spec, &self.cfg);
    }

    /// Advances a walk by one control transfer.
    fn advance_walk(
        program: &Program,
        walk: &mut Walk,
        rng: &mut Rng,
        spec: &WorkloadSpec,
        cfg: &EngineConfig,
    ) {
        let block = walk.current.expect("advance requires a current block");
        match program.block(block).terminator() {
            Terminator::Jump(dst) => walk.current = Some(*dst),
            Terminator::Branch(targets) => {
                let mut u: f64 = rng.gen_f64();
                let mut chosen = targets.last().expect("validated nonempty").dst;
                for t in targets {
                    if u < t.prob {
                        chosen = t.dst;
                        break;
                    }
                    u -= t.prob;
                }
                walk.current = Some(chosen);
            }
            Terminator::Dispatch { table, targets } => {
                let idx = match spec.dispatch(*table) {
                    Some(weights) => weighted_choice(rng, weights),
                    None => rng.gen_range(0..targets.len()),
                };
                walk.current = Some(targets[idx.min(targets.len() - 1)]);
            }
            Terminator::Call { callee, ret_to } => {
                if walk.stack.len() >= cfg.max_call_depth {
                    walk.current = Some(*ret_to);
                } else {
                    walk.stack.push(*ret_to);
                    walk.current = Some(program.routine(*callee).entry());
                }
            }
            Terminator::Return => walk.current = walk.stack.pop(),
        }
    }

    fn sample_seed_kind(&mut self) -> SeedKind {
        let idx = weighted_choice(&mut self.rng, &self.spec.invocation_mix);
        SeedKind::from_index(idx)
    }
}

/// Samples an index proportional to `weights` (which need not be
/// normalized). Returns 0 if all weights are zero.
fn weighted_choice(rng: &mut Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut u: f64 = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::synth::{generate_app_mix, generate_kernel, AppParams, KernelParams, Scale};

    use crate::{standard_workloads, StandardWorkload};

    fn setup() -> (oslay_model::synth::SyntheticKernel, Vec<WorkloadSpec>) {
        let kernel = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 11));
        let specs = standard_workloads(&kernel.tables);
        (kernel, specs)
    }

    #[test]
    fn shell_trace_is_os_only_and_meets_target() {
        let (kernel, specs) = setup();
        let mut engine = Engine::new(&kernel.program, None, &specs[3], EngineConfig::new(1));
        let trace = engine.run(5_000);
        assert!(trace.os_blocks() >= 5_000);
        assert_eq!(trace.app_blocks(), 0);
        assert_eq!(engine.truncated_invocations(), 0);
    }

    #[test]
    fn enter_exit_markers_bracket_os_blocks() {
        let (kernel, specs) = setup();
        let mut engine = Engine::new(&kernel.program, None, &specs[3], EngineConfig::new(2));
        let trace = engine.run(2_000);
        let mut in_os = false;
        for ev in trace.events() {
            match ev {
                TraceEvent::OsEnter(_) => {
                    assert!(!in_os, "nested OsEnter");
                    in_os = true;
                }
                TraceEvent::OsExit => {
                    assert!(in_os, "OsExit without OsEnter");
                    in_os = false;
                }
                TraceEvent::Block { domain, .. } => match domain {
                    Domain::Os => assert!(in_os, "OS block outside invocation"),
                    Domain::App => assert!(!in_os, "app block inside invocation"),
                },
            }
        }
        assert!(!in_os, "trace ends mid-invocation");
    }

    #[test]
    fn traces_are_deterministic() {
        let (kernel, specs) = setup();
        let t1 = Engine::new(&kernel.program, None, &specs[3], EngineConfig::new(5)).run(3_000);
        let t2 = Engine::new(&kernel.program, None, &specs[3], EngineConfig::new(5)).run(3_000);
        assert_eq!(t1, t2);
        let t3 = Engine::new(&kernel.program, None, &specs[3], EngineConfig::new(6)).run(3_000);
        assert_ne!(t1, t3);
    }

    #[test]
    fn run_into_streams_the_same_events_as_run() {
        struct Collect(Vec<TraceEvent>);
        impl TraceSink for Collect {
            fn event(&mut self, event: TraceEvent) {
                self.0.push(event);
            }
        }
        let (kernel, specs) = setup();
        let buffered =
            Engine::new(&kernel.program, None, &specs[3], EngineConfig::new(5)).run(3_000);
        let mut sink = Collect(Vec::new());
        Engine::new(&kernel.program, None, &specs[3], EngineConfig::new(5))
            .run_into(3_000, &mut sink);
        assert_eq!(buffered.events(), sink.0.as_slice());
    }

    #[test]
    fn invocation_mix_approaches_spec() {
        let (kernel, specs) = setup();
        let spec = &specs[3]; // Shell
        let mut engine = Engine::new(&kernel.program, None, spec, EngineConfig::new(9));
        let trace = engine.run(150_000);
        let mix = trace.invocation_mix();
        for (got, want) in mix.iter().zip(&spec.invocation_mix) {
            assert!(
                (got - want).abs() < 0.06,
                "mix {mix:?} vs spec {:?}",
                spec.invocation_mix
            );
        }
    }

    #[test]
    fn app_interleaving_produces_both_domains() {
        let (kernel, specs) = setup();
        let spec = &specs[0]; // TRFD_4
        let app = generate_app_mix(
            &StandardWorkload::Trfd4.app_components(),
            &AppParams::new(3).with_scale(0.3),
        );
        let mut engine = Engine::new(&kernel.program, Some(&app), spec, EngineConfig::new(4));
        let trace = engine.run(20_000);
        assert!(trace.app_blocks() > 0, "expected app blocks");
        assert!(trace.os_blocks() >= 20_000);
        // App share should be substantial (the paper's workloads are
        // 40-60% OS references).
        let share = trace.os_blocks() as f64 / trace.total_blocks() as f64;
        assert!((0.15..0.95).contains(&share), "OS share {share}");
    }

    #[test]
    fn os_blocks_reference_kernel_blocks_only() {
        let (kernel, specs) = setup();
        let mut engine = Engine::new(&kernel.program, None, &specs[3], EngineConfig::new(8));
        let trace = engine.run(1_000);
        for ev in trace.events() {
            if let TraceEvent::Block {
                id,
                domain: Domain::Os,
            } = ev
            {
                assert!(id.index() < kernel.program.num_blocks());
            }
        }
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = Rng::seed_from_u64(1);
        let w = [0.0, 0.0, 1.0, 0.0];
        for _ in 0..100 {
            assert_eq!(weighted_choice(&mut rng, &w), 2);
        }
        assert_eq!(weighted_choice(&mut rng, &[0.0, 0.0]), 0);
    }

    #[test]
    fn dispatch_without_weights_falls_back_to_uniform() {
        use oslay_model::{Domain, ProgramBuilder, SeedKind, Terminator};
        // A seed routine whose dispatch has no workload weights: all
        // targets must still be reachable (uniform fallback).
        let mut b = ProgramBuilder::new(Domain::Os);
        let table = b.new_dispatch_table();
        let r = b.begin_routine("seed");
        let entry = b.add_block(8);
        let t0 = b.add_block(8);
        let t1 = b.add_block(8);
        let t2 = b.add_block(8);
        b.terminate(
            entry,
            Terminator::Dispatch {
                table,
                targets: vec![t0, t1, t2],
            },
        );
        for t in [t0, t1, t2] {
            b.terminate(t, Terminator::Return);
        }
        b.end_routine();
        for kind in SeedKind::ALL {
            b.set_seed(kind, r);
        }
        let p = b.build().unwrap();
        let spec = WorkloadSpec {
            name: "uniform".into(),
            invocation_mix: [1.0, 0.0, 0.0, 0.0],
            dispatch_weights: Default::default(),
            app_burst_mean: 0.0,
        };
        let trace = Engine::new(&p, None, &spec, EngineConfig::new(3)).run(3_000);
        let mut hit = [0u64; 3];
        for ev in trace.events() {
            if let crate::TraceEvent::Block { id, .. } = ev {
                for (i, t) in [t0, t1, t2].iter().enumerate() {
                    if id == t {
                        hit[i] += 1;
                    }
                }
            }
        }
        for (i, &h) in hit.iter().enumerate() {
            assert!(h > 100, "dispatch target {i} hit only {h} times");
        }
    }

    #[test]
    fn every_block_is_in_an_invocation_or_a_burst() {
        let (kernel, specs) = setup();
        let spec = &specs[0]; // TRFD_4: app + OS
        let app = generate_app_mix(
            &StandardWorkload::Trfd4.app_components(),
            &AppParams::new(3).with_scale(0.3),
        );
        let mut engine = Engine::new(&kernel.program, Some(&app), spec, EngineConfig::new(4));
        let trace = engine.run(5_000);

        let invocations = trace.invocation_lengths();
        assert!(!invocations.is_empty());
        assert_eq!(
            invocations.iter().map(|&n| u64::from(n)).sum::<u64>(),
            trace.os_blocks(),
            "every OS block is in some invocation"
        );
        // The app runs one non-empty burst before each invocation.
        let mut bursts: Vec<u64> = Vec::new();
        let (mut in_os, mut after_os) = (false, true);
        for event in trace.events() {
            match event {
                TraceEvent::OsEnter(_) => in_os = true,
                TraceEvent::OsExit => (in_os, after_os) = (false, true),
                TraceEvent::Block {
                    domain: Domain::App,
                    ..
                } => {
                    assert!(!in_os, "app block inside an invocation");
                    if after_os {
                        bursts.push(0);
                        after_os = false;
                    }
                    *bursts.last_mut().expect("a burst is open") += 1;
                }
                _ => {}
            }
        }
        assert_eq!(bursts.len(), invocations.len(), "one burst per invocation");
        assert_eq!(
            bursts.iter().sum::<u64>(),
            trace.app_blocks(),
            "every app block is in some burst"
        );
    }

    #[test]
    #[should_panic(expected = "interleaves an application")]
    fn app_workload_without_app_panics() {
        let (kernel, specs) = setup();
        let _ = Engine::new(&kernel.program, None, &specs[0], EngineConfig::new(1));
    }
}
