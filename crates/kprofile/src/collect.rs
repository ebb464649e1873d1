//! Building profiles from block-level traces.

use oslay_model::{BlockId, Domain, Program, Terminator};
use oslay_trace::{Trace, TraceEvent};

use crate::Profile;

impl Profile {
    /// Collects a profile of `program` from one trace.
    ///
    /// Only events in the program's domain contribute. For the operating
    /// system, arcs are counted *within* invocations (an invocation boundary
    /// is not a control transfer); for applications, arcs span OS
    /// invocations because the application walk resumes exactly where it
    /// was suspended.
    ///
    /// # Panics
    ///
    /// Panics if the trace references block ids outside `program`.
    #[must_use]
    pub fn collect(program: &Program, trace: &Trace) -> Profile {
        let mut profile = Profile::empty(program);
        profile.add_trace(program, trace);
        profile
    }

    /// Collects one merged profile from several traces (the paper's
    /// averaged multi-workload profile).
    #[must_use]
    pub fn collect_many<'a>(
        program: &Program,
        traces: impl IntoIterator<Item = &'a Trace>,
    ) -> Profile {
        let mut profile = Profile::empty(program);
        for trace in traces {
            profile.add_trace(program, trace);
        }
        profile
    }

    /// Accumulates one more trace into this profile.
    ///
    /// # Panics
    ///
    /// Panics if the trace references block ids outside `program`.
    pub fn add_trace(&mut self, program: &Program, trace: &Trace) {
        assert_eq!(program.num_blocks(), self.num_blocks, "program mismatch");
        let domain = self.domain;
        let mut prev: Option<BlockId> = None;
        let mut invocation_start = false;
        for event in trace.events() {
            match *event {
                TraceEvent::OsEnter(kind) => {
                    if domain == Domain::Os {
                        self.seed_invocations[kind.index()] += 1;
                        prev = None;
                        invocation_start = true;
                    }
                }
                TraceEvent::OsExit => {
                    if domain == Domain::Os {
                        prev = None;
                    }
                }
                TraceEvent::Block { id, domain: d } => {
                    if d != domain {
                        continue;
                    }
                    assert!(
                        id.index() < self.num_blocks,
                        "trace block {id} out of range for program"
                    );
                    self.node[id.index()] += 1;
                    self.total_node_weight += 1;
                    if let Some(p) = prev {
                        self.add_arc(p, id, 1);
                        // A call transition invokes the callee routine.
                        if let Terminator::Call { callee, .. } = program.block(p).terminator() {
                            if program.routine(*callee).entry() == id {
                                self.routine_invocations[callee.index()] += 1;
                            }
                        }
                    } else if invocation_start
                        || (domain == Domain::App && self.total_node_weight == 1)
                    {
                        // Seed entry (OS) or the application's first block:
                        // an invocation of the containing routine.
                        let routine = program.block(id).routine();
                        self.routine_invocations[routine.index()] += 1;
                        invocation_start = false;
                    }
                    prev = Some(id);
                }
            }
        }
        self.sort_arcs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::synth::{
        generate_app_mix, generate_kernel, AppKind, AppParams, KernelParams, Scale,
    };
    use oslay_model::SeedKind;
    use oslay_trace::{standard_workloads, Engine, EngineConfig, StandardWorkload};

    fn kernel() -> oslay_model::synth::SyntheticKernel {
        generate_kernel(&KernelParams::at_scale(Scale::Tiny, 21))
    }

    fn shell_trace(k: &oslay_model::synth::SyntheticKernel, blocks: u64) -> Trace {
        let specs = standard_workloads(&k.tables);
        Engine::new(&k.program, None, &specs[3], EngineConfig::new(2)).run(blocks)
    }

    #[test]
    fn node_weights_sum_to_os_blocks() {
        let k = kernel();
        let t = shell_trace(&k, 20_000);
        let p = Profile::collect(&k.program, &t);
        assert_eq!(p.total_node_weight(), t.os_blocks());
    }

    #[test]
    fn out_arc_weights_do_not_exceed_node_weight() {
        let k = kernel();
        let t = shell_trace(&k, 20_000);
        let p = Profile::collect(&k.program, &t);
        for b in p.executed_blocks() {
            let out: u64 = p.out_arcs(b).iter().map(|&(_, w)| w).sum();
            assert!(
                out <= p.node_weight(b),
                "block {b}: out {out} > node {}",
                p.node_weight(b)
            );
        }
    }

    #[test]
    fn seed_invocations_match_trace() {
        let k = kernel();
        let t = shell_trace(&k, 20_000);
        let p = Profile::collect(&k.program, &t);
        for kind in SeedKind::ALL {
            assert_eq!(p.seed_invocations(kind), t.invocations(kind));
        }
    }

    #[test]
    fn only_a_fraction_of_the_kernel_is_executed() {
        let k = kernel();
        let t = shell_trace(&k, 30_000);
        let p = Profile::collect(&k.program, &t);
        let frac = p.num_executed_blocks() as f64 / k.program.num_blocks() as f64;
        assert!(frac > 0.01, "executed fraction {frac} suspiciously low");
        assert!(frac < 0.9, "executed fraction {frac} suspiciously high");
    }

    #[test]
    fn hot_utilities_have_many_invocations() {
        let k = kernel();
        let t = shell_trace(&k, 40_000);
        let p = Profile::collect(&k.program, &t);
        let trans = k.program.routine_by_name("usr_sys_trans").unwrap().id();
        assert!(p.routine_invocations(trans) > 20);
    }

    #[test]
    fn app_profile_counts_app_blocks_only() {
        let k = kernel();
        let specs = standard_workloads(&k.tables);
        let app = generate_app_mix(
            &[(AppKind::Scientific, 1.0)],
            &AppParams::new(1).with_scale(0.3),
        );
        let t = Engine::new(&k.program, Some(&app), &specs[0], EngineConfig::new(3)).run(15_000);
        let os_prof = Profile::collect(&k.program, &t);
        let app_prof = Profile::collect(&app, &t);
        assert_eq!(os_prof.total_node_weight(), t.os_blocks());
        assert_eq!(app_prof.total_node_weight(), t.app_blocks());
        assert_eq!(app_prof.seed_invocations(SeedKind::Interrupt), 0);
        // The scientific app's inner loop dominates its own profile.
        let inner = app.routine_by_name("sci0_dgemm_inner").unwrap();
        assert!(app_prof.routine_invocations(inner.id()) > 0);
    }

    #[test]
    fn collect_many_equals_two_adds() {
        let k = kernel();
        let t1 = shell_trace(&k, 5_000);
        let t2 = shell_trace(&k, 5_000);
        let merged = Profile::collect_many(&k.program, [&t1, &t2]);
        let mut manual = Profile::collect(&k.program, &t1);
        manual.add_trace(&k.program, &t2);
        assert_eq!(merged.total_node_weight(), manual.total_node_weight());
        assert_eq!(
            merged.total_routine_invocations(),
            manual.total_routine_invocations()
        );
    }

    #[test]
    fn standard_workload_names_stable() {
        // Guards the index used by `shell_trace` above.
        assert_eq!(StandardWorkload::ALL[3].name(), "Shell");
    }
}
