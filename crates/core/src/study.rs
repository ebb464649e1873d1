//! The end-to-end study: kernel + workloads + profiles + layouts.

use oslay_layout::{
    base_layout, call_opt_layout, chang_hwu_layout, optimize_app, optimize_os, BlockClass,
    CallOptParams, Layout, OptLayout, OptParams, APP_BASE,
};
use oslay_model::synth::{
    generate_app_mix, generate_kernel, AppParams, KernelParams, Scale, SyntheticKernel,
};
use oslay_model::Program;
use oslay_profile::{LoopAnalysis, Profile};
use oslay_trace::{standard_workloads, Engine, EngineConfig, StandardWorkload, WorkloadSpec};

/// Configuration of a [`Study`].
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Kernel scale.
    pub scale: Scale,
    /// Master seed (kernel, apps and traces derive their seeds from it).
    pub seed: u64,
    /// OS block events to trace per workload.
    pub os_blocks: u64,
    /// Application size multiplier (1.0 = paper scale).
    pub app_scale: f64,
}

impl StudyConfig {
    /// Paper-scale configuration (the default for experiment binaries).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            scale: Scale::Paper,
            seed: 0x05_1995,
            os_blocks: 1_200_000,
            app_scale: 1.0,
        }
    }

    /// Small configuration for integration tests and benches.
    #[must_use]
    pub fn small() -> Self {
        Self {
            scale: Scale::Small,
            seed: 0x05_1995,
            os_blocks: 250_000,
            app_scale: 0.5,
        }
    }

    /// Tiny configuration for unit tests and doctests.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            scale: Scale::Tiny,
            seed: 0x05_1995,
            os_blocks: 40_000,
            app_scale: 0.25,
        }
    }

    /// Overrides the traced OS block count.
    #[must_use]
    pub fn with_os_blocks(mut self, n: u64) -> Self {
        self.os_blocks = n;
        self
    }
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One workload of the study: its spec, application, trace, and profiles.
#[derive(Debug)]
pub struct WorkloadCase {
    /// Which standard workload this is.
    pub workload: StandardWorkload,
    /// The engine spec (invocation mix, dispatch weights, app burst).
    pub spec: WorkloadSpec,
    /// The application program, if the workload traces one.
    pub app: Option<Program>,
    /// The block-level trace.
    pub trace: oslay_trace::Trace,
    /// Kernel profile measured from this trace.
    pub os_profile: Profile,
    /// Application profile, if an application is traced.
    pub app_profile: Option<Profile>,
    /// Seed of the engine that produced (and can re-produce) this case's
    /// trace — [`Study::stream_case`] re-runs the walk from it.
    pub engine_seed: u64,
}

impl WorkloadCase {
    /// The workload's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.workload.name()
    }
}

/// Which OS layout to build.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum OsLayoutKind {
    /// Original source order.
    Base,
    /// Hwu–Chang profile-guided placement.
    ChangHwu,
    /// The paper's sequences + SelfConfFree layout.
    OptS,
    /// `OptS` plus loop extraction.
    OptL,
    /// The Section 4.4 loops-with-callees placement.
    Call,
}

impl OsLayoutKind {
    /// All kinds, in the paper's Figure 12 order plus `Call`.
    pub const ALL: [OsLayoutKind; 5] = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
        OsLayoutKind::OptL,
        OsLayoutKind::Call,
    ];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OsLayoutKind::Base => "Base",
            OsLayoutKind::ChangHwu => "C-H",
            OsLayoutKind::OptS => "OptS",
            OsLayoutKind::OptL => "OptL",
            OsLayoutKind::Call => "Call",
        }
    }
}

/// An OS layout plus (for the optimized kinds) its block classes.
#[derive(Clone, Debug)]
pub struct OsLayout {
    /// The memory layout.
    pub layout: Layout,
    /// Placement class per block (all `Cold` for `Base`/`C-H`, which do
    /// not define classes).
    pub classes: Option<Vec<BlockClass>>,
    /// SelfConfFree bytes (0 where not applicable).
    pub scf_bytes: u64,
}

/// The full study state.
#[derive(Debug)]
pub struct Study {
    config: StudyConfig,
    kernel: SyntheticKernel,
    cases: Vec<WorkloadCase>,
    os_profile_avg: Profile,
    loops: LoopAnalysis,
}

impl Study {
    /// Generates the kernel, the four standard workloads, their traces and
    /// profiles. Deterministic in `config`.
    ///
    /// Each stage reports a phase span (`study.synth.kernel`,
    /// `study.synth.app`, `study.trace`, `study.profile`, `study.loops`)
    /// to the global [`oslay_observe`] recorder.
    #[must_use]
    pub fn generate(config: &StudyConfig) -> Self {
        Self::generate_with_threads(config, 1)
    }

    /// Like [`Study::generate`], sharding the per-workload work (app
    /// synthesis, trace walk, profiling) over up to `threads` workers.
    ///
    /// Every case derives its seeds from the master seed and its own
    /// index, never from execution order, so the result is identical to
    /// the sequential build at any worker count.
    #[must_use]
    pub fn generate_with_threads(config: &StudyConfig, threads: usize) -> Self {
        let kernel = {
            let _g = oslay_observe::span("study.synth.kernel");
            generate_kernel(&KernelParams::at_scale(config.scale, config.seed))
        };
        let specs = standard_workloads(&kernel.tables);
        let jobs: Vec<(StandardWorkload, WorkloadSpec)> =
            StandardWorkload::ALL.iter().copied().zip(specs).collect();
        let cases = crate::exec::parallel_map(threads, jobs, |i, (workload, spec)| {
            let components = workload.app_components();
            let app = if spec.has_app() && !components.is_empty() {
                let _g = oslay_observe::span("study.synth.app");
                Some(generate_app_mix(
                    &components,
                    &AppParams::new(config.seed ^ (0xA00 + i as u64)).with_scale(config.app_scale),
                ))
            } else {
                None
            };
            let engine_seed = config.seed ^ (0x7_0000 + i as u64);
            let mut engine = Engine::new(
                &kernel.program,
                app.as_ref(),
                &spec,
                EngineConfig::new(engine_seed),
            );
            let trace = {
                let _g = oslay_observe::span("study.trace");
                engine.run(config.os_blocks)
            };
            let _g = oslay_observe::span("study.profile");
            let os_profile = Profile::collect(&kernel.program, &trace);
            let app_profile = app.as_ref().map(|a| Profile::collect(a, &trace));
            WorkloadCase {
                workload,
                spec,
                app,
                trace,
                os_profile,
                app_profile,
                engine_seed,
            }
        });
        let _g = oslay_observe::span("study.loops");
        let os_profile_avg = Profile::merge_all(cases.iter().map(|c| &c.os_profile));
        let loops = LoopAnalysis::analyze(&kernel.program, &os_profile_avg);
        Self {
            config: config.clone(),
            kernel,
            cases,
            os_profile_avg,
            loops,
        }
    }

    /// The study configuration.
    #[must_use]
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The synthetic kernel.
    #[must_use]
    pub fn kernel(&self) -> &SyntheticKernel {
        &self.kernel
    }

    /// The four workload cases, in Table 1 order.
    #[must_use]
    pub fn cases(&self) -> &[WorkloadCase] {
        &self.cases
    }

    /// The profile averaged over all workloads — the input to every OS
    /// layout (Section 5: "the layouts are created after taking the
    /// average of the profiles of all the workloads").
    #[must_use]
    pub fn averaged_os_profile(&self) -> &Profile {
        &self.os_profile_avg
    }

    /// Loop analysis of the kernel under the averaged profile.
    #[must_use]
    pub fn os_loops(&self) -> &LoopAnalysis {
        &self.loops
    }

    /// Builds an OS layout for the given cache size under a
    /// `study.layout.<name>` phase span.
    #[must_use]
    pub fn os_layout(&self, kind: OsLayoutKind, cache_size: u32) -> OsLayout {
        let _g = oslay_observe::span(format!("study.layout.{}", kind.name()));
        let program = &self.kernel.program;
        match kind {
            OsLayoutKind::Base => OsLayout {
                layout: self.checked_structural(base_layout(program, 0)),
                classes: None,
                scf_bytes: 0,
            },
            OsLayoutKind::ChangHwu => OsLayout {
                layout: self.checked_structural(chang_hwu_layout(program, &self.os_profile_avg, 0)),
                classes: None,
                scf_bytes: 0,
            },
            OsLayoutKind::OptS => {
                let params = OptParams::opt_s(cache_size);
                let opt = optimize_os(program, &self.os_profile_avg, &self.loops, &params);
                self.checked_opt(opt, &params)
            }
            OsLayoutKind::OptL => {
                let params = OptParams::opt_l(cache_size);
                let opt = optimize_os(program, &self.os_profile_avg, &self.loops, &params);
                self.checked_opt(opt, &params)
            }
            OsLayoutKind::Call => {
                let opt = call_opt_layout(
                    program,
                    &self.os_profile_avg,
                    &self.loops,
                    &CallOptParams::new(cache_size),
                );
                // The Call placement deliberately reuses SelfConfFree
                // offsets inside its per-loop logical caches (the paper's
                // negative result), so only the structural invariants
                // apply to it.
                OsLayout {
                    layout: self.checked_structural(opt.layout),
                    scf_bytes: opt.scf_bytes,
                    classes: Some(opt.classes),
                }
            }
        }
    }

    /// Runs the full invariant suite on an optimized layout in debug
    /// builds, panicking on any error-severity diagnostic (release builds
    /// leave verification to the `lint` binary).
    fn checked_opt(&self, opt: OptLayout, params: &OptParams) -> OsLayout {
        if cfg!(debug_assertions) {
            let report = oslay_verify::verify_os_layout(
                &self.kernel.program,
                &self.os_profile_avg,
                &self.loops,
                &opt,
                params,
                Self::VERIFY_LINE_BYTES,
            );
            assert_eq!(
                report.errors(),
                0,
                "layout failed static verification:\n{}",
                report.render()
            );
        }
        OsLayout {
            layout: opt.layout,
            scf_bytes: opt.scf_bytes,
            classes: Some(opt.classes),
        }
    }

    /// Structural-only verification, in debug builds, for layouts without
    /// optimizer provenance (`Base`, `C-H`, `Call`).
    fn checked_structural(&self, layout: Layout) -> Layout {
        if cfg!(debug_assertions) {
            let view = oslay_verify::LayoutView::from_layout(&layout);
            let report = oslay_verify::verify_structural(&self.kernel.program, &view);
            assert_eq!(
                report.errors(),
                0,
                "layout failed static verification:\n{}",
                report.render()
            );
        }
        layout
    }

    /// Line size used only to label conflicting sets in verification
    /// reports (the paper's 32-byte lines).
    const VERIFY_LINE_BYTES: u32 = 32;

    /// Builds an OS `OptS` layout with a custom SelfConfFree byte budget
    /// (Figure 16's sweep).
    #[must_use]
    pub fn os_opt_s_with_scf(&self, cache_size: u32, budget: Option<u32>) -> OsLayout {
        let params = OptParams::opt_s(cache_size).with_scf_budget(budget);
        let opt = optimize_os(
            &self.kernel.program,
            &self.os_profile_avg,
            &self.loops,
            &params,
        );
        self.checked_opt(opt, &params)
    }

    /// Regenerates `case`'s trace from its recorded engine seed and
    /// streams every event into `sink`, in execution order.
    ///
    /// Bit-identical to the buffered `case.trace` events because the
    /// engine's walk is deterministic in the seed; a sink that needs
    /// the stream without a buffered trace (or a check of the walk
    /// itself) takes it from here.
    pub fn stream_case<S: oslay_trace::TraceSink + ?Sized>(
        &self,
        case: &WorkloadCase,
        sink: &mut S,
    ) {
        let mut engine = Engine::new(
            &self.kernel.program,
            case.app.as_ref(),
            &case.spec,
            EngineConfig::new(case.engine_seed),
        );
        engine.run_into(self.config.os_blocks, sink);
    }

    /// The unoptimized application layout for a case (if it has an app).
    #[must_use]
    pub fn app_base_layout(&self, case: &WorkloadCase) -> Option<Layout> {
        case.app.as_ref().map(|app| base_layout(app, APP_BASE))
    }

    /// The optimized (`OptA`) application layout for a case, built from
    /// that workload's own application profile.
    #[must_use]
    pub fn app_opt_layout(&self, case: &WorkloadCase, cache_size: u32) -> Option<Layout> {
        let (app, profile) = (case.app.as_ref()?, case.app_profile.as_ref()?);
        let loops = LoopAnalysis::analyze(app, profile);
        Some(optimize_app(app, profile, &loops, cache_size))
    }

    /// The Chang–Hwu application layout for a case.
    #[must_use]
    pub fn app_ch_layout(&self, case: &WorkloadCase) -> Option<Layout> {
        let (app, profile) = (case.app.as_ref()?, case.app_profile.as_ref()?);
        Some(chang_hwu_layout(app, profile, APP_BASE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> Study {
        Study::generate(&StudyConfig::tiny())
    }

    #[test]
    fn study_has_four_cases_in_order() {
        let s = study();
        let names: Vec<_> = s.cases().iter().map(WorkloadCase::name).collect();
        assert_eq!(names, ["TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"]);
        assert!(s.cases()[0].app.is_some());
        assert!(s.cases()[3].app.is_none());
    }

    #[test]
    fn averaged_profile_sums_cases() {
        let s = study();
        let total: u64 = s
            .cases()
            .iter()
            .map(|c| c.os_profile.total_node_weight())
            .sum();
        assert_eq!(s.averaged_os_profile().total_node_weight(), total);
    }

    #[test]
    fn all_layout_kinds_build() {
        let s = study();
        for kind in OsLayoutKind::ALL {
            let l = s.os_layout(kind, 8192);
            assert_eq!(l.layout.num_blocks(), s.kernel().program.num_blocks());
            assert_eq!(l.layout.name(), kind.name());
        }
    }

    #[test]
    fn app_layouts_build_for_app_workloads() {
        let s = study();
        let case = &s.cases()[0];
        assert!(s.app_base_layout(case).is_some());
        assert!(s.app_opt_layout(case, 8192).is_some());
        assert!(s.app_ch_layout(case).is_some());
        let shell = &s.cases()[3];
        assert!(s.app_base_layout(shell).is_none());
    }

    #[test]
    fn generate_records_phase_spans() {
        let _g = crate::sim::tests::observability_gate();
        let s = study();
        let _ = s.os_layout(OsLayoutKind::OptS, 8192);
        let totals = oslay_observe::flight::span_totals();
        // Other tests share the span store, so only check presence
        // (never reset here).
        for phase in [
            "study.synth.kernel",
            "study.synth.app",
            "study.trace",
            "study.profile",
            "study.loops",
            "study.layout.OptS",
        ] {
            assert!(
                totals.iter().any(|t| t.name == phase && t.count > 0),
                "missing phase span {phase}"
            );
        }
    }

    #[test]
    fn threaded_generation_matches_sequential() {
        let a = Study::generate(&StudyConfig::tiny());
        let b = Study::generate_with_threads(&StudyConfig::tiny(), 4);
        for (ca, cb) in a.cases().iter().zip(b.cases()) {
            assert_eq!(ca.workload, cb.workload);
            assert_eq!(ca.trace, cb.trace);
            assert_eq!(ca.engine_seed, cb.engine_seed);
        }
        assert_eq!(
            a.averaged_os_profile().total_node_weight(),
            b.averaged_os_profile().total_node_weight()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = study();
        let b = study();
        assert_eq!(a.cases()[1].trace, b.cases()[1].trace);
        assert_eq!(
            a.averaged_os_profile().total_node_weight(),
            b.averaged_os_profile().total_node_weight()
        );
    }
}
