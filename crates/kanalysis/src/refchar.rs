//! Table 1: characteristics of the operating-system instruction
//! references.

use oslay_model::{Program, SeedKind};
use oslay_profile::Profile;
use oslay_trace::Trace;

/// One workload's row set for Table 1.
#[derive(Clone, PartialEq, Debug)]
pub struct RefCharacteristics {
    /// Bytes of OS code executed at least once (paper: 32–123 KB).
    pub executed_bytes: u64,
    /// Executed bytes over total kernel bytes (paper: 3.4–13.1%).
    pub executed_code_fraction: f64,
    /// Executed basic blocks over total basic blocks (paper: 3.6–13.4%).
    pub executed_block_fraction: f64,
    /// Invoked routines over total routines.
    pub invoked_routine_fraction: f64,
    /// Invocation mix by seed class (fractions summing to 1).
    pub invocation_mix: [f64; 4],
    /// OS references (block executions) as a fraction of all references.
    pub os_reference_share: f64,
}

/// Computes Table 1 for one workload.
#[must_use]
pub fn ref_characteristics(
    program: &Program,
    profile: &Profile,
    trace: &Trace,
) -> RefCharacteristics {
    let executed_bytes = profile.executed_bytes(program);
    let executed_code_fraction = executed_bytes as f64 / program.total_size() as f64;
    let executed_block_fraction =
        profile.num_executed_blocks() as f64 / program.num_blocks() as f64;
    let invoked_routine_fraction =
        profile.num_invoked_routines() as f64 / program.num_routines() as f64;
    let total = trace.total_blocks().max(1) as f64;
    RefCharacteristics {
        executed_bytes,
        executed_code_fraction,
        executed_block_fraction,
        invoked_routine_fraction,
        invocation_mix: trace.invocation_mix(),
        os_reference_share: trace.os_blocks() as f64 / total,
    }
}

/// Union view over several workloads: fraction of code/routines touched by
/// *any* workload (paper: "Combining all workloads, only 18% of the
/// operating system code is ever referenced and only 26% of the routines
/// are ever invoked").
#[derive(Clone, PartialEq, Debug)]
pub struct UnionFootprint {
    /// Fraction of kernel bytes executed by any workload.
    pub code_fraction: f64,
    /// Fraction of routines invoked by any workload.
    pub routine_fraction: f64,
    /// Number of blocks executed by any workload.
    pub executed_blocks: usize,
}

/// Computes the union footprint of several profiles of the same kernel.
///
/// # Panics
///
/// Panics if `profiles` is empty.
#[must_use]
pub fn union_footprint<'a>(
    program: &Program,
    profiles: impl IntoIterator<Item = &'a Profile>,
) -> UnionFootprint {
    let merged = Profile::merge_all(profiles);
    UnionFootprint {
        code_fraction: merged.executed_bytes(program) as f64 / program.total_size() as f64,
        routine_fraction: merged.num_invoked_routines() as f64 / program.num_routines() as f64,
        executed_blocks: merged.num_executed_blocks(),
    }
}

/// Pretty-prints the invocation mix as the paper's four percentage rows.
#[must_use]
pub fn mix_rows(mix: [f64; 4]) -> Vec<(SeedKind, f64)> {
    SeedKind::ALL
        .iter()
        .map(|&k| (k, mix[k.index()] * 100.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::synth::{generate_kernel, KernelParams, Scale};
    use oslay_trace::{standard_workloads, Engine, EngineConfig};

    fn setup() -> (Program, Profile, Trace) {
        let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 81));
        let specs = standard_workloads(&k.tables);
        let t = Engine::new(&k.program, None, &specs[3], EngineConfig::new(14)).run(40_000);
        let p = Profile::collect(&k.program, &t);
        (k.program, p, t)
    }

    #[test]
    fn fractions_are_proper() {
        let (program, profile, trace) = setup();
        let rc = ref_characteristics(&program, &profile, &trace);
        assert!(rc.executed_bytes > 0);
        assert!((0.0..1.0).contains(&rc.executed_code_fraction));
        assert!((0.0..1.0).contains(&rc.executed_block_fraction));
        assert!((0.0..1.0).contains(&rc.invoked_routine_fraction));
        assert!((rc.invocation_mix.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            (rc.os_reference_share - 1.0).abs() < 1e-12,
            "Shell is OS-only"
        );
    }

    #[test]
    fn union_footprint_at_least_each_workload() {
        let (program, profile, _) = setup();
        let union = union_footprint(&program, std::slice::from_ref(&profile));
        let single = profile.executed_bytes(&program) as f64 / program.total_size() as f64;
        assert!((union.code_fraction - single).abs() < 1e-12);
    }

    #[test]
    fn mix_rows_are_percentages() {
        let rows = mix_rows([0.25, 0.25, 0.4, 0.1]);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[2].0, SeedKind::SysCall);
        assert!((rows[2].1 - 40.0).abs() < 1e-12);
    }
}
