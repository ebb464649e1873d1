//! Application-side layout for `OptA` (Section 5.1).
//!
//! "For the applications, we do not set up any SelfConfFree area because
//! the behavior can vary widely among applications. Furthermore, we use
//! the `main` function as the seed to generate sequences, and place the
//! sequences in the cache starting from the side opposite to that used for
//! the operating system." The application also receives the simple loop
//! optimization of Section 4.3.

use oslay_model::{Domain, Program};
use oslay_profile::{LoopAnalysis, Profile};

use crate::{build_sequences, Layout, LayoutBuilder, ThresholdSchedule, APP_BASE};

/// Builds the optimized application layout.
///
/// "The side opposite to that used for the operating system": the kernel's
/// hottest code sits at the *bottom* of each cache frame (SelfConfFree
/// area, then the first sequences, in decreasing heat), so the
/// application's hot region is placed to occupy the *top* of a frame — its
/// base offset is chosen so the sequences-plus-loop-area region ends
/// exactly at a cache-size boundary. When the hot region exceeds one cache
/// frame this wraps and the choice matters less, exactly as in the paper.
///
/// # Panics
///
/// Panics if `program` is not an application program.
#[must_use]
pub fn optimize_app(
    program: &Program,
    profile: &Profile,
    loops: &LoopAnalysis,
    cache_size: u32,
) -> Layout {
    assert_eq!(
        program.domain(),
        Domain::App,
        "optimize_app requires an application program"
    );
    let schedule = ThresholdSchedule::paper();
    let sequences = build_sequences(program, profile, &schedule);

    // Loop extraction (Section 4.3), as in OptL: loops with ≥ 6 measured
    // iterations per invocation move to a loop area after the sequences.
    let mut in_loop_area = vec![false; program.num_blocks()];
    for l in loops.executed_loops() {
        if l.iterations_per_entry() < 6.0 {
            continue;
        }
        for &b in &l.body {
            if profile.node_weight(b) > 0 {
                in_loop_area[b.index()] = true;
            }
        }
    }

    // Estimate the hot region (sequences + loop area) including a
    // conservative stretch word per block, then align its END to a cache
    // frame boundary: the hot code fills the top of the frame.
    let hot_bytes: u64 = sequences
        .blocks_in_order()
        .map(|(_, b)| u64::from(program.block(b).size() + oslay_model::WORD_BYTES))
        .sum();
    let cache = u64::from(cache_size);
    let app_frame = APP_BASE / cache * cache; // cache-aligned app region base
    let offset = (cache - (hot_bytes % cache)) % cache;
    let base = app_frame + offset;
    let mut lb = LayoutBuilder::new(program, "OptA-app", base);
    for (_, b) in sequences.blocks_in_order() {
        if !in_loop_area[b.index()] {
            lb.place(b);
        }
    }
    for (_, b) in sequences.blocks_in_order() {
        if in_loop_area[b.index()] {
            lb.place(b);
        }
    }
    for b in program.source_order() {
        if !sequences.contains(b) {
            lb.place(b);
        }
    }
    lb.finish().expect("application layout places every block")
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::synth::{generate_app_mix, AppParams};
    use oslay_model::synth::{generate_kernel, KernelParams, Scale};
    use oslay_trace::{standard_workloads, Engine, EngineConfig, StandardWorkload};

    fn setup() -> (Program, Profile, LoopAnalysis) {
        let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 31));
        let specs = standard_workloads(&k.tables);
        let app = generate_app_mix(
            &StandardWorkload::TrfdMake.app_components(),
            &AppParams::new(5).with_scale(0.25),
        );
        let t = Engine::new(&k.program, Some(&app), &specs[1], EngineConfig::new(9)).run(40_000);
        let p = Profile::collect(&app, &t);
        let la = LoopAnalysis::analyze(&app, &p);
        (app, p, la)
    }

    #[test]
    fn app_layout_is_complete_and_offset() {
        let (app, profile, loops) = setup();
        let l = optimize_app(&app, &profile, &loops, 8192);
        assert_eq!(l.num_blocks(), app.num_blocks());
        let app_frame = APP_BASE / 8192 * 8192;
        for (id, _) in app.blocks() {
            assert!(l.addr(id) >= app_frame, "app block below the app region");
        }
    }

    #[test]
    fn hot_code_starts_on_the_opposite_cache_side() {
        let (app, profile, loops) = setup();
        let l = optimize_app(&app, &profile, &loops, 8192);
        let hottest = profile
            .executed_blocks()
            .max_by_key(|&b| profile.node_weight(b))
            .unwrap();
        let offset = l.addr(hottest) % 8192;
        // The kernel's hottest code lives at low cache offsets; the app's
        // must not (it starts at cache_size/2). Loop-heavy scientific code
        // extracts its hot loops to the loop area right after the (small)
        // sequence region, so anywhere in the upper half is acceptable.
        assert!(
            offset >= 2048,
            "hottest app block at offset {offset} collides with kernel hot side"
        );
    }

    #[test]
    fn extracted_loops_follow_sequences() {
        let (app, profile, loops) = setup();
        let l = optimize_app(&app, &profile, &loops, 8192);
        let mut in_loop_area = vec![false; app.num_blocks()];
        for lp in loops.executed_loops() {
            if lp.iterations_per_entry() >= 6.0 {
                for &b in &lp.body {
                    in_loop_area[b.index()] = true;
                }
            }
        }
        // The scientific inner loop iterates far more than 6 times, so it
        // is extracted into the loop area, which follows every other
        // executed (sequence) block.
        let head = app.routine_by_name("sci0_dgemm_inner").unwrap().entry();
        assert!(profile.node_weight(head) > 0, "inner loop executed");
        assert!(in_loop_area[head.index()], "inner loop extracted");
        let last_seq = profile
            .executed_blocks()
            .filter(|&b| !in_loop_area[b.index()])
            .map(|b| l.addr(b))
            .max()
            .unwrap();
        let first_loop = profile
            .executed_blocks()
            .filter(|&b| in_loop_area[b.index()])
            .map(|b| l.addr(b))
            .min()
            .unwrap();
        assert!(
            first_loop > last_seq,
            "loop area ({first_loop}) must follow sequences ({last_seq})"
        );
    }

    #[test]
    #[should_panic(expected = "requires an application")]
    fn kernel_program_is_rejected() {
        let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 31));
        let profile = Profile::empty(&k.program);
        let la = LoopAnalysis::analyze(&k.program, &profile);
        let _ = optimize_app(&k.program, &profile, &la, 8192);
    }
}
