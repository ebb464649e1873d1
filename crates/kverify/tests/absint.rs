//! Seeded property tests for the abstract-interpretation cache analysis.
//!
//! Over a spread of generated kernels, workloads and cache geometries:
//!
//! * **must ⊆ may** — the lattice-consistency counter (checked at every
//!   program point during the classification walk) stays zero;
//! * **termination** — the fixpoint's worklist pops stay within the
//!   structural bound `blocks x (join budget + 2)`;
//! * the classification accounts (point tallies, weights, coverage)
//!   stay internally consistent on every instance.

use oslay_cache::CacheConfig;
use oslay_layout::{base_layout, chang_hwu_layout};
use oslay_model::rng::Rng;
use oslay_model::synth::{generate_kernel, KernelParams, Scale};
use oslay_model::{fetch_words, Program, WORD_BYTES};
use oslay_profile::Profile;
use oslay_trace::{standard_workloads, Engine, EngineConfig};
use oslay_verify::{
    block_line_addrs, classify_layout, AbsintParams, Classification, LayoutView, LineClass,
};

#[test]
fn block_lines_match_a_per_word_enumeration() {
    // The oracle: enumerate every fetch word, map it to its line, and
    // drop consecutive repeats. Bases are byte-granular, so words can
    // straddle line boundaries and a block's last word can be partial.
    let mut rng = Rng::seed_from_u64(0x11E5);
    for line in [4u32, 8, 16, 32, 64, 128] {
        let config = CacheConfig::new(8192, line, 1);
        for _ in 0..2_000 {
            let addr = rng.gen_range(0..1u64 << 20);
            let size = rng.gen_range(0..=200u32);
            let words = fetch_words(size);
            let mut oracle: Vec<u64> = Vec::new();
            for w in 0..words {
                let l = config.line_addr(addr + u64::from(w * WORD_BYTES));
                if oracle.last() != Some(&l) {
                    oracle.push(l);
                }
            }
            let tag = format!("addr {addr}, size {size}, {line} B lines");
            assert_eq!(block_line_addrs(addr, size, &config), oracle, "{tag}");
            // The runs behind those lines partition the fetch words in
            // order, each run inside its own line.
            let mut next = addr;
            for ((first, run), &l) in config.line_runs(addr, words).zip(&oracle) {
                assert_eq!(first, next, "{tag}: runs must be contiguous");
                let last = first + u64::from((run - 1) * WORD_BYTES);
                assert_eq!(config.line_addr(last), l, "{tag}: run leaves its line");
                next = last + u64::from(WORD_BYTES);
            }
            assert_eq!(next, addr + u64::from(words * WORD_BYTES), "{tag}");
        }
    }
}

// The Shell workload is the one standard spec that runs without an
// application side; instance diversity comes from the kernel seed.
fn instance(seed: u64, events: u64) -> (Program, Profile) {
    let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, seed));
    let specs = standard_workloads(&k.tables);
    let t = Engine::new(&k.program, None, &specs[3], EngineConfig::new(16)).run(events);
    let p = Profile::collect(&k.program, &t);
    (k.program, p)
}

fn check_accounts(c: &Classification, tag: &str) {
    assert_eq!(
        c.count.iter().sum::<u64>(),
        c.points.len() as u64,
        "{tag}: counts"
    );
    assert_eq!(
        c.total_weight(),
        c.points.iter().map(|p| p.weight).sum::<u64>(),
        "{tag}: weights"
    );
    assert!((0.0..=1.0).contains(&c.coverage()), "{tag}: coverage");
}

#[test]
fn must_stays_within_may_across_seeds_and_geometries() {
    // Direct-mapped and associative geometries hit different aging rules
    // (must ages strictly-younger entries, may ages ties as well); both
    // must keep the lattice consistent everywhere.
    let geometries = [
        CacheConfig::paper_default(),
        CacheConfig::new(4096, 32, 2),
        CacheConfig::new(2048, 16, 4),
    ];
    for seed in [1u64, 7, 42, 1995] {
        let (program, profile) = instance(seed, 30_000);
        for (g, &config) in geometries.iter().enumerate() {
            for layout in [
                base_layout(&program, 0),
                chang_hwu_layout(&program, &profile, 0),
            ] {
                let view = LayoutView::from_layout(&layout);
                let c = classify_layout(&program, &profile, &view, &AbsintParams::new(config));
                let tag = format!("seed {seed} geometry {g} layout {}", view.name);
                assert_eq!(c.invariant_violations, 0, "{tag}: must ⊄ may");
                check_accounts(&c, &tag);
            }
        }
    }
}

#[test]
fn fixpoint_terminates_within_the_structural_bound() {
    for seed in [3u64, 11, 99, 4242] {
        let (program, profile) = instance(seed, 30_000);
        let view = LayoutView::from_layout(&base_layout(&program, 0));
        let params = AbsintParams::new(CacheConfig::paper_default());
        let c = classify_layout(&program, &profile, &view, &params);
        let bound = u64::from(c.analyzed_blocks) * (u64::from(params.join_bound) + 2);
        assert!(
            c.iterations <= bound,
            "seed {seed}: {} pops > bound {bound}",
            c.iterations
        );
    }
}

#[test]
fn tight_join_budget_still_terminates_and_stays_sound() {
    // Forcing the widening to fire (budget 0) must not break soundness
    // bookkeeping: havoc assumes nothing, so always-hit claims can only
    // shrink, and the lattice invariants still hold.
    let (program, profile) = instance(13, 40_000);
    let view = LayoutView::from_layout(&base_layout(&program, 0));
    let config = CacheConfig::paper_default();
    let mut tight = AbsintParams::new(config);
    tight.join_bound = 0;
    let hasty = classify_layout(&program, &profile, &view, &tight);
    let relaxed = classify_layout(&program, &profile, &view, &AbsintParams::new(config));
    assert_eq!(hasty.invariant_violations, 0);
    assert!(
        hasty.iterations <= u64::from(hasty.analyzed_blocks) * 2,
        "budget 0 must converge in at most two passes"
    );
    assert!(
        hasty.count[LineClass::AlwaysHit.index()] <= relaxed.count[LineClass::AlwaysHit.index()],
        "widening may only weaken always-hit claims"
    );
}

#[test]
fn merged_profile_classification_is_order_independent() {
    // Merging A then B and B then A must classify identically — the gate
    // relies on one merged-profile analysis covering every workload.
    let k = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 77));
    let specs = standard_workloads(&k.tables);
    // Two distinct profiles over the same program: the same OS-only spec
    // run to different lengths covers different block/arc subsets.
    let traces: Vec<_> = [25_000u64, 60_000]
        .iter()
        .map(|&n| Engine::new(&k.program, None, &specs[3], EngineConfig::new(16)).run(n))
        .collect();
    let profiles: Vec<Profile> = traces
        .iter()
        .map(|t| Profile::collect(&k.program, t))
        .collect();
    let ab = Profile::merge_all(&[profiles[0].clone(), profiles[1].clone()]);
    let ba = Profile::merge_all(&[profiles[1].clone(), profiles[0].clone()]);
    let view = LayoutView::from_layout(&base_layout(&k.program, 0));
    let params = AbsintParams::new(CacheConfig::paper_default());
    let ca = classify_layout(&k.program, &ab, &view, &params);
    let cb = classify_layout(&k.program, &ba, &view, &params);
    assert_eq!(ca, cb);
}
