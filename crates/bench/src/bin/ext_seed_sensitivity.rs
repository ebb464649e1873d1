//! Extension experiment: seed sensitivity / per-processor variation.
//!
//! The paper's machine has four processors and "for most of the
//! experiments, we take the average of the four processors". In this
//! reproduction, a "processor" corresponds to one stochastic interleaving
//! of the same workload — a trace seed. This binary re-runs the Figure 12
//! headline comparison across several seeds and reports the mean and
//! spread of the normalized miss counts, establishing that the
//! reproduction's conclusions are not one-seed artifacts.

use oslay::analysis::report::{f, TextTable};
use oslay::cache::{Cache, CacheConfig};
use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_bench::Cli;
use oslay_observe::timeline;

const SEEDS: [u64; 4] = [0x05_1995, 0xBEEF, 0x1234_5678, 0xFEED_F00D];

fn main() {
    let mut config = Cli::study("ext_seed_sensitivity").args().run().config;
    // Keep the multi-seed sweep affordable: a quarter of the usual trace
    // per seed still leaves ~300k OS blocks each at paper scale.
    config.os_blocks /= 4;
    println!("== Extension: seed sensitivity of the Figure 12 comparison ==");
    println!(
        "   scale: {:?}, OS blocks/workload/seed: {}, {} seeds",
        config.scale,
        config.os_blocks,
        SEEDS.len()
    );
    println!();

    let cfg = CacheConfig::paper_default();
    let kinds = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
    ];

    // norms[workload][layout] -> per-seed normalized misses.
    let mut norms = vec![vec![Vec::new(); kinds.len()]; 4];
    for &seed in &SEEDS {
        let study = Study::generate(&StudyConfig {
            seed,
            ..config.clone()
        });
        let layouts = kinds.map(|kind| study.os_layout(kind, cfg.size()));
        for (wi, case) in study.cases().iter().enumerate() {
            let app = study.app_base_layout(case);
            let mut base = None;
            for (li, (os, kind)) in layouts.iter().zip(kinds).enumerate() {
                let label = format!("{}/{}", case.name(), kind.name());
                let _t = timeline::scope(timeline::group(), 0, label);
                let mut cache = Cache::new(cfg);
                let misses = study
                    .simulate(
                        case,
                        &os.layout,
                        app.as_ref(),
                        &mut cache,
                        &SimConfig::fast(),
                    )
                    .stats
                    .total_misses();
                let b = *base.get_or_insert(misses);
                norms[wi][li].push(misses as f64 / b as f64 * 100.0);
            }
        }
    }

    let mut table = TextTable::new([
        "Workload",
        "C-H mean",
        "C-H min..max",
        "OptS mean",
        "OptS min..max",
    ]);
    let names = ["TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"];
    let mut opts_always_beats_base = true;
    for (wi, name) in names.iter().enumerate() {
        let stats = |v: &Vec<f64>| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(0.0f64, f64::max);
            (mean, min, max)
        };
        let (chm, chlo, chhi) = stats(&norms[wi][1]);
        let (om, olo, ohi) = stats(&norms[wi][2]);
        opts_always_beats_base &= ohi < 100.0;
        table.row([
            (*name).to_owned(),
            f(chm, 1),
            format!("{}..{}", f(chlo, 1), f(chhi, 1)),
            f(om, 1),
            format!("{}..{}", f(olo, 1), f(ohi, 1)),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "(normalized misses, Base = 100; spread over {} trace seeds)",
        SEEDS.len()
    );
    println!(
        "OptS beats Base under every seed: {}",
        if opts_always_beats_base { "yes" } else { "NO" }
    );
    oslay_bench::flush_trace();
}
