//! The census reference column against a per-fetch count.
//!
//! `census_refs` derives the column from the workload's block profiles
//! and the layouts, without a replay. The oracle here replays the trace
//! word by word and resolves every fetched address through the same
//! address map, as the attributed replay once did on every fetch. The
//! two must agree slot for slot for every workload under Base, C-H, OptS
//! and OptL. `cargo test` checks tiny scale; the ignored small- and
//! paper-scale runs are for `ci.sh`:
//!
//! ```text
//! cargo test --release -p oslay-bench --test census_oracle -- --ignored
//! ```

use oslay::cache::{
    AccessOutcome, AddressMap, Cache, CacheConfig, InstructionCache, MissStats, CENSUS_SLOTS,
};
use oslay::model::Domain;
use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_bench::{address_map, census_refs};

/// Counts every fetched word into the census slot its address resolves
/// to, then forwards it to a plain cache.
#[derive(Debug)]
struct PerFetchCensus {
    inner: Cache,
    map: AddressMap,
    refs: [u64; CENSUS_SLOTS],
}

impl InstructionCache for PerFetchCensus {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        let code = self.map.lookup(addr);
        self.refs[code.map_or(CENSUS_SLOTS - 1, |c| c.class.index())] += 1;
        self.inner.access(addr, domain)
    }

    fn stats(&self) -> &MissStats {
        self.inner.stats()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.refs = [0; CENSUS_SLOTS];
    }
}

fn check(config: &StudyConfig) {
    let study = Study::generate_with_threads(config, 2);
    let cfg = CacheConfig::paper_default();
    for kind in [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
        OsLayoutKind::OptL,
    ] {
        let os = study.os_layout(kind, cfg.size());
        for case in study.cases() {
            let app = study.app_base_layout(case);
            let map = address_map(&study, case, &os, app.as_ref());
            let got = census_refs(&map, case, &os.layout, app.as_ref());
            let mut oracle = PerFetchCensus {
                inner: Cache::new(cfg),
                map,
                refs: [0; CENSUS_SLOTS],
            };
            let r = study.simulate(
                case,
                &os.layout,
                app.as_ref(),
                &mut oracle,
                &SimConfig::fast(),
            );
            let job = format!("{}/{}", case.name(), kind.name());
            assert_eq!(got, oracle.refs, "{job}: census reference column");
            assert_eq!(
                got.iter().sum::<u64>(),
                r.stats.total_accesses(),
                "{job}: every fetch in one slot"
            );
        }
    }
}

#[test]
fn census_column_equals_the_per_fetch_count_at_tiny_scale() {
    check(&StudyConfig::tiny());
}

#[test]
#[ignore = "small scale: run by ci.sh"]
fn census_column_equals_the_per_fetch_count_at_small_scale() {
    check(&StudyConfig::small());
}

#[test]
#[ignore = "paper scale: run by ci.sh"]
fn census_column_equals_the_per_fetch_count_at_paper_scale() {
    check(&StudyConfig::paper());
}
