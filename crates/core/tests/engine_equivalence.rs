//! End-to-end equivalence of the optimized engine against its reference
//! twins, on the *real* generated workload traces (the unit suites in
//! `oslay-cache` cover randomized streams; here the access pattern is the
//! one the experiments actually replay).
//!
//! Three contracts are pinned:
//!
//! 1. `Study::stream_case` regenerates exactly the buffered
//!    `case.trace` event stream, which the archiver and every streaming
//!    consumer rely on.
//! 2. The dense tag-array `Cache` classifies every single access exactly
//!    like the map-based `ReferenceCache`.
//! 3. The O(1) intrusive-LRU `ShadowTags` agrees touch-by-touch with the
//!    `ReferenceShadowTags` on the cache-line stream of a real trace.

use oslay::cache::reference::{ReferenceCache, ReferenceShadowTags};
use oslay::cache::{AccessOutcome, Cache, CacheConfig, InstructionCache, MissStats, ShadowTags};
use oslay::model::Domain;
use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};

fn study() -> Study {
    Study::generate(&StudyConfig::tiny())
}

#[test]
fn coalesced_replay_matches_per_word_replay() {
    // `SimConfig::fast` takes the line-run path (`access_words`) while
    // `SimConfig::full` observes every word individually; the aggregate
    // statistics must be identical.
    let study = study();
    let cfg = CacheConfig::paper_default();
    for kind in [OsLayoutKind::Base, OsLayoutKind::OptS] {
        let os = study.os_layout(kind, cfg.size());
        for case in study.cases() {
            let app = study.app_base_layout(case);
            let mut fast_cache = Cache::new(cfg);
            let fast = study.simulate(
                case,
                &os.layout,
                app.as_ref(),
                &mut fast_cache,
                &SimConfig::fast(),
            );
            let mut full_cache = Cache::new(cfg);
            let full = study.simulate(
                case,
                &os.layout,
                app.as_ref(),
                &mut full_cache,
                &SimConfig::full(),
            );
            assert_eq!(
                fast.stats,
                full.stats,
                "coalesced vs per-word stats diverge on {} under {}",
                case.name(),
                kind.name()
            );
        }
    }
}

#[test]
fn stream_case_emits_the_buffered_trace() {
    let study = study();
    for case in study.cases() {
        let mut streamed = oslay::trace::Trace::default();
        study.stream_case(case, &mut streamed);
        assert!(!streamed.events().is_empty());
        assert_eq!(
            streamed.events(),
            case.trace.events(),
            "stream_case diverges from the buffered trace on {}",
            case.name()
        );
    }
}

/// An `InstructionCache` that feeds every access to both the optimized
/// cache and the reference cache and asserts their detailed outcomes are
/// identical, so `Study::simulate` itself generates the address stream.
#[derive(Debug)]
struct MirrorCache {
    fast: Cache,
    reference: ReferenceCache,
    compared: u64,
}

impl MirrorCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            fast: Cache::new(cfg),
            reference: ReferenceCache::new(cfg),
            compared: 0,
        }
    }
}

impl InstructionCache for MirrorCache {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        let got = self.fast.access_detailed(addr, domain);
        let want = self.reference.access_detailed(addr, domain);
        assert_eq!(
            got, want,
            "access #{} at {addr:#x} by {domain:?} diverges",
            self.compared
        );
        self.compared += 1;
        got.outcome
    }

    fn stats(&self) -> &MissStats {
        self.fast.stats()
    }

    fn reset(&mut self) {
        self.fast.reset();
        self.reference = ReferenceCache::new(CacheConfig::paper_default());
        self.compared = 0;
    }
}

#[test]
fn dense_cache_matches_reference_on_real_traces() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    for kind in [OsLayoutKind::Base, OsLayoutKind::OptS] {
        let os = study.os_layout(kind, cfg.size());
        for case in study.cases() {
            let app = study.app_base_layout(case);
            let mut mirror = MirrorCache::new(cfg);
            let r = study.simulate(
                case,
                &os.layout,
                app.as_ref(),
                &mut mirror,
                &SimConfig::fast(),
            );
            assert_eq!(mirror.compared, r.stats.total_accesses());
            assert!(mirror.compared > 0);
        }
    }
}

/// An `InstructionCache` that only records the fetched cache-line
/// addresses, to extract a real line stream for the shadow-store check.
#[derive(Debug, Default)]
struct LineRecorder {
    lines: Vec<u64>,
    stats: MissStats,
}

impl InstructionCache for LineRecorder {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        self.lines
            .push(CacheConfig::paper_default().line_addr(addr));
        self.stats.record(domain, AccessOutcome::Hit);
        AccessOutcome::Hit
    }

    fn stats(&self) -> &MissStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.lines.clear();
        self.stats = MissStats::default();
    }
}

#[test]
fn shadow_store_matches_reference_on_real_line_stream() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    let os = study.os_layout(OsLayoutKind::Base, cfg.size());
    let case = &study.cases()[3]; // Shell: OS + app interleaving
    let app = study.app_base_layout(case);
    let mut recorder = LineRecorder::default();
    let _ = study.simulate(
        case,
        &os.layout,
        app.as_ref(),
        &mut recorder,
        &SimConfig::fast(),
    );
    assert!(!recorder.lines.is_empty());
    // The capacity the attribution engine actually uses (whole-cache line
    // count) plus a tiny one to force heavy eviction churn.
    let cache_lines = (cfg.size() / cfg.line()) as usize;
    for capacity in [cache_lines, 17] {
        let mut fast = ShadowTags::new(capacity);
        let mut reference = ReferenceShadowTags::new(capacity);
        for (i, &line) in recorder.lines.iter().enumerate() {
            assert_eq!(
                fast.touch(line),
                reference.touch(line),
                "touch #{i} of line {line:#x} diverges at capacity {capacity}"
            );
            assert_eq!(fast.len(), reference.len());
        }
    }
}
