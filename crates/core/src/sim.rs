//! Trace replay through a cache under a pair of layouts.

use oslay_analysis::missmap::AddressHistogram;
use oslay_cache::{AccessOutcome, CacheConfig, InstructionCache, MissKind, MissStats, MultiSim};
use oslay_layout::Layout;
use oslay_model::{BlockId, Domain};
use oslay_observe::timeline::{self, CacheSnapshot, WindowRecorder};
use oslay_trace::TraceEvent;

use crate::{Study, WorkloadCase};

/// Cumulative cache state for the timeline: aggregate statistics off
/// [`InstructionCache::stats`] plus whatever state sample the cache's
/// own telemetry probe provides.
fn cache_snapshot<C: InstructionCache + ?Sized>(cache: &C) -> CacheSnapshot {
    let stats = cache.stats();
    CacheSnapshot {
        accesses: stats.total_accesses(),
        os_accesses: stats.accesses(Domain::Os),
        misses: stats.total_misses(),
        cold_misses: stats.misses(MissKind::Cold),
        probe: cache.telemetry_snapshot(),
    }
}

/// What to collect during a simulation.
#[derive(Copy, Clone, Debug)]
pub struct SimConfig {
    /// Collect the per-1KB histograms of OS miss addresses (Figures 1,
    /// 14) and per-OS-block miss counts (Figure 13, Table 2).
    pub detailed: bool,
}

impl SimConfig {
    /// Collect nothing beyond the aggregate statistics.
    #[must_use]
    pub fn fast() -> Self {
        Self { detailed: false }
    }

    /// Collect everything.
    #[must_use]
    pub fn full() -> Self {
        Self { detailed: true }
    }
}

/// Result of replaying one workload trace against one layout pair.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Aggregate access/miss statistics.
    pub stats: MissStats,
    /// The OS miss maps and per-block misses of a detailed replay
    /// ([`SimConfig::full`]); `None` for a fast one.
    pub detail: Option<SimDetail>,
}

impl SimResult {
    /// Total miss rate over all instruction fetches.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        self.stats.miss_rate()
    }
}

/// The collectors of a detailed replay: three per-1KB OS miss-address
/// histograms and a miss count per OS block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimDetail {
    /// OS miss addresses at 1 KB granularity.
    pub miss_map: AddressHistogram,
    /// OS self-interference miss addresses (Figure 1-b).
    pub self_miss_map: AddressHistogram,
    /// OS-from-application interference miss addresses (Figure 1-c).
    pub cross_miss_map: AddressHistogram,
    /// Miss count per OS block.
    pub block_misses: Vec<u64>,
}

impl SimDetail {
    /// Fetches block `id`'s `words` words at `base` one at a time, so
    /// each OS miss lands at its own address.
    fn access<C: InstructionCache + ?Sized>(
        &mut self,
        cache: &mut C,
        id: BlockId,
        base: u64,
        words: u32,
        domain: Domain,
    ) {
        for w in 0..words {
            let addr = base + u64::from(w) * u64::from(oslay_model::WORD_BYTES);
            let outcome = cache.access(addr, domain);
            if let (Domain::Os, AccessOutcome::Miss(kind)) = (domain, outcome) {
                self.block_misses[id.index()] += 1;
                self.miss_map.add(addr);
                match kind {
                    MissKind::OsSelf => self.self_miss_map.add(addr),
                    MissKind::OsByApp => self.cross_miss_map.add(addr),
                    _ => {}
                }
            }
        }
    }
}

/// A streaming trace consumer that drives a cache: each [`TraceEvent`]
/// maps through the layouts to an instruction-fetch address stream and,
/// for a detailed replay, the miss collectors.
///
/// This is the engine's hot path. [`Study::simulate`] hands it the case's
/// buffered [`oslay_trace::Trace`] as one slice; [`Study::replayer_for`]
/// hands it out as an [`oslay_trace::TraceSink`] for archived event
/// streams, which arrive a decoded chunk at a time. Every delivery, a
/// single event included, runs through the one loop of
/// [`oslay_trace::TraceSink::events`], so results do not depend on how
/// the stream is split.
pub struct Replayer<'a, C: InstructionCache + ?Sized = dyn InstructionCache> {
    os_layout: &'a Layout,
    app_layout: Option<&'a Layout>,
    cache: &'a mut C,
    /// Present for a detailed replay: block fetches are then replayed per
    /// word, otherwise they take the cache's coalesced line path.
    detail: Option<SimDetail>,
    /// Timeline recorder, present only when the timeline is enabled and
    /// this thread is inside a recording scope — the hot path then pays
    /// one branch per event plus a periodic cache sample.
    telemetry: Option<Box<WindowRecorder>>,
}

impl<C: InstructionCache + ?Sized> std::fmt::Debug for Replayer<'_, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replayer")
            .field("os_layout", &self.os_layout.name())
            .field("has_app_layout", &self.app_layout.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a, C: InstructionCache + ?Sized> Replayer<'a, C> {
    /// Creates a replayer mapping OS blocks through `os_layout` and app
    /// blocks through `app_layout`.
    #[must_use]
    pub fn new(
        os_layout: &'a Layout,
        app_layout: Option<&'a Layout>,
        cache: &'a mut C,
        config: &SimConfig,
    ) -> Self {
        Self {
            os_layout,
            app_layout,
            cache,
            detail: config.detailed.then(|| SimDetail {
                miss_map: AddressHistogram::paper(),
                self_miss_map: AddressHistogram::paper(),
                cross_miss_map: AddressHistogram::paper(),
                block_misses: vec![0u64; os_layout.num_blocks()],
            }),
            telemetry: timeline::recorder().map(Box::new),
        }
    }

    /// Finishes the replay, reading the final statistics off the cache.
    /// If the timeline was recording, the final (possibly partial)
    /// window is closed and the run's phases are segmented.
    #[must_use]
    pub fn finish(self) -> SimResult {
        if let Some(tl) = self.telemetry {
            tl.finish(&cache_snapshot(&*self.cache));
        }
        SimResult {
            stats: *self.cache.stats(),
            detail: self.detail,
        }
    }
}

impl<C: InstructionCache + ?Sized> oslay_trace::TraceSink for Replayer<'_, C> {
    /// Replays one event, as a one-event slice.
    ///
    /// # Panics
    ///
    /// Panics if an app block arrives but no app layout was supplied.
    fn event(&mut self, event: TraceEvent) {
        self.events(std::slice::from_ref(&event));
    }

    /// The replay loop: layouts, cache and collectors are held in locals
    /// for the whole slice; the timeline still ticks once per event, so
    /// its windows do not depend on how the stream is split.
    ///
    /// # Panics
    ///
    /// Panics if an app block arrives but no app layout was supplied.
    fn events(&mut self, events: &[TraceEvent]) {
        let Self {
            os_layout,
            app_layout,
            cache,
            detail,
            telemetry,
        } = self;
        let (os_layout, app_layout) = (*os_layout, *app_layout);
        let cache: &mut C = cache;
        let mut telemetry = telemetry.as_deref_mut();
        for &event in events {
            match event {
                TraceEvent::Block { id, domain } => {
                    let layout = match domain {
                        Domain::Os => os_layout,
                        Domain::App => app_layout.expect("app block but no app layout"),
                    };
                    let (base, words) = (layout.addr(id), layout.fetch_words(id));
                    match detail {
                        None => {
                            cache.access_words(base, words, domain);
                        }
                        Some(d) => d.access(cache, id, base, words, domain),
                    }
                }
                // Boundary events feed the cache's diagnostic hooks
                // (no-ops on plain caches) but fetch nothing.
                TraceEvent::OsEnter(kind) => cache.note_os_enter(kind),
                TraceEvent::OsExit => cache.note_os_exit(),
            }
            if let Some(tl) = telemetry.as_deref_mut() {
                if tl.tick() {
                    tl.sample(&cache_snapshot(&*cache));
                }
            }
        }
    }
}

/// Duplicates a trace stream into several sinks, in order.
///
/// The fan-out half of single-pass sweeping: one trace decode (or one
/// engine walk) feeds any number of consumers — e.g. the archived-matrix
/// driver decodes each `.otr` case once and replays it through every
/// layout's [`Replayer`] side by side instead of re-decoding per point.
pub struct FanoutSink<'a> {
    sinks: Vec<&'a mut dyn oslay_trace::TraceSink>,
}

impl std::fmt::Debug for FanoutSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl<'a> FanoutSink<'a> {
    /// Wraps the given sinks; every event is forwarded to each of them in
    /// the order given.
    #[must_use]
    pub fn new(sinks: Vec<&'a mut dyn oslay_trace::TraceSink>) -> Self {
        Self { sinks }
    }
}

impl oslay_trace::TraceSink for FanoutSink<'_> {
    fn event(&mut self, event: TraceEvent) {
        self.events(std::slice::from_ref(&event));
    }

    /// Forwards the whole slice to each sink in turn: one dynamic call
    /// per sink per slice. The sinks are independent, so each still sees
    /// the stream in order.
    fn events(&mut self, events: &[TraceEvent]) {
        for sink in &mut self.sinks {
            sink.events(events);
        }
    }
}

/// A multi-configuration simulator ([`MultiSim`]) fed through one layout
/// pair: the single-pass counterpart of [`Replayer`] that sweeps replay
/// through.
///
/// Points sharing a trace but differing in OS or app layout cannot share
/// a [`MultiSim`] (their address streams differ), so each distinct layout
/// pair gets a lane, and each lane takes the trace in turn. Only
/// aggregate statistics are collected (the equivalent of
/// [`SimConfig::fast`]), and no timeline run is recorded: a timeline
/// describes one cache, a lane settles many.
#[derive(Clone, Debug)]
pub struct MultiLane<'a> {
    os_layout: &'a Layout,
    app_layout: Option<&'a Layout>,
    sim: MultiSim,
}

impl<'a> MultiLane<'a> {
    /// Creates a lane simulating every configuration in `configs` under
    /// the given layout pair.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    #[must_use]
    pub fn new(
        os_layout: &'a Layout,
        app_layout: Option<&'a Layout>,
        configs: &[CacheConfig],
    ) -> Self {
        Self {
            os_layout,
            app_layout,
            sim: MultiSim::new(configs),
        }
    }

    /// The lane's simulator, for per-point results after the replay.
    #[must_use]
    pub fn sim(&self) -> &MultiSim {
        &self.sim
    }
}

impl oslay_trace::TraceSink for MultiLane<'_> {
    /// Replays one event, as a one-event slice.
    ///
    /// # Panics
    ///
    /// Panics if an app block arrives but the lane has no app layout.
    fn event(&mut self, event: TraceEvent) {
        self.events(std::slice::from_ref(&event));
    }

    /// The lane's replay loop: each block maps through its layout into
    /// every configuration at once. Boundary events fetch nothing.
    ///
    /// # Panics
    ///
    /// Panics if an app block arrives but the lane has no app layout.
    fn events(&mut self, events: &[TraceEvent]) {
        let (os_layout, app_layout) = (self.os_layout, self.app_layout);
        for &event in events {
            if let TraceEvent::Block { id, domain } = event {
                let layout = match domain {
                    Domain::Os => os_layout,
                    Domain::App => app_layout.expect("app block but no app layout"),
                };
                self.sim
                    .access_words(layout.addr(id), layout.fetch_words(id), domain);
            }
        }
    }
}

impl Study {
    /// Replays `case`'s trace through `cache`, mapping OS blocks through
    /// `os_layout` and app blocks through `app_layout`.
    ///
    /// # Panics
    ///
    /// Panics if the workload traces an application but `app_layout` is
    /// `None`.
    #[must_use]
    pub fn simulate<C: InstructionCache + ?Sized>(
        &self,
        case: &WorkloadCase,
        os_layout: &Layout,
        app_layout: Option<&Layout>,
        cache: &mut C,
        config: &SimConfig,
    ) -> SimResult {
        assert!(
            case.app.is_none() || app_layout.is_some(),
            "workload {} traces an application: supply its layout",
            case.name()
        );
        let _span = oslay_observe::span("study.sim");
        let mut replayer = Replayer::new(os_layout, app_layout, cache, config);
        oslay_trace::TraceSink::events(&mut replayer, case.trace.events());
        replayer.finish()
    }

    /// Like [`Study::simulate`], but for an *archived* event stream (an
    /// `oslay-tracestore` reader, a buffered trace — any
    /// [`oslay_trace::TraceSink`] feeder) instead of the case's buffered
    /// trace. The caller drives the replayer through the returned handle
    /// and finishes it for the result; see `oslay-bench`'s archived
    /// matrix drivers.
    ///
    /// # Panics
    ///
    /// Panics if the workload traces an application but `app_layout` is
    /// `None`.
    #[must_use]
    pub fn replayer_for<'a, C: InstructionCache + ?Sized>(
        &self,
        case: &WorkloadCase,
        os_layout: &'a Layout,
        app_layout: Option<&'a Layout>,
        cache: &'a mut C,
        config: &SimConfig,
    ) -> Replayer<'a, C> {
        assert!(
            case.app.is_none() || app_layout.is_some(),
            "workload {} traces an application: supply its layout",
            case.name()
        );
        Replayer::new(os_layout, app_layout, cache, config)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{OsLayoutKind, StudyConfig};
    use oslay_cache::Cache;
    use std::sync::Arc;

    fn study() -> Study {
        Study::generate(&StudyConfig::tiny())
    }

    #[test]
    fn accesses_match_trace_volume() {
        let s = study();
        let case = &s.cases()[3];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let mut cache = Cache::new(CacheConfig::paper_default());
        let r = s.simulate(case, &base.layout, None, &mut cache, &SimConfig::fast());
        // Every OS block contributes its fetch words.
        let mut expected = 0u64;
        for event in case.trace.events() {
            if let TraceEvent::Block {
                id,
                domain: Domain::Os,
            } = *event
            {
                expected += u64::from(base.layout.fetch_words(id));
            }
        }
        assert_eq!(r.stats.accesses(Domain::Os), expected);
        assert_eq!(r.stats.accesses(Domain::App), 0);
    }

    #[test]
    fn optimized_layout_misses_less_than_base() {
        let s = study();
        let case = &s.cases()[3]; // Shell (OS only)
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let opts = s.os_layout(OsLayoutKind::OptS, 8192);
        let run = |l: &oslay_layout::Layout| {
            let mut cache = Cache::new(CacheConfig::paper_default());
            s.simulate(case, l, None, &mut cache, &SimConfig::fast())
                .stats
                .total_misses()
        };
        let base_misses = run(&base.layout);
        let opt_misses = run(&opts.layout);
        assert!(
            opt_misses < base_misses,
            "OptS ({opt_misses}) must beat Base ({base_misses})"
        );
    }

    #[test]
    fn os_self_interference_dominates_in_base() {
        let s = study();
        let case = &s.cases()[3];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let mut cache = Cache::new(CacheConfig::paper_default());
        let r = s.simulate(case, &base.layout, None, &mut cache, &SimConfig::fast());
        let os_self = r.stats.misses(MissKind::OsSelf);
        let total = r.stats.total_misses();
        // Tiny-scale traces leave cold misses a visible share; at paper
        // scale self-interference exceeds 90% (see EXPERIMENTS.md).
        assert!(
            os_self * 10 >= total * 7,
            "OS self-interference {os_self} of {total} misses"
        );
    }

    #[test]
    fn collected_block_misses_sum_to_stats() {
        let s = study();
        let case = &s.cases()[3];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let mut cache = Cache::new(CacheConfig::paper_default());
        let r = s.simulate(case, &base.layout, None, &mut cache, &SimConfig::full());
        let detail = r.detail.as_ref().unwrap();
        let by_block: u64 = detail.block_misses.iter().sum();
        assert_eq!(by_block, r.stats.total_misses());
        assert_eq!(detail.miss_map.total(), r.stats.total_misses());
    }

    #[test]
    fn app_workload_requires_app_layout() {
        let s = study();
        let case = &s.cases()[0];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let app_base = s.app_base_layout(case).unwrap();
        let mut cache = Cache::new(CacheConfig::paper_default());
        let r = s.simulate(
            case,
            &base.layout,
            Some(&app_base),
            &mut cache,
            &SimConfig::fast(),
        );
        assert!(r.stats.accesses(Domain::App) > 0);
    }

    #[test]
    #[should_panic(expected = "supply its layout")]
    fn missing_app_layout_panics() {
        let s = study();
        let case = &s.cases()[0];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let mut cache = Cache::new(CacheConfig::paper_default());
        let _ = s.simulate(case, &base.layout, None, &mut cache, &SimConfig::fast());
    }

    #[test]
    fn eviction_ages_count_every_eviction_with_the_timeline_off() {
        use oslay_cache::{AddressMap, AttributedCache};
        use oslay_observe::MetricRegistry;

        let _g = observability_gate();
        let s = study();
        let case = &s.cases()[0];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let app = s.app_base_layout(case);
        let cfg = CacheConfig::paper_default();
        let evictions = |cache: &Cache| {
            let reg = MetricRegistry::new();
            cache.report_into(&reg);
            reg.counter("cache.evict.by_os") + reg.counter("cache.evict.by_app")
        };
        let ages = |snap: Option<timeline::CacheProbeSnapshot>| {
            snap.expect("the dense cache samples")
                .evict_ages
                .iter()
                .sum::<u64>()
        };
        assert!(!timeline::is_enabled());
        let mut dense = Cache::new(cfg);
        let _ = s.simulate(
            case,
            &base.layout,
            app.as_ref(),
            &mut dense,
            &SimConfig::fast(),
        );
        assert!(evictions(&dense) > 0);
        assert_eq!(ages(dense.telemetry_snapshot()), evictions(&dense));
        let map = Arc::new(AddressMap::build(std::iter::empty()));
        let mut attributed = AttributedCache::new(Cache::new(cfg), map);
        let _ = s.simulate(
            case,
            &base.layout,
            app.as_ref(),
            &mut attributed,
            &SimConfig::fast(),
        );
        assert_eq!(
            ages(attributed.telemetry_snapshot()),
            evictions(attributed.inner())
        );
        assert_eq!(evictions(attributed.inner()), evictions(&dense));
    }

    // The flight recorder and timeline are process-global; serialize the
    // tests that reset them or read what they hold.
    pub(crate) fn observability_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn replayer_records_a_timeline_run_when_scoped() {
        let _g = observability_gate();
        timeline::reset();
        let s = study();
        let case = &s.cases()[3];
        let base = s.os_layout(OsLayoutKind::Base, 8192);

        // Telemetry disabled: no run is recorded.
        let mut c1 = Cache::new(CacheConfig::paper_default());
        let plain = s.simulate(case, &base.layout, None, &mut c1, &SimConfig::fast());
        assert_eq!(timeline::runs_recorded(), 0);

        // Enabled + scoped: one validated run, identical sim results.
        timeline::enable();
        let _scope = timeline::scope(timeline::group(), 0, "test/Base");
        let mut c2 = Cache::new(CacheConfig::paper_default());
        let traced = s.simulate(case, &base.layout, None, &mut c2, &SimConfig::fast());
        timeline::disable();
        assert_eq!(plain.stats, traced.stats, "telemetry must not perturb");
        assert_eq!(timeline::runs_recorded(), 1);
        let doc = timeline::document().to_json_pretty();
        timeline::reset();
        let stats = oslay_observe::timeline::TelemetryDoc::parse(&doc)
            .expect("valid document")
            .stats();
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.events, case.trace.events().len() as u64);
        assert!(stats.frames > 0);
        assert!(stats.phases > 0);
    }
}
