//! The report-once metric path against a per-access stream oracle.
//!
//! The engines count while they replay and report once at the end
//! (`Cache::report_into`, `MultiSim::report_into`,
//! `AttributedCache::report`). The oracle here is the per-miss stream
//! that path replaced, rebuilt from per-access outcomes of the map-based
//! `ReferenceCache`:
//!
//! * one `cache.miss.<kind>` per miss and one `cache.evict.by_<domain>`
//!   per `AccessDetail::evicted`, plus the final per-set occupancy
//!   (fills minus evictions) and fill gauge;
//! * one `cache.attr.*` sample per classified miss: compulsory when cold,
//!   conflict when a fully associative reference cache of the same
//!   capacity still held the line, capacity otherwise; the evictor is
//!   known for a conflict on a line that some fill evicted before.
//!
//! A counting probe then shows that a replay's probe calls do not grow
//! with its length.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oslay_cache::reference::ReferenceCache;
use oslay_cache::{
    AccessOutcome, AddressMap, AttributedCache, Cache, CacheConfig, InstructionCache, MissKind,
    MultiSim,
};
use oslay_model::rng::Rng;
use oslay_model::{Domain, WORD_BYTES};
use oslay_observe::{AttrClass, AttributionProbe, MetricRegistry, Probe};

/// Edge geometries: a single one-way set, a fully associative cache, a
/// direct-mapped cache under eviction pressure, and a 2-way cache with a
/// different line size (so `MultiSim` runs two banks).
fn geometries() -> [(&'static str, CacheConfig); 4] {
    [
        ("one set", CacheConfig::new(32, 32, 1)),
        ("fully associative", CacheConfig::new(512, 32, 16)),
        (
            "direct-mapped under eviction pressure",
            CacheConfig::new(256, 16, 1),
        ),
        ("2-way", CacheConfig::new(1024, 32, 2)),
    ]
}

/// Seeded block fetches `(base, words, domain)` over `span` bytes,
/// far beyond every geometry's capacity.
fn fetches(seed: u64, steps: u32, span: u32) -> Vec<(u64, u32, Domain)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..steps)
        .map(|_| {
            let base = u64::from(rng.gen_range(0..span));
            let words = 1 + rng.gen_range(0..12u32);
            let domain = if rng.gen_range(0..3u32) == 0 {
                Domain::App
            } else {
                Domain::Os
            };
            (base, words, domain)
        })
        .collect()
}

/// The deleted per-miss stream for one geometry, replayed word by word
/// through the reference caches: `(cache.* registry, cache.attr.*
/// registry)`.
fn stream_oracle(
    cfg: CacheConfig,
    stream: &[(u64, u32, Domain)],
) -> (MetricRegistry, MetricRegistry) {
    let (cache, attr) = (MetricRegistry::new(), MetricRegistry::new());
    let mut reference = ReferenceCache::new(cfg);
    let lines = cfg.size() / cfg.line();
    let mut shadow = ReferenceCache::new(CacheConfig::new(cfg.size(), cfg.line(), lines));
    let mut evicted_lines = HashSet::new();
    let mut occupancy = vec![0u64; cfg.num_sets() as usize];
    for &(base, words, domain) in stream {
        for w in 0..u64::from(words) {
            let addr = base + w * u64::from(WORD_BYTES);
            let detail = reference.access_detailed(addr, domain);
            let was_resident = !shadow.access_detailed(addr, domain).outcome.is_miss();
            let AccessOutcome::Miss(kind) = detail.outcome else {
                continue;
            };
            cache.counter_add(kind.metric_name(), 1);
            occupancy[detail.set as usize] += 1;
            if let Some(victim) = detail.evicted {
                cache.counter_add(
                    match domain {
                        Domain::Os => "cache.evict.by_os",
                        Domain::App => "cache.evict.by_app",
                    },
                    1,
                );
                occupancy[detail.set as usize] -= 1;
                evicted_lines.insert(victim);
            }
            let class = if kind == MissKind::Cold {
                AttrClass::Compulsory
            } else if was_resident {
                AttrClass::Conflict
            } else {
                AttrClass::Capacity
            };
            attr.counter_add(class.metric_name(), 1);
            if class == AttrClass::Conflict && evicted_lines.contains(&detail.line) {
                attr.counter_add("cache.attr.evictor_known", 1);
            }
            attr.histogram_record("cache.attr.set", u64::from(detail.set), 1);
        }
    }
    for &occupied in &occupancy {
        cache.histogram_record("cache.set_occupancy", occupied, 1);
    }
    let slots = u64::from(cfg.num_sets()) * u64::from(cfg.ways());
    cache.gauge_set(
        "cache.occupancy",
        occupancy.iter().sum::<u64>() as f64 / slots as f64,
    );
    (cache, attr)
}

fn assert_same(got: &MetricRegistry, want: &MetricRegistry, at: &str) {
    assert_eq!(got.counters(), want.counters(), "{at}: counters");
    assert_eq!(got.gauges(), want.gauges(), "{at}: gauges");
    assert_eq!(got.histograms(), want.histograms(), "{at}: histograms");
}

#[test]
fn reports_equal_the_per_access_stream() {
    let grid: Vec<CacheConfig> = geometries().iter().map(|&(_, c)| c).collect();
    for seed in [0x0AC1E, 0x5EED5] {
        let stream = fetches(seed, 6_000, 16 * 1024);
        let mut multi = MultiSim::new(&grid);
        for &(base, words, domain) in &stream {
            multi.access_words(base, words, domain);
        }
        for (pi, (name, cfg)) in geometries().into_iter().enumerate() {
            let at = format!("seed {seed:#x}, {name} ({cfg})");
            let (want_cache, want_attr) = stream_oracle(cfg, &stream);
            assert!(
                want_attr.counter("cache.attr.evictor_known") > 0 || cfg.num_sets() == 1,
                "{at}: the stream should refetch evicted lines"
            );

            let mut cache = Cache::new(cfg);
            let attr_reg = Arc::new(MetricRegistry::new());
            let mut attributed = AttributedCache::with_probe(
                Cache::new(cfg),
                Arc::new(AddressMap::build(std::iter::empty())),
                attr_reg.clone(),
            );
            for &(base, words, domain) in &stream {
                cache.access_words(base, words, domain);
                attributed.access_words(base, words, domain);
            }

            let got = MetricRegistry::new();
            cache.report_into(&got);
            assert_same(&got, &want_cache, &format!("{at}: Cache::report_into"));

            let got = MetricRegistry::new();
            multi.report_into(pi, &got);
            assert_same(&got, &want_cache, &format!("{at}: MultiSim::report_into"));

            let report = attributed.report();
            assert_same(
                &attr_reg,
                &want_attr,
                &format!("{at}: AttributedCache::report"),
            );
            assert_eq!(report.total_misses, cache.stats().total_misses(), "{at}");
        }
    }
}

/// Counts every probe call, whatever its name or value.
#[derive(Debug, Default)]
struct CountingProbe(AtomicU64);

impl CountingProbe {
    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    fn calls(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Probe for CountingProbe {
    fn counter_add(&self, _name: &str, _delta: u64) {
        self.bump();
    }

    fn gauge_set(&self, _name: &str, _value: f64) {
        self.bump();
    }

    fn histogram_record(&self, _name: &str, _value: u64, _count: u64) {
        self.bump();
    }
}

impl AttributionProbe for CountingProbe {}

/// Probe calls of one replay of `steps` fetches, per engine:
/// `(Cache, MultiSim, AttributedCache)`, plus the replay's misses.
fn calls_per_replay(cfg: CacheConfig, steps: u32) -> ([u64; 3], u64) {
    let stream = fetches(0xC0C0, steps, 64 * 1024);
    let mut cache = Cache::new(cfg);
    let mut multi = MultiSim::new(&[cfg]);
    let attr_probe = Arc::new(CountingProbe::default());
    let mut attributed = AttributedCache::with_probe(
        Cache::new(cfg),
        Arc::new(AddressMap::build(std::iter::empty())),
        attr_probe.clone(),
    );
    for &(base, words, domain) in &stream {
        cache.access_words(base, words, domain);
        multi.access_words(base, words, domain);
        attributed.access_words(base, words, domain);
    }
    let (cache_probe, multi_probe) = (CountingProbe::default(), CountingProbe::default());
    cache.report_into(&cache_probe);
    multi.report_into(0, &multi_probe);
    let _ = attributed.report();
    (
        [cache_probe.calls(), multi_probe.calls(), attr_probe.calls()],
        cache.stats().total_misses(),
    )
}

#[test]
fn probe_calls_do_not_grow_with_trace_length() {
    let cfg = CacheConfig::new(256, 16, 1);
    let (short, short_misses) = calls_per_replay(cfg, 2_000);
    let (long, long_misses) = calls_per_replay(cfg, 40_000);
    assert!(
        long_misses > 10 * short_misses,
        "{short_misses} → {long_misses}"
    );
    assert_eq!(short, long, "probe calls per replay moved with its length");
    // Five miss kinds, two evictor domains, one histogram call per
    // occupancy value, one gauge; three classes, the evictor-known
    // count and one histogram call per set.
    let sets = u64::from(cfg.num_sets());
    let ways = u64::from(cfg.ways());
    assert!(long[0] <= 5 + 2 + (ways + 1) + 1, "{long:?}");
    assert_eq!(long[0], long[1], "Cache and MultiSim report alike");
    assert!(long[2] <= 3 + 1 + sets, "{long:?}");
    assert!(
        long_misses > 100 * long[2],
        "{long_misses} misses, {long:?}"
    );
}

/// The eviction-age histogram counts on every eviction, with no switch
/// to turn it on: after a replay its buckets sum to the eviction
/// counters `report_into` writes, for the dense cache and for the
/// attributing cache around one. The timeline is never enabled in this
/// process.
#[test]
fn eviction_ages_sum_to_the_eviction_counters() {
    for (name, cfg) in geometries() {
        let stream = fetches(0xA6E5, 4_000, 16 * 1024);
        let mut cache = Cache::new(cfg);
        let mut attributed = AttributedCache::new(
            Cache::new(cfg),
            Arc::new(AddressMap::build(std::iter::empty())),
        );
        for &(base, words, domain) in &stream {
            cache.access_words(base, words, domain);
            attributed.access_words(base, words, domain);
        }
        for (engine, snapshot, inner) in [
            ("Cache", cache.telemetry_snapshot(), &cache),
            (
                "AttributedCache",
                attributed.telemetry_snapshot(),
                attributed.inner(),
            ),
        ] {
            let reg = MetricRegistry::new();
            inner.report_into(&reg);
            let evictions = reg.counter("cache.evict.by_os") + reg.counter("cache.evict.by_app");
            let ages = snapshot.expect("the dense cache always samples").evict_ages;
            assert!(evictions > 0, "{name}: the stream should evict");
            assert_eq!(ages.iter().sum::<u64>(), evictions, "{engine}, {name}");
        }
    }
}
