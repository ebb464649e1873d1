//! Differential tests for the attribution engine's fast paths.
//!
//! * `AttributedCache::access_words` (one attributed access per cache
//!   line, trailing words bulk-counted) against the trait's per-word
//!   default, reached through a wrapper that forwards only `access`.
//! * Both of those against an independent word-by-word twin built from
//!   the map-based reference cache and shadow store, which shares no
//!   code with the engine's line routine or its slot↔node links.
//! * Engine equality: `Cache`, `AttributedCache` and `MultiSim` report
//!   the same `MissStats` for the same stream.
//! * The rank-indexed `AddressMap::lookup` and the span arithmetic of
//!   `AddressMap::count_words` against a plain binary search over the
//!   same spans, one word at a time.
//! * Telemetry inertness: an attributed replay samples the same cache
//!   state as the plain `Cache` it wraps.

use std::collections::BTreeMap;
use std::sync::Arc;

use oslay_cache::reference::{ReferenceCache, ReferenceShadowTags};
use oslay_cache::{
    AccessOutcome, AddressMap, AttributedCache, AttributionReport, Cache, CacheConfig, CodeClass,
    CodeRef, ConflictMatrix, ConflictPair, InstructionCache, MissKind, MissStats, MultiSim,
    RoutineKey, CENSUS_SLOTS,
};
use oslay_model::rng::Rng;
use oslay_model::{Domain, SeedKind, WORD_BYTES};
use oslay_observe::{AttrClass, MetricRegistry};

type Span = (u64, u64, CodeRef);

fn code(rng: &mut Rng, domain: Domain, block: u32) -> CodeRef {
    CodeRef {
        domain,
        block,
        routine: block / 4,
        class: CodeClass::ALL[rng.gen_range(0..CodeClass::ALL.len())],
    }
}

/// `(start, len, code)` spans for one program: byte-granular starts and
/// lengths (so spans end mid-word and mid-line), small gaps, and now and
/// then a hole wide enough to open a new map region.
fn program_spans(rng: &mut Rng, domain: Domain, base: u64, count: u32) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut at = base;
    for block in 0..count {
        let len = u64::from(rng.gen_range(1..90u32));
        spans.push((at, len, code(rng, domain, block)));
        at += len;
        match rng.gen_range(0..100u32) {
            0 => at += u64::from(rng.gen_range(60_000..200_000u32)),
            1..=20 => at += u64::from(rng.gen_range(1..200u32)),
            _ => {}
        }
    }
    spans
}

/// An OS image at a non-word-aligned base plus application code far
/// away, as `(start, len, code)` spans.
fn random_spans(rng: &mut Rng) -> Vec<Span> {
    let os_base = 0x1000 + u64::from(rng.gen_range(0..64u32));
    let app_base = 0x4000_0000 + u64::from(rng.gen_range(0..64u32));
    let mut spans = program_spans(rng, Domain::Os, os_base, 1_500);
    spans.extend(program_spans(rng, Domain::App, app_base, 300));
    spans
}

/// Forwards single-word accesses and the trace hooks to an attributed
/// cache, but not `access_words`: the trait's per-word default loop
/// drives it instead of the line-run path.
#[derive(Debug)]
struct PerWord(AttributedCache);

impl InstructionCache for PerWord {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        self.0.access(addr, domain)
    }

    fn stats(&self) -> &MissStats {
        self.0.stats()
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn note_os_enter(&mut self, kind: SeedKind) {
        self.0.note_os_enter(kind);
    }

    fn note_os_exit(&mut self) {
        self.0.note_os_exit();
    }
}

/// One step of a random trace: a block fetch `(base, words, domain)` or a
/// trace hook.
enum Step {
    Fetch(u64, u32, Domain),
    Enter(SeedKind),
    Exit,
}

/// Random block fetches over `spans`: mostly a span's own fetch (from its
/// byte-granular start, running a word or two into whatever follows it
/// now and then), some fetches from inside gaps, and OS enter/exit
/// hooks.
fn random_steps(rng: &mut Rng, spans: &[Span], n: usize) -> Vec<Step> {
    let kinds = [
        SeedKind::Interrupt,
        SeedKind::PageFault,
        SeedKind::SysCall,
        SeedKind::Other,
    ];
    // Hot spans: a working set that revisits, so hits, conflicts and
    // capacity misses all occur.
    let hot: Vec<usize> = (0..200).map(|_| rng.gen_range(0..spans.len())).collect();
    (0..n)
        .map(|_| match rng.gen_range(0..100u32) {
            0 => Step::Enter(kinds[rng.gen_range(0..kinds.len())]),
            1 => Step::Exit,
            2..=7 => {
                let (start, len, c) = spans[rng.gen_range(0..spans.len())];
                let base = start + len + u64::from(rng.gen_range(0..300u32));
                Step::Fetch(base, rng.gen_range(1..20u32), c.domain)
            }
            _ => {
                let pick = if rng.gen_range(0..4u32) == 0 {
                    rng.gen_range(0..spans.len())
                } else {
                    hot[rng.gen_range(0..hot.len())]
                };
                let (start, len, c) = spans[pick];
                let words = u32::try_from(len.div_ceil(u64::from(WORD_BYTES))).unwrap()
                    + rng.gen_range(0..3u32);
                Step::Fetch(start, words, c.domain)
            }
        })
        .collect()
}

fn geometries() -> [(&'static str, CacheConfig); 5] {
    [
        ("one set", CacheConfig::new(32, 32, 1)),
        ("fully associative", CacheConfig::new(512, 32, 16)),
        ("line = one word", CacheConfig::new(256, 4, 1)),
        ("2-way", CacheConfig::new(1024, 32, 2)),
        ("paper default", CacheConfig::paper_default()),
    ]
}

#[test]
fn line_run_access_words_equals_the_per_word_default() {
    for (seed, (name, cfg)) in geometries().into_iter().enumerate() {
        let mut rng = Rng::seed_from_u64(0xA77 + seed as u64);
        let spans = random_spans(&mut rng);
        let map = Arc::new(AddressMap::build(spans.clone()));
        let fast_reg = Arc::new(MetricRegistry::new());
        let slow_reg = Arc::new(MetricRegistry::new());
        let mut fast =
            AttributedCache::with_probe(Cache::new(cfg), Arc::clone(&map), fast_reg.clone());
        let mut slow = PerWord(AttributedCache::with_probe(
            Cache::new(cfg),
            map,
            slow_reg.clone(),
        ));
        for (i, step) in random_steps(&mut rng, &spans, 30_000)
            .into_iter()
            .enumerate()
        {
            match step {
                Step::Fetch(base, words, domain) => {
                    let got = fast.access_words(base, words, domain);
                    let want = slow.access_words(base, words, domain);
                    assert_eq!(got, want, "{name}: step {i} fetch {base:#x}+{words}w");
                }
                Step::Enter(kind) => {
                    fast.note_os_enter(kind);
                    slow.note_os_enter(kind);
                }
                Step::Exit => {
                    fast.note_os_exit();
                    slow.note_os_exit();
                }
            }
        }
        let (got, want) = (fast.report(), slow.0.report());
        assert!(
            got.class_misses.iter().all(|&n| n > 0) || cfg.num_sets() == 1,
            "{name}: the trace should exercise every miss class: {:?}",
            got.class_misses
        );
        assert_eq!(got, want, "{name}: attribution reports differ");
        assert_eq!(fast.stats(), slow.stats(), "{name}: miss stats differ");
        assert_eq!(
            fast_reg.counters(),
            slow_reg.counters(),
            "{name}: probe counters"
        );
        assert_eq!(
            fast_reg.histograms(),
            slow_reg.histograms(),
            "{name}: probe histograms"
        );
    }
}

/// The attribution engine rebuilt word by word from the map-based
/// reference cache and shadow store, with a `BTreeMap` for evictor
/// provenance: every fetched word is one reference access and one shadow
/// touch, and every miss is attributed the way the engine documents it.
struct Twin {
    cfg: CacheConfig,
    map: Arc<AddressMap>,
    cache: ReferenceCache,
    shadow: ReferenceShadowTags,
    /// victim line → line whose fill displaced it.
    last_evictor: BTreeMap<u64, u64>,
    stats: MissStats,
    set_accesses: Vec<u64>,
    set_misses: Vec<u64>,
    class_misses: [u64; 3],
    census_misses: [u64; CENSUS_SLOTS],
    entry_misses: [u64; 5],
    context: Option<SeedKind>,
    pairs: BTreeMap<(RoutineKey, RoutineKey), (CodeRef, CodeRef, u64)>,
    /// Cache hits on a line the shadow store had evicted.
    shadow_dropped_cached: u64,
}

impl Twin {
    fn new(cfg: CacheConfig, map: Arc<AddressMap>) -> Self {
        let sets = cfg.num_sets() as usize;
        Self {
            cfg,
            map,
            cache: ReferenceCache::new(cfg),
            shadow: ReferenceShadowTags::new((cfg.size() / cfg.line()) as usize),
            last_evictor: BTreeMap::new(),
            stats: MissStats::default(),
            set_accesses: vec![0; sets],
            set_misses: vec![0; sets],
            class_misses: [0; 3],
            census_misses: [0; CENSUS_SLOTS],
            entry_misses: [0; 5],
            context: None,
            pairs: BTreeMap::new(),
            shadow_dropped_cached: 0,
        }
    }

    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        let detail = self.cache.access_detailed(addr, domain);
        self.stats.record(domain, detail.outcome);
        self.set_accesses[detail.set as usize] += 1;
        let was_resident = self.shadow.touch(detail.line);
        match detail.outcome {
            AccessOutcome::Hit => {
                self.shadow_dropped_cached += u64::from(!was_resident);
            }
            AccessOutcome::Miss(kind) => {
                self.set_misses[detail.set as usize] += 1;
                let code = self.map.lookup(addr);
                self.census_misses[code.map_or(CENSUS_SLOTS - 1, |c| c.class.index())] += 1;
                self.entry_misses[self.context.map_or(4, SeedKind::index)] += 1;
                let class = match (kind, was_resident) {
                    (MissKind::Cold, _) => AttrClass::Compulsory,
                    (_, true) => AttrClass::Conflict,
                    (_, false) => AttrClass::Capacity,
                };
                self.class_misses[class.index()] += 1;
                let evictor_line = self.last_evictor.get(&detail.line);
                if let (AttrClass::Conflict, Some(victim), Some(evictor)) = (
                    class,
                    code,
                    evictor_line.and_then(|&line| self.map.lookup(line)),
                ) {
                    self.pairs
                        .entry((evictor.block_key(), victim.block_key()))
                        .or_insert((evictor, victim, 0))
                        .2 += 1;
                }
            }
        }
        if let Some(victim) = detail.evicted {
            self.last_evictor.insert(victim, detail.line);
        }
        detail.outcome
    }

    fn access_words(&mut self, base: u64, words: u32, domain: Domain) -> u64 {
        (0..words)
            .map(|w| base + u64::from(w) * u64::from(WORD_BYTES))
            .filter(|&addr| self.access(addr, domain).is_miss())
            .count() as u64
    }

    fn report(&self) -> AttributionReport {
        let mut pairs: Vec<ConflictPair> = self
            .pairs
            .values()
            .map(|&(evictor, victim, count)| ConflictPair {
                evictor,
                victim,
                count,
            })
            .collect();
        pairs.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.evictor.block_key().cmp(&b.evictor.block_key()))
                .then(a.victim.block_key().cmp(&b.victim.block_key()))
        });
        let mut matrix = ConflictMatrix::default();
        for p in &pairs {
            matrix.add(p.evictor.routine_key(), p.victim.routine_key(), p.count);
        }
        AttributionReport {
            config: self.cfg,
            total_accesses: self.stats.total_accesses(),
            total_misses: self.stats.total_misses(),
            class_misses: self.class_misses,
            set_accesses: self.set_accesses.clone(),
            set_misses: self.set_misses.clone(),
            census_misses: self.census_misses,
            entry_misses: self.entry_misses,
            pairs,
            matrix,
        }
    }
}

/// A fetch stream that makes the shadow store drop lines the cache still
/// holds: one line revisited in set 0 while a sweep over more distinct
/// lines than the store holds (all mapping to the other sets) pushes it
/// out of the fully associative LRU order.
fn shadow_pressure_steps(cfg: CacheConfig, n: usize) -> Vec<Step> {
    let line = u64::from(cfg.line());
    let sets = u64::from(cfg.num_sets());
    let lines = u64::from(cfg.size() / cfg.line());
    let mut sweep = (0..).filter(|i| i % sets != 0).map(|i| i * line);
    (0..n)
        .map(|i| {
            let addr = if i % (2 * lines as usize) == 0 {
                0
            } else {
                sweep.next().expect("endless sweep") % (8 * lines * line)
            };
            Step::Fetch(addr, 1, Domain::Os)
        })
        .collect()
}

#[test]
fn attribution_equals_the_word_by_word_reference_twin() {
    for (seed, (name, cfg)) in geometries().into_iter().enumerate() {
        let mut rng = Rng::seed_from_u64(0x7A1 + seed as u64);
        let spans = random_spans(&mut rng);
        let map = Arc::new(AddressMap::build(spans.clone()));
        let mut by_block = AttributedCache::new(Cache::new(cfg), Arc::clone(&map));
        let mut by_word = PerWord(AttributedCache::new(Cache::new(cfg), Arc::clone(&map)));
        let mut twin = Twin::new(cfg, map);
        let mut steps = random_steps(&mut rng, &spans, 20_000);
        if cfg.num_sets() > 1 {
            steps.extend(shadow_pressure_steps(cfg, 4_000));
        }
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Fetch(base, words, domain) => {
                    let want = twin.access_words(base, words, domain);
                    let what = format!("{name}: step {i} fetch {base:#x}+{words}w");
                    assert_eq!(by_block.access_words(base, words, domain), want, "{what}");
                    assert_eq!(by_word.access_words(base, words, domain), want, "{what}");
                }
                Step::Enter(kind) => {
                    twin.context = Some(kind);
                    by_block.note_os_enter(kind);
                    by_word.note_os_enter(kind);
                }
                Step::Exit => {
                    twin.context = None;
                    by_block.note_os_exit();
                    by_word.note_os_exit();
                }
            }
        }
        let want = twin.report();
        // With one set the shadow store is the cache: no conflicts.
        if cfg.num_sets() > 1 {
            assert!(!want.pairs.is_empty(), "{name}: no conflict pair charged");
            assert!(
                twin.shadow_dropped_cached > 0,
                "{name}: the shadow store never dropped a cached line"
            );
        }
        assert_eq!(by_block.report(), want, "{name}: access_words report");
        assert_eq!(by_word.0.report(), want, "{name}: access report");
        assert_eq!(by_block.stats(), &twin.stats, "{name}: access_words stats");
        assert_eq!(by_word.stats(), &twin.stats, "{name}: access stats");
    }
}

/// Replays `steps` random fetches per seed through a `Cache` and an
/// `AttributedCache` per geometry and one `MultiSim` over all five, a
/// tenth of the fetches word by word through `access`, and requires
/// equal `MissStats` from all three engines.
fn check_engine_equality(seeds: u64, steps: usize) {
    let cfgs = geometries().map(|(_, cfg)| cfg);
    for seed in 0..seeds {
        let mut rng = Rng::seed_from_u64(0xE9A1 + seed);
        let spans = random_spans(&mut rng);
        let map = Arc::new(AddressMap::build(spans.clone()));
        let mut multi = MultiSim::new(&cfgs);
        let mut caches = cfgs.map(Cache::new);
        let mut attributed =
            cfgs.map(|cfg| AttributedCache::new(Cache::new(cfg), Arc::clone(&map)));
        for step in random_steps(&mut rng, &spans, steps) {
            let Step::Fetch(base, words, domain) = step else {
                continue;
            };
            if rng.gen_range(0..10u32) == 0 {
                for addr in (0..words).map(|w| base + u64::from(w) * u64::from(WORD_BYTES)) {
                    multi.access(addr, domain);
                    for (cache, attr) in caches.iter_mut().zip(&mut attributed) {
                        assert_eq!(cache.access(addr, domain), attr.access(addr, domain));
                    }
                }
            } else {
                multi.access_words(base, words, domain);
                for (cache, attr) in caches.iter_mut().zip(&mut attributed) {
                    let missed = cache.access_words(base, words, domain);
                    assert_eq!(missed, attr.access_words(base, words, domain));
                }
            }
        }
        for (point, (name, _)) in geometries().into_iter().enumerate() {
            let want = caches[point].stats();
            assert_eq!(
                attributed[point].stats(),
                want,
                "seed {seed} {name}: attributed"
            );
            assert_eq!(&multi.stats(point), want, "seed {seed} {name}: multisim");
        }
    }
}

#[test]
fn cache_attributed_cache_and_multisim_report_equal_stats() {
    check_engine_equality(2, 20_000);
}

/// The same with a larger budget (`cargo test --release -- --ignored`).
#[test]
#[ignore = "large budget; run by ci.sh in release"]
fn cache_attributed_cache_and_multisim_report_equal_stats_large() {
    check_engine_equality(8, 200_000);
}

/// The address-map answer by binary search over sorted `(start, end,
/// code)` spans: the lookup the rank index replaced.
fn oracle_rank(sorted: &[(u64, u64, CodeRef)], addr: u64) -> usize {
    sorted.partition_point(|&(start, _, _)| start <= addr)
}

fn oracle_lookup(sorted: &[(u64, u64, CodeRef)], addr: u64) -> Option<CodeRef> {
    let i = oracle_rank(sorted, addr).checked_sub(1)?;
    let (_, end, code) = sorted[i];
    (addr < end).then_some(code)
}

/// The census of `words` word fetches from `addr`, one binary search
/// per word.
fn oracle_census(sorted: &[(u64, u64, CodeRef)], addr: u64, words: u32) -> [u64; CENSUS_SLOTS] {
    let mut census = [0; CENSUS_SLOTS];
    for w in 0..u64::from(words) {
        let code = oracle_lookup(sorted, addr + w * u64::from(WORD_BYTES));
        census[code.map_or(CENSUS_SLOTS - 1, |c| c.class.index())] += 1;
    }
    census
}

/// Checks every boundary address of every span, plus random probes and
/// the extremes of the address space, against the binary search: the
/// lookup there, and the census of a fetch of up to 39 words from there.
fn check_map(rng: &mut Rng, what: &str, spans: &[Span]) {
    let map = AddressMap::build(spans.iter().copied());
    let mut sorted: Vec<(u64, u64, CodeRef)> = spans
        .iter()
        .filter(|&&(_, len, _)| len > 0)
        .map(|&(start, len, c)| (start, start + len, c))
        .collect();
    sorted.sort_unstable_by_key(|&(start, _, _)| start);
    assert_eq!(map.len(), sorted.len(), "{what}: span count");
    let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
    for &(start, end, _) in &sorted {
        probes.extend([
            start.saturating_sub(1),
            start,
            start + 1,
            end - 1,
            end,
            end + 1,
        ]);
        // Around the region boundary a wide hole opens.
        probes.extend([end + (1 << 16) - 1, end + (1 << 16), end + (1 << 16) + 1]);
    }
    let hi = sorted.last().map_or(1 << 20, |&(_, end, _)| end + 1000);
    for _ in 0..2_000 {
        probes.push(rng.gen_range(0..hi));
    }
    for addr in probes {
        assert_eq!(
            map.lookup(addr),
            oracle_lookup(&sorted, addr),
            "{what}: lookup({addr:#x})"
        );
        if addr < u64::MAX / 2 {
            let words = (addr % 40) as u32;
            let mut census = [0; CENSUS_SLOTS];
            map.count_words(addr, words, 1, &mut census);
            assert_eq!(
                census,
                oracle_census(&sorted, addr, words),
                "{what}: count_words({addr:#x}, {words})"
            );
        }
    }
}

#[test]
fn indexed_address_map_equals_binary_search() {
    let mut rng = Rng::seed_from_u64(0x3A9);
    let os = |rng: &mut Rng, block| code(rng, Domain::Os, block);
    check_map(&mut rng, "empty", &[]);
    let single = [(0x1003, 10, os(&mut rng, 0))];
    check_map(&mut rng, "single span", &single);
    let zero_len = [(0x10, 0, os(&mut rng, 0)), (0x20, 4, os(&mut rng, 1))];
    check_map(&mut rng, "zero-length span dropped", &zero_len);
    let at_zero = [(0, 3, os(&mut rng, 0)), (3, 5, os(&mut rng, 1))];
    check_map(&mut rng, "span at address 0", &at_zero);
    // A span too short for any word to start in, words straddling span
    // ends, and a gap between.
    let straddles = [
        (16, 6, os(&mut rng, 0)),
        (22, 2, os(&mut rng, 1)),
        (40, 12, os(&mut rng, 2)),
    ];
    check_map(&mut rng, "short spans and a gap", &straddles);
    // Neighbours exactly 64 KiB apart share a region; one byte more
    // splits them.
    let gap = 1u64 << 16;
    let edges = [
        (0x100, 8, os(&mut rng, 0)),
        (0x108 + gap, 8, os(&mut rng, 1)),
        (0x110 + 2 * gap + 1, 8, os(&mut rng, 2)),
    ];
    check_map(&mut rng, "region boundaries", &edges);
    // A long span after a hole gets coarse buckets whose aligned base
    // reaches back over the dense region before it.
    let reach_back = [
        (0x4_0000, 0x80, os(&mut rng, 0)),
        (0x4_0080, 0x80, os(&mut rng, 1)),
        (0x4_0100 + 70_000, 1_000_000, os(&mut rng, 2)),
    ];
    check_map(&mut rng, "coarse region reaching back", &reach_back);
    // Sparse spans force coarse buckets; dense ones share a bucket.
    let sparse: Vec<Span> = (0..50u32)
        .map(|i| (u64::from(i) * 60_000 + 7, 5, os(&mut rng, i)))
        .collect();
    check_map(&mut rng, "sparse region", &sparse);
    let dense: Vec<Span> = (0..200u32)
        .map(|i| (0x8000 + u64::from(i) * 3, 2, os(&mut rng, i)))
        .collect();
    check_map(&mut rng, "several spans per bucket", &dense);
    for round in 0..10 {
        let mut spans = random_spans(&mut rng);
        // The map sorts its input.
        spans.reverse();
        check_map(&mut rng, &format!("random map {round}"), &spans);
    }
}

#[test]
fn attributed_telemetry_matches_the_plain_cache() {
    for (seed, (name, cfg)) in geometries().into_iter().enumerate() {
        let mut rng = Rng::seed_from_u64(0x7E1 + seed as u64);
        let spans = random_spans(&mut rng);
        let mut plain = Cache::new(cfg);
        let mut attributed =
            AttributedCache::new(Cache::new(cfg), Arc::new(AddressMap::build(spans.clone())));
        for (i, step) in random_steps(&mut rng, &spans, 20_000)
            .into_iter()
            .enumerate()
        {
            if let Step::Fetch(base, words, domain) = step {
                plain.access_words(base, words, domain);
                attributed.access_words(base, words, domain);
            }
            if i % 997 == 0 {
                let mut snap = attributed
                    .telemetry_snapshot()
                    .expect("attributed snapshot");
                assert!(snap.attr.is_some(), "{name}: attribution split present");
                snap.attr = None;
                assert_eq!(
                    Some(snap),
                    plain.telemetry_snapshot(),
                    "{name}: telemetry differs at step {i}"
                );
            }
        }
        let mut snap = attributed.telemetry_snapshot().unwrap();
        assert!(
            snap.evict_ages.iter().sum::<u64>() > 0,
            "{name}: evictions happened"
        );
        snap.attr = None;
        assert_eq!(
            Some(snap),
            plain.telemetry_snapshot(),
            "{name}: final telemetry"
        );
        assert_eq!(attributed.stats(), plain.stats(), "{name}: stats");
    }
}
