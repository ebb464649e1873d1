//! Differential tests for the attribution engine's fast paths.
//!
//! * `AttributedCache::access_words` (one attributed access per cache
//!   line, trailing words bulk-counted) against the trait's per-word
//!   default, reached through a wrapper that forwards only `access`.
//! * The rank-indexed `AddressMap::lookup` and the span arithmetic of
//!   `AddressMap::count_words` against a plain binary search over the
//!   same spans, one word at a time.
//! * Telemetry inertness: an attributed replay samples the same cache
//!   state as the plain `Cache` it wraps.

use std::sync::Arc;

use oslay_cache::{
    AddressMap, AttributedCache, Cache, CacheConfig, CodeClass, CodeRef, InstructionCache,
    MissStats, CENSUS_SLOTS,
};
use oslay_model::rng::Rng;
use oslay_model::{Domain, SeedKind, WORD_BYTES};
use oslay_observe::MetricRegistry;

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
    fn access(&mut self, addr: u64, domain: Domain) -> oslay_cache::AccessOutcome {
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
