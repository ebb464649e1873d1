//! How a trace is split into slices must not change a replay. Every
//! tiny workload under every OS layout kind is replayed through a
//! [`Replayer`] three ways — the whole trace as one slice, one event per
//! slice, and slices cut at seeded random points — with aggregate and
//! full collection, telemetry off and on. Statistics, per-block miss
//! counts, the three miss-address maps and the timeline document must
//! all be equal. A sweep's [`MultiLane`] is held to the same rule for
//! every point it settles.

use oslay::cache::{Cache, CacheConfig};
use oslay::model::rng::Rng;
use oslay::trace::{TraceEvent, TraceSink};
use oslay::{MultiLane, OsLayoutKind, Replayer, SimConfig, SimResult, Study, StudyConfig};
use oslay_observe::{timeline, MetricRegistry, RunReport};

/// Cuts `events` into the slices one delivery hands over.
fn split<'e>(events: &'e [TraceEvent], how: &Split) -> Vec<&'e [TraceEvent]> {
    match how {
        Split::Whole => vec![events],
        Split::PerEvent => events.chunks(1).collect(),
        Split::Random(seed) => {
            let mut rng = Rng::seed_from_u64(*seed);
            let mut out = Vec::new();
            let mut rest = events;
            while !rest.is_empty() {
                // Mostly short slices (boundaries land everywhere, the
                // empty slice included), now and then a long one.
                let len = if rng.gen_range(0..8u32) == 0 {
                    rng.gen_range(0..4096usize)
                } else {
                    rng.gen_range(0..9usize)
                };
                let (head, tail) = rest.split_at(len.min(rest.len()));
                out.push(head);
                rest = tail;
            }
            out
        }
    }
}

enum Split {
    Whole,
    PerEvent,
    Random(u64),
}

/// One replay, plus the timeline document it recorded (`None` with
/// telemetry off).
fn replay(
    study: &Study,
    case: usize,
    kind: OsLayoutKind,
    sim: &SimConfig,
    telemetry: bool,
    how: &Split,
) -> (SimResult, Option<String>) {
    let cfg = CacheConfig::paper_default();
    let case = &study.cases()[case];
    let os = study.os_layout(kind, cfg.size());
    let app = study.app_base_layout(case);
    timeline::reset();
    if telemetry {
        timeline::enable();
    }
    let scope = timeline::scope(timeline::group(), 0, "slice-replay");
    let mut cache = Cache::new(cfg);
    let mut replayer = Replayer::new(&os.layout, app.as_ref(), &mut cache, sim);
    for slice in split(case.trace.events(), how) {
        replayer.events(slice);
    }
    let result = replayer.finish();
    drop(scope);
    timeline::disable();
    let doc = telemetry.then(|| {
        assert_eq!(timeline::runs_recorded(), 1);
        timeline::document().to_json_pretty()
    });
    timeline::reset();
    (result, doc)
}

#[test]
fn replay_is_independent_of_how_the_trace_is_sliced() {
    let study = Study::generate(&StudyConfig::tiny());
    let mut seed = 0x511CE;
    for case in 0..study.cases().len() {
        for kind in OsLayoutKind::ALL {
            for sim in [SimConfig::fast(), SimConfig::full()] {
                for telemetry in [false, true] {
                    let what = format!(
                        "{} under {} (detailed {}, telemetry {telemetry})",
                        study.cases()[case].name(),
                        kind.name(),
                        sim.detailed
                    );
                    seed += 1;
                    let (want, want_doc) =
                        replay(&study, case, kind, &sim, telemetry, &Split::Whole);
                    assert_eq!(want_doc.is_some(), telemetry, "{what}");
                    for how in [Split::PerEvent, Split::Random(seed)] {
                        let (got, got_doc) = replay(&study, case, kind, &sim, telemetry, &how);
                        assert_eq!(got.stats, want.stats, "stats: {what}");
                        assert_eq!(
                            got.os_block_misses, want.os_block_misses,
                            "block misses: {what}"
                        );
                        assert_eq!(got.os_miss_map, want.os_miss_map, "miss map: {what}");
                        assert_eq!(
                            got.os_self_miss_map, want.os_self_miss_map,
                            "self miss map: {what}"
                        );
                        assert_eq!(
                            got.os_cross_miss_map, want.os_cross_miss_map,
                            "cross miss map: {what}"
                        );
                        assert_eq!(got_doc, want_doc, "timeline: {what}");
                    }
                }
            }
        }
    }
}

/// Per point of one lane: its statistics and its reported registry,
/// serialized deterministically.
fn lane_points(lane: &MultiLane<'_>, points: usize) -> Vec<(oslay::cache::MissStats, String)> {
    (0..points)
        .map(|k| {
            let registry = MetricRegistry::new();
            lane.sim().report_into(k, &registry);
            let mut report = RunReport::new("lane");
            report.add_metrics(&registry);
            (
                lane.sim().stats(k),
                report.to_json_deterministic().to_json_pretty(),
            )
        })
        .collect()
}

#[test]
fn multi_lane_is_independent_of_how_the_trace_is_sliced() {
    let study = Study::generate(&StudyConfig::tiny());
    // Two line sizes (two banks), direct-mapped and associative points.
    let configs = [
        CacheConfig::paper_default(),
        CacheConfig::new(4096, 32, 2),
        CacheConfig::new(16384, 64, 4),
    ];
    let os = study.os_layout(OsLayoutKind::OptS, 8192);
    for case in study.cases() {
        let app = study.app_base_layout(case);
        let events = case.trace.events();
        let mut by_split = [events.len(), 4096, 1].map(|chunk| {
            let mut lane = MultiLane::new(&os.layout, app.as_ref(), &configs);
            for slice in events.chunks(chunk) {
                lane.events(slice);
            }
            lane_points(&lane, configs.len())
        });
        let whole = std::mem::take(&mut by_split[0]);
        assert!(whole.iter().all(|(stats, _)| stats.total_misses() > 0));
        for (got, chunk) in by_split[1..].iter().zip([4096, 1]) {
            assert_eq!(got, &whole, "{} in chunks of {chunk}", case.name());
        }
    }
}
