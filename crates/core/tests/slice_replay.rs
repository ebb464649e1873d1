//! How a trace is split into slices must not change a replay. Every
//! tiny workload under every OS layout kind is replayed through a
//! [`Replayer`] three ways — the whole trace as one slice, one event per
//! slice, and slices cut at seeded random points — with aggregate and
//! full collection, telemetry off and on. Statistics, per-block miss
//! counts, the three miss-address maps and the timeline document must
//! all be equal.

use oslay::cache::{Cache, CacheConfig};
use oslay::model::rng::Rng;
use oslay::trace::{TraceEvent, TraceSink};
use oslay::{OsLayoutKind, Replayer, SimConfig, SimResult, Study, StudyConfig};
use oslay_observe::timeline;

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
                        "{} under {} (miss maps {}, telemetry {telemetry})",
                        study.cases()[case].name(),
                        kind.name(),
                        sim.os_miss_map
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
