//! Soundness gate for the abstract-interpretation cache analysis.
//!
//! The static classifier (`oslay_verify::absint`) promises, per layout:
//! always-hit points never miss, persistent lines miss at most once per
//! run, always-miss points miss on every execution. This module replays
//! every workload's buffered trace against every layout through the plain
//! cache and checks each promise against the *measured* per-point miss
//! counts. One surviving violation anywhere fails the gate; the `analyze
//! --gate` binary turns that into exit 1 and ci.sh runs it on every push.
//!
//! The replay mirrors `oslay::Replayer` exactly (same line runs, same
//! cache, same trace stream), but records misses per *(block, line-slot)*
//! access point — the unit the classifier speaks — instead of only per
//! block.

use std::collections::{HashMap, HashSet};

use oslay::cache::{Cache, CacheConfig, InstructionCache};
use oslay::layout::Layout;
use oslay::{OsLayout, Study, WorkloadCase};
use oslay_model::{fetch_words, Domain};
use oslay_trace::{TraceEvent, TraceSink};
use oslay_verify::{
    block_line_addrs, classify_layout, AbsintParams, Classification, LayoutView, LineClass,
};

/// Gate verdict for one workload × layout replay.
#[derive(Clone, PartialEq, Debug)]
pub struct GateRow {
    /// Workload name.
    pub workload: String,
    /// Layout name.
    pub layout: String,
    /// Always-hit points (static).
    pub ah_points: u64,
    /// Measured misses summed over always-hit points — sound iff 0.
    pub ah_misses: u64,
    /// Distinct lines carrying at least one persistent point.
    pub persistent_lines: u64,
    /// Persistent lines measuring more than one miss — sound iff 0.
    pub persistent_excess: u64,
    /// Always-miss points (static).
    pub am_points: u64,
    /// Always-miss points whose measured misses differ from the block's
    /// execution count — sound iff 0.
    pub am_mismatch: u64,
    /// Fraction of this workload's measured OS line accesses that landed
    /// on a classified (non-unclassified) point.
    pub measured_coverage: f64,
}

impl GateRow {
    /// Whether every soundness promise held in this replay.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.ah_misses == 0 && self.persistent_excess == 0 && self.am_mismatch == 0
    }
}

/// The full gate outcome: per-layout classifications plus one
/// [`GateRow`] per workload × layout.
#[derive(Clone, PartialEq, Debug)]
pub struct AbsintGateOutcome {
    /// `(layout name, classification)` in the order given.
    pub classifications: Vec<(String, Classification)>,
    /// Rows in layout-major, workload-minor order.
    pub rows: Vec<GateRow>,
}

impl AbsintGateOutcome {
    /// Whether every row passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.rows.iter().all(GateRow::ok)
    }
}

/// Line-aligned addresses of every application line the workloads
/// execute (under their replayed app-side Base layouts) — the foreign
/// lines that count against each set's persistence budget.
#[must_use]
pub fn absint_foreign_lines(study: &Study, config: &CacheConfig) -> Vec<u64> {
    let mut lines = Vec::new();
    for case in study.cases() {
        let (Some(layout), Some(profile)) = (study.app_base_layout(case), &case.app_profile) else {
            continue;
        };
        for block in profile.executed_blocks() {
            lines.extend(block_line_addrs(
                layout.addr(block),
                layout.effective_size(block),
                config,
            ));
        }
    }
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Classifies one OS layout against the study's merged profile, with the
/// study's own foreign lines — the standard way every surface (analyze,
/// lint, all_experiments, the gate) invokes the analysis.
#[must_use]
pub fn classify_study_layout(
    study: &Study,
    view: &LayoutView,
    config: CacheConfig,
) -> Classification {
    let foreign = absint_foreign_lines(study, &config);
    let params = AbsintParams::new(config).with_foreign_lines(foreign);
    classify_layout(
        &study.kernel().program,
        study.averaged_os_profile(),
        view,
        &params,
    )
}

/// The per-point miss recorder: a [`TraceSink`] replaying the stream
/// through the plain cache as the production replayer does, but one
/// [`CacheConfig::line_runs`] run at a time, so each OS miss lands on its
/// *(block, line-slot)* point: only a run's first word can miss, and run
/// `k` of a block is slot `k` of its [`block_line_addrs`].
struct MissRecorder<'a> {
    cache: Cache,
    os: &'a LayoutView,
    app: Option<&'a Layout>,
    point_miss: Vec<Vec<u64>>,
    exec: Vec<u64>,
}

impl<'a> MissRecorder<'a> {
    /// Replays `case`'s trace with OS blocks placed by `os` and app
    /// blocks by `app`.
    fn replay(
        case: &WorkloadCase,
        config: CacheConfig,
        os: &'a LayoutView,
        app: Option<&'a Layout>,
    ) -> Self {
        let point_miss = (0..os.num_blocks())
            .map(|b| {
                let runs = config.line_runs(os.addr[b], fetch_words(os.size[b]));
                vec![0u64; runs.count()]
            })
            .collect();
        let mut recorder = Self {
            cache: Cache::new(config),
            os,
            app,
            point_miss,
            exec: vec![0u64; os.num_blocks()],
        };
        for &event in case.trace.events() {
            recorder.event(event);
        }
        recorder
    }
}

impl TraceSink for MissRecorder<'_> {
    fn event(&mut self, event: TraceEvent) {
        let TraceEvent::Block { id, domain } = event else {
            return;
        };
        match domain {
            Domain::Os => {
                let b = id.index();
                self.exec[b] += 1;
                let runs = self
                    .cache
                    .config()
                    .line_runs(self.os.addr[b], fetch_words(self.os.size[b]));
                for ((addr, run), misses) in runs.zip(&mut self.point_miss[b]) {
                    *misses += self.cache.access_words(addr, run, Domain::Os);
                }
            }
            Domain::App => {
                let app = self.app.expect("app block in a workload without an app");
                self.cache
                    .access_words(app.addr(id), app.fetch_words(id), Domain::App);
            }
        }
    }
}

/// Replays every workload against every layout and checks the static
/// classes against measured misses.
///
/// `layouts` pairs a display name with the built layout; classifications
/// use the merged profile (sound for each workload separately because
/// the merged arc set is a superset of every individual one).
#[must_use]
pub fn run_absint_gate(
    study: &Study,
    layouts: &[(String, OsLayout)],
    config: CacheConfig,
    threads: usize,
) -> AbsintGateOutcome {
    let classifications: Vec<(String, Classification, LayoutView)> = layouts
        .iter()
        .map(|(name, os)| {
            let mut view = LayoutView::from_layout(&os.layout);
            view.name.clone_from(name);
            let c = classify_study_layout(study, &view, config);
            (name.clone(), c, view)
        })
        .collect();
    let app_layouts: Vec<Option<Layout>> = study
        .cases()
        .iter()
        .map(|case| study.app_base_layout(case))
        .collect();

    let jobs: Vec<(usize, usize)> = (0..layouts.len())
        .flat_map(|l| (0..study.cases().len()).map(move |c| (l, c)))
        .collect();
    let rows = oslay::exec::parallel_map(threads, jobs, |_, (l, c)| {
        let case = &study.cases()[c];
        let (name, classification, view) = &classifications[l];
        let recorder = MissRecorder::replay(case, config, view, app_layouts[c].as_ref());
        check_row(case.name(), name, classification, &recorder)
    });

    AbsintGateOutcome {
        classifications: classifications
            .into_iter()
            .map(|(name, c, _)| (name, c))
            .collect(),
        rows,
    }
}

/// Checks one replay's measured misses against one classification.
fn check_row(
    workload: &str,
    layout: &str,
    classification: &Classification,
    recorder: &MissRecorder<'_>,
) -> GateRow {
    let mut row = GateRow {
        workload: workload.to_owned(),
        layout: layout.to_owned(),
        ah_points: 0,
        ah_misses: 0,
        persistent_lines: 0,
        persistent_excess: 0,
        am_points: 0,
        am_mismatch: 0,
        measured_coverage: 0.0,
    };
    // Per-line miss totals over *all* points (a persistent line's budget
    // is global, whichever block touches it).
    let mut line_miss: HashMap<u64, u64> = HashMap::new();
    for p in &classification.points {
        let misses = recorder.point_miss[p.block as usize][p.slot as usize];
        *line_miss.entry(p.line_addr).or_insert(0) += misses;
    }
    let mut persistent_seen: HashSet<u64> = HashSet::new();
    let mut covered_exec = 0u64;
    let mut total_exec = 0u64;
    for p in &classification.points {
        let block = p.block as usize;
        let misses = recorder.point_miss[block][p.slot as usize];
        let exec = recorder.exec[block];
        total_exec += exec;
        if p.class != LineClass::Unclassified {
            covered_exec += exec;
        }
        match p.class {
            LineClass::AlwaysHit => {
                row.ah_points += 1;
                row.ah_misses += misses;
            }
            LineClass::Persistent => {
                persistent_seen.insert(p.line_addr);
            }
            LineClass::AlwaysMiss => {
                row.am_points += 1;
                if misses != exec {
                    row.am_mismatch += 1;
                }
            }
            LineClass::Unclassified => {}
        }
    }
    for &line in &persistent_seen {
        row.persistent_lines += 1;
        if line_miss.get(&line).copied().unwrap_or(0) > 1 {
            row.persistent_excess += 1;
        }
    }
    row.measured_coverage = if total_exec == 0 {
        1.0
    } else {
        covered_exec as f64 / total_exec as f64
    };
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay::{OsLayoutKind, SimConfig, StudyConfig};

    /// Per-word replay of `case`: a block's slot advances whenever its
    /// next fetch word falls in another line, and each OS miss is charged
    /// to its word's slot. No line runs are involved.
    fn per_word_points(
        case: &WorkloadCase,
        cfg: CacheConfig,
        view: &LayoutView,
        app: Option<&Layout>,
    ) -> Vec<Vec<u64>> {
        let word_addr = |base: u64, w: u32| base + u64::from(w * oslay_model::WORD_BYTES);
        let word_slots: Vec<Vec<usize>> = (0..view.num_blocks())
            .map(|b| {
                let line = |w| cfg.line_addr(word_addr(view.addr[b], w));
                let mut slot = 0;
                (0..fetch_words(view.size[b]))
                    .map(|w| {
                        slot += usize::from(w > 0 && line(w) != line(w - 1));
                        slot
                    })
                    .collect()
            })
            .collect();
        let mut points: Vec<Vec<u64>> = word_slots
            .iter()
            .map(|s| vec![0; s.last().map_or(0, |&k| k + 1)])
            .collect();
        let mut cache = Cache::new(cfg);
        for &event in case.trace.events() {
            let TraceEvent::Block { id, domain } = event else {
                continue;
            };
            let b = id.index();
            let (base, words) = match (domain, app) {
                (Domain::Os, _) => (view.addr[b], fetch_words(view.size[b])),
                (Domain::App, Some(app)) => (app.addr(id), app.fetch_words(id)),
                (Domain::App, None) => panic!("app block without an app layout"),
            };
            for w in 0..words {
                let missed = cache.access(word_addr(base, w), domain).is_miss();
                if missed && domain == Domain::Os {
                    points[b][word_slots[b][w as usize]] += 1;
                }
            }
        }
        points
    }

    /// The gate's per-point misses must equal a per-word replay's, point
    /// for point, and summed per block they must equal the production
    /// replayer's per-block counts, on every case and layout. The gate
    /// verdicts alone (mostly zero counts) would not move if a miss were
    /// charged to the wrong slot or a run split where no line ends.
    #[test]
    fn point_misses_match_per_word_replay_and_block_misses() {
        let study = Study::generate(&StudyConfig::tiny().with_os_blocks(8_000));
        let cfg = CacheConfig::paper_default();
        for kind in OsLayoutKind::ALL {
            let os = study.os_layout(kind, cfg.size());
            let view = LayoutView::from_layout(&os.layout);
            for case in study.cases() {
                let tag = format!("{kind:?}/{}", case.name());
                let app = study.app_base_layout(case);
                let gate = MissRecorder::replay(case, cfg, &view, app.as_ref());
                let want = per_word_points(case, cfg, &view, app.as_ref());
                assert_eq!(gate.point_miss, want, "{tag}: per-point misses");
                let blocks = study
                    .simulate(
                        case,
                        &os.layout,
                        app.as_ref(),
                        &mut Cache::new(cfg),
                        &SimConfig::full(),
                    )
                    .os_block_misses
                    .expect("full config collects block misses");
                let sums: Vec<u64> = gate.point_miss.iter().map(|p| p.iter().sum()).collect();
                assert_eq!(sums, blocks, "{tag}: per-block misses");
                assert!(sums.iter().sum::<u64>() > 0, "{tag}: no misses");
            }
        }
    }

    #[test]
    fn tiny_gate_is_sound_on_base_and_opt_s() {
        let config = StudyConfig::tiny().with_os_blocks(8_000);
        let study = Study::generate(&config);
        let cfg = CacheConfig::paper_default();
        let layouts: Vec<(String, OsLayout)> = [OsLayoutKind::Base, OsLayoutKind::OptS]
            .iter()
            .map(|&k| (k.name().to_owned(), study.os_layout(k, cfg.size())))
            .collect();
        let outcome = run_absint_gate(&study, &layouts, cfg, 2);
        assert_eq!(outcome.rows.len(), 2 * study.cases().len());
        for row in &outcome.rows {
            assert!(
                row.ok(),
                "{}/{}: ah_misses={} persistent_excess={} am_mismatch={}",
                row.layout,
                row.workload,
                row.ah_misses,
                row.persistent_excess,
                row.am_mismatch
            );
        }
        // The analysis must actually claim something.
        for (name, c) in &outcome.classifications {
            assert!(c.coverage() > 0.0, "{name}: zero coverage");
        }
    }
}
