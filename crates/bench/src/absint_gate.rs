//! Soundness gate for the abstract-interpretation cache analysis.
//!
//! The static classifier (`oslay_verify::absint`) promises, per layout:
//! always-hit points never miss, persistent lines miss at most once per
//! run, always-miss points miss on every execution. This module replays
//! every workload's buffered trace against every layout — word for word,
//! through the plain cache — and checks each promise against the
//! *measured* per-point miss counts. One surviving violation anywhere
//! fails the gate; the `analyze --gate` binary turns that into exit 1
//! and ci.sh runs it on every push.
//!
//! The replay mirrors `oslay::sim::Replayer` exactly (same fetch-word
//! enumeration, same cache, same trace stream), but records misses per
//! *(block, line-slot)* access point — the unit the classifier speaks —
//! instead of only per block.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use oslay::cache::{Cache, CacheConfig, InstructionCache};
use oslay::{OsLayout, Study};
use oslay_model::{Domain, WORD_BYTES};
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

/// Precomputed word-level replay geometry of one layout side: per block,
/// its base address and each fetch word's line-slot index.
struct LayoutWords {
    base: Vec<u64>,
    word_slot: Vec<Vec<u16>>,
}

impl LayoutWords {
    fn new(view: &LayoutView, config: &CacheConfig) -> Self {
        let n = view.num_blocks();
        let mut base = Vec::with_capacity(n);
        let mut word_slot = Vec::with_capacity(n);
        for b in 0..n {
            let addr = view.addr[b];
            let words = oslay_model::fetch_words(view.size[b]);
            let mut slots = Vec::with_capacity(words as usize);
            let mut slot: u16 = 0;
            let mut last_line = None;
            for w in 0..words {
                let line = config.line_addr(addr + u64::from(w) * u64::from(WORD_BYTES));
                match last_line {
                    None => last_line = Some(line),
                    Some(prev) if prev != line => {
                        slot += 1;
                        last_line = Some(line);
                    }
                    Some(_) => {}
                }
                slots.push(slot);
            }
            base.push(addr);
            word_slot.push(slots);
        }
        Self { base, word_slot }
    }

    fn num_slots(&self, block: usize) -> usize {
        self.word_slot[block].last().map_or(0, |&s| s as usize + 1)
    }
}

/// The per-point miss recorder: a [`TraceSink`] replaying the stream
/// through the plain cache, mirroring the production replayer word for
/// word.
struct MissRecorder<'a> {
    cache: Cache,
    os: &'a LayoutWords,
    app: Option<&'a LayoutWords>,
    point_miss: Vec<Vec<u64>>,
    exec: Vec<u64>,
}

impl TraceSink for MissRecorder<'_> {
    fn event(&mut self, event: TraceEvent) {
        let TraceEvent::Block { id, domain } = event else {
            return;
        };
        let b = id.index();
        match domain {
            Domain::Os => {
                self.exec[b] += 1;
                let base = self.os.base[b];
                for (w, &slot) in self.os.word_slot[b].iter().enumerate() {
                    let addr = base + w as u64 * u64::from(WORD_BYTES);
                    if self.cache.access(addr, Domain::Os).is_miss() {
                        self.point_miss[b][slot as usize] += 1;
                    }
                }
            }
            Domain::App => {
                let app = self.app.expect("app block in a workload without an app");
                let base = app.base[b];
                for w in 0..app.word_slot[b].len() {
                    let addr = base + w as u64 * u64::from(WORD_BYTES);
                    let _ = self.cache.access(addr, Domain::App);
                }
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
    let classifications: Vec<(String, Classification, Arc<LayoutView>)> = layouts
        .iter()
        .map(|(name, os)| {
            let mut view = LayoutView::from_layout(&os.layout);
            view.name.clone_from(name);
            let c = classify_study_layout(study, &view, config);
            (name.clone(), c, Arc::new(view))
        })
        .collect();

    let os_words: Vec<Arc<LayoutWords>> = classifications
        .iter()
        .map(|(_, _, view)| Arc::new(LayoutWords::new(view, &config)))
        .collect();
    let app_views: Vec<Option<LayoutWords>> = study
        .cases()
        .iter()
        .map(|case| {
            study
                .app_base_layout(case)
                .map(|l| LayoutWords::new(&LayoutView::from_layout(&l), &config))
        })
        .collect();

    let jobs: Vec<(usize, usize)> = (0..layouts.len())
        .flat_map(|l| (0..study.cases().len()).map(move |c| (l, c)))
        .collect();
    let rows = oslay::exec::parallel_map(threads, jobs, |_, (l, c)| {
        let case = &study.cases()[c];
        let (name, classification, _) = &classifications[l];
        let words = &os_words[l];
        let mut recorder = MissRecorder {
            cache: Cache::new(config),
            os: words,
            app: app_views[c].as_ref(),
            point_miss: (0..words.base.len())
                .map(|b| vec![0u64; words.num_slots(b)])
                .collect(),
            exec: vec![0u64; words.base.len()],
        };
        for &event in case.trace.events() {
            recorder.event(event);
        }
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
    use oslay::{OsLayoutKind, StudyConfig};

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
