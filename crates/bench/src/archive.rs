//! Recording and replaying archived trace stores.
//!
//! A trace archive is a directory with one `oslay-tracestore` file per
//! workload case, named by [`archive_file_name`]. [`record_archive`]
//! writes one from a live study; [`run_archived_figure12_matrix`] then
//! reproduces the Figure-12 matrix from the files alone — same ladder,
//! same executor, same registry merge order as the live
//! [`crate::run_figure12_matrix`] — so a live run and an archived replay
//! produce byte-identical reports at any worker count.

use std::path::Path;
use std::sync::Arc;

use oslay::cache::{Cache, CacheConfig};
use oslay::{FanoutSink, Replayer, SimConfig, SimResult, Study, WorkloadCase};
use oslay_layout::Layout;
use oslay_observe::{timeline, MetricRegistry};
use oslay_trace::TraceSink;
use oslay_tracestore::{StoreError, StoreSummary, TraceReader, TraceWriter};

use crate::{app_layout_for, figure12_ladder, into_rows, ladder_os_layouts, run_ordered, Job};

/// The archive file name for a workload case: its display name lowered
/// with every non-alphanumeric run collapsed to `_`, plus the `.otr`
/// ("oslay trace") extension — `TRFD+Make` becomes `trfd_make.otr`.
#[must_use]
pub fn archive_file_name(case: &WorkloadCase) -> String {
    let mut name = String::new();
    for c in case.name().chars() {
        if c.is_ascii_alphanumeric() {
            name.push(c.to_ascii_lowercase());
        } else if !name.ends_with('_') {
            name.push('_');
        }
    }
    name.push_str(".otr");
    name
}

/// Records every workload case of `study` into `dir` (created if
/// missing), one store file per case, over up to `threads` workers.
///
/// Returns `(file_name, summary)` per case, in case order. Each store
/// encodes the case's buffered trace — the stream every live replay
/// consumes, and the one [`Study::stream_case`] regenerates from the
/// case's engine seed — so no engine walk is repeated.
///
/// # Errors
///
/// Returns the first I/O error in case order; earlier cases may still
/// have written their files.
pub fn record_archive(
    study: &Study,
    dir: &Path,
    threads: usize,
) -> std::io::Result<Vec<(String, StoreSummary)>> {
    std::fs::create_dir_all(dir)?;
    let jobs: Vec<usize> = (0..study.cases().len()).collect();
    let results = oslay::exec::parallel_map(threads, jobs, |_, i| {
        let case = &study.cases()[i];
        let file = archive_file_name(case);
        let mut writer = TraceWriter::create(&dir.join(&file))?;
        writer.events(case.trace.events());
        let (_, summary) = writer.finish()?;
        Ok((file, summary))
    });
    results.into_iter().collect()
}

/// Reproduces the Figure-12 matrix from an archive directory, returning
/// `results[case][level]` exactly like [`crate::run_figure12_matrix`].
///
/// Single-pass: each case's store is opened and decoded **once**, and a
/// [`FanoutSink`] feeds the decoded stream to one [`Replayer`] per
/// ladder level side by side — five replays for one decode, instead of
/// re-opening and re-decoding the store per level. A case job owns its
/// five cells of the matrix as output slots, one registry shard each, so
/// the shards fold into `registry` case-major, level-minor — the order
/// of the live matrix. Each replayer records its timeline run under its
/// cell's `case/level` label, so against the same study the registry
/// and the telemetry document are byte-identical to the live ones at any
/// worker count.
///
/// # Errors
///
/// Returns the first [`StoreError`] in case order (a missing file, or a
/// corrupt block named by index); `registry` is then left untouched.
pub fn run_archived_figure12_matrix(
    study: &Study,
    dir: &Path,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Result<Vec<Vec<SimResult>>, StoreError> {
    let ladder = figure12_ladder();
    let layouts = ladder_os_layouts(study, cache_cfg.size());
    let width = ladder.len();
    let jobs = study
        .cases()
        .iter()
        .enumerate()
        .map(|(c, case)| Job {
            label: case.name().to_owned(),
            slots: (c * width..(c + 1) * width).collect(),
            input: case,
        })
        .collect();
    let flat = run_ordered(threads, jobs, registry, |case, shards| {
        // One cache per ladder level, reporting into that level's shard
        // once the store is replayed. The app layouts live beside them:
        // each replayer borrows its level's.
        let apps: Vec<Option<Layout>> = ladder
            .iter()
            .map(|&(_, _, side)| app_layout_for(study, case, side, cache_cfg.size()))
            .collect();
        let mut caches: Vec<Cache> = shards.iter().map(|_| Cache::new(cache_cfg)).collect();
        // Each replayer's timeline run is labelled with its cell, as the
        // live matrix labels its one-cell jobs.
        let mut replayers: Vec<_> = caches
            .iter_mut()
            .zip(layouts.iter().zip(&apps).zip(&ladder))
            .map(|(cache, ((os, app), (level, _, _)))| {
                let _cell = timeline::nested_scope(format!("{}/{level}", case.name()));
                study.replayer_for(case, &os.layout, app.as_ref(), cache, sim)
            })
            .collect();

        // Decode the store once; every block fans out to all levels.
        {
            let mut fan = FanoutSink::new(
                replayers
                    .iter_mut()
                    .map(|r| r as &mut dyn TraceSink)
                    .collect(),
            );
            let mut reader = TraceReader::open(&dir.join(archive_file_name(case)))?;
            reader.replay_into(&mut fan)?;
        }

        let row: Vec<SimResult> = replayers.into_iter().map(Replayer::finish).collect();
        for (cache, shard) in caches.iter().zip(shards) {
            cache.report_into(shard.as_ref());
        }
        Ok::<_, StoreError>(row)
    })?;
    Ok(into_rows(flat, width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay::StudyConfig;

    #[test]
    fn archive_names_match_spec() {
        let study = Study::generate(&StudyConfig::tiny());
        let names: Vec<String> = study.cases().iter().map(archive_file_name).collect();
        assert_eq!(
            names,
            ["trfd_4.otr", "trfd_make.otr", "arc2d_fsck.otr", "shell.otr"]
        );
    }
}
