//! Deterministic fork/join execution for independent simulation jobs.
//!
//! [`parallel_map`] is the only concurrency primitive in the workspace:
//! scoped `std` threads pulling jobs off a shared atomic cursor, with
//! results returned **in job-index order** regardless of which worker ran
//! which job or in what order they finished. Callers keep determinism by
//! making each job self-contained (own RNG seed, own metric registry) and
//! merging the returned vector sequentially.
//!
//! The paper's own methodology is the precedent: its trace monitor drained
//! one buffer per Alliant FX/8 processor in parallel and merged them
//! afterwards (Section 2.1).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default worker count: the machine's available parallelism (1 if it
/// cannot be determined).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `f` over every item, using up to `threads` scoped workers, and
/// returns the results in item order.
///
/// `f` receives `(index, item)`. With `threads <= 1` (or fewer than two
/// items) everything runs inline on the caller's thread — byte-for-byte
/// the sequential behavior, no worker machinery at all.
///
/// # Observability
///
/// Every call opens one `exec.parallel_map` span and, inside it, one
/// `exec.job` span per job, on the inline path and the sharded path
/// alike: span names and counts are a pure function of the job list, so
/// run reports stay identical at any worker count. While flight capture
/// is on, each worker registers a `worker-<w>` track and every `exec.job`
/// event carries its job index and queue-wait time, so a sharded run can
/// be audited for load imbalance.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller (workers are joined by the
/// scope).
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let _pm = oslay_observe::span_with_args(
        "exec.parallel_map",
        &[("jobs", n as f64), ("threads", threads as f64)],
    );
    let epoch = Instant::now();
    let run_job = |i: usize, item: T| -> R {
        let _job = oslay_observe::span_with_args(
            "exec.job",
            &[
                ("job", i as f64),
                ("queue_wait_us", epoch.elapsed().as_secs_f64() * 1e6),
            ],
        );
        f(i, item)
    };
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| run_job(i, t))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..threads.min(n) {
            let (run_job, slots, results, cursor) = (&run_job, &slots, &results, &cursor);
            scope.spawn(move || {
                oslay_observe::flight::set_thread_track(&format!("worker-{w}"));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("job slot")
                        .take()
                        .expect("job taken once");
                    let r = run_job(i, item);
                    *results[i].lock().expect("result slot") = Some(r);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result lock").expect("job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order_at_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8, 64] {
            let got = parallel_map(threads, items.clone(), |_, x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn passes_job_indices() {
        let got = parallel_map(4, vec!["a", "b", "c"], |i, s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u32> = parallel_map(8, Vec::new(), |_, x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(8, vec![7], |_, x| x + 1), [8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(parallel_map(32, vec![1, 2], |_, x| x), [1, 2]);
    }
}
