//! Span totals of `exec::parallel_map` are a pure function of the job
//! list: the names and counts a run report shows do not move with the
//! worker count. A test binary of its own, so no other test folds spans
//! into the process-wide store while this one reads it.

use oslay::exec::parallel_map;
use oslay_observe::flight;

/// The `(name, count)` pairs the store holds after one fan-out of 37
/// jobs, each of which opens a nested span of its own.
fn names_and_counts(threads: usize) -> Vec<(String, u64)> {
    flight::reset();
    let out = parallel_map(threads, (0..37u64).collect(), |_, x| {
        let _g = oslay_observe::span("exectest.work");
        x * 2
    });
    assert_eq!(out, (0..37u64).map(|x| x * 2).collect::<Vec<_>>());
    let mut totals: Vec<(String, u64)> = flight::span_totals()
        .into_iter()
        .map(|t| (t.name, t.count))
        .collect();
    totals.sort();
    totals
}

#[test]
fn span_names_and_counts_do_not_depend_on_the_thread_count() {
    let one = names_and_counts(1);
    assert_eq!(
        one,
        [
            ("exec.job".to_owned(), 37),
            ("exec.parallel_map".to_owned(), 1),
            ("exectest.work".to_owned(), 37),
        ]
    );
    for threads in [2, 8] {
        assert_eq!(names_and_counts(threads), one, "threads={threads}");
    }
    // Capture was never on, so no event was kept.
    assert!(flight::span_events().is_empty());
}
