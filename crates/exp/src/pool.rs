//! A hand-rolled fixed-size worker pool over `std::thread`.
//!
//! The workspace is offline (no rayon), so the engine brings its own
//! fan-out: `jobs` scoped worker threads pull trial indices from a
//! shared atomic cursor, run the caller's closure, and stream
//! `(index, result)` pairs back over a channel. The collector thread
//! places every result into its index slot, so the output `Vec` is in
//! index order **regardless of completion order** — this is the half of
//! the determinism contract the pool owns (the other half, per-trial
//! seed streams, lives in [`crate::seed`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves a requested job count: `0` means "one worker per available
/// core", anything else is taken literally.
#[must_use]
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f(0), f(1), …, f(count - 1)` on a pool of `jobs` worker
/// threads and returns the results in index order.
///
/// * `jobs <= 1` runs inline on the caller thread — no pool, no
///   channel; because results are keyed by index either path yields the
///   same `Vec` for a pure `f`.
/// * `on_done(index, &result)` is invoked on the **collector** thread
///   as each result lands (out of order); the engine uses it for
///   progress metrics and trace events.
// analyze: hot-path
pub fn run_indexed<R, F, D>(count: usize, jobs: usize, f: F, mut on_done: D) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    D: FnMut(usize, &R),
{
    let jobs = effective_jobs(jobs).min(count.max(1));
    if jobs <= 1 {
        return (0..count)
            .map(|i| {
                let r = f(i);
                on_done(i, &r);
                r
            })
            // analyze: allow(A7): one result vector per sweep, sized by the iterator
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            // analyze: allow(A8): the shared cursor is fetch_add'd every iteration, so workers claim strictly increasing indices and break past `count`
            scope.spawn(move || loop {
                // The cursor is the single work-distribution point.
                // Relaxed suffices: uniqueness of the handed-out index
                // comes from `fetch_add`'s read-modify-write atomicity,
                // not from ordering — no other memory is published
                // through the cursor (results travel over the channel,
                // which brings its own happens-before). Pinned by the
                // loom model in `tests/loom_pool.rs`.
                // Relaxed: pure index distribution; RMW atomicity alone guarantees uniqueness
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                if tx.send((i, f(i))).is_err() {
                    // Collector hung up (it never does before draining);
                    // nothing useful left to do.
                    break;
                }
            });
        }
        // Drop the collector's own sender so `recv` ends when the last
        // worker finishes.
        drop(tx);
        while let Ok((i, r)) = rx.recv() {
            on_done(i, &r);
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(r);
            }
        }
    });

    // analyze: allow(A7): one result vector per sweep, assembled after the workers drain
    let out: Vec<R> = slots.into_iter().flatten().collect();
    assert_eq!(
        out.len(),
        count,
        "worker pool lost results (a worker panicked?)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_job_count() {
        let f = |i: usize| i * i;
        let expected: Vec<usize> = (0..100).map(f).collect();
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(run_indexed(100, jobs, f, |_, _| {}), expected);
        }
    }

    #[test]
    fn on_done_sees_every_index_exactly_once() {
        for jobs in [1, 4] {
            let mut seen = vec![0usize; 50];
            let out = run_indexed(
                50,
                jobs,
                |i| i + 1,
                |i, r| {
                    assert_eq!(*r, i + 1);
                    seen[i] += 1;
                },
            );
            assert_eq!(out.len(), 50);
            assert!(seen.iter().all(|&c| c == 1), "each index reported once");
        }
    }

    #[test]
    fn empty_matrix_yields_empty_vec() {
        let out = run_indexed(0, 8, |i| i, |_, _| {});
        assert!(out.is_empty());
    }

    #[test]
    fn effective_jobs_resolves_zero_to_at_least_one() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }
}
