//! A minimal std-only worker pool for share-nothing component sweeps.
//!
//! Interaction components share no vertex or edge of the arrangement, so
//! their sub-complexes can be swept on separate threads with no
//! synchronization beyond work distribution. This module provides the small
//! [`std::thread::scope`]-based pool used by
//! [`crate::build_component_complexes`] and by the incremental component
//! update behind the `topodb` commit path. Its work items are always whole
//! components; each is built serially by the worker that takes it. No
//! external thread-pool crate is needed, and results are returned **in
//! input order** regardless of the thread count, so construction output is
//! deterministic.
//!
//! The default thread count is the machine's available parallelism,
//! overridable with the `ARRANGEMENT_THREADS` environment variable (a
//! positive integer: how many components sweep at once; `1` sweeps them one
//! after another on the calling thread). It is a deployment setting,
//! resolved once per process.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The thread count used by the construction pipeline: the value of the
/// `ARRANGEMENT_THREADS` environment variable if it parses as a positive
/// integer, otherwise [`available_threads`]. Resolved on first use and fixed
/// for the life of the process; code that needs a specific count passes it
/// explicitly ([`crate::build_component_complexes`]).
pub fn configured_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("ARRANGEMENT_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(available_threads)
    })
}

/// The machine's available parallelism (1 if undetectable).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Evaluate `f(0), f(1), …, f(n - 1)` on up to `threads` worker threads and
/// return the results in index order.
///
/// Work is distributed dynamically (an atomic work counter), so uneven item
/// costs balance automatically; the output ordering — and therefore every
/// structure assembled from it — is identical for every thread count. With
/// `threads <= 1` or `n <= 1` no thread is spawned. A panic in `f`
/// propagates to the caller when the scope joins.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every work item produces a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = map_indexed(13, threads, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still land in their slots.
        let out = map_indexed(9, 3, |i| {
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..9).collect::<Vec<_>>());
    }
}
