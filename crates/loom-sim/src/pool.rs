#![forbid(unsafe_code)]
//! The one parallel substrate every parallel path in the workspace shares.
//!
//! * **Scoped helpers** — [`ordered_map`] spawns `min(threads, jobs) - 1`
//!   named helpers inside [`std::thread::scope`] and takes jobs alongside
//!   them on the caller. Every helper is joined before the call returns, so
//!   no thread outlives its batch. A budget of 1 (or at most one job) runs
//!   inline: the serial path is the parallel path. If a spawn fails, the
//!   threads already running finish the batch.
//! * **Spawn cost** — each helper costs the caller one spawn and join: on a
//!   2-vCPU x86-64 host a batch of two 200 µs jobs at 2 threads ends 25–45 µs
//!   after its jobs' 200 µs. That is noise at the 2 and 4 threads the
//!   benchmark and CI run (a GoogLeNet image at 2 threads makes 58 parallel
//!   dispatches: under 2 ms of ~170 ms); it grows linearly with the budget.
//! * **One job cursor, one result slot per job** — participants claim job
//!   indices from one atomic counter, so whichever is free takes the next
//!   job, and each result lands in its own `Mutex<Option<R>>`. The first job
//!   panic is re-raised on the caller once every job has finished, and the
//!   results the other jobs produced are dropped with their slots.
//! * **Nested dispatch runs inline** — a batch dispatched from inside a job
//!   runs on that job's thread, so live threads stay within the outermost
//!   budget. Callers keep per-thread scratch in their own `thread_local!`s.
//!
//! **Determinism:** jobs must be pure functions of their index and results
//! merge in job order, so outputs are bit-identical at any thread count;
//! `tests/pool_invariance.rs` pins that with skewed job costs.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set while this thread takes the jobs of a parallel batch.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f(0..jobs)` on up to `threads` threads (the caller and scoped
/// helpers) and returns the results in job order. With one thread, one job,
/// or from inside a job, the jobs run inline on the caller, in order.
pub fn ordered_map<R, F>(threads: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let participants = threads.min(jobs);
    if participants <= 1 || IN_BATCH.get() {
        return (0..jobs).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let participate = || {
        IN_BATCH.set(true);
        loop {
            // Relaxed suffices: the cursor publishes no data; results reach
            // the caller through the slot mutexes and the scope's joins.
            let job = next.fetch_add(1, Ordering::Relaxed);
            if job >= jobs {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(job))) {
                Ok(result) => *slots[job].lock().expect("result slot poisoned") = Some(result),
                Err(payload) => {
                    let mut first = panic.lock().expect("panic slot poisoned");
                    first.get_or_insert(payload);
                }
            }
        }
        IN_BATCH.set(false);
    };
    std::thread::scope(|scope| {
        for helper in 1..participants {
            let spawned = std::thread::Builder::new()
                .name(format!("loom-pool-{helper}"))
                .spawn_scoped(scope, participate);
            if spawned.is_err() {
                break;
            }
        }
        participate();
    });

    // Every job has finished; unwinding drops the results already written.
    if let Some(payload) = panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job writes its slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn ordered_map_is_order_preserving_and_thread_invariant() {
        let serial = ordered_map(1, 40, |i| i * i);
        for threads in [2, 4, 8] {
            assert_eq!(ordered_map(threads, 40, |i| i * i), serial);
        }
        assert_eq!(serial, (0..40).map(|i| i * i).collect::<Vec<_>>());
        assert!(ordered_map(4, 0, |i| i).is_empty());
    }

    #[test]
    fn skewed_job_costs_still_merge_in_order() {
        // Front-loaded cost keeps whoever took the first jobs busy while the
        // other participants run the tail; the output order must not care.
        let work = |i: usize| {
            let spin = if i < 4 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        };
        let serial = ordered_map(1, 64, work);
        for threads in [2, 4, 8] {
            assert_eq!(ordered_map(threads, 64, work), serial, "{threads} threads");
        }
    }

    #[test]
    fn job_panics_propagate_to_the_submitter() {
        let outcome = std::panic::catch_unwind(|| {
            ordered_map(4, 16, |i| {
                if i == 7 {
                    panic!("job 7 exploded");
                }
                i
            })
        });
        let payload = outcome.expect_err("panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "job 7 exploded");
        // The pool survives a panicked batch.
        assert_eq!(ordered_map(4, 8, |i| i + 1), (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline_without_helpers() {
        let caller = std::thread::current().id();
        let ids = ordered_map(1, 6, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn panicked_batch_drops_completed_results() {
        // Jobs that finished before (or despite) a sibling's panic have
        // already written heap-owning results into the slots; re-raising the
        // panic must drop them, not leak them.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] Vec<u8>);
        impl Counted {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Counted(vec![0u8; 64])
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let outcome = std::panic::catch_unwind(|| {
            ordered_map(4, 32, |i| {
                if i == 13 {
                    panic!("job 13 exploded");
                }
                Counted::new()
            })
        });
        assert!(outcome.is_err(), "panic must propagate");
        // The submitter only unwinds after every job finished, so all 31
        // surviving results exist by now — and must all be dropped.
        assert_eq!(
            LIVE.load(Ordering::SeqCst),
            0,
            "panicked batch leaked results"
        );
    }

    #[test]
    fn a_batch_never_runs_on_more_threads_than_its_budget() {
        // Grow the pool well past the budget below, so idle helpers are
        // parked and ready to over-join a batch if admission let them.
        ordered_map(8, 64, |i| i);
        for _ in 0..20 {
            let ids = ordered_map(2, 64, |_| {
                let start = std::time::Instant::now();
                while start.elapsed() < std::time::Duration::from_micros(100) {
                    std::hint::spin_loop();
                }
                std::thread::current().id()
            });
            let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
            assert!(
                distinct.len() <= 2,
                "{} threads ran a 2-thread batch",
                distinct.len()
            );
        }
    }

    #[test]
    fn a_batch_dispatched_from_inside_a_job_runs_on_that_jobs_thread() {
        // Each nested job spins long enough that any idle thread able to join
        // the nested batch would take some of its jobs, over several rounds.
        for round in 0..5 {
            let strays = ordered_map(2, 4, |_| {
                let outer = std::thread::current().id();
                let inner = ordered_map(4, 16, |_| {
                    let start = std::time::Instant::now();
                    while start.elapsed() < std::time::Duration::from_micros(100) {
                        std::hint::spin_loop();
                    }
                    std::thread::current().id()
                });
                inner.into_iter().filter(|&id| id != outer).count()
            });
            assert_eq!(
                strays,
                vec![0; 4],
                "round {round}: nested jobs left their thread"
            );
        }
    }

    #[test]
    fn concurrent_submitters_each_get_their_own_results() {
        // Four submitters keep batches open at the same time, so helpers move
        // between them; every batch must still return its own results in job
        // order.
        let work = |submitter: usize, i: usize| submitter * 1_000 + i * i;
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for submitter in 0..4 {
                let start = &start;
                scope.spawn(move || {
                    let serial = ordered_map(1, 32, |i| work(submitter, i));
                    start.wait();
                    for round in 0..50 {
                        let pooled = ordered_map(2, 32, |i| work(submitter, i));
                        assert_eq!(pooled, serial, "submitter {submitter}, round {round}");
                    }
                });
            }
        });
    }
}
