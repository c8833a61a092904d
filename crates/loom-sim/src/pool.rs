//! The persistent worker pool every parallel path in the workspace shares.
//!
//! * **Persistent workers** — spawned once (lazily, growing up to the largest
//!   thread budget ever requested) and parked on a condvar between batches.
//!   The submitting thread always participates, so a budget of 1 never
//!   touches another thread and the serial path is the parallel path.
//! * **One job cursor per batch** — the submitter and every admitted helper
//!   claim the next job index from one shared atomic counter until it passes
//!   the job count, so whichever participant is free takes the next job. A
//!   batch with a budget of `threads` admits at most `threads - 1` helpers.
//! * **One result slot per job** — each result lands in its own
//!   `Mutex<Option<R>>`, locked once by the job that fills it. A panicked
//!   batch drops the results its surviving jobs produced instead of leaking
//!   them.
//! * **Persistent scratch arenas** — every worker (and the caller thread)
//!   owns a `TypeId`-keyed scratch store. [`ordered_map_with`]'s `init` runs
//!   at most once per worker per state type *for the life of the worker*, so
//!   the pack arenas of the wide datapath survive across layers and batches
//!   instead of being rebuilt per call. The inline (1-thread) path uses the
//!   same store through a thread-local, so its `init` semantics are identical
//!   to the pooled path — pinned by a test below.
//!
//! **Determinism:** results are keyed by job index and merged in job order;
//! scratch state never influences a job's result (jobs must be pure functions
//! of their index); which worker runs which job is the only thing scheduling
//! changes. Every caller's outputs are therefore bit-identical at any thread
//! count, which the proptest suite in `tests/pool_invariance.rs` pins with
//! skewed task costs that leave some participants idle while others work.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Per-worker scratch storage, keyed by state type. One entry per
/// [`ordered_map_with`] state type, created on first use and kept for the
/// life of the worker — the arena path that lets pack buffers survive across
/// layers.
#[derive(Default)]
struct ScratchStore {
    entries: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl ScratchStore {
    /// The worker's state of type `S`, created by `init` on first use.
    fn get_or_insert<S: Send + 'static>(&mut self, init: impl FnOnce() -> S) -> &mut S {
        self.entries
            .entry(TypeId::of::<S>())
            .or_insert_with(|| Box::new(init()))
            .downcast_mut::<S>()
            .expect("scratch entry keyed by its own TypeId")
    }
}

thread_local! {
    /// The submitting thread's scratch store: used by the inline path and by
    /// the caller's stint in its own batch, so both paths share one set of
    /// arenas with identical `init` semantics.
    static CALLER_SCRATCH: RefCell<ScratchStore> = RefCell::new(ScratchStore::default());
}

/// Runs `f` with the calling thread's persistent scratch store. The store is
/// moved out for the duration (and restored after) so a nested pool dispatch
/// on the same thread sees an independent store instead of a borrow panic.
/// The restore lives in a drop guard so it survives `f` unwinding — an
/// inline-path job panic (which nothing catches) must not cost the caller its
/// arenas, keeping inline panic behavior consistent with the pooled path.
fn with_caller_scratch<T>(f: impl FnOnce(&mut ScratchStore) -> T) -> T {
    struct Restore(Option<ScratchStore>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(store) = self.0.take() {
                CALLER_SCRATCH.with(|cell| cell.replace(store));
            }
        }
    }
    let mut guard = Restore(Some(CALLER_SCRATCH.with(|cell| cell.take())));
    f(guard.0.as_mut().expect("store held until drop"))
}

/// The type-erased job body: `(job index, worker scratch)`.
type Task<'a> = dyn Fn(usize, &mut ScratchStore) + Sync + 'a;

/// One submitted batch of jobs. Lives in an `Arc` shared by the submitter and
/// every participating worker; the job closure itself is a raw pointer into
/// the submitter's stack frame, valid because the submitter blocks until
/// `remaining` hits zero and a job is only executed before its decrement.
struct Batch {
    /// Borrowed job closure. SAFETY: dereferenced only while the job it runs
    /// has not yet been counted into `remaining`'s countdown, which the
    /// submitter waits out before returning.
    task: *const Task<'static>,
    /// Number of jobs in the batch.
    jobs: usize,
    /// The next unclaimed job index. Participants take jobs by bumping it;
    /// a value at or past `jobs` means every job has been handed out.
    next: AtomicUsize,
    /// Jobs not yet finished; the submitter returns when this hits zero.
    remaining: AtomicUsize,
    /// Helpers admitted on top of the submitter: the thread budget less one.
    max_helpers: usize,
    /// Helper admissions handed out. Helpers beyond `max_helpers` bounce.
    joiners: AtomicUsize,
    /// First panic payload raised by a job, re-raised on the submitter.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `task` points at a `Sync` closure and is only dereferenced under the
// liveness protocol documented on the field; every other field is a `usize`,
// an atomic, a `Mutex` or a `Condvar`, all of which are `Send` and `Sync`.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Admits one more helper, or `false` when the batch already has its
    /// full complement of participants.
    fn admit_helper(&self) -> bool {
        self.joiners.fetch_add(1, Ordering::AcqRel) < self.max_helpers
    }

    /// Claims and runs jobs until every job has been handed out. Jobs still
    /// in flight on other participants are covered by `remaining`.
    fn participate(&self, scratch: &mut ScratchStore) {
        loop {
            // Relaxed suffices: the cursor publishes no data, and every
            // fetch_add still returns a distinct index. The batch's fields
            // reach each participant through the pool lock or the `Arc`, and
            // results reach the submitter through the slot mutexes and
            // `remaining`.
            let job = self.next.fetch_add(1, Ordering::Relaxed);
            if job >= self.jobs {
                return;
            }
            // SAFETY: `job` was just claimed and has not yet decremented
            // `remaining`, so the submitter is still blocked in `run_erased`
            // and the closure (and everything it borrows) is alive.
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(job, scratch))) {
                let mut first = self.panic.lock().expect("panic slot poisoned");
                first.get_or_insert(payload);
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().expect("done flag poisoned") = true;
                self.done_cv.notify_all();
            }
        }
    }
}

/// Pool state guarded by one mutex: the open batches and how many persistent
/// helpers exist.
struct PoolState {
    /// Bumped on every submission so parked workers know to rescan.
    epoch: u64,
    /// Batches with unfinished work. Usually one; concurrent submitters (e.g.
    /// parallel test threads) simply coexist, each draining its own batch.
    open: Vec<Arc<Batch>>,
    /// Persistent helper threads spawned so far.
    helpers: usize,
}

/// The persistent pool. One process-wide instance, `POOL`, serves every
/// caller (see [`ordered_map`] / [`ordered_map_with`]); helper threads are
/// spawned lazily up to the largest budget ever requested and parked between
/// batches.
struct WorkerPool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

static POOL: WorkerPool = WorkerPool {
    state: Mutex::new(PoolState {
        epoch: 0,
        open: Vec::new(),
        helpers: 0,
    }),
    work_cv: Condvar::new(),
};

impl WorkerPool {
    /// Submits `jobs` indices to at most `threads` participants (the caller
    /// plus helpers), blocks until all complete, and re-raises the first job
    /// panic. `threads >= 2` and `jobs >= 2` (the callers handle inline).
    fn run_erased(&'static self, threads: usize, jobs: usize, task: &Task<'_>) {
        let max_helpers = threads.min(jobs) - 1;
        let batch = Arc::new(Batch {
            // SAFETY: lifetime-erased borrow; see the field's invariant.
            task: unsafe {
                std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task)
                    as *const Task<'static>
            },
            jobs,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(jobs),
            max_helpers,
            joiners: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });

        {
            let mut state = self.state.lock().expect("pool state poisoned");
            state.epoch += 1;
            state.open.push(batch.clone());
            while state.helpers < max_helpers {
                let spawned = std::thread::Builder::new()
                    .name(format!("loom-pool-{}", state.helpers))
                    .spawn(move || self.helper_loop())
                    .is_ok();
                if !spawned {
                    // Thread exhaustion: the caller still completes the batch
                    // alone; just stop growing.
                    break;
                }
                state.helpers += 1;
            }
            self.work_cv.notify_all();
        }

        // Take jobs alongside the helpers, then wait out the ones in flight.
        with_caller_scratch(|scratch| batch.participate(scratch));
        {
            let mut done = batch.done.lock().expect("done flag poisoned");
            while !*done {
                done = batch.done_cv.wait(done).expect("done flag poisoned");
            }
        }

        {
            let mut state = self.state.lock().expect("pool state poisoned");
            state.open.retain(|open| !Arc::ptr_eq(open, &batch));
        }

        let payload = batch.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// A persistent helper: park on the condvar, join whatever open batches
    /// still admit a helper, repeat.
    fn helper_loop(&self) {
        let mut scratch = ScratchStore::default();
        let mut seen_epoch = 0u64;
        loop {
            let batches: Vec<Arc<Batch>> = {
                let mut state = self.state.lock().expect("pool state poisoned");
                loop {
                    if state.epoch != seen_epoch && !state.open.is_empty() {
                        seen_epoch = state.epoch;
                        break state.open.clone();
                    }
                    seen_epoch = state.epoch;
                    state = self.work_cv.wait(state).expect("pool state poisoned");
                }
            };
            for batch in batches {
                if batch.admit_helper() {
                    batch.participate(&mut scratch);
                }
            }
        }
    }
}

/// Runs `f(0..jobs)` across `threads` pool participants and returns the
/// results in job order. With one thread (or at most one job) the jobs run
/// inline on the caller, in order.
pub fn ordered_map<R, F>(threads: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    ordered_map_with(threads, jobs, || (), |(), i| f(i))
}

/// [`ordered_map`] with per-worker scratch state on the shared global pool:
/// each participating worker materialises an `S` via `init` *at most once per
/// worker lifetime* (the state persists across calls — the arena pattern) and
/// threads it mutably through each of its jobs. Results are returned in job
/// order; scratch must never influence a result, so determinism is unaffected
/// by which worker runs which job.
///
/// **Scratch is keyed by the type `S` alone, not by call site.** Two call
/// sites that pass the same `S` share each worker's instance, and only the
/// first of them ever runs its `init` on a given worker — so `init` must be
/// interchangeable across all call sites using that type. Callers that need
/// isolated state (or distinct `init` semantics) must mint a dedicated
/// newtype per use, as the layer engines do with `ConvArena`/`FcArena`.
pub fn ordered_map_with<S, R, I, F>(threads: usize, jobs: usize, init: I, f: F) -> Vec<R>
where
    S: Send + 'static,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if threads <= 1 || jobs <= 1 {
        // Inline path: same thread-persistent scratch store as a pooled
        // worker, so `init` runs at most once per state type here too.
        return with_caller_scratch(|scratch| {
            (0..jobs)
                .map(|i| f(scratch.get_or_insert(&init), i))
                .collect()
        });
    }

    // When a job panics, `run_erased` re-raises only after every job has
    // finished, so unwinding drops `slots` — and with it every result already
    // written — instead of leaking them.
    let slots: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let body = |job: usize, scratch: &mut ScratchStore| {
        let result = f(scratch.get_or_insert(&init), job);
        *slots[job].lock().expect("result slot poisoned") = Some(result);
    };
    POOL.run_erased(threads, jobs, &body);

    // All jobs completed without panic: every slot is populated.
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
    fn ordered_map_with_reuses_worker_state_deterministically() {
        // The scratch buffer grows per worker, but results only depend on the
        // job index — identical at every thread count.
        struct Grower(Vec<usize>);
        let run = |threads| {
            ordered_map_with(
                threads,
                25,
                || Grower(Vec::new()),
                |scratch: &mut Grower, i| {
                    scratch.0.push(i);
                    i + scratch.0.capacity().min(1) * 100
                },
            )
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
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
    fn inline_and_pooled_paths_share_init_semantics() {
        // Satellite pin: `init` runs at most once per worker per state type,
        // on the inline path exactly like the pooled path — the 1-job and
        // 1-thread cases no longer rebuild worker state per call.
        struct InlineProbe;
        static INLINE_INITS: AtomicUsize = AtomicUsize::new(0);
        for _ in 0..3 {
            // Three rounds of two dispatches — including a 1-job call with a
            // parallel thread budget, the old asymmetric case — and still one
            // init total on this thread.
            ordered_map_with(
                4,
                1,
                || {
                    INLINE_INITS.fetch_add(1, Ordering::Relaxed);
                    InlineProbe
                },
                |_probe: &mut InlineProbe, i| i,
            );
            ordered_map_with(
                1,
                5,
                || {
                    INLINE_INITS.fetch_add(1, Ordering::Relaxed);
                    InlineProbe
                },
                |_probe: &mut InlineProbe, i| i,
            );
        }
        assert_eq!(INLINE_INITS.load(Ordering::Relaxed), 1);

        struct PooledProbe;
        static POOLED_INITS: AtomicUsize = AtomicUsize::new(0);
        let mut executors = std::collections::HashSet::new();
        for _ in 0..4 {
            let ids = ordered_map_with(
                4,
                64,
                || {
                    POOLED_INITS.fetch_add(1, Ordering::Relaxed);
                    PooledProbe
                },
                |_probe: &mut PooledProbe, _i| std::thread::current().id(),
            );
            executors.extend(ids);
        }
        // At most one init per distinct worker thread over all four batches —
        // the arenas survive across dispatches instead of being rebuilt.
        assert!(POOLED_INITS.load(Ordering::Relaxed) <= executors.len());
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

    #[test]
    fn inline_path_panic_preserves_caller_scratch() {
        // A panic on the inline path (nothing catches the job there) must not
        // cost the caller thread its persistent arenas: the next dispatch
        // still finds the state from before the panic, as on the pooled path.
        struct PanicProbe;
        static PANIC_PATH_INITS: AtomicUsize = AtomicUsize::new(0);
        let run = |poison: bool| {
            ordered_map_with(
                1,
                2,
                || {
                    PANIC_PATH_INITS.fetch_add(1, Ordering::SeqCst);
                    PanicProbe
                },
                move |_probe: &mut PanicProbe, i| {
                    if poison && i == 1 {
                        panic!("inline job exploded");
                    }
                    i
                },
            )
        };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run(true)));
        assert!(outcome.is_err(), "panic must propagate");
        assert_eq!(run(false), vec![0, 1]);
        assert_eq!(
            PANIC_PATH_INITS.load(Ordering::SeqCst),
            1,
            "inline panic dropped the caller's scratch store"
        );
    }
}
