//! A persistent, deterministic worker pool.
//!
//! One process-wide pool serves every [`parallel_map`](crate::parallel_map)
//! call: workers are spawned lazily once, parked on a condvar between
//! waves, and each call becomes a *wave* broadcast to the parked workers —
//! no per-call thread creation, no join barriers.
//!
//! A wave still costs a condvar hand-off, tens of microseconds. The rule
//! for callers is therefore: **submit a wave only for tasks orders of
//! magnitude above that cost.** Two callers qualify — the explorer's
//! refinement rounds (up to three full-depth searches, milliseconds each,
//! one wave per exploration unit) and a network's distinct layer shapes
//! (one whole search per task). Everything inside a generation (sampling,
//! screening, measurement, breeding), lowering, the heuristic seeds and the
//! fallback sweep are microsecond tasks and run as plain loops on the
//! calling thread; an earlier revision submitted a wave for each and ran
//! 2.6x *slower* at `jobs = nproc` than at `jobs = 1`.
//!
//! ## Wave protocol
//!
//! A wave is submitted by the calling thread. One wave is in flight at a
//! time: a caller that finds the pool busy with someone else's wave (which
//! may last milliseconds) runs its own range inline instead of queueing
//! behind it — same results, by the `jobs` contract. Otherwise:
//!
//! 1. the caller resets the shared claim counter, publishes a type-erased
//!    `&dyn Fn(usize)` task pointer under the state lock, bumps the wave
//!    epoch and notifies the condvar;
//! 2. parked workers wake, take one of the wave's participation slots
//!    (`joiners_left`), copy the task descriptor and run the claim loop;
//!    workers beyond the wave's worker budget go back to sleep;
//! 3. the claim loop grabs **chunks** of indices with one `fetch_add` per
//!    chunk (not per index);
//! 4. the caller participates in the claim loop itself (a pool serving
//!    `jobs` threads spawns only `jobs - 1` workers), then cancels any
//!    participation slots no worker picked up in time and blocks until the
//!    joined workers drain (`active == 0`).
//!
//! The task pointer's lifetime is erased (`transmute` to `'static`), which
//! is sound because the submitting caller cannot return from
//! [`WorkerPool::run`] before every participant has left the claim loop.
//!
//! ## Determinism
//!
//! The pool executes every index exactly once (the claim counter hands out
//! each chunk to exactly one participant) and callers write results into
//! per-index slots, so results are in index order *by construction* — no
//! collection, no sorting, and bit-identical output for any worker count,
//! chunk size or scheduling interleaving. Chunked claiming does not change
//! which work runs, only how many `fetch_add`s it costs; the number of
//! *successful* chunk claims per wave is `ceil(n / chunk)` regardless of
//! scheduling, so even [`PoolStats::chunks`] is deterministic for a given
//! call sequence.
//!
//! ## Panics
//!
//! A panicking task sets the wave's stop flag (siblings stop claiming
//! promptly) and stores its payload; the caller re-raises the **original
//! payload** after the wave drains. Workers catch the panic at the claim
//! loop boundary, so the pool itself stays healthy: the next wave reuses
//! the same threads.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, TryLockError};
use std::thread::JoinHandle;

thread_local! {
    /// `true` on pool worker threads and on a caller while it participates
    /// in a wave. Guards against nested wave submission (which would corrupt
    /// the in-flight wave's claim counter): nested `parallel_map` calls fall
    /// back to inline execution instead.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// `true` when the current thread is executing pool work (worker thread, or
/// caller mid-wave). Parallel entry points consult this to inline nested
/// parallelism instead of submitting a wave from inside a wave.
pub(crate) fn in_pool() -> bool {
    IN_POOL.with(|c| c.get())
}

/// Cumulative counters of the process-wide worker pool, snapshotted by
/// [`pool_stats`](crate::pool_stats) (all zero until the first wave).
///
/// `waves`, `tasks` and `chunks` are deterministic for a given call
/// sequence; `threads` is the high-water worker count (monotone — workers
/// are never torn down), which depends on the largest `jobs` the process
/// has used so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads spawned since process start (workers live forever, so
    /// this is also the current worker count).
    pub threads: usize,
    /// Waves submitted (one per pooled `parallel_map` call; inline
    /// fallbacks do not count).
    pub waves: u64,
    /// Task indices executed across all waves.
    pub tasks: u64,
    /// Successful chunk claims across all waves (`fetch_add`s that yielded
    /// work) — `tasks / chunks` is the achieved mean chunk size.
    pub chunks: u64,
}

/// A type-erased wave task pointer. Only dereferenced between wave
/// submission and wave drain, during which the caller keeps the referent
/// alive on its stack.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is only dereferenced by wave participants while the
// submitting thread blocks in `run`, which outlives every dereference; the
// pointee is `Sync`, so shared calls from several threads are sound.
unsafe impl Send for TaskPtr {}

/// The wave descriptor workers copy under the state lock.
#[derive(Clone, Copy)]
struct Wave {
    task: TaskPtr,
    n: usize,
    chunk: usize,
}

/// Condvar-protected pool state.
struct State {
    /// Bumped once per wave; workers detect new work by comparing against
    /// the last epoch they observed.
    epoch: u64,
    /// The current wave, present while `joiners_left > 0`.
    wave: Option<Wave>,
    /// Participation slots still open for the current wave. Workers take
    /// one each; the caller cancels the remainder once its own claim loop
    /// finishes (late sleepers then skip the wave entirely).
    joiners_left: usize,
    /// Participants (joined workers) that have not finished the wave yet.
    active: usize,
    /// Set by `Drop`: workers exit their loop.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<State>,
    /// Workers park here between waves.
    work_cv: Condvar,
    /// The caller parks here while joined workers drain.
    done_cv: Condvar,
    /// The claim counter of the current wave (chunk starts).
    next: AtomicUsize,
    /// Early-stop flag of the current wave (set on the first panic).
    stop: AtomicBool,
    /// First panic payload of the current wave.
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
    threads: AtomicUsize,
    waves: AtomicU64,
    tasks: AtomicU64,
    chunks: AtomicU64,
}

/// Locks `m`, ignoring poison: pool bookkeeping never panics while holding
/// a lock, and the panic-payload slot *is* the panic handling.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl PoolShared {
    /// The shared claim loop, run by the caller and every joined worker.
    /// Panics are caught here and recorded as the wave's (first) payload.
    fn run_claim_loop(&self, task: &(dyn Fn(usize) + Sync), n: usize, chunk: usize) {
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let start = self.next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            self.chunks.fetch_add(1, Ordering::Relaxed);
            let end = (start + chunk).min(n);
            for i in start..end {
                if self.stop.load(Ordering::Relaxed) {
                    break;
                }
                task(i);
            }
        }));
        if let Err(payload) = outcome {
            self.stop.store(true, Ordering::Relaxed);
            let mut slot = lock_unpoisoned(&self.panicked);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
}

/// The worker thread body: park, join a wave, run the claim loop, repeat.
fn worker_loop(shared: Arc<PoolShared>) {
    IN_POOL.with(|c| c.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let wave = {
            let mut st = lock_unpoisoned(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if st.joiners_left > 0 {
                        st.joiners_left -= 1;
                        break st.wave.expect("wave present while joiners_left > 0");
                    }
                    // Fully subscribed (or already retired): skip this wave.
                    continue;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        // SAFETY: the submitting caller blocks in `run` until this
        // participant decrements `active`, so the task outlives this call.
        shared.run_claim_loop(unsafe { &*wave.task.0 }, wave.n, wave.chunk);
        let mut st = lock_unpoisoned(&shared.state);
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A persistent worker pool executing index-range waves. One process-wide
/// instance (see [`global`]) backs `parallel_map`; dedicated instances exist
/// only in tests.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Held for the duration of a wave: one in flight at a time (per-wave
    /// atomics are shared state). A submitter that finds it held runs
    /// inline instead of queueing.
    submission: Mutex<()>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("stats", &self.stats())
            .finish()
    }
}

impl WorkerPool {
    /// An empty pool: no threads until the first wave needs them.
    pub(crate) fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(State {
                    epoch: 0,
                    wave: None,
                    joiners_left: 0,
                    active: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                next: AtomicUsize::new(0),
                stop: AtomicBool::new(false),
                panicked: Mutex::new(None),
                threads: AtomicUsize::new(0),
                waves: AtomicU64::new(0),
                tasks: AtomicU64::new(0),
                chunks: AtomicU64::new(0),
            }),
            submission: Mutex::new(()),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the cumulative counters.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.shared.threads.load(Ordering::Relaxed),
            waves: self.shared.waves.load(Ordering::Relaxed),
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            chunks: self.shared.chunks.load(Ordering::Relaxed),
        }
    }

    /// Grows the pool to at least `wanted` workers. Called with the
    /// submission lock held, so spawns never race.
    fn ensure_spawned(&self, wanted: usize) {
        let mut handles = lock_unpoisoned(&self.handles);
        while handles.len() < wanted {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("amos-pool-{}", handles.len()))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
            handles.push(handle);
            self.shared.threads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs `task` for every index in `0..n` as one wave on up to `workers`
    /// threads (the caller plus `workers - 1` pool workers), claiming
    /// indices in chunks of `chunk`. Blocks until every participant has
    /// left the wave; re-raises the first panicking task's original payload.
    /// When another caller's wave is in flight the whole range runs inline
    /// on this thread instead (no wave is counted).
    ///
    /// Every index is executed at most once, and — absent panics — exactly
    /// once; with the per-slot writes the parallel entry points perform,
    /// that makes results independent of scheduling.
    pub(crate) fn run(
        &self,
        workers: usize,
        n: usize,
        chunk: usize,
        task: &(dyn Fn(usize) + Sync),
    ) {
        debug_assert!(workers >= 2 && n >= 2 && chunk >= 1);
        let helpers = (workers - 1).min(n - 1);
        let guard = match self.submission.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return (0..n).for_each(task),
        };
        self.ensure_spawned(helpers);
        self.shared.next.store(0, Ordering::Relaxed);
        self.shared.stop.store(false, Ordering::Relaxed);
        *lock_unpoisoned(&self.shared.panicked) = None;
        // SAFETY (lifetime erasure): the pointer is dereferenced only by
        // wave participants, and this function does not return until all of
        // them are done — `task` outlives every dereference.
        let erased: TaskPtr = TaskPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(task as *const (dyn Fn(usize) + Sync))
        });
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            st.epoch = st.epoch.wrapping_add(1);
            st.wave = Some(Wave {
                task: erased,
                n,
                chunk,
            });
            st.joiners_left = helpers;
            st.active = helpers;
            self.shared.work_cv.notify_all();
        }
        self.shared.waves.fetch_add(1, Ordering::Relaxed);
        self.shared.tasks.fetch_add(n as u64, Ordering::Relaxed);

        // The caller is a participant too.
        let was_in_pool = IN_POOL.with(|c| c.replace(true));
        self.shared.run_claim_loop(task, n, chunk);
        IN_POOL.with(|c| c.set(was_in_pool));

        // Retire the wave: cancel participation slots no worker picked up
        // (the work is already drained — they would claim nothing), then
        // wait for the joined workers.
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            st.active -= st.joiners_left;
            st.joiners_left = 0;
            st.wave = None;
            while st.active > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        drop(guard);
        if let Some(payload) = lock_unpoisoned(&self.shared.panicked).take() {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in lock_unpoisoned(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide pool behind `parallel_map`, created (empty) on first
/// use. [`crate::Engine`] exposes its counters as
/// [`Engine::pool_stats`](crate::Engine::pool_stats).
pub(crate) fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(WorkerPool::new)
}

/// Snapshot of the process-wide pool's [`PoolStats`] (zeros before the
/// first pooled wave).
pub fn pool_stats() -> PoolStats {
    global().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn fill_squares(pool: &WorkerPool, workers: usize, n: usize, chunk: usize) -> Vec<usize> {
        let mut out = vec![0usize; n];
        {
            struct Slot(std::cell::UnsafeCell<usize>);
            unsafe impl Sync for Slot {}
            let cells: &[Slot] =
                unsafe { std::slice::from_raw_parts(out.as_mut_ptr().cast::<Slot>(), n) };
            let task = |i: usize| unsafe { *cells[i].0.get() = i * i };
            pool.run(workers, n, chunk, &task);
        }
        out
    }

    #[test]
    fn waves_execute_every_index_exactly_once() {
        let pool = WorkerPool::new();
        for (workers, n, chunk) in [(2, 2, 1), (4, 100, 1), (4, 100, 7), (8, 33, 64), (3, 10, 3)] {
            let out = fill_squares(&pool, workers, n, chunk);
            assert_eq!(
                out,
                (0..n).map(|i| i * i).collect::<Vec<_>>(),
                "workers={workers} n={n} chunk={chunk}"
            );
        }
    }

    #[test]
    fn threads_are_reused_across_waves() {
        let pool = WorkerPool::new();
        let _ = fill_squares(&pool, 4, 64, 4);
        let after_first = pool.stats();
        assert_eq!(after_first.threads, 3, "4-way wave = caller + 3 workers");
        assert_eq!(after_first.waves, 1);
        for _ in 0..10 {
            let _ = fill_squares(&pool, 4, 64, 4);
        }
        let after = pool.stats();
        assert_eq!(
            after.threads, after_first.threads,
            "further waves at the same width must not spawn"
        );
        assert_eq!(after.waves, 11);
        assert_eq!(after.tasks, 11 * 64);
    }

    #[test]
    fn pool_grows_to_the_widest_wave_only() {
        let pool = WorkerPool::new();
        let _ = fill_squares(&pool, 2, 16, 1);
        assert_eq!(pool.stats().threads, 1);
        let _ = fill_squares(&pool, 6, 16, 1);
        assert_eq!(pool.stats().threads, 5);
        let _ = fill_squares(&pool, 3, 16, 1);
        assert_eq!(
            pool.stats().threads,
            5,
            "narrow waves never shrink the pool"
        );
    }

    #[test]
    fn chunk_claims_are_deterministic() {
        let pool = WorkerPool::new();
        let before = pool.stats().chunks;
        let _ = fill_squares(&pool, 4, 100, 7);
        let after = pool.stats().chunks;
        assert_eq!(
            after - before,
            100u64.div_ceil(7),
            "successful chunk claims must equal ceil(n / chunk)"
        );
    }

    #[test]
    fn panicking_wave_leaves_the_pool_usable() {
        let pool = WorkerPool::new();
        let n = 64;
        let caught = amos_sim::isolate::quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let task = |i: usize| {
                    if i == 7 {
                        panic!("boom {i}");
                    }
                };
                pool.run(4, n, 1, &task);
            }))
        });
        let payload = caught.expect_err("worker panic must propagate");
        assert_eq!(amos_sim::isolate::payload_text(payload.as_ref()), "boom 7");

        // The same threads serve the next wave.
        let threads = pool.stats().threads;
        let out = fill_squares(&pool, 4, n, 1);
        assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.stats().threads, threads);
    }

    #[test]
    fn concurrent_submitters_run_every_index_exactly_once() {
        // Whichever submitters win the pool and whichever run inline, every
        // call must execute each of its own indices exactly once.
        let pool = WorkerPool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                scope.spawn(move || {
                    for _ in 0..20 {
                        let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
                        let task = |i: usize| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        };
                        pool.run(3, 32, 4, &task);
                        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                    }
                });
            }
        });
    }

    #[test]
    fn busy_pool_runs_a_second_submitter_inline() {
        let pool = WorkerPool::new();
        let started = std::sync::Barrier::new(2);
        let release = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let long = |i: usize| {
                    if i == 0 {
                        started.wait();
                        release.wait();
                    }
                };
                pool.run(2, 2, 1, &long);
            });
            // The first wave is now in flight and stays so until released:
            // a queued submitter would deadlock here, an inline one returns.
            started.wait();
            let out = fill_squares(&pool, 4, 100, 7);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(pool.stats().waves, 1, "the busy pool must not be queued on");
            release.wait();
        });
        assert_eq!(pool.stats().tasks, 2, "inline ranges are not pool tasks");
    }
}
