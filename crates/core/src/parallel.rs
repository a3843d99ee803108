//! The deterministic data-parallel map over the persistent worker pool
//! ([`crate::pool`]).
//!
//! The sandbox has no crates.io access, so the explorer cannot lean on
//! rayon; this module provides the one primitive it needs: map an index
//! range through a pure function on a fixed number of workers and return
//! the results **in index order**, so reductions over them are independent
//! of thread count and scheduling.
//!
//! [`parallel_map`] submits one *wave* to the process-wide pool and writes
//! each result directly into its preallocated per-index slot: no collection
//! lock, no sort, no thread spawns after the pool has warmed up. With
//! `jobs <= 1`, a trivial range, a pool already busy with another caller's
//! wave, or a caller that is itself pool work (nested parallelism), the
//! work runs inline on the calling thread with no synchronisation at all.
//!
//! A wave costs a condvar hand-off (tens of microseconds), so it pays only
//! for tasks orders of magnitude longer than that: the explorer's
//! refinement rounds and a network's distinct layer shapes. Everything
//! smaller (a generation's candidates, lowering, heuristic seeds) is a
//! plain loop on the caller.

use std::cell::UnsafeCell;

/// A shared view of a slot array. `UnsafeCell<S>` has the same layout as
/// `S` (it is `repr(transparent)`), so casting `&mut [S]` to `&[SlotCell<S>]`
/// only reinterprets the element type; the `Sync` impl is sound because the
/// pool's claim counter hands each index — and therefore each slot — to
/// exactly one participant.
struct SlotCell<S>(UnsafeCell<S>);
unsafe impl<S: Send> Sync for SlotCell<S> {}

/// Reinterprets exclusive access to `slots` as a shared slice of cells for
/// the duration of one wave.
fn as_cells<S: Send>(slots: &mut [S]) -> &[SlotCell<S>] {
    let n = slots.len();
    unsafe { std::slice::from_raw_parts(slots.as_mut_ptr().cast::<SlotCell<S>>(), n) }
}

/// Chunk size for one wave: aim for several chunks per worker so uneven
/// task costs still balance (per-shape search times vary by an order of
/// magnitude). Deterministic in (n, workers) only — it never affects
/// *what* runs, merely how indices are batched onto claims.
fn chunk_for(n: usize, workers: usize) -> usize {
    (n / (workers * 8)).clamp(1, 64)
}

/// Parses one `AMOS_JOBS` value: a positive integer worker count.
///
/// # Errors
///
/// A human-readable message for anything else — including `0`, which would
/// silently re-mean "all cores" and mask a typo.
pub fn parse_jobs_value(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "invalid AMOS_JOBS value `{raw}`: expected a positive integer worker count"
        )),
    }
}

/// Reads the `AMOS_JOBS` override from the environment: `Ok(None)` when
/// unset, `Ok(Some(n))` for a valid positive integer.
///
/// Entry points (the CLI, `amosd`) call this up front so a malformed value
/// is **rejected with a clear error** instead of being silently ignored;
/// [`default_jobs`] itself can only warn, because it is infallible and
/// cached process-wide.
///
/// # Errors
///
/// The [`parse_jobs_value`] message when the variable is set but invalid.
pub fn amos_jobs_override() -> Result<Option<usize>, String> {
    match std::env::var("AMOS_JOBS") {
        Err(_) => Ok(None),
        Ok(raw) => parse_jobs_value(&raw).map(Some),
    }
}

/// The default worker count used when `ExplorerConfig::jobs == 0` (and by
/// every CLI/bench surface that wants "all cores"): the `AMOS_JOBS`
/// environment variable if set to a positive integer (the CI jobs matrix
/// uses this to pin every `jobs = 0` resolution in a process), otherwise
/// [`std::thread::available_parallelism`], otherwise 1. Cached after the
/// first call. An *invalid* `AMOS_JOBS` is never silently ignored: it
/// prints a loud warning to stderr here (once), and front-door entry
/// points reject it outright via [`amos_jobs_override`].
pub fn default_jobs() -> usize {
    static JOBS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *JOBS.get_or_init(|| match amos_jobs_override() {
        Ok(Some(n)) => n,
        Ok(None) => available_cores(),
        Err(msg) => {
            eprintln!("amos: warning: {msg}; falling back to all available cores");
            available_cores()
        }
    })
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `0..n` through `work` on up to `jobs` threads, returning results in
/// index order.
///
/// Parallel calls run as one wave on the persistent pool: participants
/// claim index chunks from a shared counter (dynamic load balancing) and
/// write each value straight into its preallocated slot, so the output is
/// index-ordered by construction and bit-identical at any `jobs`. With
/// `jobs <= 1`, a trivial range, a pool busy with another caller's wave, or
/// when called from inside pool work, the work runs inline on the caller's
/// thread.
///
/// If `work` panics on any index, the panic is re-raised on the calling
/// thread with its **original payload** (first panicking participant wins;
/// the others stop early).
pub fn parallel_map<T, F>(jobs: usize, n: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 || crate::pool::in_pool() {
        return (0..n).map(work).collect();
    }
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        let cells = as_cells(&mut out);
        let task = |i: usize| {
            let value = work(i);
            // SAFETY: the pool hands index `i` to exactly one participant,
            // so this is the only reference to slot `i`; the wave completes
            // before `out` is touched again.
            unsafe { *cells[i].0.get() = Some(value) };
        };
        let workers = jobs.min(n);
        crate::pool::global().run(workers, n, chunk_for(n, workers), &task);
    }
    debug_assert!(out.iter().all(Option::is_some), "wave skipped an index");
    out.into_iter()
        .map(|slot| slot.expect("pool executes every index exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 3, 8] {
            let out = parallel_map(jobs, 100, |i| i * i);
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_ranges() {
        assert_eq!(parallel_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn nested_parallel_maps_run_inline_without_deadlock() {
        // A task that itself calls parallel_map must not submit a nested
        // wave (the pool's claim counter is per-wave); the inner call falls
        // back to inline execution and the result is unchanged.
        let out = parallel_map(4, 16, |i| parallel_map(4, 8, move |j| i * 8 + j));
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..128).collect::<Vec<_>>());
    }

    #[test]
    fn map_propagates_original_panic_payload() {
        let caught = amos_sim::isolate::quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                parallel_map(4, 64, |i| {
                    if i == 7 {
                        panic!("boom {i}");
                    }
                    i
                })
            }))
        });
        let payload = caught.expect_err("worker panic must propagate");
        assert_eq!(
            amos_sim::isolate::payload_text(payload.as_ref()),
            "boom 7",
            "the original payload must survive, not a poisoned-lock panic"
        );
    }

    #[test]
    fn pool_is_usable_after_a_panicking_call() {
        let caught = amos_sim::isolate::quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                parallel_map(4, 64, |i| {
                    if i == 3 {
                        panic!("transient");
                    }
                    i
                })
            }))
        });
        assert!(caught.is_err());
        let out = parallel_map(4, 64, |i| i + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items near the front are much heavier; dynamic draining must still
        // return everything, in order.
        let out = parallel_map(4, 64, |i| {
            let spins = if i < 4 { 100_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 64);
        assert!(out.iter().enumerate().all(|(i, &(j, _))| i == j));
    }

    #[test]
    fn default_jobs_is_positive_and_stable() {
        let a = default_jobs();
        let b = default_jobs();
        assert!(a >= 1);
        assert_eq!(a, b, "default_jobs must be cached");
    }

    #[test]
    fn jobs_values_parse_strictly() {
        assert_eq!(parse_jobs_value("4"), Ok(4));
        assert_eq!(parse_jobs_value(" 16 "), Ok(16), "whitespace is trimmed");
        for bad in ["0", "-1", "abc", "", "4.5", "1 2"] {
            let err = parse_jobs_value(bad).expect_err(bad);
            assert!(err.contains("invalid AMOS_JOBS"), "{err}");
            assert!(err.contains(bad.trim()) || bad.trim().is_empty(), "{err}");
        }
    }
}
