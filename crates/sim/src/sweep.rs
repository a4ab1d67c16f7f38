//! Deterministic parallel parameter sweeps.
//!
//! Experiments evaluate a grid of cells (Δ values × event rates × seeds…),
//! each cell an independent simulation. This runner fans cells out over a
//! pool of scoped OS threads that claim cells from a shared atomic cursor,
//! and returns results **in cell order**, so the output is identical
//! regardless of the thread count — determinism is preserved while
//! wall-clock drops nearly linearly with cores. At one thread the same
//! worker loop runs inline on the caller's thread.
//!
//! A panic inside a worker is caught, the remaining workers drain, and the
//! **first** panic payload is re-raised on the calling thread intact — the
//! caller sees the original message, not a generic join error.
//!
//! [`run_sweep_instrumented`] additionally records per-cell wall time and
//! thread utilization into a [`Metrics`] registry (see [`crate::metrics`]);
//! recording never affects cell results or their order.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::Metrics;

/// The panic slot is only ever locked to store or take a payload.
const PANIC_SLOT_POISONED: &str = "a sweep worker panicked while storing a panic payload";

/// Run `f` over every cell, in parallel, returning results in input order.
///
/// `f` must be deterministic per cell (derive all randomness from the cell's
/// own parameters/seed). If any worker panics, the first panic is
/// propagated to the caller with its payload intact.
pub fn run_sweep<P, R, F>(cells: &[P], threads: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    run_sweep_instrumented(cells, threads, &Metrics::disabled(), f)
}

/// [`run_sweep`], recording sweep metrics into `metrics`:
///
/// - timer `sweep.cell_wall_ns` — wall-clock nanoseconds per cell;
/// - gauge `sweep.threads` — worker count used;
/// - gauge `sweep.utilization_pct` — aggregate worker busy time over
///   `threads × total wall time`, in percent;
/// - counter `sweep.cells` — cells executed.
pub fn run_sweep_instrumented<P, R, F>(
    cells: &[P],
    threads: usize,
    metrics: &Metrics,
    f: F,
) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    if cells.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(cells.len());
    let cell_wall = metrics.timer_with_range("sweep.cell_wall_ns", 0.0, 1e10, 128);
    let utilization = metrics.gauge("sweep.utilization_pct");
    let busy_counter = metrics.counter("sweep.busy_ns");
    metrics.gauge("sweep.threads").set(threads as u64);
    metrics.counter("sweep.cells").add(cells.len() as u64);
    let timed = metrics.is_enabled();
    let sweep_start = Instant::now();

    let next = AtomicUsize::new(0);
    // First worker panic, payload intact; later panics are dropped.
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let panicked = AtomicBool::new(false);
    // Claim cells off the shared cursor until it runs past the end or some
    // worker panics; return this worker's `(index, result)` pairs. Relaxed
    // is enough: the cursor only hands out distinct indices, and results
    // reach the caller through `join`, which synchronises.
    let worker = || {
        let mut done = Vec::new();
        let mut busy_ns: u64 = 0;
        while !panicked.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(i) else { break };
            let t0 = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| f(i, cell))) {
                Ok(r) => {
                    if timed {
                        let ns = t0.elapsed().as_nanos() as u64;
                        cell_wall.record(ns as f64);
                        busy_ns += ns;
                    }
                    done.push((i, r));
                }
                Err(payload) => {
                    panicked.store(true, Ordering::Relaxed);
                    let mut slot = first_panic.lock().expect(PANIC_SLOT_POISONED);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    break;
                }
            }
        }
        if timed {
            busy_counter.add(busy_ns);
        }
        done
    };

    let parts: Vec<Vec<(usize, R)>> = if threads == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))).collect()
        })
    };

    if let Some(payload) = first_panic.into_inner().expect(PANIC_SLOT_POISONED) {
        resume_unwind(payload);
    }
    if timed {
        // Busy time aggregates across the whole pool, so the denominator is
        // threads × wall (each thread's busy time is bounded by the wall).
        let wall = sweep_start.elapsed().as_nanos().max(1) as f64;
        utilization
            .set((100.0 * busy_counter.get() as f64 / (wall * threads as f64)).round() as u64);
    }
    let mut out: Vec<Option<R>> = (0..cells.len()).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter().map(|r| r.expect("worker exited without result or panic")).collect()
}

/// The default parallelism for sweeps: a *valid* `PSN_THREADS` environment
/// variable (a positive integer) if set, otherwise the number of available
/// cores. An unparsable or zero value never panics a long-running host: it
/// falls back to the hardware default, warning once per process on stderr.
///
/// `PSN_THREADS` caps the *sweep-level* thread pool. With the sharded
/// engine (`Engine::set_shards`) parallelism can also live *inside* a
/// cell, batch or live; when combining both, budget
/// `sweep_threads × shards ≤ cores` — the two pools do not coordinate.
pub(crate) fn default_threads() -> usize {
    let hardware = || std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
    match std::env::var("PSN_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: ignoring invalid PSN_THREADS={v:?} (want a positive \
                         integer); using the hardware default"
                    );
                });
                hardware()
            }
        },
        Err(_) => hardware(),
    }
}

/// A convenience: run a sweep at `default_threads` parallelism.
pub fn run_sweep_auto<P, R, F>(cells: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    run_sweep(cells, default_threads(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_input_order() {
        let cells: Vec<u64> = (0..100).collect();
        let out = run_sweep(&cells, 8, |_, &x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    /// Thread counts the tests below run at: inline, two workers, eight,
    /// and more workers than their 57- and 16-cell inputs have cells.
    const THREAD_COUNTS: [usize; 4] = [1, 2, 8, 64];

    #[test]
    fn thread_count_does_not_change_results() {
        let cells: Vec<u64> = (0..57).collect();
        let f = |i: usize, &x: &u64| (i as u64).wrapping_mul(31).wrapping_add(x);
        let want: Vec<u64> = cells.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for threads in THREAD_COUNTS {
            assert_eq!(run_sweep(&cells, threads, f), want, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = run_sweep(&Vec::<u32>::new(), 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let cells: Vec<u32> = (0..57).collect();
        for threads in THREAD_COUNTS {
            let runs: Vec<AtomicUsize> = cells.iter().map(|_| AtomicUsize::new(0)).collect();
            let out = run_sweep(&cells, threads, |i, _| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "threads = {threads}");
            assert_eq!(out, (0..57).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn single_cell_works() {
        let out = run_sweep(&[41u32], 16, |_, &x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn psn_threads_env_overrides_and_survives_garbage() {
        // Safe even though tests share the process env: concurrent callers
        // of default_threads only require a value ≥ 1, which every value
        // set here produces.
        let hardware = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        std::env::set_var("PSN_THREADS", "3");
        assert_eq!(default_threads(), 3);
        // Regression: invalid values (zero, garbage, empty) must neither
        // panic nor silently pin the pool to one thread — they fall back to
        // the hardware default (with a once-per-process warning).
        std::env::set_var("PSN_THREADS", "0");
        assert_eq!(default_threads(), hardware, "zero falls back to the hardware default");
        std::env::set_var("PSN_THREADS", "not-a-number");
        assert_eq!(default_threads(), hardware, "garbage falls back to the hardware default");
        std::env::set_var("PSN_THREADS", "");
        assert_eq!(default_threads(), hardware, "empty falls back to the hardware default");
        std::env::set_var("PSN_THREADS", " 2 ");
        assert_eq!(default_threads(), 2, "surrounding whitespace is tolerated");
        std::env::remove_var("PSN_THREADS");
    }

    #[test]
    fn auto_matches_explicit() {
        let cells: Vec<u32> = (0..20).collect();
        assert_eq!(run_sweep_auto(&cells, |_, &x| x * 3), run_sweep(&cells, 2, |_, &x| x * 3));
    }

    #[test]
    fn worker_panic_propagates_with_payload_intact() {
        let cells: Vec<u32> = (0..16).collect();
        for threads in THREAD_COUNTS {
            // The inline path (threads = 1) must stop at the panicking cell
            // like the pool does, not run the cells after it.
            let ran_after = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_sweep(&cells, threads, |i, _| {
                    if i == 7 {
                        panic!("cell 7 exploded: code {}", 42);
                    }
                    if i > 7 {
                        ran_after.fetch_add(1, Ordering::Relaxed);
                    }
                    i
                })
            }));
            let payload = result.expect_err("sweep must re-raise the worker panic");
            // The payload is a &str or String depending on whether rustc
            // const-folded the format; either way the message must be intact.
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .expect("panic payload is the original message");
            assert_eq!(msg, "cell 7 exploded: code 42", "threads = {threads}");
            if threads == 1 {
                assert_eq!(ran_after.load(Ordering::Relaxed), 0, "inline sweep ran past the panic");
            }
        }
    }

    #[test]
    fn instrumented_sweep_records_cell_times_and_utilization() {
        let m = Metrics::new();
        let cells: Vec<u64> = (0..20).collect();
        let out = run_sweep_instrumented(&cells, 4, &m, |_, &x| {
            std::hint::black_box((0..1000).sum::<u64>());
            x
        });
        assert_eq!(out, cells);
        let snap = m.snapshot();
        assert_eq!(snap.timer("sweep.cell_wall_ns").unwrap().count, 20);
        assert_eq!(snap.gauge("sweep.threads"), Some((4, 4)));
        assert_eq!(snap.counter("sweep.cells"), Some(20));
        let (util, _) = snap.gauge("sweep.utilization_pct").unwrap();
        assert!(util <= 110, "utilization is a percentage, saw {util}");
    }

    #[test]
    fn single_threaded_instrumented_sweep_records_too() {
        let m = Metrics::new();
        let out = run_sweep_instrumented(&[1u32, 2, 3], 1, &m, |_, &x| x);
        assert_eq!(out, vec![1, 2, 3]);
        let snap = m.snapshot();
        assert_eq!(snap.timer("sweep.cell_wall_ns").unwrap().count, 3);
        assert_eq!(snap.gauge("sweep.threads"), Some((1, 1)));
    }
}
