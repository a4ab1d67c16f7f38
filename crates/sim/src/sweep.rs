//! Deterministic parallel parameter sweeps.
//!
//! Experiments evaluate a grid of cells (Δ values × event rates × seeds…),
//! each cell an independent simulation. This runner fans cells out over a
//! pool of OS threads (scoped threads + a crossbeam work queue) and returns
//! results **in cell order**, so the output is identical regardless of the
//! thread count — determinism is preserved while wall-clock drops nearly
//! linearly with cores.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crossbeam::channel;
use parking_lot::Mutex;

use crate::metrics::Metrics;

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

    if threads == 1 {
        let out = cells
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let t0 = Instant::now();
                let r = f(i, p);
                if timed {
                    let ns = t0.elapsed().as_nanos() as u64;
                    cell_wall.record(ns as f64);
                    busy_counter.add(ns);
                }
                r
            })
            .collect();
        if timed {
            let wall = sweep_start.elapsed().as_nanos().max(1) as f64;
            utilization.set((100.0 * busy_counter.get() as f64 / wall).round() as u64);
        }
        return out;
    }
    let pool = threads as f64;

    let (work_tx, work_rx) = channel::unbounded::<usize>();
    for i in 0..cells.len() {
        work_tx.send(i).expect("queue open");
    }
    drop(work_tx);

    let (res_tx, res_rx) = channel::unbounded::<(usize, R)>();
    // First worker panic, payload intact; later panics are dropped.
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let panicked = AtomicBool::new(false);

    let out = std::thread::scope(|scope| {
        for _ in 0..threads {
            let work_rx = work_rx.clone();
            let res_tx = res_tx.clone();
            let f = &f;
            let cell_wall = cell_wall.clone();
            let busy_counter = busy_counter.clone();
            let first_panic = &first_panic;
            let panicked = &panicked;
            scope.spawn(move || {
                let mut busy_ns: u64 = 0;
                while let Ok(i) = work_rx.recv() {
                    if panicked.load(Ordering::Relaxed) {
                        break;
                    }
                    let t0 = Instant::now();
                    match catch_unwind(AssertUnwindSafe(|| f(i, &cells[i]))) {
                        Ok(r) => {
                            if timed {
                                let ns = t0.elapsed().as_nanos() as u64;
                                cell_wall.record(ns as f64);
                                busy_ns += ns;
                            }
                            if res_tx.send((i, r)).is_err() {
                                break;
                            }
                        }
                        Err(payload) => {
                            panicked.store(true, Ordering::Relaxed);
                            let mut slot = first_panic.lock();
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
            });
        }
        drop(res_tx);

        let mut out: Vec<Option<R>> = (0..cells.len()).map(|_| None).collect();
        for (i, r) in res_rx {
            out[i] = Some(r);
        }
        out
    });

    if let Some(payload) = first_panic.lock().take() {
        resume_unwind(payload);
    }
    if timed {
        // Busy time aggregates across the whole pool, so the denominator is
        // threads × wall (each thread's busy time is bounded by the wall).
        let wall = sweep_start.elapsed().as_nanos().max(1) as f64;
        utilization.set((100.0 * busy_counter.get() as f64 / (wall * pool)).round() as u64);
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
pub fn default_threads() -> usize {
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

/// A convenience: run a sweep at [`default_threads`] parallelism.
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

    #[test]
    fn thread_count_does_not_change_results() {
        let cells: Vec<u64> = (0..57).collect();
        let f = |i: usize, &x: &u64| (i as u64).wrapping_mul(31).wrapping_add(x);
        let one = run_sweep(&cells, 1, f);
        let four = run_sweep(&cells, 4, f);
        let many = run_sweep(&cells, 32, f);
        assert_eq!(one, four);
        assert_eq!(one, many);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = run_sweep(&Vec::<u32>::new(), 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let cells: Vec<u32> = (0..321).collect();
        let out = run_sweep(&cells, 7, |i, _| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 321);
        assert_eq!(out, (0..321).collect::<Vec<_>>());
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
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_sweep(&cells, 4, |i, _| {
                if i == 7 {
                    panic!("cell 7 exploded: code {}", 42);
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
        assert_eq!(msg, "cell 7 exploded: code 42");
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
