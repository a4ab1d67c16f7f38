//! The strobed-execution generator that the crate's unit tests (through
//! `#[cfg(test)] mod strobed` in `lib.rs`) and its integration tests (as a
//! module of their own) share. Both parents import `History`.

use psn_clocks::{LogicalClock, StrobeVectorClock, VectorStamp};

use super::History;

/// A valid strobe execution: `n` processes take turns sensing, `per_proc`
/// times each, and the k-th strobe reaches every other process
/// `lags[k % lags.len()]` events later (0 = before the next event).
pub(crate) fn strobed_history(n: usize, per_proc: usize, lags: &[usize]) -> History {
    let mut clocks: Vec<StrobeVectorClock> = (0..n).map(|i| StrobeVectorClock::new(i, n)).collect();
    let mut stamps: Vec<Vec<VectorStamp>> = vec![Vec::new(); n];
    // In-flight strobes: (deliver at this event count, sender, stamp).
    let mut in_flight: Vec<(usize, usize, VectorStamp)> = Vec::new();
    let mut counter = 0usize;
    for _ in 0..per_proc {
        for p in 0..n {
            let due: Vec<_> =
                in_flight.iter().filter(|&&(at, _, _)| at <= counter).cloned().collect();
            in_flight.retain(|&(at, _, _)| at > counter);
            for (_, from, s) in due {
                for (q, c) in clocks.iter_mut().enumerate() {
                    if q != from {
                        c.on_strobe(&s);
                    }
                }
            }
            let s = clocks[p].on_local_event();
            stamps[p].push(s.clone());
            in_flight.push((counter + lags[counter % lags.len()], p, s));
            counter += 1;
        }
    }
    History::new(stamps)
}
