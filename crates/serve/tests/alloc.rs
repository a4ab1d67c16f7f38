//! What the frame codec allocates, counted by a global allocator: encoding
//! into a reused buffer allocates nothing, and decoding allocates the frame
//! body plus the strings the message owns — no keys, no trees, no digits.
//! The same allocator tracks live heap bytes and their high-water mark,
//! which bounds what sealing an execution costs beyond the trace it
//! returns, and prices one served ingest: the heap it retains and the
//! allocations it makes. A `Status` on a relational watch makes none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use psn_predicates::{ModalStatus, OnlineStatus};
use psn_serve::wire::encode_frame;
use psn_serve::{read_frame, Request, Response};
use psn_sim::time::SimTime;
use psn_world::{AttrKey, AttrValue};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed (a block freed on
    /// another thread stays counted here).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The largest `LIVE` since the last [`high_water`] reset.
    static HIGH: Cell<isize> = const { Cell::new(0) };
}

/// Move this thread's live-byte count by `delta`, raising the high-water
/// mark when it grows.
fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = HIGH.try_with(|high| high.set(high.get().max(live.get())));
    });
}

/// The system allocator, counting this thread's allocations and live bytes.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// `Cell`s that never allocate, and `try_with` skips them during thread exit.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        track(layout.size() as isize);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        track(new_size as isize - layout.size() as isize);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Run `f` on this thread and return the heap its result holds and the
/// heap high-water mark it reached, both in bytes above the heap before.
fn high_water<R>(f: impl FnOnce() -> R) -> (isize, isize, R) {
    let before = LIVE.with(Cell::get);
    HIGH.with(|high| high.set(before));
    let out = f();
    (LIVE.with(Cell::get) - before, HIGH.with(Cell::get) - before, out)
}

/// Sealing moves each process log into the trace instead of copying the
/// whole log and sorting a second copy: the run's heap high-water stays
/// within twice the heap of the trace it returns.
#[test]
fn run_execution_peaks_below_twice_its_trace() {
    use psn_core::{run_execution, ExecutionConfig};
    use psn_sim::time::SimDuration;
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};

    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 40.0,
        mean_stay: SimDuration::from_secs(20),
        duration: SimTime::from_secs(40),
        capacity: 800,
    };
    let mut scenario = exhibition::generate(&params, 3);
    assert!(scenario.timeline.len() >= 2_000, "{} world events", scenario.timeline.len());
    scenario.timeline.events.truncate(2_000);
    let (held, peak, trace) = high_water(|| run_execution(&scenario, &ExecutionConfig::default()));
    assert_eq!(trace.log.reports.len(), 2_000);
    assert!(peak <= 2 * held, "high-water {peak} B for a trace of {held} B");
}

#[test]
fn the_codec_allocates_only_what_the_message_owns() {
    let ingest = Request::Ingest {
        at: SimTime::from_millis(123_456),
        process: 5,
        key: AttrKey::new(5, 1),
        value: AttrValue::Int(-17),
    };
    let status = Response::Status {
        name: "occupancy".into(),
        online: OnlineStatus {
            holds: true,
            open_since: Some(SimTime::from_secs(2)),
            occurrences: 33,
            buffered: 4,
            late_reports: 0,
        },
        modal: ModalStatus { possibly: 30, definitely: 28, holding_now: true },
        mem_high_water_cuts: 170,
        frontier_width: 12,
    };

    let mut buf = Vec::with_capacity(1024);
    encode_frame(&mut buf, &ingest).expect("fits");
    let frame = buf.clone();
    buf.clear();
    let (n, encoded) = allocations(|| encode_frame(&mut buf, &ingest));
    encoded.expect("fits");
    assert_eq!(n, 0, "encoding into a reused buffer");
    assert_eq!(buf, frame);

    let (n, decoded) = allocations(|| read_frame::<Request>(&mut &frame[..]));
    assert_eq!(decoded.expect("decodes"), Some(ingest));
    assert!(n <= 1, "decoding an Ingest: the body buffer, nothing else ({n})");

    buf.clear();
    encode_frame(&mut buf, &status).expect("fits");
    let (n, decoded) = allocations(|| read_frame::<Response>(&mut &buf[..]));
    assert_eq!(decoded.expect("decodes"), Some(status));
    assert!(n <= 2, "decoding a Status reply: the body buffer and its name ({n})");
}

/// The cost model of one served ingest, in `serve_burst`'s shape: 4 doors
/// at 40 Hz, rounds of 32 `Ingest` + `Advance` + `Status` over 4 500
/// ingests. A session keeps what it reads back (each report and each
/// journal entry), not the process events an ingest causes, so the heap it
/// retains stays under 1 000 B per ingest (it was over 1 464 B while the
/// process logs and the piggybacked send stamps were kept). In steady
/// state, `Ingest` + `Advance` make one allocation per ingest: the sensor
/// boxes each `NetMsg::Report` (a `Box<ReportMsg>`) to send to the root.
#[test]
fn a_served_ingest_retains_its_report_and_journal_entry() {
    use psn_core::{world_events, NetMsg};
    use psn_predicates::Predicate;
    use psn_serve::{ServeConfig, ServeSession};
    use psn_sim::time::SimDuration;
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};

    const DOORS: usize = 4;
    const INGESTS: usize = 4_500;
    const ROUND: usize = 32;
    let params = ExhibitionParams {
        doors: DOORS,
        arrival_rate_hz: 40.0,
        mean_stay: SimDuration::from_secs(60),
        duration: SimTime::from_secs(140),
        capacity: 2_400,
    };
    let scenario = exhibition::generate(&params, 3);
    let ingests: Vec<Request> = world_events(&scenario)
        .into_iter()
        .filter_map(|e| match e.msg {
            NetMsg::WorldSense { key, value, .. } => {
                Some(Request::Ingest { at: e.at, process: e.to, key, value })
            }
            _ => None,
        })
        .take(INGESTS)
        .collect();
    assert_eq!(ingests.len(), INGESTS);

    let (held, _, (session, allocs, steady)) = high_water(|| {
        let mut cfg = ServeConfig::new(DOORS);
        cfg.initial = scenario.timeline.initial_state();
        let mut session = ServeSession::new(cfg);
        let predicate = Predicate::occupancy_over(DOORS, 2_400);
        session.handle(Request::Watch { name: "occ".into(), predicate });
        // The first quarter warms the buffers an advance reuses.
        let (mut allocs, mut steady) = (0, 0);
        for (i, round) in ingests.chunks(ROUND).enumerate() {
            let Request::Ingest { at: to, .. } = round[round.len() - 1] else { unreachable!() };
            let (n, ()) = allocations(|| {
                for req in round {
                    let reply = session.handle(req.clone());
                    assert!(matches!(reply, Response::Ingested { .. }), "{reply:?}");
                }
                let reply = session.handle(Request::Advance { to });
                assert!(matches!(reply, Response::Advanced { .. }), "{reply:?}");
            });
            if i >= ingests.len() / ROUND / 4 {
                (allocs, steady) = (allocs + n, steady + round.len());
            }
            let reply = session.handle(Request::Status { name: "occ".into() });
            assert!(matches!(reply, Response::Status { .. }), "{reply:?}");
        }
        (session, allocs, steady)
    });
    let reports = session.live().reports().len();
    assert!(reports + ROUND >= INGESTS, "{reports} reports: the last round's are in flight");
    let per_ingest = held as f64 / INGESTS as f64;
    println!("retained {per_ingest:.0} B per ingest");
    assert!(per_ingest <= 1_000.0, "the session retains {per_ingest:.0} B per ingest");
    let per_ingest = allocs as f64 / steady as f64;
    println!("Ingest + Advance: {per_ingest:.3} allocations per ingest in steady state");
    assert!(
        per_ingest <= 1.05,
        "Ingest + Advance make {per_ingest:.3} allocations per ingest; the one expected is \
         the Box<ReportMsg> of each report a sensor sends"
    );
}

/// A `Status` on a relational watch applies the held reports to the live
/// sweep and copies its state back, reusing its buffers: once they have
/// grown, it makes no allocation. The same 4-door hall in rounds of 32
/// `Ingest` + `Advance` + `Status`; the first quarter of the rounds warms
/// the buffers, and every later `Status` must answer over held reports.
#[test]
fn a_relational_status_allocates_nothing_in_steady_state() {
    use psn_core::{world_events, NetMsg};
    use psn_predicates::Predicate;
    use psn_serve::{ServeConfig, ServeSession};
    use psn_sim::time::SimDuration;
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};

    const DOORS: usize = 4;
    const INGESTS: usize = 1_600;
    const ROUND: usize = 32;
    let params = ExhibitionParams {
        doors: DOORS,
        arrival_rate_hz: 40.0,
        mean_stay: SimDuration::from_secs(60),
        duration: SimTime::from_secs(60),
        capacity: 2_400,
    };
    let scenario = exhibition::generate(&params, 3);
    let ingests: Vec<Request> = world_events(&scenario)
        .into_iter()
        .filter_map(|e| match e.msg {
            NetMsg::WorldSense { key, value, .. } => {
                Some(Request::Ingest { at: e.at, process: e.to, key, value })
            }
            _ => None,
        })
        .take(INGESTS)
        .collect();
    assert_eq!(ingests.len(), INGESTS);

    let mut cfg = ServeConfig::new(DOORS);
    cfg.initial = scenario.timeline.initial_state();
    let mut session = ServeSession::new(cfg);
    let predicate = Predicate::occupancy_over(DOORS, 2_400);
    session.handle(Request::Watch { name: "occ".into(), predicate });
    let (mut allocs, mut statuses, mut held) = (0, 0, 0);
    for (i, round) in ingests.chunks(ROUND).enumerate() {
        let Request::Ingest { at: to, .. } = round[round.len() - 1] else { unreachable!() };
        for req in round {
            session.handle(req.clone());
        }
        session.handle(Request::Advance { to });
        let status = Request::Status { name: "occ".into() };
        let (n, reply) = allocations(|| session.handle(status));
        let Response::Status { online, .. } = reply else { panic!("{reply:?}") };
        if i >= ingests.len() / ROUND / 4 {
            (allocs, statuses, held) = (allocs + n, statuses + 1, held + online.buffered);
        }
    }
    assert!(held >= statuses, "each Status must answer over held reports ({held} held)");
    assert_eq!(allocs, 0, "{statuses} relational Status calls made {allocs} allocations");
}
