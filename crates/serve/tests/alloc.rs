//! What the frame codec allocates, counted by a global allocator: encoding
//! into a reused buffer allocates nothing, and decoding allocates the frame
//! body plus the strings the message owns — no keys, no trees, no digits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use psn_predicates::{ModalStatus, OnlineStatus};
use psn_serve::wire::encode_frame;
use psn_serve::{read_frame, Request, Response};
use psn_sim::time::SimTime;
use psn_world::{AttrKey, AttrValue};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` that never allocates, and `try_with` skips it during thread exit.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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
