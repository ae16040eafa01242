//! What a timing wheel keeps on the heap: a fixed part (each slot's list
//! head and earliest deadline) and its nodes, which it reuses — so the
//! most it ever holds follows the most timers it ever had pending at
//! once, not how many it ever started or how long it ran.
//!
//! Its own test binary, for the counting allocator below. It counts per
//! thread, so each test reads only what its own thread allocated while the
//! harness and the other tests run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use unp_timers::{TimerId, TimerService, TimerWheel};

thread_local! {
    /// The bytes this thread allocated minus those it freed, and the most
    /// that has been since the last [`reset_peak`].
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes as i64);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrank(bytes: usize) {
    LIVE.with(|l| l.set(l.get() - bytes as i64));
}

/// `System`, with every allocation counted.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Starts a new peak at this thread's live bytes, and returns them.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// log2 of the wheel's tick in nanoseconds.
const TICK_SHIFT: u32 = 20;
/// The heap any wheel keeps: 257 list heads (4 B) and earliest deadlines
/// (8 B), 3,084 B, with room to spare.
const FIXED: i64 = 4_096;
/// Per timer at the high-water mark: a node (about 48 B for a `u64`
/// token) and its place in a fire list (4 B), both in vectors that double,
/// so twice that.
const PER_NODE: i64 = 112;

/// A wheel's peak heap, measured from before it was made, against the
/// bound for `high_water` timers pending at once.
fn holds_its_bound(peak_bytes: i64, high_water: usize, what: &str) {
    let bound = FIXED + PER_NODE * high_water as i64;
    assert!(
        peak_bytes <= bound,
        "{what}: {peak_bytes} B of heap for {high_water} timers pending at most (bound {bound})"
    );
}

/// A request/response flow's timers: every RTO and delayed-ACK timer is
/// stopped before it fires, so the wheel is never advanced. A million
/// start/stop pairs at deadlines across every level and the overflow
/// list, eight outstanding at a time, beside five that stay.
#[test]
fn a_wheel_that_is_never_advanced_keeps_what_its_high_water_needs() {
    let before = reset_peak();
    let mut w: TimerWheel<u64> = TimerWheel::new(0);
    for l in 0..5 {
        w.start(3u64 << (TICK_SHIFT + 6 * l), u64::from(l));
    }
    let mut window: VecDeque<TimerId> = VecDeque::with_capacity(8);
    let mut high_water = w.pending();
    for i in 0..1_000_000u64 {
        let deadline = (1 + i % 7) << (TICK_SHIFT + 6 * (i % 5) as u32);
        window.push_back(w.start(deadline, 100 + i));
        high_water = high_water.max(w.pending());
        if window.len() == 8 {
            let pick = if i % 2 == 0 { 0 } else { 6 };
            let id = window.remove(pick).expect("window holds eight ids");
            assert!(w.stop(id).is_some());
        }
    }
    // The window's own buffer is not the wheel's.
    let window_bytes = (window.capacity() * size_of::<TimerId>()) as i64;
    holds_its_bound(peak() - before - window_bytes, high_water, "never advanced");
    assert_eq!(high_water, 13);
}

/// What TIME_WAIT does to a host's wheel: a connection closes every
/// 400 ms and each close arms a 60 s timer, so about 150 are pending at
/// any time, cascading down the levels as the wheel advances over 300 s.
#[test]
fn a_rotating_population_keeps_what_its_high_water_needs() {
    const EVERY: u64 = 400_000_000;
    const TIME_WAIT: u64 = 60_000_000_000;
    let mut fired = Vec::with_capacity(4);
    let before = reset_peak();
    let mut w: TimerWheel<u64> = TimerWheel::new(0);
    let mut high_water = 0;
    let mut expired = 0;
    for i in 0..(300_000_000_000 / EVERY) {
        let now = i * EVERY;
        w.advance(now, &mut fired);
        expired += fired.len();
        fired.clear();
        w.start(now + TIME_WAIT + i % 5 * 7_000_000, i);
        high_water = high_water.max(w.pending());
    }
    holds_its_bound(peak() - before, high_water, "rotating");
    assert!(
        (150..=152).contains(&high_water),
        "{high_water} pending at most"
    );
    assert!(expired >= 590, "{expired} expired");
}
