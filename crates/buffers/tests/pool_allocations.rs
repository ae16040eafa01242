//! A warm frame pool makes no heap allocation. A frame's buffer and its
//! refcount header come back from the freelist as one `Rc`, so allocating,
//! cloning, slicing, writing through a shared handle (copy-on-write) and
//! dropping cycle without the allocator. And what the pool must never do:
//! recycle an oversize frame or a disabled pool's, or leak a frame that
//! outlives its pool.
//!
//! Its own test binary, for the counting allocator below. It counts per
//! thread, so each test reads only what its own thread allocated while the
//! harness and the other tests run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use unp_buffers::{frame_stats, live_frames, reset_frame_stats, FramePool, FrameStats};

thread_local! {
    /// This thread's allocations, and the bytes it allocated minus those
    /// it freed.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    ALLOCS.with(|a| a.set(a.get() + 1));
    LIVE.with(|l| l.set(l.get() + bytes as i64));
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
        // One allocation of the new size; the old block is released.
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's `(allocations, live bytes)` so far.
fn heap() -> (u64, i64) {
    (ALLOCS.with(Cell::get), LIVE.with(Cell::get))
}

const BUF: usize = 256;
const HEADROOM: usize = 54;
const PAYLOAD: [u8; 100] = [0x5a; 100];

/// One frame's life on the data path: allocate, hand out a second handle
/// and a window, drop the first, write through a handle that shares the
/// backing (copy-on-write into a second backing), drop everything.
fn cycle(pool: &FramePool) {
    let f = pool.alloc(HEADROOM, &PAYLOAD);
    let g = f.clone();
    let s = f.slice(2, 10);
    drop(f);
    let mut w = g.clone();
    w.as_mut_slice()[0] ^= 0xff;
    assert!(!w.ptr_eq(&g) && s.ptr_eq(&g));
    drop((g, s, w));
}

/// Runs what a first use of the pool and the journal's thread-locals set
/// up, so the readings after it see only steady-state work.
fn warm() {
    cycle(&FramePool::new(BUF, 2));
}

#[test]
fn a_warm_pool_cycles_frames_without_a_heap_allocation() {
    let pool = FramePool::new(BUF, 8);
    // The two backings one cycle holds at once, and the freelist's own
    // storage.
    for _ in 0..4 {
        cycle(&pool);
    }
    assert_eq!(pool.free_buffers(), 2);
    let base = live_frames();
    reset_frame_stats();
    let (allocs, live) = heap();
    for _ in 0..1_000 {
        cycle(&pool);
    }
    let (allocs_after, live_after) = heap();
    assert_eq!(
        allocs_after - allocs,
        0,
        "heap allocations in 1,000 warm cycles"
    );
    assert_eq!(
        live_after, live,
        "live heap bytes moved over 1,000 warm cycles"
    );
    assert_eq!(live_frames(), base, "a cycle left a backing live");
    assert_eq!(
        frame_stats(),
        FrameStats {
            frames_fresh: 0,
            frames_recycled: 2_000,
            cow_copies: 1_000,
            bytes_copied: 1_000 * 2 * PAYLOAD.len() as u64,
        },
        "every backing came off the freelist, one per alloc and one per copy-on-write"
    );
}

#[test]
fn a_frame_that_outlives_its_pool_is_freed_not_recycled() {
    warm();
    let base = live_frames();
    let (_, live) = heap();
    let pool = FramePool::new(BUF, 8);
    let f = pool.alloc(HEADROOM, b"outlives its pool");
    let mut shared = f.clone();
    drop(pool);
    // With the pool gone, copy-on-write takes an unpooled backing.
    reset_frame_stats();
    shared.as_mut_slice()[0] = b'O';
    assert_eq!(frame_stats().frames_fresh, 1);
    assert_eq!(live_frames(), base + 2);
    drop(f);
    drop(shared);
    assert_eq!(live_frames(), base, "both backings released");
    assert_eq!(
        heap().1,
        live,
        "the pool, its frames or their backings leaked"
    );
}

#[test]
fn oversize_and_disabled_pool_frames_are_never_recycled() {
    warm();
    let base = live_frames();
    let (_, live) = heap();
    let pool = FramePool::new(BUF, 8);
    let disabled = FramePool::disabled(BUF);
    reset_frame_stats();
    for _ in 0..3 {
        drop(pool.alloc(HEADROOM, &[1; BUF]));
        drop(disabled.alloc(HEADROOM, b"x"));
    }
    let st = frame_stats();
    assert_eq!((st.frames_fresh, st.frames_recycled), (6, 0));
    assert_eq!((pool.free_buffers(), disabled.free_buffers()), (0, 0));
    assert_eq!(live_frames(), base);
    drop((pool, disabled));
    assert_eq!(heap().1, live, "an unrecycled backing leaked");
}
