//! The counting allocator: every heap allocation the process makes, seen
//! from outside the stack.
//!
//! The frame pool's own counters (`unp_buffers::frame_stats`) see only the
//! pooled frame buffer; the boxed engine closures, per-call action vectors
//! and payload `Vec`s around it are invisible to them. Wrapping the system
//! allocator is the one vantage point that sees all of them without touching
//! a layer's source. The counters are statistics that publish no other data,
//! so `Relaxed` is enough; the benchmark itself runs on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System`, counted.
pub struct Counting;

fn grew(bytes: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A realloc is one allocation of the new size: the old block is
            // released whether or not it moved.
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// A reading of the allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations made (`alloc`, `alloc_zeroed` and `realloc`).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Snapshot {
    /// Allocations and bytes since `earlier`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Reads the cumulative counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Bytes currently live on the heap.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Restarts the live-heap high-water mark from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Live-heap high-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}
