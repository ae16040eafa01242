//! The allocation budget of the steady-state data path, where tier-1 can
//! see it: a Table-2 bulk transfer under the user-level library may touch
//! the general allocator only a few times per frame. What is left is named
//! in DESIGN.md ("Events are data; the allocation budget"): the frame's
//! `Rc` header, the payload `Vec` the TCB hands out, the application's
//! write buffers. A boxed closure per event or a fresh `Vec` per call on
//! the per-frame path shows up here as a count several times the bound.
//!
//! Its own test binary: the counting allocator is process-wide, so it must
//! not share a process with tests that run concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use unp::core::experiments::Transfer;
use unp::core::world::{Network, OrgKind};
use unp::sim::MILLIS;
use unp::trace::Ctr;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `System`, with every allocation counted.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counter never influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_steady_state_bulk_frame_stays_within_its_allocation_budget() {
    // 1 MB at ~8 Mb/s lasts about a simulated second. The window opens
    // once the handshake, slow start and every buffer's growth are behind
    // (200 ms) and closes well before the FIN (700 ms).
    let window = Rc::new(Cell::new([(0u64, 0u64); 2]));
    let transfer = Transfer::table2(Network::Ethernet, OrgKind::UserLibrary, 1460, 1_000_000);
    transfer.run(|_, eng| {
        for (edge, at) in [200 * MILLIS, 700 * MILLIS].into_iter().enumerate() {
            let window = Rc::clone(&window);
            eng.at(at, move |w, _| {
                let mut edges = window.get();
                edges[edge] = (ALLOCS.load(Relaxed), w.metrics.get(Ctr::FramesSent));
                window.set(edges);
            });
        }
    });
    let [(allocs_open, frames_open), (allocs_close, frames_close)] = window.get();
    let frames = frames_close - frames_open;
    assert!(frames > 300, "the window saw only {frames} frames");
    let per_frame = (allocs_close - allocs_open) as f64 / frames as f64;
    assert!(
        per_frame <= 3.5,
        "{per_frame:.2} allocations per frame in steady state (budget 3.5)"
    );
}
