//! The frame pool's and the BQI table's unit tests.

use super::*;

#[test]
fn frame_clone_is_refcount_bump() {
    let pool = FramePool::new(256, 8);
    reset_frame_stats();
    let f = pool.alloc(54, b"payload");
    let before = frame_stats();
    let g = f.clone();
    let h = f.clone();
    assert_eq!(frame_stats(), before, "clone must not allocate or copy");
    assert_eq!(f.ref_count(), 3);
    assert!(f.ptr_eq(&g) && f.ptr_eq(&h));
    assert_eq!(g.as_slice(), b"payload");
}

#[test]
fn frame_prepend_pull_identity() {
    let pool = FramePool::new(256, 8);
    let mut f = pool.alloc(34, b"data");
    f.prepend(20).copy_from_slice(&[2u8; 20]);
    f.prepend(14).copy_from_slice(&[1u8; 14]);
    assert_eq!(f.len(), 38);
    assert_eq!(&f[..14], &[1u8; 14]);
    f.pull(14);
    assert_eq!(&f[..20], &[2u8; 20]);
    f.pull(20);
    assert_eq!(f.as_slice(), b"data");
    assert_eq!(f.headroom(), 34);
}

#[test]
#[should_panic(expected = "insufficient headroom")]
fn frame_headroom_overdraft_panics() {
    let pool = FramePool::new(64, 2);
    let mut f = pool.alloc(4, b"x");
    f.prepend(5);
}

#[test]
fn frame_cow_on_shared_mutation() {
    let pool = FramePool::new(256, 8);
    let mut a = pool.alloc(20, b"hello");
    let b = a.clone();
    assert!(a.ptr_eq(&b));
    reset_frame_stats();
    a.as_mut_slice()[0] = b'H';
    let st = frame_stats();
    assert_eq!(st.cow_copies, 1, "shared mutation must copy-on-write");
    assert!(!a.ptr_eq(&b), "writer must have diverged");
    assert_eq!(a.as_slice(), b"Hello");
    assert_eq!(b.as_slice(), b"hello", "reader must be unaffected");
    // Now unique: further mutation is in place.
    reset_frame_stats();
    a.as_mut_slice()[1] = b'E';
    assert_eq!(frame_stats().cow_copies, 0);
}

#[test]
fn frame_prepend_on_shared_frame_cows() {
    let pool = FramePool::new(256, 8);
    let mut a = pool.alloc(14, b"ip-packet");
    let tap_copy = a.clone();
    a.prepend(14).copy_from_slice(&[0xee; 14]);
    assert_eq!(tap_copy.as_slice(), b"ip-packet");
    assert_eq!(a.len(), 23);
    assert_eq!(&a[..14], &[0xee; 14]);
}

#[test]
fn frame_pull_never_copies() {
    let pool = FramePool::new(256, 8);
    let mut a = pool.alloc(0, b"hdrpayload");
    let b = a.clone();
    reset_frame_stats();
    a.pull(3);
    assert_eq!(frame_stats().bytes_copied, 0);
    assert!(a.ptr_eq(&b), "pull is window narrowing, not a copy");
    assert_eq!(a.as_slice(), b"payload");
    assert_eq!(b.as_slice(), b"hdrpayload");
}

#[test]
fn frame_slice_shares_backing() {
    let pool = FramePool::new(256, 8);
    let f = pool.alloc(0, b"abcdef");
    let s = f.slice(2, 5);
    assert_eq!(s.as_slice(), b"cde");
    assert!(s.ptr_eq(&f));
}

#[test]
fn pool_recycles_backing_buffers() {
    let pool = FramePool::new(128, 4);
    reset_frame_stats();
    {
        let _f = pool.alloc(10, b"one");
    }
    assert_eq!(pool.free_buffers(), 1);
    {
        let _g = pool.alloc(10, b"two");
    }
    let st = frame_stats();
    assert_eq!(st.frames_fresh, 1, "second alloc must reuse the buffer");
    assert_eq!(st.frames_recycled, 1);
}

#[test]
fn pool_recycle_waits_for_last_handle() {
    let pool = FramePool::new(128, 4);
    let f = pool.alloc(0, b"shared");
    let g = f.clone();
    drop(f);
    assert_eq!(pool.free_buffers(), 0, "still one live handle");
    drop(g);
    assert_eq!(pool.free_buffers(), 1);
}

#[test]
fn pool_oversize_alloc_is_fresh_and_not_recycled() {
    let pool = FramePool::new(64, 4);
    reset_frame_stats();
    {
        let f = pool.alloc(0, &[7u8; 200]);
        assert_eq!(f.len(), 200);
    }
    assert_eq!(frame_stats().frames_fresh, 1);
    assert_eq!(
        pool.free_buffers(),
        0,
        "odd-size buffers must not pollute the freelist"
    );
}

#[test]
fn disabled_pool_never_recycles() {
    let pool = FramePool::disabled(128);
    {
        let _f = pool.alloc(0, b"x");
    }
    assert_eq!(pool.free_buffers(), 0);
}

#[test]
fn recycled_frames_start_zeroed() {
    let pool = FramePool::new(64, 4);
    {
        let mut f = pool.alloc(8, b"dirty-bytes-here");
        f.as_mut_slice().fill(0xff);
    }
    let mut g = pool.alloc(8, b"");
    assert_eq!(g.prepend(8), &[0u8; 8], "headroom must come back clean");
}

/// A pool whose freelist holds `n` buffers written 0xff end to end.
fn dirty_pool(n: usize) -> FramePool {
    let pool = FramePool::new(64, 4);
    let dirty: Vec<Frame> = (0..n).map(|_| pool.alloc(0, &[0xff; 64])).collect();
    drop(dirty);
    assert_eq!(pool.free_buffers(), n);
    pool
}

/// Only the headroom of a recycled buffer is cleared (the payload copy
/// overwrites the window), and that is enough: no byte of an earlier
/// frame — another tenant's, on a shared pool — is readable.
#[test]
fn a_recycled_buffer_shows_no_earlier_frame_bytes() {
    let pool = dirty_pool(1);
    reset_frame_stats();
    let mut f = pool.alloc(40, b"short");
    assert_eq!(
        frame_stats().frames_recycled,
        1,
        "the dirty buffer came back"
    );
    assert_eq!(f.as_slice(), b"short");
    assert_eq!(f.prepend(40), &[0u8; 40], "headroom must read zeros");
    assert_eq!(&f[40..], b"short");
    assert_eq!(f.len(), 45);
}

#[test]
fn a_copy_on_write_into_a_recycled_buffer_shows_no_earlier_bytes() {
    let pool = dirty_pool(2);
    let mut a = pool.alloc(40, b"short");
    let b = a.clone();
    reset_frame_stats();
    a.as_mut_slice()[0] = b'S';
    let st = frame_stats();
    assert_eq!(
        (st.cow_copies, st.frames_recycled),
        (1, 1),
        "the writer diverged into the second dirty buffer"
    );
    assert_eq!(a.as_slice(), b"Short");
    assert_eq!(a.prepend(40), &[0u8; 40], "headroom must read zeros");
    assert_eq!(&a[40..], b"Short");
    assert_eq!(b.as_slice(), b"short", "reader must be unaffected");
}

#[test]
fn live_frames_tracks_backings() {
    let pool = FramePool::new(64, 4);
    let base = live_frames();
    let a = pool.alloc(0, b"x");
    let b = a.clone();
    assert_eq!(live_frames(), base + 1, "clones share one backing");
    let mut c = a.clone();
    c.as_mut_slice()[0] = b'y';
    assert_eq!(live_frames(), base + 2, "COW divergence adds a backing");
    drop(a);
    drop(b);
    drop(c);
    assert_eq!(live_frames(), base, "all backings released");
}

#[test]
fn staged_frames_take_their_ids_when_sealed() {
    let pool = FramePool::new(256, 8);
    let a = pool.stage(54, [b"first", b""]);
    let b = pool.stage(54, [b"sec", b"ond"]);
    let (b, a) = (b.seal(), a.seal());
    assert!(b.id() < a.id(), "ids follow sealing, not staging");
    assert_eq!(
        (a.as_slice(), b.as_slice()),
        (&b"first"[..], &b"second"[..])
    );
    assert_eq!((a.headroom(), b.headroom()), (54, 54));
    // What an event carrying it pays: no more than the `Vec` it replaces.
    assert!(std::mem::size_of::<Staged>() <= std::mem::size_of::<Vec<u8>>());
}

#[test]
fn a_staged_payload_is_copied_once() {
    let pool = FramePool::new(256, 8);
    reset_frame_stats();
    let staged = pool.stage(54, [b"two ", b"parts"]);
    assert_eq!(staged.as_slice(), b"two parts");
    assert_eq!(frame_stats().bytes_copied, 9);
    let mut f = staged.seal();
    f.prepend(20);
    assert_eq!(&f[20..], b"two parts");
    assert_eq!(
        frame_stats().bytes_copied,
        9,
        "sealing and prepending copy nothing"
    );
}

#[test]
fn a_staged_backing_is_a_live_frame_only_once_sealed() {
    let pool = FramePool::new(64, 4);
    let base = live_frames();
    // An empty payload holds no backing until sealed.
    let staged = pool.stage(40, [&[], &[]]);
    assert_eq!((staged.len(), staged.headroom()), (0, 40));
    let f = staged.seal();
    assert_eq!((live_frames(), f.headroom(), f.len()), (base + 1, 40, 0));
    drop(f);
    assert_eq!((live_frames(), pool.free_buffers()), (base, 1));
    // A payload holds its backing, counted live from the seal on.
    let staged = pool.stage(40, [b"x", &[]]);
    assert_eq!((live_frames(), pool.free_buffers()), (base, 0));
    let f = staged.seal();
    assert_eq!(live_frames(), base + 1);
    drop(f);
    // Dropped unsealed, it goes back to the pool uncounted.
    drop(pool.stage(40, [b"x", &[]]));
    assert_eq!((live_frames(), pool.free_buffers()), (base, 1));
}

#[test]
fn bqi_zero_is_kernel_default() {
    let t = BqiTable::new(8, RingId(0));
    assert_eq!(t.resolve(0), RingId(0));
    // Unknown index falls back to the kernel ring.
    assert_eq!(t.resolve(5), RingId(0));
    assert_eq!(t.resolve(9999), RingId(0));
}

#[test]
fn bqi_allocate_resolve_free() {
    let mut t = BqiTable::new(4, RingId(0));
    let owner = OwnerTag(42);
    let bqi = t.allocate(owner, RingId(7)).unwrap();
    assert_ne!(bqi, 0);
    assert_eq!(t.resolve(bqi), RingId(7));
    assert_eq!(t.owner(bqi), Some(owner));
    // A different owner cannot free it.
    assert!(!t.free(bqi, OwnerTag(43)));
    assert!(t.free(bqi, owner));
    assert_eq!(t.resolve(bqi), RingId(0));
}

#[test]
fn bqi_kernel_entry_cannot_be_freed() {
    let mut t = BqiTable::new(4, RingId(0));
    assert!(!t.free(0, BqiTable::KERNEL_OWNER));
}

#[test]
fn bqi_table_exhaustion() {
    let mut t = BqiTable::new(3, RingId(0));
    assert!(t.allocate(OwnerTag(1), RingId(1)).is_some());
    assert!(t.allocate(OwnerTag(1), RingId(2)).is_some());
    assert!(t.allocate(OwnerTag(1), RingId(3)).is_none());
}

#[test]
fn bqi_kernel_can_reclaim_any_entry() {
    let mut t = BqiTable::new(4, RingId(0));
    let bqi = t.allocate(OwnerTag(9), RingId(1)).unwrap();
    assert!(t.free(bqi, BqiTable::KERNEL_OWNER));
}
