//! `unp-buffers` — the buffer layer.
//!
//! "The buffer layer in a communication system manages data buffers between
//! the user space, the kernel and the host-network interface" (paper §2.2).
//! This crate provides:
//!
//! * [`Frame`] — a reference-counted packet buffer with headroom, so
//!   protocol layers prepend headers without copying (the mbuf idiom) and
//!   receive narrows a window instead of copying out. Contiguous rather
//!   than an mbuf *chain*: chains exist to avoid copies in scattered kernel
//!   allocators, which a simulation does not have; headroom alone
//!   preserves the property that matters (no per-layer copy).
//! * [`FramePool`] — the recycled backing buffers behind frames, modelling
//!   the memory "created by the network I/O module and the registry server
//!   for holding network packets ... kept pinned for the duration of the
//!   connection and shared with the application". (The bounded rings that
//!   hold frames for a library are the kernel crate's own.)
//! * [`BqiTable`] — the AN1 controller's buffer-queue-index table: a
//!   link-header index naming a ring of host buffers, with strict access
//!   control ("access control to the index is maintained through memory
//!   protection").
//! * [`RingId`] and [`OwnerTag`] — the ids those tables are keyed and
//!   access-controlled by.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

/// Counters for the zero-copy frame path, kept thread-local because the
/// simulator is single-threaded. `repro-tables --timings` reports the
/// deltas around each table run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Backing buffers obtained from the heap allocator.
    pub frames_fresh: u64,
    /// Backing buffers reused from a [`FramePool`] freelist.
    pub frames_recycled: u64,
    /// Copy-on-write events (a writer mutated a shared frame).
    pub cow_copies: u64,
    /// Bytes memcpy'd by frame operations (payload copy-in and COW).
    pub bytes_copied: u64,
}

thread_local! {
    static FRAME_STATS: Cell<FrameStats> = const { Cell::new(FrameStats {
        frames_fresh: 0,
        frames_recycled: 0,
        cow_copies: 0,
        bytes_copied: 0,
    }) };
}

/// Snapshot of the thread's frame counters.
pub fn frame_stats() -> FrameStats {
    FRAME_STATS.with(|s| s.get())
}

/// Resets the thread's frame counters to zero.
pub fn reset_frame_stats() {
    FRAME_STATS.with(|s| s.set(FrameStats::default()));
}

fn bump_stats(f: impl FnOnce(&mut FrameStats)) {
    FRAME_STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

thread_local! {
    static LIVE_FRAMES: Cell<u64> = const { Cell::new(0) };
}

/// Number of frame backing buffers currently alive on this thread (every
/// COW divergence counts as its own backing). The robustness suite's leak
/// oracle: after a world and its engine drop, this must return to its
/// pre-run reading — a higher value means a ring, park list, or channel
/// still pins packet memory.
pub fn live_frames() -> u64 {
    LIVE_FRAMES.with(|c| c.get())
}

/// A frame's buffer and the pool it returns to. It is allocated once, as
/// an `Rc`, and the whole `Rc` is what a pool's freelist keeps: a recycled
/// frame makes no allocator trip, header included.
struct Backing {
    data: Vec<u8>,
    pool: Weak<RefCell<PoolInner>>,
}

/// Counts `backing` live as it is handed to a new frame and journals it.
/// No frame id: ids are minted after the backing exists (and a COW
/// divergence keeps its parent's id), so the pool-accounting checker
/// chains the live counts instead of joining frames.
fn went_live(backing: Rc<Backing>) -> Rc<Backing> {
    let live = LIVE_FRAMES.with(|c| {
        let live = c.get() + 1;
        c.set(live);
        live
    });
    unp_trace::emit(None, || unp_trace::Event::FrameAlloc { live });
    backing
}

/// A fresh backing no pool takes back.
fn unpooled(data: Vec<u8>) -> Rc<Backing> {
    bump_stats(|s| s.frames_fresh += 1);
    went_live(Rc::new(Backing {
        data,
        pool: Weak::new(),
    }))
}

struct PoolInner {
    buf_size: usize,
    max_free: usize,
    /// Backings no frame holds, each the only handle to its `Rc`.
    free: Vec<Rc<Backing>>,
}

/// A freelist of fixed-size backing buffers for [`Frame`]s.
///
/// This models the pinned packet memory of the paper's network I/O module:
/// buffers are carved out once and recycled, so the steady-state data path
/// never touches the general allocator. Dropping the last handle to a
/// pooled frame returns its backing buffer to the freelist automatically.
#[derive(Clone)]
pub struct FramePool {
    inner: Rc<RefCell<PoolInner>>,
}

impl std::fmt::Debug for FramePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.inner.borrow();
        f.debug_struct("FramePool")
            .field("buf_size", &p.buf_size)
            .field("free", &p.free.len())
            .field("max_free", &p.max_free)
            .finish()
    }
}

impl FramePool {
    /// A pool of `buf_size`-byte buffers keeping at most `max_free` on the
    /// freelist (excess buffers fall back to the allocator on drop).
    pub fn new(buf_size: usize, max_free: usize) -> FramePool {
        FramePool {
            inner: Rc::new(RefCell::new(PoolInner {
                buf_size,
                max_free,
                free: Vec::new(),
            })),
        }
    }

    /// A pool that never recycles — every allocation is fresh. Used by the
    /// `--timings` baseline to measure what the freelist saves.
    pub fn disabled(buf_size: usize) -> FramePool {
        FramePool::new(buf_size, 0)
    }

    /// Buffers currently sitting on the freelist.
    pub fn free_buffers(&self) -> usize {
        self.inner.borrow().free.len()
    }

    /// The fixed backing-buffer size this pool hands out.
    pub fn buf_size(&self) -> usize {
        self.inner.borrow().buf_size
    }

    /// A live backing of at least `min_len` bytes, recycled when it fits
    /// and the freelist has one. Its first `headroom` bytes read zero;
    /// the caller overwrites the window after them, and nothing past the
    /// window is ever visible, so a recycled buffer shows no earlier
    /// frame's bytes without being cleared whole.
    fn take_buf(&self, min_len: usize, headroom: usize) -> Rc<Backing> {
        let mut p = self.inner.borrow_mut();
        let recycled = if min_len <= p.buf_size {
            p.free.pop()
        } else {
            None
        };
        let backing = match recycled {
            Some(mut backing) => {
                bump_stats(|s| s.frames_recycled += 1);
                Rc::get_mut(&mut backing)
                    .expect("a freelisted backing is unique")
                    .data[..headroom]
                    .fill(0);
                backing
            }
            None => {
                let size = p.buf_size.max(min_len);
                drop(p);
                bump_stats(|s| s.frames_fresh += 1);
                Rc::new(Backing {
                    data: vec![0u8; size],
                    pool: Rc::downgrade(&self.inner),
                })
            }
        };
        went_live(backing)
    }

    /// Allocates a frame containing `payload` with `headroom` bytes
    /// reserved in front for headers. The one memcpy here (payload into
    /// the buffer) is the send path's single data copy.
    pub fn alloc(&self, headroom: usize, payload: &[u8]) -> Frame {
        let window = headroom..headroom + payload.len();
        let mut backing = self.take_buf(window.end, headroom);
        if !payload.is_empty() {
            bump_stats(|s| s.bytes_copied += payload.len() as u64);
            Rc::get_mut(&mut backing)
                .expect("fresh backing is unique")
                .data[window]
                .copy_from_slice(payload);
        }
        Frame {
            backing,
            head: headroom,
            len: payload.len(),
            id: unp_trace::next_frame_id(),
        }
    }
}

/// A reference-counted, pool-backed packet buffer.
///
/// A `Frame` is a cheap handle (`clone` bumps a refcount) over a backing
/// buffer, exposing a `[head, head+len)` window. Headers are prepended
/// into headroom ([`Frame::prepend`]) and stripped without copying
/// ([`Frame::pull`] narrows the window). Mutating a frame whose backing is
/// shared with other handles triggers copy-on-write, so holders never
/// observe each other's writes. When the last handle drops, a pooled
/// backing buffer returns to its [`FramePool`] freelist.
pub struct Frame {
    backing: Rc<Backing>,
    head: usize,
    len: usize,
    /// Journal identity: stamped once at creation, shared by every clone
    /// and slice, so the event journal can follow one packet's bytes from
    /// NIC to application regardless of how many handles exist.
    id: u64,
}

impl Frame {
    /// Wraps a complete packet in an unpooled frame with no headroom.
    pub fn from_vec(data: Vec<u8>) -> Frame {
        let len = data.len();
        Frame {
            backing: unpooled(data),
            head: 0,
            len,
            id: unp_trace::next_frame_id(),
        }
    }

    /// The frame's journal identity. Clones and slices keep their
    /// parent's id — they are views of the same packet. COW divergence
    /// also keeps the id: the bytes still belong to the same logical
    /// packet's lifecycle.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Remaining headroom available for prepending.
    pub fn headroom(&self) -> usize {
        self.head
    }

    /// Current window length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.backing.data[self.head..self.head + self.len]
    }

    /// Number of live handles sharing this frame's backing buffer.
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(&self.backing)
    }

    /// True if both handles view the same backing buffer (no copy between
    /// them has occurred).
    pub fn ptr_eq(&self, other: &Frame) -> bool {
        Rc::ptr_eq(&self.backing, &other.backing)
    }

    /// Ensures this handle is the sole owner of its backing, copying the
    /// current window (copy-on-write) if it is shared.
    fn make_unique(&mut self) {
        if Rc::strong_count(&self.backing) == 1 {
            return;
        }
        bump_stats(|s| {
            s.cow_copies += 1;
            s.bytes_copied += self.len as u64;
        });
        let size = self.backing.data.len();
        let mut backing = match self.backing.pool.upgrade() {
            Some(inner) => FramePool { inner }.take_buf(size, self.head),
            None => unpooled(vec![0u8; size]),
        };
        let window = self.head..self.head + self.len;
        let fresh = &mut Rc::get_mut(&mut backing)
            .expect("fresh backing is unique")
            .data;
        fresh[window.clone()].copy_from_slice(&self.backing.data[window]);
        self.backing = backing;
    }

    /// Extends the window front by `n` bytes (a header about to be filled
    /// in) and returns the new front region. Copy-on-write if shared.
    ///
    /// # Panics
    /// Panics if headroom is insufficient — layers declare their
    /// worst-case need up front.
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        assert!(
            n <= self.head,
            "insufficient headroom: need {n}, have {}",
            self.head
        );
        self.make_unique();
        self.head -= n;
        self.len += n;
        let head = self.head;
        &mut Rc::get_mut(&mut self.backing)
            .expect("unique after make_unique")
            .data[head..head + n]
    }

    /// Strips `n` bytes from the front (consuming a parsed header). Pure
    /// window narrowing: never copies, shared or not.
    pub fn pull(&mut self, n: usize) {
        assert!(n <= self.len, "pull past end");
        self.head += n;
        self.len -= n;
    }

    /// A new handle over `[start, end)` of this frame's window, sharing
    /// the same backing buffer (no copy).
    pub fn slice(&self, start: usize, end: usize) -> Frame {
        assert!(start <= end && end <= self.len, "slice out of range");
        Frame {
            backing: Rc::clone(&self.backing),
            head: self.head + start,
            len: end - start,
            id: self.id,
        }
    }

    /// Mutable window contents. Copy-on-write if shared.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.make_unique();
        let (head, len) = (self.head, self.len);
        &mut Rc::get_mut(&mut self.backing)
            .expect("unique after make_unique")
            .data[head..head + len]
    }

    /// Copies the window out into an owned `Vec` (counted as copied
    /// bytes — the escape hatch the zero-copy path avoids).
    pub fn to_vec(&self) -> Vec<u8> {
        bump_stats(|s| s.bytes_copied += self.len as u64);
        self.as_slice().to_vec()
    }
}

impl Clone for Frame {
    /// Refcount bump; never copies frame bytes.
    fn clone(&self) -> Frame {
        Frame {
            backing: Rc::clone(&self.backing),
            head: self.head,
            len: self.len,
            id: self.id,
        }
    }
}

impl Drop for Frame {
    /// The last handle out releases the backing: it stops counting as live
    /// and, if it is a full-size buffer of a pool with room, its whole `Rc`
    /// goes on the freelist (the clone pushed there outlives this handle).
    fn drop(&mut self) {
        if Rc::strong_count(&self.backing) != 1 {
            return;
        }
        let live = LIVE_FRAMES.with(|c| {
            let live = c.get().saturating_sub(1);
            c.set(live);
            live
        });
        unp_trace::emit(None, || unp_trace::Event::FrameFree { live });
        if let Some(pool) = self.backing.pool.upgrade() {
            let mut p = pool.borrow_mut();
            if p.free.len() < p.max_free && self.backing.data.len() == p.buf_size {
                p.free.push(Rc::clone(&self.backing));
            }
        }
    }
}

impl std::ops::Deref for Frame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("len", &self.len)
            .field("headroom", &self.head)
            .field("refs", &self.ref_count())
            .finish()
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Frame {}

impl PartialEq<Vec<u8>> for Frame {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Frame> for Vec<u8> {
    fn eq(&self, other: &Frame) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Frame {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Frame {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

/// Identifier of a receive ring registered in a [`BqiTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingId(pub u32);

/// A tenant identity: the unit of access control *and* resource
/// accounting. Every channel, BQI entry, and port right is owned by a
/// tenant (a process/library id), and the kernel's per-tenant budgets
/// (ring-slot quota, transmit credit, channel cap) are charged against
/// this id. `OwnerTag(0)` is the kernel itself and is exempt from budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerTag(pub u64);

/// The AN1 controller's buffer-queue-index table.
///
/// "A single field (called the buffer queue index, BQI) in the link-level
/// packet header provides a level of indirection into a table kept in the
/// controller... Strict access control to the index is maintained through
/// memory protection." BQI 0 is reserved and "refers to protected memory
/// within the kernel."
#[derive(Debug)]
pub struct BqiTable {
    entries: Vec<Option<(OwnerTag, RingId)>>,
}

impl BqiTable {
    /// Owner tag representing the kernel itself.
    pub const KERNEL_OWNER: OwnerTag = OwnerTag(0);

    /// Creates a table with `size` entries; entry 0 is pre-bound to the
    /// kernel's default ring (`kernel_ring`).
    pub fn new(size: usize, kernel_ring: RingId) -> BqiTable {
        assert!(size >= 1);
        let mut entries = vec![None; size];
        entries[0] = Some((Self::KERNEL_OWNER, kernel_ring));
        BqiTable { entries }
    }

    /// Allocates a fresh non-zero BQI bound to `ring` on behalf of `owner`.
    /// Returns `None` when the table is full.
    pub fn allocate(&mut self, owner: OwnerTag, ring: RingId) -> Option<u16> {
        let idx = self.entries.iter().skip(1).position(Option::is_none)? + 1;
        self.entries[idx] = Some((owner, ring));
        Some(idx as u16)
    }

    /// Resolves a BQI from an incoming packet to its ring. Unknown indexes
    /// fall back to BQI 0's kernel ring, as the hardware would deliver
    /// unmatched traffic to protected kernel memory.
    pub fn resolve(&self, bqi: u16) -> RingId {
        match self.entries.get(bqi as usize).copied().flatten() {
            Some((_, ring)) => ring,
            None => self.entries[0].expect("entry 0 always bound").1,
        }
    }

    /// Frees a BQI. Only the owner (or the kernel) may free it; returns
    /// false otherwise, enforcing the protection model.
    pub fn free(&mut self, bqi: u16, owner: OwnerTag) -> bool {
        if bqi == 0 {
            return false; // the kernel entry is permanent
        }
        match self.entries.get(bqi as usize).copied().flatten() {
            Some((o, _)) if o == owner || owner == Self::KERNEL_OWNER => {
                self.entries[bqi as usize] = None;
                true
            }
            _ => false,
        }
    }

    /// Frees every entry bound to `owner` (the kernel's sweep after a
    /// process death). Returns the freed indexes, ascending.
    pub fn reclaim_owner(&mut self, owner: OwnerTag) -> Vec<u16> {
        let mut freed = Vec::new();
        for (i, e) in self.entries.iter_mut().enumerate().skip(1) {
            if matches!(e, Some((o, _)) if *o == owner) {
                *e = None;
                freed.push(i as u16);
            }
        }
        freed
    }

    /// Number of bound entries (including the permanent kernel entry 0).
    pub fn bound_entries(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// The owner of a BQI, if bound.
    pub fn owner(&self, bqi: u16) -> Option<OwnerTag> {
        self.entries
            .get(bqi as usize)
            .copied()
            .flatten()
            .map(|(o, _)| o)
    }
}

#[cfg(test)]
mod tests {
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
}
