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
//! * [`Staged`] — a payload copied into a pooled buffer behind headroom
//!   for its headers, before it is a packet: what a sender holds between
//!   producing a segment and transmitting it. Sealing it mints the frame.
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

mod bqi;

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

pub use bqi::{BqiTable, OwnerTag, RingId};

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
    /// Counted in [`live_frames`] and journaled: from when a frame first
    /// holds it until its last handle drops. A staged payload's backing
    /// is not a frame's yet.
    live: Cell<bool>,
}

/// Counts `backing` live as it is handed to a new frame and journals it.
/// No frame id: ids are minted after the backing exists (and a COW
/// divergence keeps its parent's id), so the pool-accounting checker
/// chains the live counts instead of joining frames.
fn went_live(backing: Handle) -> Handle {
    backing.0.live.set(true);
    let live = LIVE_FRAMES.with(|c| {
        let live = c.get() + 1;
        c.set(live);
        live
    });
    unp_trace::emit(None, || unp_trace::Event::FrameAlloc { live });
    backing
}

/// A fresh backing no pool takes back.
fn unpooled(data: Vec<u8>) -> Handle {
    bump_stats(|s| s.frames_fresh += 1);
    went_live(Handle(Rc::new(Backing {
        data,
        pool: Weak::new(),
        live: Cell::new(false),
    })))
}

/// One handle on a backing, shared by every [`Frame`] and [`Staged`]
/// viewing it.
struct Handle(Rc<Backing>);

impl Drop for Handle {
    /// The last handle out releases the backing: it stops counting as live
    /// and, if it is a full-size buffer of a pool with room, its whole `Rc`
    /// goes on the freelist (the clone pushed there outlives this handle).
    fn drop(&mut self) {
        if Rc::strong_count(&self.0) != 1 {
            return;
        }
        if self.0.live.replace(false) {
            let live = LIVE_FRAMES.with(|c| {
                let live = c.get().saturating_sub(1);
                c.set(live);
                live
            });
            unp_trace::emit(None, || unp_trace::Event::FrameFree { live });
        }
        if let Some(pool) = self.0.pool.upgrade() {
            let mut p = pool.borrow_mut();
            if p.free.len() < p.max_free && self.0.data.len() == p.buf_size {
                p.free.push(Rc::clone(&self.0));
            }
        }
    }
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

    /// A backing of at least `min_len` bytes, recycled when it fits and
    /// the freelist has one; [`went_live`] once a frame holds it. Its
    /// first `headroom` bytes read zero; the caller overwrites the window
    /// after them, and nothing past the window is ever visible, so a
    /// recycled buffer shows no earlier frame's bytes without being
    /// cleared whole.
    fn take_buf(&self, min_len: usize, headroom: usize) -> Handle {
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
                    live: Cell::new(false),
                })
            }
        };
        Handle(backing)
    }

    /// Allocates a frame containing `payload` with `headroom` bytes
    /// reserved in front for headers: [`FramePool::stage`], sealed at once.
    pub fn alloc(&self, headroom: usize, payload: &[u8]) -> Frame {
        self.stage(headroom, [payload, &[]]).seal()
    }

    /// Copies `parts`, in order, into one pooled buffer behind `headroom`
    /// bytes reserved for headers. This memcpy is the send path's single
    /// data copy, counted once in `bytes_copied`. The buffer is not a
    /// frame yet: it has no id, and it counts in [`live_frames`] and the
    /// journal only from [`Staged::seal`], where the frame comes to be.
    /// With nothing to copy, the buffer is taken when the frame is sealed:
    /// a header-only segment holds none while it waits to be built.
    pub fn stage(&self, headroom: usize, parts: [&[u8]; 2]) -> Staged {
        let [front, back] = parts;
        let len = front.len() + back.len();
        let body = if len == 0 {
            Body::Deferred(self.clone())
        } else {
            let mut backing = self.take_buf(headroom + len, headroom);
            bump_stats(|s| s.bytes_copied += len as u64);
            let data = &mut Rc::get_mut(&mut backing.0)
                .expect("fresh backing is unique")
                .data;
            data[headroom..headroom + front.len()].copy_from_slice(front);
            data[headroom + front.len()..headroom + len].copy_from_slice(back);
            Body::Copied(backing)
        };
        // A segment's headers and payload are far below 4 GiB.
        Staged {
            body,
            head: headroom as u32,
            len: len as u32,
        }
    }
}

/// A payload in a pooled buffer behind headroom for its headers, not yet
/// a packet: [`FramePool::stage`] filled it, and [`Staged::seal`] turns it
/// into a [`Frame`] with a journal id. A sender stages when it produces a
/// segment and seals when the segment is built, so frame ids and the
/// journal's pool records follow transmission order, not production
/// order. Dropped unsealed, the buffer returns to its pool unjournaled.
/// 24 bytes, like the `Vec` it stands in for.
pub struct Staged {
    body: Body,
    head: u32,
    len: u32,
}

/// Where a [`Staged`] payload is.
enum Body {
    /// In this backing, behind the headroom.
    Copied(Handle),
    /// Nowhere: it is empty, and the backing comes from this pool when
    /// the frame is sealed.
    Deferred(FramePool),
}

impl Staged {
    /// Payload bytes staged.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if nothing was staged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Headroom reserved in front of the payload.
    fn headroom(&self) -> usize {
        self.head as usize
    }

    /// The staged payload.
    pub fn as_slice(&self) -> &[u8] {
        match &self.body {
            Body::Copied(backing) => &backing.0.data[self.headroom()..][..self.len()],
            Body::Deferred(_) => &[],
        }
    }

    /// The staged payload as a frame, minting its journal id now.
    pub fn seal(self) -> Frame {
        let (head, len) = (self.headroom(), self.len());
        let backing = match self.body {
            Body::Copied(backing) => backing,
            Body::Deferred(pool) => pool.take_buf(head, head),
        };
        Frame {
            backing: went_live(backing),
            head,
            len,
            id: unp_trace::next_frame_id(),
        }
    }
}

impl std::fmt::Debug for Staged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Staged")
            .field("len", &self.len)
            .field("headroom", &self.head)
            .finish()
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
    backing: Handle,
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
        &self.backing.0.data[self.head..self.head + self.len]
    }

    /// Number of live handles sharing this frame's backing buffer.
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(&self.backing.0)
    }

    /// True if both handles view the same backing buffer (no copy between
    /// them has occurred).
    pub fn ptr_eq(&self, other: &Frame) -> bool {
        Rc::ptr_eq(&self.backing.0, &other.backing.0)
    }

    /// Ensures this handle is the sole owner of its backing, copying the
    /// current window (copy-on-write) if it is shared.
    fn make_unique(&mut self) {
        if Rc::strong_count(&self.backing.0) == 1 {
            return;
        }
        bump_stats(|s| {
            s.cow_copies += 1;
            s.bytes_copied += self.len as u64;
        });
        let size = self.backing.0.data.len();
        let mut backing = match self.backing.0.pool.upgrade() {
            Some(inner) => went_live(FramePool { inner }.take_buf(size, self.head)),
            None => unpooled(vec![0u8; size]),
        };
        let window = self.head..self.head + self.len;
        let fresh = &mut Rc::get_mut(&mut backing.0)
            .expect("fresh backing is unique")
            .data;
        fresh[window.clone()].copy_from_slice(&self.backing.0.data[window]);
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
        &mut Rc::get_mut(&mut self.backing.0)
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
            backing: Handle(Rc::clone(&self.backing.0)),
            head: self.head + start,
            len: end - start,
            id: self.id,
        }
    }

    /// Mutable window contents. Copy-on-write if shared.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.make_unique();
        let (head, len) = (self.head, self.len);
        &mut Rc::get_mut(&mut self.backing.0)
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
            backing: Handle(Rc::clone(&self.backing.0)),
            head: self.head,
            len: self.len,
            id: self.id,
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

#[cfg(test)]
mod tests;
