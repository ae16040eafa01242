//! Protected shared buffering with batched notification: one bounded ring
//! per channel, shared with exactly one library, holding zero-copy
//! [`Frame`] handles whose pooled buffers model the paper's pinned slots.
//! A delivery signals only when no notification is pending, and a wakeup
//! ends only when the ring is empty. Every frame a ring refuses is refused
//! by [`Ring::place`], which names the [`Discard`] and journals it.

use std::collections::vec_deque::Drain;
use std::collections::VecDeque;

use unp_buffers::{Frame, OwnerTag};

use crate::tenant::Tenants;
use crate::{ChannelId, DemuxPath};

/// Where an incoming frame was delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered to a channel's shared ring. `signal` is true if a
    /// semaphore notification must be posted (false when a previous
    /// notification is still pending — the batching path).
    Channel {
        /// Receiving channel.
        id: ChannelId,
        /// Whether to post the wakeup semaphore.
        signal: bool,
        /// Filter instructions the 1993 model charges for this decision:
        /// what a linear scan over the active bindings interprets before
        /// accepting (zero on the hardware path). Reported identically
        /// whether the host mechanism was the flow table or the scan, so
        /// the reproduced tables are invariant to the fast path.
        filter_instrs: usize,
        /// Which demultiplexing machinery decided the delivery.
        path: DemuxPath,
        /// Ring occupancy after the push — the live backlog a windowed
        /// sampler watches.
        depth: u32,
    },
    /// No binding matched: delivered to protected kernel memory (BQI 0 /
    /// kernel default queue) for the in-kernel protocols or the registry.
    KernelDefault {
        /// Filter instructions interpreted before falling through.
        filter_instrs: usize,
        /// Which demultiplexing machinery decided the miss.
        path: DemuxPath,
    },
    /// The target channel's ring refused the frame, for the reason given.
    Dropped(Discard),
}

/// Why a channel's ring refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discard {
    /// Larger than a slot of the channel's shared region.
    Oversize,
    /// The ring held as many frames as the region has slots.
    RingFull,
    /// The ring had room but the slow-consumer pressure clamp did not:
    /// the injected fault, not load, is the cause.
    PressureShed,
    /// The ring had room but its tenant's aggregate ring-slot quota did
    /// not: the drop is charged to that tenant.
    TenantQuota {
        /// The tenant whose quota caused the drop.
        tenant: OwnerTag,
    },
}

/// Per-channel delivery and demultiplexing counters, reported by
/// [`crate::NetIoModule::channel_stats`] and handed to the registry at
/// teardown so it can flag bindings that keep missing the flow-table fast
/// path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Frames placed into the channel's ring.
    pub delivered: u64,
    /// Deliveries batched behind a pending notification (no fresh signal).
    pub batched: u64,
    /// Software deliveries decided by the exact-match flow table.
    pub flow_hits: u64,
    /// Software deliveries decided by the wildcard 3-tuple listen table.
    pub listen_hits: u64,
    /// Software deliveries decided by the filter scan.
    pub scan_fallbacks: u64,
}

/// The largest ring storage, in frames, kept when its channel is
/// destroyed: what a ring's first delivery allocates, which is all a
/// short connection's ring ever holds. A longer flow's backlog is freed,
/// not hoarded.
const SPARE_RING_FRAMES: usize = 4;

/// The emptied ring storage of destroyed channels, for the next ones
/// created.
#[derive(Default)]
pub(crate) struct RingSpare(Vec<VecDeque<Frame>>);

/// A channel's ring part.
pub(crate) struct Ring {
    /// Pinned-memory model: at most `capacity` frames of at most
    /// `slot_size` bytes may sit in the ring, exactly as if each occupied
    /// a slot of the channel's shared region.
    capacity: usize,
    slot_size: usize,
    /// Starts empty, in a destroyed channel's storage when one is spare,
    /// and grows to what is actually queued: the region above is a limit
    /// the checks enforce, not host memory to reserve (768 slots up front
    /// made an idle TIME_WAIT channel cost 24 KB).
    rx_ring: VecDeque<Frame>,
    /// True while a semaphore notification is posted but not yet consumed.
    notify_pending: bool,
    stats: ChannelStats,
}

impl Ring {
    pub(crate) fn new(capacity: usize, slot_size: usize, spare: &mut RingSpare) -> Ring {
        Ring {
            capacity,
            slot_size,
            rx_ring: spare.0.pop().unwrap_or_default(),
            notify_pending: false,
            stats: ChannelStats::default(),
        }
    }

    /// Ends a destroyed channel's ring: the frames still queued are
    /// dropped, front first, and small storage is kept in `spare`.
    pub(crate) fn retire(self, spare: &mut RingSpare) {
        let mut storage = self.rx_ring;
        storage.clear();
        if (1..=SPARE_RING_FRAMES).contains(&storage.capacity()) {
            spare.0.push(storage);
        }
    }

    /// Frames queued and not yet consumed.
    pub(crate) fn queued(&self) -> usize {
        self.rx_ring.len()
    }

    pub(crate) fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// The one receive discard decision, then the placement. The frame
    /// must fit a slot, the ring must have one free, the pressure clamp (a
    /// uniform cap on every ring; `Some(0)` sheds everything) must leave
    /// one free, and the owning tenant must be under its aggregate quota —
    /// checked last, so an unbudgeted run decides exactly as before budgets
    /// existed. The first check that fails names the discard and journals
    /// it: `RingDrop` for the ring's reasons, `QuotaDrop` for the tenant's.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn place(
        &mut self,
        id: ChannelId,
        owner: OwnerTag,
        frame: &Frame,
        pressure_cap: Option<usize>,
        tenants: &mut Tenants,
        filter_instrs: usize,
        path: DemuxPath,
    ) -> Delivery {
        let queued = self.rx_ring.len();
        let refused = if frame.len() > self.slot_size {
            Some(Discard::Oversize)
        } else if queued >= self.capacity {
            Some(Discard::RingFull)
        } else if pressure_cap.is_some_and(|cap| queued >= cap) {
            Some(Discard::PressureShed)
        } else {
            None
        };
        if let Some(why) = refused {
            unp_trace::emit(Some(frame.id()), || unp_trace::Event::RingDrop {
                channel: id.0,
                pressure: why == Discard::PressureShed,
            });
            return Delivery::Dropped(why);
        }
        if let Err((in_use, quota)) = tenants.admit_slot(owner) {
            unp_trace::emit(Some(frame.id()), || unp_trace::Event::QuotaDrop {
                channel: id.0,
                tenant: owner.0,
                in_use,
                quota,
            });
            return Delivery::Dropped(Discard::TenantQuota { tenant: owner });
        }
        self.rx_ring.push_back(frame.clone());
        let stats = &mut self.stats;
        stats.delivered += 1;
        match path {
            DemuxPath::FlowTable => stats.flow_hits += 1,
            DemuxPath::ListenTable => stats.listen_hits += 1,
            DemuxPath::FilterScan => stats.scan_fallbacks += 1,
            DemuxPath::Hardware => {}
        }
        let signal = !self.notify_pending;
        self.notify_pending = true;
        stats.batched += u64::from(!signal);
        let depth = self.rx_ring.len() as u32;
        unp_trace::emit(Some(frame.id()), || unp_trace::Event::RingEnqueue {
            channel: id.0,
            depth,
            signal,
        });
        Delivery::Channel {
            id,
            signal,
            filter_instrs,
            path,
            depth,
        }
    }

    /// Drains the ring, leaving the notification pending; the slots go
    /// back to the tenant here, the frames as the caller takes them.
    pub(crate) fn consume_batch(
        &mut self,
        id: ChannelId,
        owner: OwnerTag,
        tenants: &mut Tenants,
    ) -> Drain<'_, Frame> {
        let frames = self.rx_ring.len();
        tenants.release_slots(owner, frames);
        unp_trace::emit(None, || unp_trace::Event::WakeupBatch {
            channel: id.0,
            frames: frames as u32,
        });
        self.rx_ring.drain(..)
    }

    /// Ends a wakeup: true, and the notification clears, if the ring is
    /// empty; false if frames arrived meanwhile.
    pub(crate) fn end_wakeup(&mut self) -> bool {
        let idle = self.rx_ring.is_empty();
        if idle {
            self.notify_pending = false;
        }
        idle
    }
}
