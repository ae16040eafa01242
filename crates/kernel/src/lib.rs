//! `unp-kernel` — the in-kernel **network I/O module**.
//!
//! "The third module implements network access by providing efficient and
//! secure input packet delivery, and outbound packet transmission. There is
//! one network I/O module for each host-network interface on the host"
//! (paper §3.3). It is the trusted base of the paper's security argument,
//! cut here along its three mechanisms plus the budgets a shared base
//! needs, each a private module whose state only its own methods write
//! (DESIGN §7 has the map):
//!
//! * **Demultiplexing** (`demux`) — per-connection bindings (software
//!   filters distilled into flow and listen tables on Ethernet, BQI rings
//!   on AN1) decide which channel a frame is for.
//! * **Protected delivery with batched notification** (`channel`) — a
//!   bounded ring per channel shared with exactly one library, zero-copy
//!   over pooled [`unp_buffers::Frame`] handles, signalled once per batch;
//!   every receive discard is decided there, with a [`Discard`] reason.
//! * **Protected transmission** (`transmit`) — all access is through
//!   capabilities; "the network I/O module associates with the capability
//!   a template that constrains the header fields of packets sent using
//!   that capability" and verifies every outgoing packet against it
//!   (anti-impersonation; see [`template`]).
//! * **Tenant budgets** (`tenant`) — ring slots, transmit credit and
//!   channels per tenant, charged where each resource is taken.
//!
//! A channel is one entry of [`NetIoModule`]'s table holding one part per
//! mechanism; [`NetIoModule`] keeps the parts and orchestrates them.
//! [`ports`] adds the Mach-port-like rights the registry and libraries use
//! for connection hand-off.

pub mod ports;
pub mod template;

mod channel;
mod demux;
mod tenant;
mod transmit;

pub use channel::{ChannelStats, Delivery, Discard};
pub use demux::DemuxStats;
pub use ports::{PortId, PortSpace};
pub use template::{HeaderTemplate, TemplateViolation};
pub use tenant::{TenantBudget, TenantStats};
pub use transmit::{Capability, Right, TxError, TX_WINDOW_NS};
pub use unp_sim::DemuxPath;

use std::collections::HashMap;

use unp_buffers::{Frame, OwnerTag, RingId};
use unp_filter::programs::DemuxSpec;

use channel::{Ring, RingSpare};
use demux::{Binding, Demux};
use tenant::Tenants;
use transmit::{Sender, Transmit};

/// Identifier of a delivery channel (one per connection endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(pub u32);

/// One channel: its owner and one part per mechanism.
struct Channel {
    owner: OwnerTag,
    binding: Binding,
    ring: Ring,
    sender: Sender,
}

/// Lends the demux tiers every channel's binding by id.
fn bindings<'a>(channels: &'a HashMap<u32, Channel>) -> impl Fn(u32) -> &'a Binding + 'a {
    move |id| &channels[&id].binding
}

/// The network I/O module for one device. See the crate docs; how frames
/// are demultiplexed is the `demux` module's header.
#[derive(Default)]
pub struct NetIoModule {
    channels: HashMap<u32, Channel>,
    demux: Demux,
    tx: Transmit,
    tenants: Tenants,
    ring_spare: RingSpare,
    /// Slow-consumer fault model: when set, every ring behaves as if it
    /// had at most this many slots.
    pressure_cap: Option<usize>,
    next_channel: u32,
}

impl NetIoModule {
    /// Creates an empty module.
    pub fn new() -> NetIoModule {
        NetIoModule::default()
    }

    /// Creates a delivery channel on behalf of `owner` (only the registry
    /// server calls this — "initially, only the privileged registry server
    /// has access to the network module"). Returns the channel id, the
    /// send and receive capabilities for the application, and the ring id
    /// to register in a BQI table if the device supports hardware demux.
    ///
    /// `region_slots`/`slot_size` size the pinned shared memory; `spec`
    /// controls what the channel may receive and `template` what it may
    /// send.
    pub fn create_channel(
        &mut self,
        owner: OwnerTag,
        spec: &DemuxSpec,
        template: HeaderTemplate,
        region_slots: usize,
        slot_size: usize,
    ) -> (ChannelId, Capability, Capability, RingId) {
        self.try_create_channel(owner, spec, template, region_slots, slot_size)
            .expect("tenant channel cap exceeded — use try_create_channel for budgeted tenants")
    }

    /// [`create_channel`](Self::create_channel) that enforces the owning
    /// tenant's channel-count cap: returns `None` (and creates nothing)
    /// when the tenant is at its limit. Budget-aware callers (the
    /// registry's connection setup) use this so a tenant that hoards
    /// channels is refused instead of panicking the kernel.
    pub fn try_create_channel(
        &mut self,
        owner: OwnerTag,
        spec: &DemuxSpec,
        template: HeaderTemplate,
        region_slots: usize,
        slot_size: usize,
    ) -> Option<(ChannelId, Capability, Capability, RingId)> {
        if !self.tenants.admit_channel(owner) {
            return None;
        }
        let id = ChannelId(self.next_channel);
        self.next_channel += 1;
        let binding = self.demux.install(id, spec);
        let (sender, send, recv) = self.tx.issue(id, template);
        let ring = Ring::new(region_slots, slot_size, &mut self.ring_spare);
        let ch = Channel {
            owner,
            binding,
            ring,
            sender,
        };
        self.channels.insert(id.0, ch);
        Some((id, send, recv, demux::ring_of(id)))
    }

    /// Oracle hook (`testing` feature): rebuilds the demux caches from
    /// scratch, as every churn event did before maintenance went
    /// incremental — what benchmarks time and tests compare against.
    #[cfg(any(test, feature = "testing"))]
    pub fn force_rebuild_active(&mut self) {
        self.demux.force_rebuild(bindings(&self.channels));
    }

    /// True when the incrementally-maintained demux caches and table
    /// counts equal a from-scratch rebuild; debug builds assert it after
    /// each churn event on small populations.
    pub fn caches_match_rebuild(&self) -> bool {
        self.demux.caches_match_rebuild(bindings(&self.channels))
    }

    /// Destroys a channel and revokes its capabilities. Only the owner (or
    /// the kernel, `OwnerTag(0)`) may do so.
    pub fn destroy_channel(&mut self, id: ChannelId, requester: OwnerTag) -> bool {
        let allowed = |ch: &Channel| ch.owner == requester || requester == OwnerTag(0);
        if !self.channels.get(&id.0).is_some_and(allowed) {
            return false;
        }
        let Some(ch) = self.channels.remove(&id.0) else {
            return false;
        };
        self.demux.remove(id, &ch.binding);
        self.tenants.release_channel(ch.owner, ch.ring.queued());
        self.tx.revoke(&ch.sender);
        self.demux.debug_validate(bindings(&self.channels));
        ch.ring.retire(&mut self.ring_spare);
        true
    }

    /// Destroys every channel owned by `owner` — the kernel's backstop
    /// sweep after a process death. Returns the reclaimed channel ids
    /// (ascending), so the caller can journal each reclamation.
    pub fn reclaim_owner(&mut self, owner: OwnerTag) -> Vec<ChannelId> {
        let mut doomed: Vec<ChannelId> = self
            .channels
            .iter()
            .filter(|(_, ch)| ch.owner == owner)
            .map(|(&id, _)| ChannelId(id))
            .collect();
        doomed.sort_by_key(|id| id.0);
        for &id in &doomed {
            self.destroy_channel(id, OwnerTag(0));
        }
        doomed
    }

    /// Sets (or clears) the slow-consumer ring pressure cap that the
    /// `FaultPlan::RingPressure` schedules drive; `Some(0)` sheds all.
    pub fn set_pressure_cap(&mut self, cap: Option<usize>) {
        self.pressure_cap = cap;
    }

    /// Installs (or replaces) `tenant`'s resource budget. Zero fields are
    /// unlimited; the kernel tenant (`OwnerTag(0)`) cannot be budgeted.
    pub fn set_tenant_budget(&mut self, tenant: OwnerTag, budget: TenantBudget) {
        self.tenants.set_budget(tenant, budget);
    }

    /// Rolls transmit-credit windows forward to `now`: when the clock
    /// crosses into a new epoch-aligned window, every tenant's used
    /// credit resets. The world calls this before handing frames to
    /// [`NetIoModule::transmit`]; the kernel itself keeps no clock.
    pub fn advance_tx_window(&mut self, now: u64) {
        if self.tx.advance_window(now) {
            self.tenants.refill_tx();
        }
    }

    /// One tenant's budget accounting, or `None` if the kernel has never
    /// seen the tenant.
    pub fn tenant_stats(&self, tenant: OwnerTag) -> Option<TenantStats> {
        self.tenants.stats(tenant)
    }

    /// Every tenant the kernel has accounting for, ascending by raw id.
    pub fn tenant_ids(&self) -> Vec<OwnerTag> {
        self.tenants.ids()
    }

    /// Number of live channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The tenant that owns a live channel, or `None` if the id is dead.
    pub fn channel_owner(&self, id: ChannelId) -> Option<OwnerTag> {
        self.channels.get(&id.0).map(|ch| ch.owner)
    }

    /// Validates an outgoing frame against the template bound to `cap`.
    /// On success the caller hands the frame to the device.
    pub fn transmit(&mut self, cap: Capability, frame: &[u8]) -> Result<ChannelId, TxError> {
        self.transmit_tagged(cap, frame, None)
    }

    /// [`transmit`](Self::transmit) for a pooled [`Frame`]: identical
    /// checks, but the journaled template-check verdict carries the frame
    /// id so the causal tracer can join it into the frame's journey.
    pub fn transmit_frame(&mut self, cap: Capability, frame: &Frame) -> Result<ChannelId, TxError> {
        self.transmit_tagged(cap, frame, Some(frame.id()))
    }

    fn transmit_tagged(
        &mut self,
        cap: Capability,
        frame: &[u8],
        frame_id: Option<u64>,
    ) -> Result<ChannelId, TxError> {
        let (channel, ch) = self.tx.resolve(&mut self.channels, cap, Right::Send)?;
        let tx = &mut self.tx;
        let check = || tx.check(&ch.sender, channel, frame, frame_id);
        self.tenants.charge_tx(ch.owner, check)?;
        Ok(channel)
    }

    /// Classifies a frame the way [`NetIoModule::deliver_software`] will,
    /// without delivering: `(target, filter_instrs, path)` where
    /// `filter_instrs` is the scan-equivalent modeled cost. Exposed so the
    /// differential tests and benchmarks can exercise the decision alone.
    pub fn classify(&self, frame: &[u8]) -> (Option<ChannelId>, usize, DemuxPath) {
        self.demux.classify(frame, bindings(&self.channels))
    }

    /// Reference demultiplexer (`testing` feature): the pure linear scan,
    /// every active channel's filter in id order until one accepts —
    /// `(target, filter_instrs)`, which [`NetIoModule::classify`] must
    /// equal on any frame and channel set.
    #[cfg(any(test, feature = "testing"))]
    pub fn classify_scan_reference(&self, frame: &[u8]) -> (Option<ChannelId>, usize) {
        self.demux
            .classify_scan_reference(frame, bindings(&self.channels))
    }

    /// Software demultiplexing (Ethernet path): decides the receiving
    /// channel — flow table for exact-match bindings, filter scan for the
    /// rest — then places a handle to the frame in that channel's ring.
    pub fn deliver_software(&mut self, frame: &Frame) -> Delivery {
        let (target, instrs, path) = self.demux.software(frame, bindings(&self.channels));
        self.place(target, frame, instrs, path)
    }

    /// Hardware demultiplexing (AN1 path): the NIC already classified the
    /// frame to `ring` via its BQI table; place it directly.
    pub fn deliver_hardware(&mut self, ring: RingId, frame: &Frame) -> Delivery {
        let target = self.demux.hardware(ring, frame);
        self.place(target, frame, 0, DemuxPath::Hardware)
    }

    /// Places `frame` in the ring of the channel demux chose, or hands it
    /// to the kernel default path when demux chose none.
    fn place(
        &mut self,
        target: Option<ChannelId>,
        frame: &Frame,
        filter_instrs: usize,
        path: DemuxPath,
    ) -> Delivery {
        let live = target.and_then(|id| Some((id, self.channels.get_mut(&id.0)?)));
        let Some((id, ch)) = live else {
            self.demux.count_default();
            return Delivery::KernelDefault {
                filter_instrs,
                path,
            };
        };
        let tenants = &mut self.tenants;
        let pressure = self.pressure_cap;
        ch.ring
            .place(id, ch.owner, frame, pressure, tenants, filter_instrs, path)
    }

    /// Drains the ring *without* clearing the notification flag: the
    /// library thread is awake and processing, so packets arriving in the
    /// meantime must not post fresh semaphore signals — this is the
    /// batching the paper relies on ("batch multiple network packets per
    /// semaphore notification in order to amortize the cost of
    /// signaling"). Pair with [`NetIoModule::end_wakeup`].
    ///
    /// The batch is the ring's own drain: the slots are accounted as
    /// consumed here, and the frames leave the ring as the caller takes
    /// them (or all at once when it drops the drain).
    pub fn consume_batch(
        &mut self,
        cap: Capability,
    ) -> Result<std::collections::vec_deque::Drain<'_, Frame>, TxError> {
        let (channel, ch) = self.tx.resolve(&mut self.channels, cap, Right::Receive)?;
        Ok(ch.ring.consume_batch(channel, ch.owner, &mut self.tenants))
    }

    /// Ends a wakeup: if the ring is empty the notification flag clears
    /// (the thread blocks on the semaphore again) and `true` is returned;
    /// if packets arrived during processing the flag stays set and `false`
    /// tells the library to loop and consume again.
    pub fn end_wakeup(&mut self, cap: Capability) -> Result<bool, TxError> {
        let (_, ch) = self.tx.resolve(&mut self.channels, cap, Right::Receive)?;
        Ok(ch.ring.end_wakeup())
    }

    /// Activates a channel's receive binding ("the registry server
    /// activates the address demultiplexing mechanism as part of the
    /// connection establishment phase").
    pub fn activate(&mut self, id: ChannelId) -> bool {
        let Some(ch) = self.channels.get_mut(&id.0) else {
            return false;
        };
        self.demux.activate(id, &mut ch.binding);
        self.demux.debug_validate(bindings(&self.channels));
        true
    }

    /// Pins the AN1 BQI the channel's template requires on outgoing
    /// packets, once the peer's announcement arrives during setup.
    pub fn set_template_bqi(&mut self, id: ChannelId, bqi: u16) -> bool {
        let Some(ch) = self.channels.get_mut(&id.0) else {
            return false;
        };
        ch.sender.set_bqi(bqi);
        true
    }

    /// Per-channel delivery/demux counters, or `None` for a dead channel.
    pub fn channel_stats(&self, id: ChannelId) -> Option<ChannelStats> {
        self.channels.get(&id.0).map(|ch| ch.ring.stats())
    }

    /// Software-demultiplexing counters since construction.
    pub fn demux_stats(&self) -> DemuxStats {
        self.demux.stats()
    }

    /// Frames that fell through to the kernel default path.
    pub fn default_deliveries(&self) -> u64 {
        self.demux.default_deliveries()
    }

    /// Packets rejected by template checks (attempted impersonation or
    /// buggy library).
    pub fn tx_rejections(&self) -> u64 {
        self.tx.rejections()
    }

    /// Number of live flow-table entries (exact-match distilled bindings).
    pub fn flow_table_len(&self) -> usize {
        self.demux.flow_table_len()
    }

    /// Number of live listen-table entries (wildcard distilled bindings).
    pub fn listen_table_len(&self) -> usize {
        self.demux.listen_table_len()
    }

    /// Approximate heap footprint, in bytes, of the demultiplexing
    /// maintenance structures — the price of the *fast path*, which the
    /// scale sweep reports per channel count. Channel state (rings,
    /// templates, filters) exists under any demux strategy and is excluded.
    pub fn demux_mem_bytes(&self) -> usize {
        self.demux.mem_bytes()
    }
}

#[cfg(test)]
mod tests;
