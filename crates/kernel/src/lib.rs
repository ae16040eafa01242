//! `unp-kernel` — the in-kernel **network I/O module**.
//!
//! "The third module implements network access by providing efficient and
//! secure input packet delivery, and outbound packet transmission. There is
//! one network I/O module for each host-network interface on the host"
//! (paper §3.3). This crate implements its three responsibilities:
//!
//! * **Protected transmission** — all access is through capabilities;
//!   "the network I/O module associates with the capability a template
//!   that constrains the header fields of packets sent using that
//!   capability" and verifies every outgoing packet against it
//!   (anti-impersonation; see [`template`]).
//! * **Protected delivery** — per-connection demux bindings (software
//!   filters on Ethernet, BQI rings on AN1) place incoming packets into a
//!   bounded per-channel ring shared with exactly one library. Delivery is
//!   zero-copy: the ring holds refcounted [`unp_buffers::Frame`] handles
//!   whose pooled backing buffers ([`unp_buffers::FramePool`]) model the
//!   pinned shared-memory slots of the paper; the ring's capacity and
//!   slot size are enforced on every delivery.
//! * **Notification batching** — "our implementation attempts, where
//!   possible, to batch multiple network packets per semaphore notification
//!   in order to amortize the cost of signaling."
//!
//! [`ports`] adds the Mach-port-like rights the registry and libraries use
//! for connection hand-off.

pub mod ports;
pub mod template;

pub use ports::{PortId, PortSpace};
pub use template::{HeaderTemplate, TemplateViolation};

use std::collections::{BTreeSet, HashMap, VecDeque};

use unp_buffers::{Frame, OwnerTag, RingId};
use unp_filter::programs::DemuxSpec;
use unp_filter::{CompiledDemux, Demux};
pub use unp_sim::DemuxPath;
/// The bound on what is kept whole of a destroyed channel's
/// [`ChannelStats`] once it is handed on: the registry (which cannot name
/// `unp-trace` itself while `benchmark/Cargo.lock` is frozen) and the
/// metrics registry share the one constant.
pub use unp_trace::{push_kept, RETIRED_KEPT};
use unp_wire::{FlowKey, ListenKey};

/// Which demultiplexing tier a channel's spec distilled into at
/// installation. Each channel lives in exactly one tier, so the keyed
/// tables and the residual scan set partition the active population —
/// which is what lets the cross-tier winner be picked by id comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowSlot {
    /// Fully-specified connection binding: exact-match 5-tuple table.
    Exact(FlowKey),
    /// Fully-wildcard remote (listening/unconnected-UDP): 3-tuple table.
    Listen(ListenKey),
    /// No keyed identity (half-wildcard remote, mismatched link framing):
    /// residual filter scan.
    Scan,
}

/// Fenwick (binary-indexed) tree over channel ids holding each **active**
/// channel's filter instruction count. `prefix(id + 1)` is exactly the
/// instructions a linear scan interprets through channel `id` inclusive,
/// so the scan-equivalent cost accounting survives with activation and
/// teardown as O(log n) point updates instead of an O(n) rebuild of
/// prefix-sum arrays.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct InstrFenwick {
    /// Standard 1-based Fenwick layout stored 0-based: `tree[i - 1]`
    /// covers the `lowbit(i)` positions ending at 1-based position `i`.
    tree: Vec<usize>,
}

impl InstrFenwick {
    /// Extends coverage to `n` positions; new positions hold zero. An
    /// appended node spans `lowbit` *existing* positions, so it must be
    /// seeded with their sum — zero-filling would corrupt later prefixes.
    /// Channel ids mint monotonically, so growth is always an append.
    fn grow_to(&mut self, n: usize) {
        while self.tree.len() < n {
            let i = self.tree.len() + 1; // 1-based index of the new node
            let lowbit = i & i.wrapping_neg();
            let seed = self.prefix(i - 1) - self.prefix(i - lowbit);
            self.tree.push(seed);
        }
    }

    /// Adds `delta` to the value at 0-based position `pos`.
    fn add(&mut self, pos: usize, delta: isize) {
        let mut i = pos + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = (self.tree[i - 1] as isize + delta) as usize;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of the values at 0-based positions `0..n`.
    fn prefix(&self, n: usize) -> usize {
        let mut i = n.min(self.tree.len());
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i - 1];
            i &= i - 1;
        }
        sum
    }
}

/// Takes `id` out of `table[key]` — entries hold ascending ids, so a
/// binary-search remove — and drops the entry with its last binding.
/// Returns how many bindings went (1, or 0 if `id` was not there).
fn unbind<K: Eq + std::hash::Hash>(table: &mut HashMap<K, Vec<u32>>, key: &K, id: u32) -> usize {
    let Some(ids) = table.get_mut(key) else {
        return 0;
    };
    let found = ids.binary_search(&id).map(|pos| ids.remove(pos));
    if ids.is_empty() {
        table.remove(key);
    }
    usize::from(found.is_ok())
}

/// Identifier of a delivery channel (one per connection endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(pub u32);

/// An unforgeable capability naming a channel with a rights mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability(u64);

impl Capability {
    /// Constructs a capability from a raw value. Within the simulation
    /// capabilities are unforgeable because only the kernel mints them and
    /// validates every use; this constructor exists so adversarial tests
    /// can *attempt* forgery and verify it fails. Gated out of release
    /// builds: a production library must have no way to mint one.
    #[cfg(any(test, feature = "testing"))]
    pub fn forge_for_tests(raw: u64) -> Capability {
        Capability(raw)
    }
}

/// Rights a capability can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Right {
    /// May transmit packets matching the channel's template.
    Send,
    /// May consume packets from the channel's receive ring.
    Receive,
}

/// Errors from the transmit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// Unknown or revoked capability.
    BadCapability,
    /// The capability lacks the right the call needs: Send to transmit,
    /// Receive to drain the ring or end a wakeup.
    WrongRight,
    /// The packet header does not match the bound template.
    Template(TemplateViolation),
    /// The owning tenant exhausted its per-window transmit credit.
    QuotaExceeded,
}

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
    /// Dropped: the target ring or region was full.
    Dropped,
    /// Dropped by the owning tenant's exhausted ring-slot quota: the
    /// channel had room, the tenant's aggregate budget did not. Carries
    /// the tenant so the caller can charge the right account.
    QuotaDropped {
        /// The tenant whose quota caused the drop.
        tenant: OwnerTag,
    },
}

/// Per-tenant resource budget. A zero in any field means that dimension
/// is unlimited — the default, so single-tenant worlds and the existing
/// tests behave exactly as before budgets existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantBudget {
    /// Aggregate ring slots the tenant may occupy across *all* of its
    /// channels. A delivery that would exceed it is dropped and charged
    /// to the tenant (journaled as `quota_drop`), even when the target
    /// channel's own ring still has room.
    pub ring_slots: usize,
    /// Frames the tenant may transmit per credit window (see
    /// [`TX_WINDOW_NS`]); exhausted credit rejects with
    /// [`TxError::QuotaExceeded`] until the window rolls over.
    pub tx_credit: u64,
    /// Channels the tenant may hold open at once;
    /// [`NetIoModule::try_create_channel`] refuses past it.
    pub max_channels: usize,
}

/// A tenant's live accounting: its budget plus the running counters the
/// kernel charges against it. Reported via [`NetIoModule::tenant_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TenantAccount {
    budget: TenantBudget,
    /// Ring slots currently occupied across all the tenant's channels.
    ring_occupancy: usize,
    /// Transmit credit consumed in the current window.
    tx_used: u64,
    /// Channels currently open.
    open_channels: usize,
    /// Cumulative frames delivered into the tenant's rings.
    rx_delivered: u64,
    /// Cumulative frames the tenant transmitted (accepted).
    tx_frames: u64,
    /// Cumulative receive drops charged to exhausted ring quota.
    quota_drops: u64,
    /// Cumulative transmits rejected for exhausted credit.
    tx_rejections: u64,
}

/// Snapshot of one tenant's budget accounting, for dashboards, the
/// metrics registry's `TenantScope` sync, and the isolation oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Frames delivered into the tenant's rings.
    pub rx_delivered: u64,
    /// Frames the tenant transmitted (accepted by the kernel).
    pub tx_frames: u64,
    /// Receive drops charged to the tenant's exhausted ring quota.
    pub quota_drops: u64,
    /// Transmits rejected for exhausted per-window credit.
    pub tx_rejections: u64,
    /// Ring slots currently occupied across the tenant's channels.
    pub ring_slots: usize,
    /// The tenant's aggregate ring-slot quota (0 = unlimited).
    pub ring_quota: usize,
    /// Channels the tenant currently holds open.
    pub open_channels: usize,
}

struct CapEntry {
    channel: ChannelId,
    right: Right,
}

/// Resolves `cap` to its live channel, provided it carries `right`.
fn resolve<'a>(
    caps: &HashMap<u64, CapEntry>,
    channels: &'a mut HashMap<u32, Channel>,
    cap: Capability,
    right: Right,
) -> Result<(ChannelId, &'a mut Channel), TxError> {
    let entry = caps.get(&cap.0).ok_or(TxError::BadCapability)?;
    if entry.right != right {
        return Err(TxError::WrongRight);
    }
    let ch = channels.get_mut(&entry.channel.0);
    Ok((entry.channel, ch.ok_or(TxError::BadCapability)?))
}

/// Transmit-credit window length in sim nanoseconds (10 ms). Windows are
/// epoch-aligned (`now / TX_WINDOW_NS`), so identical runs see identical
/// refill instants regardless of call timing.
pub const TX_WINDOW_NS: u64 = 10_000_000;

struct Channel {
    owner: OwnerTag,
    /// Pinned-memory model: at most `capacity` frames of at most
    /// `slot_size` bytes may sit in the ring, exactly as if each occupied
    /// a slot of the channel's shared region.
    capacity: usize,
    slot_size: usize,
    /// Starts empty and grows to what is actually queued: the region
    /// above is a limit the checks enforce, not host memory to reserve
    /// (768 slots up front made an idle TIME_WAIT channel cost 24 KB).
    rx_ring: VecDeque<Frame>,
    template: HeaderTemplate,
    demux: CompiledDemux,
    /// The demux tier the spec distilled into: exact 5-tuple, wildcard
    /// 3-tuple, or the residual scan (half-wildcards, mismatched link
    /// framing). Fixed at installation.
    slot: FlowSlot,
    /// Software demux only fires once the registry activates the binding
    /// at connection-establishment completion; until then, traffic for the
    /// endpoint still flows to the kernel default path (the registry).
    active: bool,
    /// True while a semaphore notification is posted but not yet consumed.
    notify_pending: bool,
    /// AN1: the ring id registered in the NIC's BQI table.
    ring_id: Option<RingId>,
    /// The raw values of the two capabilities minted for this channel, so
    /// teardown revokes exactly them instead of sweeping the whole
    /// capability map (an O(total caps) hidden churn term).
    cap_ids: [u64; 2],
    rx_delivered: u64,
    rx_batched: u64,
    /// Software deliveries this channel received via the flow table.
    flow_hits: u64,
    /// Software deliveries this channel received via the listen table.
    listen_hits: u64,
    /// Software deliveries that went through the filter scan instead.
    scan_fallbacks: u64,
}

/// Per-channel delivery and demultiplexing counters, reported by
/// [`NetIoModule::channel_stats`] and handed to the registry at teardown so
/// it can flag bindings that keep missing the flow-table fast path.
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

/// Software-demultiplexing counters, reported by
/// [`NetIoModule::demux_stats`] for the `repro-tables` demux section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemuxStats {
    /// Frames whose delivery was decided by the exact-match flow table.
    pub flow_hits: u64,
    /// Frames whose delivery was decided by the 3-tuple listen table.
    pub listen_hits: u64,
    /// Frames decided by the filter scan (half-wildcard bindings,
    /// fragments, non-IP frames, and kernel-default misses).
    pub scan_fallbacks: u64,
    /// Total frames through [`NetIoModule::deliver_software`].
    pub packets: u64,
    /// Total modeled filter instructions across those frames (what the
    /// 1993 scan interprets — the cost-model input).
    pub filter_instrs: u64,
}

impl DemuxStats {
    /// Modeled filter instructions per packet.
    pub fn avg_filter_instrs(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.filter_instrs as f64 / self.packets as f64
    }

    /// Fraction of software-demuxed frames the flow table decided.
    pub fn flow_hit_rate(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.flow_hits as f64 / self.packets as f64
    }

    /// Fraction decided by either keyed table (flow or listen) — the
    /// frames that skipped filter interpretation entirely.
    pub fn keyed_hit_rate(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        (self.flow_hits + self.listen_hits) as f64 / self.packets as f64
    }
}

/// The network I/O module for one device. See module docs.
///
/// Software demultiplexing is three-tiered. At channel installation each
/// [`DemuxSpec`] is *distilled*: fully-specified connection bindings (the
/// common case the registry installs at connection setup) become entries in
/// an exact-match flow table keyed by the frame's 5-tuple; fully-wildcard
/// bindings (listening sockets, unconnected UDP) become entries in a
/// 3-tuple listen table keyed by the frame's local projection. Either way
/// delivery is one [`FlowKey::extract`] parse plus hash lookups — O(1) in
/// the number of bindings. Only the residual — half-wildcard specs,
/// mismatched link framing, and frames with no keyed identity (fragments,
/// non-IP) — falls back to the paper-era filter scan. Correctness
/// invariant: the tiers always agree with a pure linear scan — a keyed hit
/// is only taken after any lower-id residual binding has had its filter
/// run (scan order is id order, first match wins), the cross-table winner
/// is the lower id (the tiers partition the channels), and a distilled
/// binding can never match a frame whose key differs from its own
/// (`DemuxSpec::distill`/`distill_listen`'s iff guarantees).
///
/// Tier maintenance is **incremental**: activation and teardown patch the
/// tables, the id order, and the scan-cost accounting in place (O(log n)
/// point updates on [`InstrFenwick`]) rather than rebuilding O(n) caches
/// per connection event, so churn stays flat into the 10⁵–10⁶-channel
/// range. `force_rebuild_active` (`testing` feature) remains the
/// from-scratch oracle the incremental structures are validated against.
pub struct NetIoModule {
    channels: HashMap<u32, Channel>,
    caps: HashMap<u64, CapEntry>,
    ring_index: HashMap<RingId, ChannelId>,
    /// Exact-match tier: 5-tuple → ids of channels distilled to that key,
    /// ascending (duplicates possible; the scan-equivalent winner is the
    /// lowest *active* id).
    flow_table: HashMap<FlowKey, Vec<u32>>,
    /// Wildcard tier: 3-tuple → ids of fully-wildcard channels distilled
    /// to that key, ascending.
    listen_table: HashMap<ListenKey, Vec<u32>>,
    /// Bindings in `flow_table` and in `listen_table` (ids, not keys),
    /// counted where one is pushed or removed so reading them never walks
    /// a table.
    flow_entries: usize,
    listen_entries: usize,
    /// Link-header length the keyed tables extract keys with, fixed by the
    /// first distillable channel (one module serves one device, so all its
    /// channels share framing; a mismatched spec stays on the scan tier).
    flow_lhl: Option<usize>,
    /// All channel ids, ascending — the scan order, maintained on
    /// install/teardown instead of collected and sorted per packet.
    scan_order: Vec<u32>,
    /// Per-id active filter instruction counts as a Fenwick tree:
    /// `instr_fen.prefix(id + 1)` is the scan-equivalent cost through
    /// `id`, maintained by point updates on activation and teardown.
    instr_fen: InstrFenwick,
    /// Total filter instructions across all active channels — what a scan
    /// interprets on a miss — maintained incrementally.
    total_active_instrs: usize,
    /// Active channels on *neither* keyed table, ascending — the only
    /// filters a keyed decision must still consult.
    residual: BTreeSet<u32>,
    demux_stats: DemuxStats,
    /// Slow-consumer fault model, kept as a thin compat shim over the
    /// per-tenant quota path: when set, every ring behaves as if it had
    /// at most this many slots — a degenerate uniform per-ring clamp on
    /// the same effective-capacity check tenant quotas use. `None`
    /// restores the configured capacities.
    pressure_cap: Option<usize>,
    /// Per-tenant budgets and accounting, keyed by raw tenant id.
    /// `BTreeMap` so reports iterate deterministically. Absent tenants
    /// are unbudgeted (the kernel, `OwnerTag(0)`, is never budgeted).
    tenants: std::collections::BTreeMap<u64, TenantAccount>,
    /// Which credit window [`NetIoModule::advance_tx_window`] last saw.
    tx_epoch: u64,
    next_channel: u32,
    next_cap: u64,
    next_ring: u32,
    /// Frames that fell through to the kernel default path.
    pub default_deliveries: u64,
    /// Packets rejected by template checks (attempted impersonation or
    /// buggy library).
    pub tx_rejections: u64,
}

impl Default for NetIoModule {
    fn default() -> Self {
        Self::new()
    }
}

impl NetIoModule {
    /// Creates an empty module.
    pub fn new() -> NetIoModule {
        NetIoModule {
            channels: HashMap::new(),
            caps: HashMap::new(),
            ring_index: HashMap::new(),
            flow_table: HashMap::new(),
            listen_table: HashMap::new(),
            flow_entries: 0,
            listen_entries: 0,
            flow_lhl: None,
            scan_order: Vec::new(),
            instr_fen: InstrFenwick::default(),
            total_active_instrs: 0,
            residual: BTreeSet::new(),
            demux_stats: DemuxStats::default(),
            pressure_cap: None,
            tenants: std::collections::BTreeMap::new(),
            tx_epoch: 0,
            next_channel: 0,
            next_cap: 0x6100_0000_0000_0000,
            next_ring: 1, // RingId(0) is the kernel default
            default_deliveries: 0,
            tx_rejections: 0,
        }
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
        if owner != OwnerTag(0) {
            let acct = self.tenants.entry(owner.0).or_default();
            if acct.budget.max_channels > 0 && acct.open_channels >= acct.budget.max_channels {
                return None;
            }
            acct.open_channels += 1;
        }
        let id = ChannelId(self.next_channel);
        self.next_channel += 1;
        let ring_id = RingId(self.next_ring);
        self.next_ring += 1;
        // Distill the spec into its keyed identity, if any. The first
        // distillable channel (either tier) pins the module's
        // key-extraction framing; later specs with different framing stay
        // on the scan tier. Ids are minted ascending, so pushing keeps
        // each table entry sorted.
        let slot = if let Some(key) = spec.distill() {
            if *self.flow_lhl.get_or_insert(spec.link_header_len) == spec.link_header_len {
                self.flow_table.entry(key).or_default().push(id.0);
                self.flow_entries += 1;
                FlowSlot::Exact(key)
            } else {
                FlowSlot::Scan
            }
        } else if let Some(key) = spec.distill_listen() {
            if *self.flow_lhl.get_or_insert(spec.link_header_len) == spec.link_header_len {
                self.listen_table.entry(key).or_default().push(id.0);
                self.listen_entries += 1;
                FlowSlot::Listen(key)
            } else {
                FlowSlot::Scan
            }
        } else {
            FlowSlot::Scan
        };
        let send = self.issue_cap(id, Right::Send);
        let recv = self.issue_cap(id, Right::Receive);
        let ch = Channel {
            owner,
            capacity: region_slots,
            slot_size,
            rx_ring: VecDeque::new(),
            template,
            demux: CompiledDemux::from_spec(spec),
            slot,
            active: false,
            notify_pending: false,
            ring_id: Some(ring_id),
            cap_ids: [send.0, recv.0],
            rx_delivered: 0,
            rx_batched: 0,
            flow_hits: 0,
            listen_hits: 0,
            scan_fallbacks: 0,
        };
        self.channels.insert(id.0, ch);
        self.scan_order.push(id.0); // ascending mint order = scan order
        self.instr_fen.grow_to(self.next_channel as usize);
        self.ring_index.insert(ring_id, id);
        Some((id, send, recv, ring_id))
    }

    /// Computes the incremental demux caches — the per-id instruction
    /// Fenwick, the active-instruction total, and the residual scan set —
    /// from scratch. This is the oracle the per-event maintenance in
    /// [`NetIoModule::activate`] and [`NetIoModule::destroy_channel`] is
    /// validated against.
    fn compute_caches(&self) -> (InstrFenwick, usize, BTreeSet<u32>) {
        let mut fen = InstrFenwick::default();
        fen.grow_to(self.next_channel as usize);
        let mut total = 0usize;
        let mut residual = BTreeSet::new();
        for &id in &self.scan_order {
            let ch = &self.channels[&id];
            if !ch.active {
                continue;
            }
            let n = ch.demux.instruction_count();
            fen.add(id as usize, n as isize);
            total += n;
            if ch.slot == FlowSlot::Scan {
                residual.insert(id);
            }
        }
        (fen, total, residual)
    }

    /// Oracle hook: rebuilds the demux caches from scratch, as every
    /// activation and teardown did before maintenance went incremental.
    /// Benchmarks time it to report what a churn event used to cost; tests
    /// call it to confirm the incremental state matches a fresh build.
    /// Not part of the release API (`testing` feature).
    #[cfg(any(test, feature = "testing"))]
    pub fn force_rebuild_active(&mut self) {
        let (fen, total, residual) = self.compute_caches();
        self.instr_fen = fen;
        self.total_active_instrs = total;
        self.residual = residual;
    }

    /// True when the incrementally-maintained caches equal a from-scratch
    /// rebuild — the invariant [`NetIoModule::activate`] and
    /// [`NetIoModule::destroy_channel`] preserve. Exposed for the
    /// differential tests; debug builds also assert it after each churn
    /// event on small populations.
    pub fn caches_match_rebuild(&self) -> bool {
        let (fen, total, residual) = self.compute_caches();
        fen == self.instr_fen
            && total == self.total_active_instrs
            && residual == self.residual
            && self.flow_entries == self.flow_table.values().map(Vec::len).sum::<usize>()
            && self.listen_entries == self.listen_table.values().map(Vec::len).sum::<usize>()
    }

    /// Debug-build churn validation. Capped to small populations because
    /// the check is O(n) and would turn property-test churn quadratic.
    #[cfg(debug_assertions)]
    fn debug_validate_caches(&self) {
        if self.channels.len() <= 64 {
            debug_assert!(
                self.caches_match_rebuild(),
                "incremental demux caches diverged from a fresh rebuild"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_validate_caches(&self) {}

    /// The filter instructions a linear scan interprets before `id`
    /// accepts: every earlier active binding's full program plus `id`'s.
    fn scan_equiv_instrs(&self, id: u32) -> usize {
        self.instr_fen.prefix(id as usize + 1)
    }

    fn issue_cap(&mut self, channel: ChannelId, right: Right) -> Capability {
        let cap = Capability(self.next_cap);
        self.next_cap += 0x9E37_79B9; // sparse, non-guessable-looking ids
        self.caps.insert(cap.0, CapEntry { channel, right });
        cap
    }

    /// Destroys a channel and revokes its capabilities. Only the owner (or
    /// the kernel, `OwnerTag(0)`) may do so.
    pub fn destroy_channel(&mut self, id: ChannelId, requester: OwnerTag) -> bool {
        let Some(ch) = self.channels.get(&id.0) else {
            return false;
        };
        if ch.owner != requester && requester != OwnerTag(0) {
            return false;
        }
        if let Some(ring) = ch.ring_id {
            self.ring_index.remove(&ring);
        }
        match ch.slot {
            FlowSlot::Exact(key) => {
                self.flow_entries -= unbind(&mut self.flow_table, &key, id.0);
            }
            FlowSlot::Listen(key) => {
                self.listen_entries -= unbind(&mut self.listen_table, &key, id.0);
            }
            FlowSlot::Scan => {}
        }
        let ch = self.channels.remove(&id.0).expect("checked above");
        // Release the tenant's budget: the channel slot and whatever ring
        // occupancy its unconsumed frames still held.
        if let Some(acct) = self.tenants.get_mut(&ch.owner.0) {
            acct.open_channels = acct.open_channels.saturating_sub(1);
            acct.ring_occupancy = acct.ring_occupancy.saturating_sub(ch.rx_ring.len());
        }
        if ch.active {
            // Incremental cache maintenance: undo this channel's
            // contribution instead of rebuilding everything.
            let n = ch.demux.instruction_count();
            self.instr_fen.add(id.0 as usize, -(n as isize));
            self.total_active_instrs -= n;
            self.residual.remove(&id.0);
        }
        // `scan_order` is ascending, so the O(n) retain sweep is a
        // binary-search remove.
        if let Ok(pos) = self.scan_order.binary_search(&id.0) {
            self.scan_order.remove(pos);
        }
        // Revoke exactly this channel's two capabilities — not a sweep of
        // the whole capability map.
        for cap in ch.cap_ids {
            self.caps.remove(&cap);
        }
        self.debug_validate_caches();
        true
    }

    /// Destroys every channel owned by `owner` — the kernel's backstop
    /// sweep after a process death. Returns the reclaimed channel ids and
    /// their ring ids (ascending), so the caller can release any BQI
    /// bindings and journal each reclamation.
    pub fn reclaim_owner(&mut self, owner: OwnerTag) -> Vec<(ChannelId, Option<RingId>)> {
        let mut doomed: Vec<(ChannelId, Option<RingId>)> = self
            .channels
            .iter()
            .filter(|(_, ch)| ch.owner == owner)
            .map(|(&id, ch)| (ChannelId(id), ch.ring_id))
            .collect();
        doomed.sort_by_key(|(id, _)| id.0);
        for &(id, _) in &doomed {
            self.destroy_channel(id, OwnerTag(0));
        }
        doomed
    }

    /// Sets (or clears) the slow-consumer ring pressure cap — the compat
    /// shim the `FaultPlan::RingPressure` schedules drive. It rides the
    /// same effective-capacity check as the per-tenant ring quotas, as a
    /// uniform per-ring clamp; `Some(0)` sheds everything.
    pub fn set_pressure_cap(&mut self, cap: Option<usize>) {
        self.pressure_cap = cap;
    }

    /// Installs (or replaces) `tenant`'s resource budget. Zero fields are
    /// unlimited; the kernel tenant (`OwnerTag(0)`) cannot be budgeted.
    pub fn set_tenant_budget(&mut self, tenant: OwnerTag, budget: TenantBudget) {
        if tenant == OwnerTag(0) {
            return;
        }
        self.tenants.entry(tenant.0).or_default().budget = budget;
    }

    /// Rolls transmit-credit windows forward to `now`: when the clock
    /// crosses into a new epoch-aligned window, every tenant's used
    /// credit resets. The world calls this before handing frames to
    /// [`NetIoModule::transmit`]; the kernel itself keeps no clock.
    pub fn advance_tx_window(&mut self, now: u64) {
        let epoch = now / TX_WINDOW_NS;
        if epoch != self.tx_epoch {
            self.tx_epoch = epoch;
            for acct in self.tenants.values_mut() {
                acct.tx_used = 0;
            }
        }
    }

    /// One tenant's budget accounting, or `None` if the kernel has never
    /// seen the tenant.
    pub fn tenant_stats(&self, tenant: OwnerTag) -> Option<TenantStats> {
        self.tenants.get(&tenant.0).map(|acct| TenantStats {
            rx_delivered: acct.rx_delivered,
            tx_frames: acct.tx_frames,
            quota_drops: acct.quota_drops,
            tx_rejections: acct.tx_rejections,
            ring_slots: acct.ring_occupancy,
            ring_quota: acct.budget.ring_slots,
            open_channels: acct.open_channels,
        })
    }

    /// Every tenant the kernel has accounting for, ascending by raw id.
    pub fn tenant_ids(&self) -> Vec<OwnerTag> {
        self.tenants.keys().map(|&t| OwnerTag(t)).collect()
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
        let (channel, ch) = resolve(&self.caps, &mut self.channels, cap, Right::Send)?;
        // Per-window transmit credit, charged before the template runs:
        // the credit bounds how often a tenant may invoke the transmit
        // path at all, so a flood of *valid* frames and a storm of
        // template violations are both rate-limited.
        let owner = ch.owner;
        if let Some(acct) = self.tenants.get_mut(&owner.0) {
            if acct.budget.tx_credit > 0 {
                if acct.tx_used >= acct.budget.tx_credit {
                    acct.tx_rejections += 1;
                    return Err(TxError::QuotaExceeded);
                }
                acct.tx_used += 1;
            }
        }
        match ch.template.check(frame) {
            Ok(()) => {
                if let Some(acct) = self.tenants.get_mut(&owner.0) {
                    acct.tx_frames += 1;
                }
                unp_trace::emit(frame_id, || unp_trace::Event::TxTemplateCheck {
                    channel: channel.0,
                    ok: true,
                });
                Ok(channel)
            }
            Err(v) => {
                self.tx_rejections += 1;
                unp_trace::emit(frame_id, || unp_trace::Event::TxTemplateCheck {
                    channel: channel.0,
                    ok: false,
                });
                Err(TxError::Template(v))
            }
        }
    }

    /// Classifies a frame the way [`NetIoModule::deliver_software`] will,
    /// without delivering: `(target, filter_instrs, path)` where
    /// `filter_instrs` is the scan-equivalent modeled cost. Exposed so the
    /// differential tests and benchmarks can exercise the decision alone.
    pub fn classify(&self, frame: &[u8]) -> (Option<ChannelId>, usize, DemuxPath) {
        // Keyed tiers: one 5-tuple parse serves both tables (the listen
        // key is its local projection). Per table the winner is the lowest
        // active id distilled to the frame's key (ties between duplicate
        // bindings resolve exactly as the scan would); across tables the
        // candidate is the lower of the two — each channel lives in
        // exactly one tier, so that is the scan's first keyed match.
        let key = self.flow_lhl.and_then(|lhl| FlowKey::extract(frame, lhl));
        let lowest_active =
            |ids: &Vec<u32>| ids.iter().copied().find(|id| self.channels[id].active);
        let flow_hit: Option<u32> = key
            .and_then(|k| self.flow_table.get(&k))
            .and_then(lowest_active);
        let listen_hit: Option<u32> = key
            .and_then(|k| self.listen_table.get(&k.local()))
            .and_then(lowest_active);
        let (candidate, keyed_path) = match (flow_hit, listen_hit) {
            (Some(f), Some(l)) if l < f => (Some(l), DemuxPath::ListenTable),
            (Some(f), _) => (Some(f), DemuxPath::FlowTable),
            (None, Some(l)) => (Some(l), DemuxPath::ListenTable),
            (None, None) => (None, DemuxPath::FilterScan),
        };
        // Residual tier: a lower-id unkeyed binding shadows the keyed hit
        // (the scan runs filters in id order and first match wins), so
        // those — and only those — filters must still run. On a keyed
        // miss no distilled binding can match (the distill/extract iff
        // guarantees), so the scan reduces to the residual subset.
        let limit = candidate.unwrap_or(u32::MAX);
        for &id in self.residual.range(..limit) {
            if self.channels[&id].demux.matches(frame) {
                return (
                    Some(ChannelId(id)),
                    self.scan_equiv_instrs(id),
                    DemuxPath::FilterScan,
                );
            }
        }
        match candidate {
            Some(id) => (Some(ChannelId(id)), self.scan_equiv_instrs(id), keyed_path),
            None => (None, self.total_active_instrs, DemuxPath::FilterScan),
        }
    }

    /// Reference software demultiplexer: the pure linear scan, running
    /// every active channel's filter in id order until one accepts.
    /// `(target, filter_instrs)`. The property tests assert
    /// [`NetIoModule::classify`] agrees with this on both fields for
    /// arbitrary frames and channel sets; the benchmarks measure what the
    /// flow table saves over it. Not part of the release API (`testing`
    /// feature).
    #[cfg(any(test, feature = "testing"))]
    pub fn classify_scan_reference(&self, frame: &[u8]) -> (Option<ChannelId>, usize) {
        let mut instrs = 0;
        for &id in &self.scan_order {
            let ch = &self.channels[&id];
            if !ch.active {
                continue;
            }
            instrs += ch.demux.instruction_count();
            if ch.demux.matches(frame) {
                return (Some(ChannelId(id)), instrs);
            }
        }
        (None, instrs)
    }

    /// Software demultiplexing (Ethernet path): decides the receiving
    /// channel — flow table for exact-match bindings, filter scan for the
    /// rest — then places a handle to the frame in that channel's ring.
    pub fn deliver_software(&mut self, frame: &Frame) -> Delivery {
        let (target, instrs, path) = self.classify(frame);
        self.demux_stats.packets += 1;
        self.demux_stats.filter_instrs += instrs as u64;
        match path {
            DemuxPath::FlowTable => self.demux_stats.flow_hits += 1,
            DemuxPath::ListenTable => self.demux_stats.listen_hits += 1,
            _ => self.demux_stats.scan_fallbacks += 1,
        }
        unp_trace::emit(Some(frame.id()), || unp_trace::Event::DemuxClassify {
            path,
            filter_instrs: instrs as u32,
            matched: target.is_some(),
        });
        match target {
            Some(id) => self.place(id, frame, instrs, path),
            None => {
                self.default_deliveries += 1;
                Delivery::KernelDefault {
                    filter_instrs: instrs,
                    path,
                }
            }
        }
    }

    /// Hardware demultiplexing (AN1 path): the NIC already classified the
    /// frame to `ring` via its BQI table; place it directly.
    pub fn deliver_hardware(&mut self, ring: RingId, frame: &Frame) -> Delivery {
        let target = self.ring_index.get(&ring).copied();
        unp_trace::emit(Some(frame.id()), || unp_trace::Event::DemuxClassify {
            path: DemuxPath::Hardware,
            filter_instrs: 0,
            matched: target.is_some(),
        });
        match target {
            Some(id) => self.place(id, frame, 0, DemuxPath::Hardware),
            None => {
                self.default_deliveries += 1;
                Delivery::KernelDefault {
                    filter_instrs: 0,
                    path: DemuxPath::Hardware,
                }
            }
        }
    }

    fn place(
        &mut self,
        id: ChannelId,
        frame: &Frame,
        filter_instrs: usize,
        path: DemuxPath,
    ) -> Delivery {
        let pressure = self.pressure_cap;
        let ch = self
            .channels
            .get_mut(&id.0)
            .expect("placed to live channel");
        // Same backpressure as the shared-region model: an oversize packet
        // doesn't fit a slot, a full ring means the region is exhausted.
        // The pressure shim is a uniform clamp on the effective capacity.
        let capacity = pressure.map_or(ch.capacity, |c| ch.capacity.min(c));
        if frame.len() > ch.slot_size || ch.rx_ring.len() >= capacity {
            // A pressure-induced drop is one the uncapped ring would have
            // absorbed: the injected clamp, not load, is the cause.
            let shed = frame.len() <= ch.slot_size && ch.rx_ring.len() < ch.capacity;
            unp_trace::emit(Some(frame.id()), || unp_trace::Event::RingDrop {
                channel: id.0,
                pressure: shed,
            });
            return Delivery::Dropped;
        }
        // Tenant ring quota: the channel has room, but the owner may have
        // exhausted its aggregate slot budget across all its channels —
        // then the drop is charged to the *tenant*, not the channel, and
        // journaled distinctly so the causal trace can attribute it.
        let owner = ch.owner;
        if let Some(acct) = self.tenants.get_mut(&owner.0) {
            if acct.budget.ring_slots > 0 && acct.ring_occupancy >= acct.budget.ring_slots {
                acct.quota_drops += 1;
                let in_use = acct.ring_occupancy as u64;
                let quota = acct.budget.ring_slots as u64;
                unp_trace::emit(Some(frame.id()), || unp_trace::Event::QuotaDrop {
                    channel: id.0,
                    tenant: owner.0,
                    in_use,
                    quota,
                });
                return Delivery::QuotaDropped { tenant: owner };
            }
            acct.ring_occupancy += 1;
            acct.rx_delivered += 1;
        }
        let ch = self
            .channels
            .get_mut(&id.0)
            .expect("placed to live channel");
        ch.rx_ring.push_back(frame.clone());
        ch.rx_delivered += 1;
        match path {
            DemuxPath::FlowTable => ch.flow_hits += 1,
            DemuxPath::ListenTable => ch.listen_hits += 1,
            DemuxPath::FilterScan => ch.scan_fallbacks += 1,
            DemuxPath::Hardware => {}
        }
        let signal = !ch.notify_pending;
        if signal {
            ch.notify_pending = true;
        } else {
            ch.rx_batched += 1;
        }
        let depth = ch.rx_ring.len() as u32;
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
        let (channel, ch) = resolve(&self.caps, &mut self.channels, cap, Right::Receive)?;
        let frames = ch.rx_ring.len();
        // Consuming returns the slots to the tenant's ring budget.
        let owner = ch.owner;
        if let Some(acct) = self.tenants.get_mut(&owner.0) {
            acct.ring_occupancy = acct.ring_occupancy.saturating_sub(frames);
        }
        unp_trace::emit(None, || unp_trace::Event::WakeupBatch {
            channel: channel.0,
            frames: frames as u32,
        });
        Ok(ch.rx_ring.drain(..))
    }

    /// Ends a wakeup: if the ring is empty the notification flag clears
    /// (the thread blocks on the semaphore again) and `true` is returned;
    /// if packets arrived during processing the flag stays set and `false`
    /// tells the library to loop and consume again.
    pub fn end_wakeup(&mut self, cap: Capability) -> Result<bool, TxError> {
        let (_, ch) = resolve(&self.caps, &mut self.channels, cap, Right::Receive)?;
        if ch.rx_ring.is_empty() {
            ch.notify_pending = false;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Activates a channel's receive binding ("the registry server
    /// activates the address demultiplexing mechanism as part of the
    /// connection establishment phase").
    pub fn activate(&mut self, id: ChannelId) -> bool {
        let Some(ch) = self.channels.get_mut(&id.0) else {
            return false;
        };
        if !ch.active {
            ch.active = true;
            // Incremental cache maintenance: point-add this channel's
            // contribution instead of rebuilding everything.
            let n = ch.demux.instruction_count();
            let on_scan_tier = ch.slot == FlowSlot::Scan;
            self.instr_fen.add(id.0 as usize, n as isize);
            self.total_active_instrs += n;
            if on_scan_tier {
                self.residual.insert(id.0);
            }
        }
        self.debug_validate_caches();
        true
    }

    /// Pins the AN1 BQI the channel's template requires on outgoing
    /// packets, once the peer's announcement arrives during setup.
    pub fn set_template_bqi(&mut self, id: ChannelId, bqi: u16) -> bool {
        match self.channels.get_mut(&id.0) {
            Some(ch) => {
                ch.template.bqi = Some(bqi);
                true
            }
            None => false,
        }
    }

    /// Per-channel delivery/demux counters, or `None` for a dead channel.
    pub fn channel_stats(&self, id: ChannelId) -> Option<ChannelStats> {
        self.channels.get(&id.0).map(|ch| ChannelStats {
            delivered: ch.rx_delivered,
            batched: ch.rx_batched,
            flow_hits: ch.flow_hits,
            listen_hits: ch.listen_hits,
            scan_fallbacks: ch.scan_fallbacks,
        })
    }

    /// Software-demultiplexing counters since construction.
    pub fn demux_stats(&self) -> DemuxStats {
        self.demux_stats
    }

    /// Number of live flow-table entries (exact-match distilled bindings).
    pub fn flow_table_len(&self) -> usize {
        self.flow_entries
    }

    /// Number of live listen-table entries (wildcard distilled bindings).
    pub fn listen_table_len(&self) -> usize {
        self.listen_entries
    }

    /// Approximate heap footprint, in bytes, of the demultiplexing
    /// maintenance structures: both keyed tables, the scan order, the
    /// instruction Fenwick, and the residual set. Channel state itself
    /// (rings, templates, filters) is excluded — it exists under any demux
    /// strategy; this is the price of the *fast path*, which the scale
    /// sweep reports per channel count.
    pub fn demux_mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let flow_buckets =
            self.flow_table.capacity() * (size_of::<FlowKey>() + size_of::<Vec<u32>>());
        let flow_ids: usize = self
            .flow_table
            .values()
            .map(|v| v.capacity() * size_of::<u32>())
            .sum();
        let listen_buckets =
            self.listen_table.capacity() * (size_of::<ListenKey>() + size_of::<Vec<u32>>());
        let listen_ids: usize = self
            .listen_table
            .values()
            .map(|v| v.capacity() * size_of::<u32>())
            .sum();
        // BTreeSet nodes carry roughly two words of overhead per element
        // at our sizes; close enough for a footprint column.
        let residual = self.residual.len() * (size_of::<u32>() + 2 * size_of::<usize>());
        flow_buckets
            + flow_ids
            + listen_buckets
            + listen_ids
            + self.scan_order.capacity() * size_of::<u32>()
            + self.instr_fen.tree.capacity() * size_of::<usize>()
            + residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unp_wire::{
        EtherType, EthernetRepr, IpProtocol, Ipv4Addr, Ipv4Repr, MacAddr, SeqNum, TcpFlags, TcpRepr,
    };

    const US: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const THEM: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const OUR_MAC_IDX: u32 = 2;
    const THEIR_MAC_IDX: u32 = 1;

    fn spec() -> DemuxSpec {
        DemuxSpec {
            link_header_len: 14,
            protocol: IpProtocol::Tcp,
            local_ip: US,
            local_port: 80,
            remote_ip: Some(THEM),
            remote_port: Some(5000),
        }
    }

    fn template() -> HeaderTemplate {
        HeaderTemplate {
            link_header_len: 14,
            src_mac: Some(MacAddr::from_host_index(OUR_MAC_IDX)),
            dst_mac: None,
            ethertype: EtherType::Ipv4,
            protocol: IpProtocol::Tcp,
            src_ip: US,
            dst_ip: THEM,
            src_port: 80,
            dst_port: Some(5000),
            bqi: None,
        }
    }

    fn tcp_frame(src_ip: Ipv4Addr, dst_ip: Ipv4Addr, sport: u16, dport: u16) -> Frame {
        let t = TcpRepr {
            src_port: sport,
            dst_port: dport,
            seq: SeqNum(1),
            ack_num: SeqNum(0),
            flags: TcpFlags::ack(),
            window: 1000,
            mss: None,
        };
        let seg = t.build_segment(src_ip, dst_ip, b"d");
        let ip = Ipv4Repr::simple(src_ip, dst_ip, IpProtocol::Tcp, seg.len());
        Frame::from_vec(
            EthernetRepr {
                dst: MacAddr::from_host_index(if dst_ip == US {
                    OUR_MAC_IDX
                } else {
                    THEIR_MAC_IDX
                }),
                src: MacAddr::from_host_index(if src_ip == US {
                    OUR_MAC_IDX
                } else {
                    THEIR_MAC_IDX
                }),
                ethertype: EtherType::Ipv4,
            }
            .build_frame(&ip.build_packet(&seg)),
        )
    }

    #[test]
    fn channel_delivery_and_consume_roundtrip() {
        let mut m = NetIoModule::new();
        let (id, _send, recv, _ring) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        // Until activation, traffic falls through to the kernel default.
        let frame = tcp_frame(THEM, US, 5000, 80);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::KernelDefault { .. }
        ));
        m.activate(id);
        let d = m.deliver_software(&frame);
        match d {
            Delivery::Channel {
                id: did,
                signal,
                filter_instrs,
                ..
            } => {
                assert_eq!(did, id);
                assert!(signal, "first packet posts the semaphore");
                assert!(filter_instrs > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let pkts: Vec<Frame> = m.consume_batch(recv).unwrap().collect();
        assert_eq!(pkts, [frame]);
        assert!(m.end_wakeup(recv).unwrap());
    }

    #[test]
    fn notification_batching() {
        let mut m = NetIoModule::new();
        let (id, _send, recv, _) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.activate(id);
        let frame = tcp_frame(THEM, US, 5000, 80);
        let signals: Vec<bool> = (0..4)
            .map(|_| match m.deliver_software(&frame) {
                Delivery::Channel { signal, .. } => signal,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(signals, vec![true, false, false, false], "batched");
        assert_eq!(m.consume_batch(recv).unwrap().len(), 4);
        assert!(m.end_wakeup(recv).unwrap());
        let stats = m.channel_stats(id).unwrap();
        assert_eq!((stats.delivered, stats.batched), (4, 3));
        assert_eq!(
            stats.flow_hits + stats.listen_hits + stats.scan_fallbacks,
            4,
            "every software delivery is attributed to a demux tier"
        );
        // After consuming, the next packet signals again.
        match m.deliver_software(&frame) {
            Delivery::Channel { signal, .. } => assert!(signal),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unmatched_traffic_goes_to_kernel_default() {
        let mut m = NetIoModule::new();
        let (id, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.activate(id);
        // Wrong port: no channel matches.
        let frame = tcp_frame(THEM, US, 5000, 81);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::KernelDefault { .. }
        ));
        assert_eq!(m.default_deliveries, 1);
    }

    #[test]
    fn transmit_requires_valid_capability_and_template() {
        let mut m = NetIoModule::new();
        let (_, send, recv, _) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        let good = tcp_frame(US, THEM, 80, 5000);
        assert!(m.transmit(send, &good).is_ok());
        // Receive capability has no send right.
        assert_eq!(m.transmit(recv, &good).err(), Some(TxError::WrongRight));
        // Forged capability.
        assert_eq!(
            m.transmit(Capability(0xdead_beef), &good).err(),
            Some(TxError::BadCapability)
        );
    }

    #[test]
    fn impersonation_rejected_by_template() {
        let mut m = NetIoModule::new();
        let (_, send, _, _) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        // Spoofed source IP.
        let spoofed_ip = tcp_frame(Ipv4Addr::new(10, 0, 0, 9), THEM, 80, 5000);
        assert!(matches!(
            m.transmit(send, &spoofed_ip),
            Err(TxError::Template(_))
        ));
        // Wrong source port (stealing another connection's identity).
        let spoofed_port = tcp_frame(US, THEM, 81, 5000);
        assert!(matches!(
            m.transmit(send, &spoofed_port),
            Err(TxError::Template(_))
        ));
        assert_eq!(m.tx_rejections, 2);
    }

    #[test]
    fn hardware_path_places_by_ring() {
        let mut m = NetIoModule::new();
        let (id, _, _, ring) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        let frame = tcp_frame(THEM, US, 5000, 80);
        match m.deliver_hardware(ring, &frame) {
            Delivery::Channel {
                id: did,
                filter_instrs,
                ..
            } => {
                assert_eq!(did, id);
                assert_eq!(filter_instrs, 0, "no software filtering on AN1");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown ring → kernel default.
        assert!(matches!(
            m.deliver_hardware(RingId(999), &frame),
            Delivery::KernelDefault { .. }
        ));
    }

    #[test]
    fn ring_overflow_drops() {
        let mut m = NetIoModule::new();
        let (id, _, _, _) = m.create_channel(OwnerTag(1), &spec(), template(), 2, 2048);
        m.activate(id);
        let frame = tcp_frame(THEM, US, 5000, 80);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { .. }
        ));
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { .. }
        ));
        assert_eq!(m.deliver_software(&frame), Delivery::Dropped);
    }

    #[test]
    fn tenant_ring_quota_drops_with_attribution() {
        let mut m = NetIoModule::new();
        let (id, _, recv, _) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.activate(id);
        m.set_tenant_budget(
            OwnerTag(1),
            TenantBudget {
                ring_slots: 3,
                ..TenantBudget::default()
            },
        );
        let frame = tcp_frame(THEM, US, 5000, 80);
        for _ in 0..3 {
            assert!(matches!(
                m.deliver_software(&frame),
                Delivery::Channel { .. }
            ));
        }
        // Ring has 8 slots free, but the tenant's quota is exhausted — and
        // the drop is attributed to the tenant, not the ring.
        assert_eq!(
            m.deliver_software(&frame),
            Delivery::QuotaDropped {
                tenant: OwnerTag(1)
            }
        );
        let s = m.tenant_stats(OwnerTag(1)).unwrap();
        assert_eq!((s.quota_drops, s.ring_slots, s.rx_delivered), (1, 3, 3));
        // Consuming releases the occupancy and delivery resumes.
        assert_eq!(m.consume_batch(recv).unwrap().len(), 3);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { .. }
        ));
        assert_eq!(m.tenant_stats(OwnerTag(1)).unwrap().ring_slots, 1);
    }

    #[test]
    fn tenant_tx_credit_refills_on_epoch_boundary() {
        let mut m = NetIoModule::new();
        let (_, send, _, _) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.set_tenant_budget(
            OwnerTag(1),
            TenantBudget {
                tx_credit: 2,
                ..TenantBudget::default()
            },
        );
        let good = tcp_frame(US, THEM, 80, 5000);
        assert!(m.transmit(send, &good).is_ok());
        assert!(m.transmit(send, &good).is_ok());
        assert_eq!(m.transmit(send, &good).err(), Some(TxError::QuotaExceeded));
        assert_eq!(m.tenant_stats(OwnerTag(1)).unwrap().tx_rejections, 1);
        // Same epoch: still dry.
        m.advance_tx_window(TX_WINDOW_NS - 1);
        assert_eq!(m.transmit(send, &good).err(), Some(TxError::QuotaExceeded));
        // Next epoch-aligned window: credit refills.
        m.advance_tx_window(TX_WINDOW_NS);
        assert!(m.transmit(send, &good).is_ok());
        assert_eq!(m.tenant_stats(OwnerTag(1)).unwrap().tx_frames, 3);
    }

    #[test]
    fn tenant_channel_cap_bounds_creation_and_destroy_releases() {
        let mut m = NetIoModule::new();
        m.set_tenant_budget(
            OwnerTag(1),
            TenantBudget {
                max_channels: 1,
                ..TenantBudget::default()
            },
        );
        let (id, ..) = m
            .try_create_channel(OwnerTag(1), &spec(), template(), 8, 2048)
            .expect("first channel within cap");
        assert!(
            m.try_create_channel(OwnerTag(1), &wildcard_spec(81), template(), 8, 2048)
                .is_none(),
            "second channel exceeds cap"
        );
        // Other tenants are not affected by tenant 1's cap.
        assert!(m
            .try_create_channel(OwnerTag(2), &wildcard_spec(82), template(), 8, 2048)
            .is_some());
        assert!(m.destroy_channel(id, OwnerTag(1)));
        assert!(m
            .try_create_channel(OwnerTag(1), &wildcard_spec(83), template(), 8, 2048)
            .is_some());
    }

    #[test]
    fn destroying_a_channel_releases_its_ring_occupancy() {
        let mut m = NetIoModule::new();
        let (id, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.activate(id);
        let frame = tcp_frame(THEM, US, 5000, 80);
        for _ in 0..2 {
            assert!(matches!(
                m.deliver_software(&frame),
                Delivery::Channel { .. }
            ));
        }
        assert_eq!(m.tenant_stats(OwnerTag(1)).unwrap().ring_slots, 2);
        assert!(m.destroy_channel(id, OwnerTag(1)));
        let s = m.tenant_stats(OwnerTag(1)).unwrap();
        assert_eq!((s.ring_slots, s.open_channels), (0, 0));
    }

    #[test]
    fn kernel_tenant_cannot_be_budgeted() {
        let mut m = NetIoModule::new();
        m.set_tenant_budget(
            OwnerTag(0),
            TenantBudget {
                ring_slots: 1,
                tx_credit: 1,
                max_channels: 1,
            },
        );
        assert!(m.tenant_stats(OwnerTag(0)).is_none(), "no account minted");
    }

    #[test]
    fn destroy_channel_enforces_ownership_and_revokes_caps() {
        let mut m = NetIoModule::new();
        let (id, send, _, _) = m.create_channel(OwnerTag(1), &spec(), template(), 4, 2048);
        assert!(!m.destroy_channel(id, OwnerTag(2)), "non-owner refused");
        assert!(m.destroy_channel(id, OwnerTag(1)));
        assert_eq!(m.channel_count(), 0);
        let frame = tcp_frame(US, THEM, 80, 5000);
        assert_eq!(m.transmit(send, &frame).err(), Some(TxError::BadCapability));
        // Kernel can always reap.
        let (id2, ..) = m.create_channel(OwnerTag(3), &spec(), template(), 4, 2048);
        assert!(m.destroy_channel(id2, OwnerTag(0)));
    }

    #[test]
    fn oversized_frame_dropped_not_truncated() {
        let mut m = NetIoModule::new();
        let (id, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 4, 48);
        m.activate(id);
        let frame = tcp_frame(THEM, US, 5000, 80); // 55 bytes > 48-byte slots
        assert_eq!(m.deliver_software(&frame), Delivery::Dropped);
    }

    #[test]
    fn wakeup_lifecycle_batches_across_processing() {
        let mut m = NetIoModule::new();
        let (_, _send, recv, _) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.activate(ChannelId(0));
        let frame = tcp_frame(THEM, US, 5000, 80);
        // First packet signals; the library starts its wakeup.
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { signal: true, .. }
        ));
        assert_eq!(m.consume_batch(recv).unwrap().len(), 1);
        // While processing, two more arrive: neither signals.
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { signal: false, .. }
        ));
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { signal: false, .. }
        ));
        // The wakeup ends with packets still queued: keep going.
        assert!(!m.end_wakeup(recv).unwrap());
        assert_eq!(m.consume_batch(recv).unwrap().len(), 2);
        // Now the ring is empty: the thread blocks again...
        assert!(m.end_wakeup(recv).unwrap());
        // ...and the next packet posts a fresh signal.
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { signal: true, .. }
        ));
    }

    #[test]
    fn wakeup_api_enforces_rights() {
        let mut m = NetIoModule::new();
        let (id, send, recv, _) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.activate(id);
        m.deliver_software(&tcp_frame(THEM, US, 5000, 80));
        unp_trace::journal_start();
        assert_eq!(m.consume_batch(send).err(), Some(TxError::WrongRight));
        assert_eq!(m.end_wakeup(send), Err(TxError::WrongRight));
        // The ring kept its frame for the Receive capability, whose drain
        // is the journal's only wakeup_batch.
        assert_eq!(m.consume_batch(recv).unwrap().len(), 1);
        let journal = unp_trace::journal_stop();
        let batches = journal.iter().filter(|r| r.event.name() == "wakeup_batch");
        assert_eq!(batches.count(), 1);
    }

    fn wildcard_spec(port: u16) -> DemuxSpec {
        DemuxSpec {
            link_header_len: 14,
            protocol: IpProtocol::Tcp,
            local_ip: US,
            local_port: port,
            remote_ip: None,
            remote_port: None,
        }
    }

    #[test]
    fn exact_binding_takes_flow_table_path() {
        let mut m = NetIoModule::new();
        let (id, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.activate(id);
        assert_eq!(m.flow_table_len(), 1);
        let frame = tcp_frame(THEM, US, 5000, 80);
        match m.deliver_software(&frame) {
            Delivery::Channel {
                id: did,
                path,
                filter_instrs,
                ..
            } => {
                assert_eq!(did, id);
                assert_eq!(path, DemuxPath::FlowTable);
                // Scan-equivalent modeled cost: this channel's own program.
                assert_eq!(filter_instrs, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = m.demux_stats();
        assert_eq!((s.flow_hits, s.scan_fallbacks, s.packets), (1, 0, 1));
    }

    #[test]
    fn lower_id_wildcard_shadows_flow_hit() {
        // Channel 0: wildcard listener on port 80. Channel 1: exact binding
        // for the same traffic. A scan visits id 0 first, so the wildcard
        // must win even though the flow table knows channel 1 — and it wins
        // from the listen table, not the residual scan.
        let mut m = NetIoModule::new();
        let (wild, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(80), template(), 8, 2048);
        let (exact, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.activate(wild);
        m.activate(exact);
        let frame = tcp_frame(THEM, US, 5000, 80);
        match m.deliver_software(&frame) {
            Delivery::Channel { id, path, .. } => {
                assert_eq!(id, wild, "scan order must win");
                assert_eq!(path, DemuxPath::ListenTable);
            }
            other => panic!("unexpected {other:?}"),
        }
        // With the wildcard torn down, the exact binding takes over on the
        // fast path.
        assert!(m.destroy_channel(wild, OwnerTag(1)));
        match m.deliver_software(&frame) {
            Delivery::Channel { id, path, .. } => {
                assert_eq!(id, exact);
                assert_eq!(path, DemuxPath::FlowTable);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn higher_id_wildcard_does_not_preempt_flow_hit() {
        let mut m = NetIoModule::new();
        let (exact, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        let (wild, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(80), template(), 8, 2048);
        m.activate(exact);
        m.activate(wild);
        let frame = tcp_frame(THEM, US, 5000, 80);
        match m.deliver_software(&frame) {
            Delivery::Channel { id, path, .. } => {
                assert_eq!(id, exact);
                assert_eq!(path, DemuxPath::FlowTable);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_keys_resolve_to_lowest_active_id() {
        let mut m = NetIoModule::new();
        let (a, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        let (b, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        assert_eq!(m.flow_table_len(), 2);
        // Only the higher id is active: it receives.
        m.activate(b);
        let frame = tcp_frame(THEM, US, 5000, 80);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { id, .. } if id == b
        ));
        // Both active: the scan winner is the lower id.
        m.activate(a);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { id, .. } if id == a
        ));
        assert!(m.destroy_channel(a, OwnerTag(1)));
        assert_eq!(m.flow_table_len(), 1);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { id, .. } if id == b
        ));
    }

    #[test]
    fn fragment_falls_back_to_scan_tier() {
        use unp_wire::Ipv4Repr;
        let mut m = NetIoModule::new();
        let (id, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.activate(id);
        // A non-first fragment has no flow identity and no transport
        // header: the exact binding rejects it, and it lands on the kernel
        // default path via the scan tier.
        let ip = Ipv4Repr {
            frag_offset: 64,
            ..Ipv4Repr::simple(THEM, US, IpProtocol::Tcp, 8)
        };
        let frame = Frame::from_vec(
            EthernetRepr {
                dst: MacAddr::from_host_index(OUR_MAC_IDX),
                src: MacAddr::from_host_index(THEIR_MAC_IDX),
                ethertype: EtherType::Ipv4,
            }
            .build_frame(&ip.build_packet(&[0u8; 8])),
        );
        match m.deliver_software(&frame) {
            Delivery::KernelDefault { path, .. } => assert_eq!(path, DemuxPath::FilterScan),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reclaim_owner_sweeps_only_that_owners_channels() {
        let mut m = NetIoModule::new();
        let (dead1, ..) = m.create_channel(OwnerTag(7), &spec(), template(), 8, 2048);
        let (alive, ..) = m.create_channel(OwnerTag(8), &wildcard_spec(81), template(), 8, 2048);
        let (dead2, ..) = m.create_channel(OwnerTag(7), &wildcard_spec(82), template(), 8, 2048);
        m.activate(alive);
        let reclaimed = m.reclaim_owner(OwnerTag(7));
        let ids: Vec<ChannelId> = reclaimed.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![dead1, dead2]);
        assert_eq!(m.channel_count(), 1);
        assert_eq!(m.flow_table_len(), 0, "dead flow entry swept");
        assert_eq!(m.listen_table_len(), 1, "survivor's listen entry kept");
        // The survivor still receives.
        let frame = tcp_frame(THEM, US, 5000, 81);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { id, .. } if id == alive
        ));
        assert!(m.reclaim_owner(OwnerTag(7)).is_empty(), "idempotent");
    }

    #[test]
    fn pressure_cap_sheds_at_reduced_capacity() {
        let mut m = NetIoModule::new();
        let (id, _, recv, _) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        m.activate(id);
        m.set_pressure_cap(Some(1));
        let frame = tcp_frame(THEM, US, 5000, 80);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { .. }
        ));
        assert_eq!(m.deliver_software(&frame), Delivery::Dropped);
        // Lifting the pressure restores the configured capacity.
        m.set_pressure_cap(None);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { .. }
        ));
        assert_eq!(m.consume_batch(recv).unwrap().len(), 2);
    }

    #[test]
    fn listen_binding_takes_listen_table_path() {
        let mut m = NetIoModule::new();
        let (id, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(80), template(), 8, 2048);
        m.activate(id);
        assert_eq!((m.flow_table_len(), m.listen_table_len()), (0, 1));
        // Two different remote endpoints both land via the 3-tuple table —
        // no filter interpretation on the host path.
        for sport in [5000, 6000] {
            let frame = tcp_frame(THEM, US, sport, 80);
            match m.deliver_software(&frame) {
                Delivery::Channel {
                    id: did,
                    path,
                    filter_instrs,
                    ..
                } => {
                    assert_eq!(did, id);
                    assert_eq!(path, DemuxPath::ListenTable);
                    // Scan-equivalent modeled cost: the wildcard program
                    // is 5 instructions (no remote compares).
                    assert_eq!(filter_instrs, 5);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let s = m.demux_stats();
        assert_eq!((s.flow_hits, s.listen_hits, s.scan_fallbacks), (0, 2, 0));
        let cs = m.channel_stats(id).unwrap();
        assert_eq!(cs.listen_hits, 2);
    }

    #[test]
    fn half_wildcard_binding_stays_on_scan_tier() {
        let mut m = NetIoModule::new();
        let half = DemuxSpec {
            remote_port: None,
            ..spec()
        };
        let (id, ..) = m.create_channel(OwnerTag(1), &half, template(), 8, 2048);
        m.activate(id);
        assert_eq!((m.flow_table_len(), m.listen_table_len()), (0, 0));
        let frame = tcp_frame(THEM, US, 5000, 80);
        match m.deliver_software(&frame) {
            Delivery::Channel { id: did, path, .. } => {
                assert_eq!(did, id);
                assert_eq!(path, DemuxPath::FilterScan);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn incremental_caches_match_rebuild_through_churn() {
        // The oracle invariant behind the incremental maintenance: after
        // any interleaving of create/activate/destroy, the patched-in-place
        // caches equal a from-scratch rebuild, and classification results
        // are unchanged by forcing that rebuild.
        let mut m = NetIoModule::new();
        let mut ids = Vec::new();
        for i in 0..24u16 {
            let s = match i % 3 {
                0 => spec(),
                1 => wildcard_spec(80 + i),
                _ => DemuxSpec {
                    remote_port: None,
                    ..spec()
                },
            };
            let (id, ..) = m.create_channel(OwnerTag(1), &s, template(), 8, 2048);
            if i % 4 != 3 {
                m.activate(id);
            }
            ids.push(id);
            assert!(m.caches_match_rebuild(), "after install {i}");
        }
        let frame = tcp_frame(THEM, US, 5000, 80);
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                assert!(m.destroy_channel(*id, OwnerTag(1)));
                assert!(m.caches_match_rebuild(), "after destroy {i}");
                let after = m.classify(&frame);
                m.force_rebuild_active();
                assert_eq!(m.classify(&frame), after, "rebuild must be a no-op");
            }
        }
        // Re-activation of a live channel is idempotent.
        for id in &ids[1..2] {
            m.activate(*id);
            m.activate(*id);
            assert!(m.caches_match_rebuild());
        }
    }

    #[test]
    fn duplicate_listen_keys_resolve_to_lowest_active_id() {
        let mut m = NetIoModule::new();
        let (a, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(80), template(), 8, 2048);
        let (b, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(80), template(), 8, 2048);
        assert_eq!(m.listen_table_len(), 2);
        m.activate(b);
        let frame = tcp_frame(THEM, US, 5000, 80);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { id, .. } if id == b
        ));
        m.activate(a);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { id, .. } if id == a
        ));
        assert!(m.destroy_channel(a, OwnerTag(1)));
        assert_eq!(m.listen_table_len(), 1);
        assert!(matches!(
            m.deliver_software(&frame),
            Delivery::Channel { id, .. } if id == b
        ));
    }

    #[test]
    fn demux_mem_bytes_tracks_population() {
        let mut m = NetIoModule::new();
        let empty = m.demux_mem_bytes();
        for i in 0..64u16 {
            let s = DemuxSpec {
                remote_port: Some(6000 + i),
                ..spec()
            };
            let (id, ..) = m.create_channel(OwnerTag(1), &s, template(), 2, 256);
            m.activate(id);
        }
        assert!(
            m.demux_mem_bytes() > empty,
            "footprint grows with the tables"
        );
    }

    #[test]
    fn classify_agrees_with_scan_reference() {
        let mut m = NetIoModule::new();
        let (a, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
        let (b, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(81), template(), 8, 2048);
        m.activate(a);
        m.activate(b);
        for frame in [
            tcp_frame(THEM, US, 5000, 80),
            tcp_frame(THEM, US, 5000, 81),
            tcp_frame(THEM, US, 5001, 80),
            tcp_frame(US, THEM, 80, 5000),
        ] {
            let (fast, fast_instrs, _) = m.classify(&frame);
            let (slow, slow_instrs) = m.classify_scan_reference(&frame);
            assert_eq!(fast, slow);
            assert_eq!(fast_instrs, slow_instrs, "modeled cost must match scan");
        }
    }
}
