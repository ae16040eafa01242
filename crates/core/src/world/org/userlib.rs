//! The paper's organization: the protocol library in the application's
//! address space, fed through per-connection kernel channels, with the
//! registry server on the handshake path only. This module is the receive
//! side — demux to a channel, the library thread's wakeup and its batch,
//! the registry's input — and the bookkeeping only this organization
//! keeps; [`handshake`] is what the registry's actions do to it.

pub(crate) mod handshake;

use std::collections::{HashMap, VecDeque};

use unp_buffers::{Frame, OwnerTag, RingId};
use unp_kernel::{Capability, ChannelId, Delivery, Discard};
use unp_registry::HsId;
use unp_sim::{DemuxPath, Nanos};
use unp_tcp::{Tcb, TcpConfig};
use unp_trace::{Ctr, Hist};
use unp_wire::{An1Frame, IpProtocol, Ipv4Addr};

use crate::app::AppLogic;
use crate::world::costs::tcp_seg_cost;
use crate::world::event::{host_step, host_step_intr, Event};
use crate::world::ip::{ip_ingress, kernel_ip_input};
use crate::world::tcp::{conn_segment, parse_tcp, parse_tcp_frame, seg_flags};
use crate::world::{Ablation, ChanInfo, Eng, Host, Nic, PairKey, World};
use handshake::{apply_registry_actions, channel_binding, open};

/// What only a user-library host keeps, beside the connections every
/// organization has.
#[derive(Default)]
pub(crate) struct UserLib {
    /// In-flight handshakes, by registry id.
    handshakes: HashMap<HsId, Handshake>,
    chan_owner: HashMap<ChannelId, ChanOwner>,
    /// Emptied wakeup batches: a batch travels by value in its
    /// [`Event::LibraryChain`] and comes back here when it ends, so the
    /// next wakeup fills a queue that already has its capacity.
    batch_spare: Vec<VecDeque<Frame>>,
    /// Revoked capabilities the byzantine capability-storm replays, one
    /// per hostile tenant (minted from a destroyed scratch channel on the
    /// storm's first tick).
    stale_caps: HashMap<u64, Capability>,
    /// Connect calls whose RPC to the registry is being paid for, in the
    /// order their [`Event::Connect`]s fire: each is scheduled at its
    /// host CPU charge's completion, those times never decrease, and the
    /// engine breaks ties by scheduling order, so the front call is the
    /// one that is due.
    connects: VecDeque<ConnectCall>,
}

/// The arguments of an application's connect, waiting for its RPC.
struct ConnectCall {
    tenant: Option<OwnerTag>,
    remote: (Ipv4Addr, u16),
    cfg: TcpConfig,
    app: Box<dyn AppLogic>,
    write_size: usize,
}

impl UserLib {
    /// How many handshake records, channel-owner entries and waiting
    /// connect calls are held: all must read zero on a drained host
    /// ([`World::leaks`]).
    pub(crate) fn held(&self) -> [usize; 3] {
        [
            self.handshakes.len(),
            self.chan_owner.len(),
            self.connects.len(),
        ]
    }

    /// The handshake in flight on `key`, in either phase.
    fn in_flight(&mut self, key: PairKey) -> Option<&mut Handshake> {
        self.handshakes.values_mut().find(|r| r.key == key)
    }
}

/// Everything the world holds for one registry handshake, from the
/// channel [`handshake::open`] binds for it before its SYN (active open)
/// or SYN-ACK (passive open) leaves, until the registry reports `Complete`
/// or `Failed`: a record exists only with its channel.
struct Handshake {
    /// The tenant the connection and its channel belong to.
    owner: OwnerTag,
    /// Active opens: the application waiting for the connection and its
    /// write granularity. Passive opens get theirs from the listener.
    app: Option<Box<dyn AppLogic>>,
    write_size: usize,
    /// The pre-created channel. The peer's BQI announcement (AN1) is kept
    /// in `chan.peer_bqi` as it arrives.
    chan: ChanInfo,
    key: PairKey,
    phase: Phase,
}

/// Where a handshake is in its hand-off to the library.
enum Phase {
    /// The registry runs it: frames for it go to the registry.
    Bound,
    /// The registry handed over the established TCB and finalization is in
    /// flight: the TCB waits here, where a crash finds it, with the frames
    /// that arrive on the kernel path meanwhile (the activation race the
    /// paper's overlap of setup with transmission creates).
    Completing(Box<Tcb>, VecDeque<Frame>),
}

/// Whose deliveries a channel's ring holds.
#[derive(Clone, Copy)]
enum ChanOwner {
    /// An established connection's library.
    Conn(u32),
    /// A handshake the registry is still running.
    Handshake(HsId),
}

/// IP input: TCP is demultiplexed to a connection's channel (or the
/// kernel-default path to the registry) without the kernel looking past
/// the headers; `hw_ring` is the AN1 controller's verdict.
pub(crate) fn ip_input(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    frame: Frame,
    hw_ring: Option<RingId>,
) {
    // Only TCP goes through connection channels; other IP protocols take
    // the kernel's own IP input, which then has no TCP to hand back.
    let lhl = w.hosts[h].link_header_len();
    let is_tcp = frame.len() > lhl + 9 && frame[lhl + 9] == IpProtocol::Tcp.to_u8();
    if !is_tcp {
        kernel_ip_input(w, eng, h, &frame);
        return;
    }
    // Slow-consumer windows from the fault plan clamp the effective ring
    // capacity for the delivery below (None clears any previous clamp; a
    // plan without pressure windows always yields None). Overflow drops
    // recover through normal TCP retransmission.
    let cap = w.faults.ring_cap(h, eng.now());
    w.hosts[h].netio.set_pressure_cap(cap);
    let delivery = match hw_ring {
        Some(ring) => w.hosts[h].netio.deliver_hardware(ring, &frame),
        None => w.hosts[h].netio.deliver_software(&frame),
    };
    let c = &w.costs;
    // The modeled demux cost. Software deliveries charge the filter-scan
    // model whether the host mechanism was the flow table or the scan
    // (`filter_instrs` is scan-equivalent by construction): the compared
    // 1993 systems interpret a filter per packet, and the tables must not
    // move when the reproduction's own hot path gets faster. See
    // `CostModel::flow_demux` for the modeled fast-path constant ablations
    // use.
    let model_path = if hw_ring.is_some() {
        DemuxPath::Hardware
    } else {
        DemuxPath::FilterScan
    };
    match delivery {
        Delivery::Channel {
            id,
            signal,
            filter_instrs,
            path,
            depth,
        } => {
            let demux_cost = c.demux_cost(model_path, filter_instrs);
            w.metrics.bump(Ctr::ChDeliveries);
            // Live tier/occupancy telemetry: which machinery actually
            // decided the delivery (unlike `model_path`, which is what
            // the 1993 cost model charges), and the ring backlog after
            // the push — what a windowed sampler watches.
            match path {
                DemuxPath::FlowTable => w.metrics.bump(Ctr::ChFlowHits),
                DemuxPath::ListenTable => w.metrics.bump(Ctr::ChListenHits),
                DemuxPath::FilterScan => w.metrics.bump(Ctr::ChScanFallbacks),
                DemuxPath::Hardware => {}
            }
            w.metrics.sample(Hist::RingDepth, depth as u64);
            // Byzantine ring-flood: the hostile tenant's library "never
            // wakes up", so its rings fill until the per-tenant quota
            // sheds further deliveries. Only the demux bookkeeping is
            // charged — exactly the batched path's cost shape.
            if let Some(owner) = w.hosts[h].netio.channel_owner(id) {
                if w.faults.ring_flood_active(h, owner.0, eng.now()) {
                    w.hosts[h]
                        .cpu
                        .charge_priority(eng.now(), demux_cost + c.ring_op);
                    return;
                }
            }
            let signal = signal || w.ablation == Some(Ablation::Batching);
            if signal {
                let cost = demux_cost
                    + c.ring_op
                    + c.semaphore_signal
                    + c.wakeup_resched
                    + c.thread_switch;
                let wakeup = Event::LibraryWakeup { host: h, chan: id };
                host_step_intr(w, eng, h, cost, wakeup);
            } else {
                // Batched: no interrupt taken; the running library thread
                // will consume this frame from the ring. Only the demux
                // machinery's bookkeeping costs.
                w.metrics.bump(Ctr::ChBatched);
                w.hosts[h]
                    .cpu
                    .charge_priority(eng.now(), demux_cost + c.ring_op);
            }
        }
        Delivery::KernelDefault { filter_instrs, .. } => {
            let demux_cost = c.demux_cost(model_path, filter_instrs);
            let input = Event::RegistryInput { host: h, frame };
            host_step(w, eng, h, demux_cost, input);
        }
        // The channel had room but its tenant's aggregate ring budget was
        // exhausted — charged to the tenant's account (`quota_drops`),
        // recovered by TCP like any other ring drop.
        Delivery::Dropped(Discard::TenantQuota { .. }) => {}
        Delivery::Dropped(_) => w.metrics.bump(Ctr::ChRingDrops),
    }
}

/// The library thread wakes (or, at the end of a batch, finds more queued
/// without a new semaphore signal): consume every queued frame, run the
/// protocol over each, deliver to the application.
pub(crate) fn library_wakeup(w: &mut World, eng: &mut Eng, h: usize, chan: ChannelId) {
    let cid = match w.hosts[h].userlib.chan_owner.get(&chan) {
        Some(&ChanOwner::Conn(cid)) => cid,
        // Pre-establishment hardware deliveries land here with no conn
        // yet: feed them back through the registry.
        Some(&ChanOwner::Handshake(hs)) => {
            // A handshake's channel-owner entry goes with its record.
            let recv_cap = w.hosts[h].userlib.handshakes[&hs].chan.recv_cap;
            let Some(mut batch) = drain_ring(&mut w.hosts[h], recv_cap) else {
                return;
            };
            let _ = w.hosts[h].netio.end_wakeup(recv_cap);
            for f in batch.drain(..) {
                registry_tcp_input(w, eng, h, f);
            }
            w.hosts[h].userlib.batch_spare.push(batch);
            return;
        }
        None => return,
    };
    let recv_cap = match &w.hosts[h].conns.get(&cid).and_then(|c| c.chan.as_ref()) {
        Some(ci) => ci.recv_cap,
        None => return,
    };
    // Consume without clearing the notification: packets arriving while
    // the library thread is processing are picked up by the same wakeup
    // (the paper's signal batching).
    let host = &mut w.hosts[h];
    let Some(batch) = drain_ring(host, recv_cap) else {
        return;
    };
    if batch.is_empty() {
        host.userlib.batch_spare.push(batch);
        let _ = host.netio.end_wakeup(recv_cap);
        return;
    }
    w.metrics
        .sample(Hist::WakeupBatchFrames, batch.len() as u64);
    // Process the consumed batch one frame at a time, each charged
    // individually, so acknowledgments flow as segments are handled (the
    // batching amortizes only the semaphore/thread-switch, not the
    // protocol work — processing a batch "atomically" would stall the
    // sender's ACK clock).
    library_process_chain(w, eng, h, cid, batch);
}

/// Consumes the ring behind `recv_cap` into a queue from the spares, sized
/// to the backlog, not the next power of two: a queue settles at the
/// largest batch it has held. `None` when the capability opens no ring.
fn drain_ring(host: &mut Host, recv_cap: Capability) -> Option<VecDeque<Frame>> {
    let ring = host.netio.consume_batch(recv_cap).ok()?;
    let mut batch = host.userlib.batch_spare.pop().unwrap_or_default();
    batch.reserve_exact(ring.len());
    batch.extend(ring);
    Some(batch)
}

/// Charges the library for the frame at the front of `batch` and schedules
/// its [`Event::LibraryChain`]; an empty batch ends the wakeup. The frames
/// are charged one by one whether or not the connection outlives them.
fn library_process_chain(w: &mut World, eng: &mut Eng, h: usize, cid: u32, batch: VecDeque<Frame>) {
    let Some(frame) = batch.front() else {
        w.hosts[h].userlib.batch_spare.push(batch);
        // Batch done: re-check the ring; more may have arrived while we
        // were processing (they were batched, not signalled).
        let chan = w.hosts[h].conns.get(&cid).and_then(|c| c.chan.as_ref());
        if let Some((id, cap)) = chan.map(|ci| (ci.id, ci.recv_cap)) {
            if let Ok(false) = w.hosts[h].netio.end_wakeup(cap) {
                library_wakeup(w, eng, h, id);
            }
        }
        return;
    };
    let lhl = w.hosts[h].link_header_len();
    let len = frame.len().saturating_sub(lhl);
    // On the software-demux (Ethernet) path, the shared-region crossing
    // under user-level synchronization costs extra per byte (paper: +0.8 ms
    // for a maximum-sized packet vs Ultrix); the AN1 hardware path is
    // "comparable" to the in-kernel path and is not charged.
    let sw_extra = match w.hosts[h].nic {
        Nic::Lance(_) => w.costs.lib_sw_rx_per_byte * len as Nanos,
        Nic::An1(_) => 0,
    };
    let cost = tcp_seg_cost(w, len) + w.costs.library_call + w.costs.lib_upcall_sync + sw_extra;
    let host = h;
    host_step(w, eng, h, cost, Event::LibraryChain { host, cid, batch });
}

/// [`Event::LibraryChain`]: the front frame of `batch` is paid for — run
/// the protocol over it, then go on with the rest.
pub(crate) fn library_chain(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: u32,
    mut batch: VecDeque<Frame>,
) {
    // Scheduled by `library_process_chain` for a batch whose `front()` it
    // had just read, and the batch travelled here by value.
    let frame = batch.pop_front().expect("scheduled for its front frame");
    library_input(w, eng, h, cid, frame);
    library_process_chain(w, eng, h, cid, batch);
}

/// The library's input for one ring frame: its own IP input (fragments
/// handled by the shared IP library), the TCP parse, the connection.
fn library_input(w: &mut World, eng: &mut Eng, h: usize, cid: u32, frame: Frame) {
    let lhl = w.hosts[h].link_header_len();
    if frame.len() <= lhl {
        return;
    }
    let Ok((src, payload)) = ip_ingress(w, h, &frame, eng.now()) else {
        w.metrics.bump(Ctr::LibNonTcp);
        return;
    };
    let local_ip = w.hosts[h].ip;
    let Some((repr, data)) = parse_tcp(w, h, src, local_ip, &payload) else {
        return;
    };
    unp_trace::emit(Some(frame.id()), || unp_trace::Event::TcpSegment {
        dir: unp_trace::Dir::Rx,
        local_port: repr.dst_port,
        remote_port: repr.src_port,
        remote_ip: src.0,
        seq: repr.seq.0,
        ack: repr.ack_num.0,
        wnd: u32::from(repr.window),
        flags: seg_flags(&repr),
        payload: data.len() as u32,
        wire: (frame.len() - lhl) as u32,
    });
    conn_segment(w, eng, h, cid, &repr, &data, frame.id());
}

/// [`Event::RegistryInput`]: kernel-default TCP traffic — handshakes and
/// strays, handled by the registry server (one address-space crossing
/// away). A frame that does not parse is discarded here, uncharged.
pub(crate) fn registry_tcp_input(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    if parse_tcp_frame(w, h, &frame).is_none() {
        return;
    }
    // Any BQI announcement riding the AN1 link header.
    let announce = match w.hosts[h].nic {
        Nic::An1(_) => An1Frame::new_checked(&frame[..]).map_or(0, |f| f.announce()),
        Nic::Lance(_) => 0,
    };
    // Charge the protocol cost now; the routing decision happens at
    // completion time so it sees the registry/connection state as of when
    // the segment is actually examined (the arrival-time state may change
    // while the segment waits its turn on the CPU).
    let cost = tcp_seg_cost(w, frame.len() - w.hosts[h].link_header_len());
    let segment = Event::RegistrySegment {
        host: h,
        frame,
        announce,
    };
    host_step(w, eng, h, cost, segment);
}

/// [`Event::RegistrySegment`]: the segment in `frame` is paid for — to the
/// library, parked, or to the registry, by the state now.
pub(crate) fn registry_segment(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    frame: Frame,
    announce: u16,
) {
    // `registry_tcp_input` parsed these bytes and accepted them, so the
    // parse succeeds again, with nothing to count or journal.
    let Some((src, repr, data)) = parse_tcp_frame(w, h, &frame) else {
        return;
    };
    let key = (repr.dst_port, src, repr.src_port);
    // An established connection whose binding the frame missed (e.g. a
    // handshake retransmission racing activation): to the library.
    if let Some(&cid) = w.hosts[h].conn_index.get(&key) {
        return conn_segment(w, eng, h, cid, &repr, &data, data.id());
    }
    // A connection mid-Complete: the kernel holds the frame until the
    // library's channel activates.
    let rec = w.hosts[h].userlib.in_flight(key);
    if let Some(Handshake {
        phase: Phase::Completing(_, parked),
        ..
    }) = rec
    {
        parked.push_back(frame);
        w.metrics.bump(Ctr::FramesParked);
        return;
    }
    // Registry path (handshakes, inherited connections, strays): the
    // registry's device access is by Mach IPC, not shared memory.
    let now = eng.now();
    w.hosts[h].cpu.charge(now, w.costs.registry_pkt_op);
    let mut actions = w.reg_spare.take();
    let registry = &mut w.hosts[h].registry;
    match registry.on_segment_into(src, &repr, &data, now, &mut actions) {
        Some(hs) => open(w, eng, h, hs, key, None, actions),
        None => apply_registry_actions(w, eng, h, actions),
    }
    if announce != 0 {
        note_announce(w, h, key, announce);
    }
}

/// Records a peer's BQI announcement on the handshake it belongs to. One
/// that matches no handshake in flight — a stray's, or a replay after
/// establishment — announces to nobody.
pub(crate) fn note_announce(w: &mut World, h: usize, key: PairKey, bqi: u16) {
    if let Some(rec) = w.hosts[h].userlib.in_flight(key) {
        rec.chan.peer_bqi = Some(bqi);
    }
}

/// The revoked capability a capability-storm tenant replays: minted once
/// from a scratch channel that is created and immediately destroyed, so
/// every later use is a genuine use-after-revoke the kernel must refuse.
pub(crate) fn stale_cap_for(w: &mut World, host: usize, tenant: u64) -> Capability {
    if let Some(&c) = w.hosts[host].userlib.stale_caps.get(&tenant) {
        return c;
    }
    let scratch_remote = Ipv4Addr::new(203, 0, 113, 254); // TEST-NET-3: never a sim host
    let (spec, template) = channel_binding(&w.hosts[host], 7, (scratch_remote, 7));
    // Prefer minting under the hostile tenant itself; if its channel cap
    // is already exhausted (part of the attack surface), fall back to a
    // kernel-owned scratch — the replay is equally dead either way.
    let created = w.hosts[host]
        .netio
        .try_create_channel(OwnerTag(tenant), &spec, template.clone(), 2, 256)
        .unwrap_or_else(|| {
            w.hosts[host]
                .netio
                .create_channel(OwnerTag(0), &spec, template, 2, 256)
        });
    let (id, send_cap, ..) = created;
    w.hosts[host].netio.destroy_channel(id, OwnerTag(0));
    w.hosts[host].userlib.stale_caps.insert(tenant, send_cap);
    send_cap
}
