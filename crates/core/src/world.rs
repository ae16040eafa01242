//! The simulated world: hosts, organizations, and the full data path.
//!
//! See the crate docs for the organization taxonomy. The central design
//! rule: **state machines mutate at event time, observable effects pay
//! their way** — every trap, IPC, copy, checksum, filter run, semaphore
//! signal, and context switch on the path of a packet is charged to the
//! owning host's CPU, and the packet's next hop — an [`Event`] variant for
//! the per-frame steps, a [`host_exec`] closure for the rest — happens at
//! the charge's completion time. The protocol code itself
//! (`unp-tcp`/`unp-proto`) is identical across organizations.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use unp_buffers::{Frame, FramePool, OwnerTag, RingId};
use unp_kernel::{Capability, ChannelId, ChannelStats, Delivery, HeaderTemplate, NetIoModule};
use unp_netdev::{An1Nic, LanceNic, Link, StationId};
use unp_proto::arp::ArpResult;
use unp_proto::{icmp_input, ArpCache, IpEndpoint, IpRecv, UdpLayer};
use unp_registry::{HsId, RegistryAction, RegistryServer};
use unp_sim::{CostModel, Cpu, DemuxPath, Engine, EventFn, EventId, LinkParams, Nanos};
use unp_tcp::{ListenTcb, Tcb, TcpAction, TcpConfig, TcpTimer};
use unp_timers::{TimerId, TimerService, TimerWheel};
use unp_trace::{ConnKey, ConnScope, Ctr, Gauge, Hist, Metrics};
use unp_wire::{
    An1Frame, An1Repr, ArpPacket, ArpRepr, EtherType, EthernetRepr, IpProtocol, Ipv4Addr, Ipv4Repr,
    MacAddr, TcpPacket, TcpRepr, AN1_HEADER_LEN, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN,
};

/// The engine type for this world.
pub type Eng = Engine<World, Event>;

/// Which network the hosts share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Network {
    /// 10 Mb/s shared Ethernet with Lance-style PIO interfaces.
    Ethernet,
    /// 100 Mb/s AN1 point-to-point segment with BQI DMA interfaces.
    An1,
}

/// The protocol organizations of the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrgKind {
    /// Monolithic in-kernel (Ultrix 4.2A).
    InKernel,
    /// Mach 3.0 + UX single server, device mapped into the server.
    SingleServer,
    /// Single server with in-kernel device management behind a message
    /// interface (the slower variant the paper describes).
    SingleServerMsg,
    /// One server per protocol stack plus a device server.
    DedicatedServer,
    /// The paper's user-level library + registry + network I/O module.
    UserLibrary,
}

impl OrgKind {
    /// Human-readable label used in reports (paper terminology).
    pub fn label(&self) -> &'static str {
        match self {
            OrgKind::InKernel => "Ultrix 4.2A (in-kernel)",
            OrgKind::SingleServer => "Mach 3.0/UX (mapped)",
            OrgKind::SingleServerMsg => "Mach 3.0/UX (message)",
            OrgKind::DedicatedServer => "Dedicated servers",
            OrgKind::UserLibrary => "User-level library (ours)",
        }
    }

    fn is_user_library(&self) -> bool {
        matches!(self, OrgKind::UserLibrary)
    }
}

/// Host-network interface state.
pub enum Nic {
    /// Lance-style Ethernet interface.
    Lance(LanceNic),
    /// AN1 interface with BQI table.
    An1(An1Nic),
}

/// Timer wheel token, and the key of [`Host`]'s one table of armed timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerToken {
    /// A connection timer in the library/kernel stack.
    Conn(u32, TcpTimer),
    /// A registry-held handshake or inherited-connection timer.
    Registry(u64, TcpTimer),
}

/// A listening endpoint: configuration plus an application factory invoked
/// per accepted connection.
pub struct Listener {
    cfg: TcpConfig,
    factory: Box<dyn FnMut() -> Box<dyn crate::app::AppLogic>>,
    /// The tenant that owns the port and every channel accepted through
    /// it ([`listen_as`]; [`listen`] passes the host's single-app owner).
    tenant: OwnerTag,
}

/// A connection's `(local port, remote ip, remote port)`: what a host
/// tells its connections and handshakes apart by.
type PairKey = (u16, Ipv4Addr, u16);

/// Per-connection channel state (UserLibrary organization).
pub struct ChanInfo {
    /// Kernel channel id.
    pub id: ChannelId,
    /// Send capability (template-checked transmission).
    pub send_cap: Capability,
    /// Receive capability (ring consumption).
    pub recv_cap: Capability,
    /// The BQI the peer must stamp for hardware demux to reach us (AN1).
    pub our_bqi: u16,
    /// The BQI we stamp on outgoing data frames (announced by the peer).
    pub peer_bqi: Option<u16>,
}

/// One live connection endpoint.
pub struct Conn {
    /// The TCP state (the paper's "TCP state transferred to user level"),
    /// in the box the registry handed it over in: a table slot is a
    /// pointer, so the table's capacity does not cost what it indexes.
    pub tcb: Box<Tcb>,
    /// The owning application.
    pub app: Box<dyn crate::app::AppLogic>,
    /// Channel info when running under the UserLibrary organization.
    pub chan: Option<ChanInfo>,
    /// App bytes the library holds beyond the TCB's send buffer.
    pending_tx: VecDeque<u8>,
    /// The app requested close once `pending_tx` drains.
    close_pending: bool,
    /// Bytes handed to the application so far ([`ConnScope::bytes_to_app`]).
    bytes_to_app: u64,
    /// Typical application write size (the experiments' "user packet
    /// size"), used by per-organization copy-elimination rules.
    pub write_size: usize,
}

/// An in-flight handshake's pre-created channel (UserLibrary org). The
/// peer's BQI announcement (AN1) is kept in `chan.peer_bqi` as it arrives.
struct HsSetup {
    chan: ChanInfo,
    key: PairKey,
}

/// Everything the world holds for one registry handshake, from
/// [`connect_as`] (active open) or the first SYN-ACK (passive open) until
/// the registry reports `Complete` or `Failed`.
struct Handshake {
    /// The tenant the connection and its channel belong to.
    owner: OwnerTag,
    /// Active opens: the application waiting for the connection and its
    /// write granularity. Passive opens get theirs from the listener.
    app: Option<Box<dyn crate::app::AppLogic>>,
    write_size: usize,
    /// `None` until the registry's first SYN goes out, and for good when
    /// the tenant is at its channel cap.
    setup: Option<HsSetup>,
    /// True once the registry emitted `Complete` and finalization is in
    /// flight: frames arriving in this window are parked, not fed back to
    /// the registry (which no longer tracks the connection).
    completing: bool,
    /// Frames that arrived on the kernel path in that window (the
    /// activation race the paper's overlap of setup with transmission
    /// creates); delivered to the library when the channel activates.
    parked: Vec<Frame>,
}

impl Handshake {
    /// A handshake the registry has just begun: no channel yet.
    fn new(owner: OwnerTag, app: Option<Box<dyn crate::app::AppLogic>>, write_size: usize) -> Self {
        Handshake {
            owner,
            app,
            write_size,
            setup: None,
            completing: false,
            parked: Vec::new(),
        }
    }

    fn key(&self) -> Option<PairKey> {
        self.setup.as_ref().map(|s| s.key)
    }
}

/// Whose deliveries a channel's ring holds.
#[derive(Clone, Copy)]
enum ChanOwner {
    /// An established connection's library.
    Conn(u32),
    /// A handshake the registry is still running.
    Handshake(u64),
}

/// Every timer kind a connection can arm — what its removal disarms.
const TCP_TIMERS: [TcpTimer; 5] = [
    TcpTimer::Retransmit,
    TcpTimer::Persist,
    TcpTimer::DelayedAck,
    TcpTimer::TimeWait,
    TcpTimer::Keepalive,
];

/// One simulated workstation.
pub struct Host {
    /// Index in the world.
    pub idx: usize,
    /// Protocol organization this host runs.
    pub org: OrgKind,
    /// The single CPU.
    pub cpu: Cpu,
    /// Station address.
    pub mac: MacAddr,
    /// IP address.
    pub ip: Ipv4Addr,
    /// The host-network interface.
    pub nic: Nic,
    /// ARP state (kernel-resident in all organizations for simplicity; the
    /// cost difference is negligible and identical across orgs).
    pub arp: ArpCache,
    /// IP endpoint state (routing, reassembly).
    pub ip_ep: IpEndpoint,
    /// UDP protocol state.
    pub udp: UdpLayer,
    /// The network I/O module (UserLibrary organization).
    pub netio: NetIoModule,
    /// The registry server (UserLibrary organization).
    pub registry: RegistryServer,
    /// The UDP protocol's registry server ("a dedicated registry server
    /// for each protocol").
    pub udp_registry: unp_registry::UdpRegistry,
    /// The timing wheel driving all protocol timers on this host.
    pub wheel: TimerWheel<TimerToken>,
    wheel_event: Option<(Nanos, EventId)>,
    /// [`wheel_fire`]'s token list, empty between fires.
    fired: Vec<TimerToken>,
    /// Live connections.
    pub conns: HashMap<u32, Conn>,
    next_conn: u32,
    conn_index: HashMap<PairKey, u32>,
    listeners: HashMap<u16, Listener>,
    /// Wheel handles of every armed timer, connection and registry alike.
    timers: HashMap<TimerToken, TimerId>,
    // --- UserLibrary bookkeeping ---
    /// In-flight handshakes, keyed by raw hs id.
    handshakes: HashMap<u64, Handshake>,
    chan_owner: HashMap<ChannelId, ChanOwner>,
    /// Emptied wakeup batches: a batch travels by value in its
    /// [`Event::LibraryChain`] and comes back here when it ends, so the
    /// next wakeup fills a queue that already has its capacity.
    batch_spare: Vec<VecDeque<Frame>>,
    /// Revoked capabilities the byzantine capability-storm replays, one
    /// per hostile tenant (minted from a destroyed scratch channel on the
    /// storm's first tick).
    stale_caps: HashMap<u64, Capability>,
    // --- monolithic bookkeeping ---
    next_port: u16,
    next_iss: u32,
    /// IP packets awaiting ARP resolution, keyed by next-hop IP. Each is
    /// held as a refcounted frame whose headroom (when present) receives
    /// the link header once the MAC is known.
    arp_wait: HashMap<Ipv4Addr, Vec<(IpProtocol, Frame)>>,
}

impl Host {
    fn owner(&self) -> OwnerTag {
        // One application process per host in these experiments.
        OwnerTag(self.idx as u64 + 1)
    }

    fn link_header_len(&self) -> usize {
        match self.nic {
            Nic::Lance(_) => ETHERNET_HEADER_LEN,
            Nic::An1(_) => AN1_HEADER_LEN,
        }
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(1024);
        p
    }

    fn alloc_iss(&mut self) -> u32 {
        self.next_iss = self.next_iss.wrapping_add(64_000);
        self.next_iss
    }
}

/// The complete simulation state.
pub struct World {
    /// Calibrated operation costs.
    pub costs: CostModel,
    /// Network type.
    pub network: Network,
    /// The shared link.
    pub link: Link,
    /// Hosts on the link.
    pub hosts: Vec<Host>,
    /// Typed measurement registry: counters, gauges, histograms, and the
    /// per-connection/per-channel scopes filled at teardown.
    pub metrics: Metrics,
    /// Ablation: disable notification batching (post a semaphore and take
    /// a thread switch for every delivered packet).
    pub ablate_batching: bool,
    /// Ablation: disable the library's copy-eliminating buffer
    /// organization (charge user↔buffer copies like the monolithic
    /// stacks).
    pub ablate_zero_copy: bool,
    /// The frame pool backing the zero-copy data path: outgoing segments
    /// are built once in a pooled buffer (headers prepended into
    /// headroom) and the buffer is recycled when the last refcounted
    /// handle drops. Replace with [`FramePool::disabled`] to measure the
    /// allocation behavior of the pre-pool path.
    pub pool: FramePool,
    /// Promiscuous packet taps — the Packet Filter's original use case
    /// ("user-level network code" for monitoring): each tap's BPF program
    /// runs over every frame on the wire and counts matches.
    taps: Vec<Tap>,
    /// The active fault-injection schedule. Disabled by default
    /// ([`crate::faults::FaultPlan::none`]): no RNG draw happens and the
    /// data path is byte-identical to a build without fault injection.
    /// Install an enabled plan with [`install_faults`].
    pub faults: crate::faults::FaultPlan,
    /// Emptied action buffers. The TCB and the registry append their
    /// actions to a buffer drawn from here; [`apply_tcp_actions`] /
    /// [`apply_registry_actions`] drain it and put it back. A list, not
    /// one buffer, because routing re-enters itself (`DataAvailable` →
    /// `recv`, `SendSpace` → [`flush_conn_tx`]).
    tcp_spare: Spare<TcpAction>,
    reg_spare: Spare<RegistryAction>,
}

/// A free-list of emptied `Vec`s, so a buffer's capacity outlives its use.
struct Spare<T>(Vec<Vec<T>>);

impl<T> Spare<T> {
    fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    fn give(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.0.push(buf);
    }
}

/// A promiscuous capture tap: a named BPF program applied to all traffic.
pub struct Tap {
    name: &'static str,
    program: unp_filter::BpfProgram,
    /// Matched (time, frame-length) samples.
    pub matches: Vec<(Nanos, usize)>,
    /// Full frames, kept only for capture taps. Each entry is a refcount
    /// on the wire frame, not a copy.
    pub frames: Vec<(Nanos, Frame)>,
    capture: bool,
}

impl World {
    /// Installs a monitoring tap. Returns its index for later inspection
    /// via [`World::tap_matches`].
    pub fn add_tap(&mut self, name: &'static str, program: unp_filter::BpfProgram) -> usize {
        self.taps.push(Tap {
            name,
            program,
            matches: Vec::new(),
            frames: Vec::new(),
            capture: false,
        });
        self.taps.len() - 1
    }

    /// Installs a *capturing* tap: matched frames are stored in full and
    /// can be exported with [`crate::pcap::write_pcap`] for analysis in
    /// standard tools.
    pub fn add_capture_tap(
        &mut self,
        name: &'static str,
        program: unp_filter::BpfProgram,
    ) -> usize {
        let idx = self.add_tap(name, program);
        self.taps[idx].capture = true;
        idx
    }

    /// The full frames captured by a capture tap.
    pub fn tap_frames(&self, idx: usize) -> &[(Nanos, Frame)] {
        &self.taps[idx].frames
    }

    /// The frames a tap matched so far, as (time, length) pairs.
    pub fn tap_matches(&self, idx: usize) -> &[(Nanos, usize)] {
        &self.taps[idx].matches
    }

    /// The zero-leak oracle: what a drained world still holds that some
    /// teardown should have given back, one line per finding — empty when
    /// every connection, handshake, channel, BQI slot and timer that was
    /// ever created has been released, by whichever route ended it.
    pub fn leaks(&self) -> Vec<String> {
        let mut found = Vec::new();
        for h in &self.hosts {
            let bqi_slots = match &h.nic {
                // Entry 0 is the kernel-default ring, bound for the
                // host's lifetime.
                Nic::An1(nic) => nic.bqi_table.bound_entries() - 1,
                Nic::Lance(_) => 0,
            };
            let dead_conn = |t: &&TimerToken| match t {
                TimerToken::Conn(cid, _) => !h.conns.contains_key(cid),
                TimerToken::Registry(..) => false,
            };
            let held = [
                (h.conns.len(), "connections"),
                (h.conn_index.len(), "connection index entries"),
                // With their parked frames and recorded announcements.
                (h.handshakes.len(), "handshake records"),
                (h.chan_owner.len(), "channel owner entries"),
                (h.netio.channel_count(), "kernel channels"),
                (h.netio.flow_table_len(), "flow-table entries"),
                (
                    usize::from(!h.netio.caches_match_rebuild()),
                    "kernel demux caches (or table counts) off a fresh rebuild",
                ),
                (h.registry.tracked(), "registry connections"),
                (bqi_slots, "BQI slots"),
                (
                    h.timers.keys().filter(dead_conn).count(),
                    "timers of removed connections",
                ),
                (
                    h.timers.len().abs_diff(h.wheel.pending()),
                    "timers armed outside the table",
                ),
            ];
            for (n, what) in held {
                if n != 0 {
                    found.push(format!("host {}: {n} {what}", h.idx));
                }
            }
        }
        for g in [Gauge::OpenChannels, Gauge::ActiveConnections] {
            if self.metrics.gauge(g) != 0 {
                found.push(format!("gauge {g:?} reads {}", self.metrics.gauge(g)));
            }
        }
        // The table-size gauges move by per-host differences; a fresh sum
        // over every host is what they must still add up to.
        let fresh = self
            .hosts
            .iter()
            .map(|h| demux_entries(&h.netio))
            .fold([0; 2], |sum, host| [sum[0] + host[0], sum[1] + host[1]]);
        for (g, fresh) in DEMUX_ENTRY_GAUGES.into_iter().zip(fresh) {
            if self.metrics.gauge(g) != fresh {
                let reads = self.metrics.gauge(g);
                found.push(format!(
                    "gauge {g:?} reads {reads}, the tables hold {fresh}"
                ));
            }
        }
        found
    }

    fn run_taps(&mut self, now: Nanos, frame: &Frame) {
        use unp_filter::Demux;
        for tap in &mut self.taps {
            if tap.program.matches(frame) {
                tap.matches.push((now, frame.len()));
                if tap.capture {
                    tap.frames.push((now, frame.clone()));
                }
                let _ = tap.name;
            }
        }
    }
}

/// Builds a two-host world (the paper's testbed: two DECstation 5000/200s
/// on an otherwise idle network), both hosts running `org`, with static
/// ARP seeded (the measurements exclude ARP traffic).
pub fn build_two_hosts(network: Network, org: OrgKind) -> (World, Eng) {
    build_hosts(2, network, org)
}

/// Builds an `n`-host world on one link, all hosts running `org`, with a
/// full static ARP mesh. Host `i` is `10.0.0.(i+1)`. (AN1 is modeled as a
/// switchless point-to-point segment and supports exactly two hosts.)
pub fn build_hosts(n: usize, network: Network, org: OrgKind) -> (World, Eng) {
    assert!(n >= 2);
    assert!(
        network == Network::Ethernet || n == 2,
        "the AN1 segment is point-to-point"
    );
    let params = match network {
        Network::Ethernet => LinkParams::ethernet_10mbps(),
        Network::An1 => LinkParams::an1_100mbps(),
    };
    let mut link = Link::new(params);
    let mut hosts = Vec::new();
    for idx in 0..n {
        let mac = MacAddr::from_host_index(idx as u32 + 1);
        let ip = Ipv4Addr::new(10, 0, 0, idx as u8 + 1);
        let nic = match network {
            Network::Ethernet => Nic::Lance(LanceNic::new(mac)),
            Network::An1 => Nic::An1(An1Nic::new(mac, 64, unp_buffers::RingId(0))),
        };
        link.attach(StationId(idx), mac);
        let mut arp = ArpCache::new(mac, ip);
        // Static entries for every peer.
        for peer_idx in 0..n {
            if peer_idx != idx {
                arp.insert_static(
                    Ipv4Addr::new(10, 0, 0, peer_idx as u8 + 1),
                    MacAddr::from_host_index(peer_idx as u32 + 1),
                );
            }
        }
        hosts.push(Host {
            idx,
            org,
            cpu: Cpu::new(),
            mac,
            ip,
            nic,
            arp,
            ip_ep: IpEndpoint::new(ip, 24, None),
            udp: UdpLayer::new(),
            netio: NetIoModule::new(),
            registry: RegistryServer::new(ip),
            udp_registry: unp_registry::UdpRegistry::new(),
            wheel: TimerWheel::new(0),
            wheel_event: None,
            fired: Vec::new(),
            conns: HashMap::new(),
            next_conn: 1,
            conn_index: HashMap::new(),
            listeners: HashMap::new(),
            timers: HashMap::new(),
            handshakes: HashMap::new(),
            chan_owner: HashMap::new(),
            batch_spare: Vec::new(),
            stale_caps: HashMap::new(),
            // Per-host port bases 8000 apart; a `u16` holds eight of them,
            // so from the ninth host on the base wraps (deliberately: only
            // the monolithic organizations allocate from this field).
            next_port: (idx as u16).wrapping_mul(8000).wrapping_add(2000),
            next_iss: 0x100 + idx as u32,
            arp_wait: HashMap::new(),
        });
    }
    // Pool buffers cover a maximum-sized frame (MTU plus the larger link
    // header) with slack for TCP options; oversize allocations degrade to
    // fresh heap buffers that are simply not recycled.
    let buf_size = link.params().mtu + AN1_HEADER_LEN + 46;
    let world = World {
        costs: CostModel::calibrated_1993(),
        network,
        link,
        hosts,
        metrics: Metrics::new(),
        ablate_batching: false,
        ablate_zero_copy: false,
        pool: FramePool::new(buf_size, 256),
        taps: Vec::new(),
        faults: crate::faults::FaultPlan::none(),
        tcp_spare: Spare(Vec::new()),
        reg_spare: Spare(Vec::new()),
    };
    (world, Engine::new())
}

/// Installs a fault plan: stores it on the world and schedules its
/// application-crash events. Call once after [`build_hosts`], before
/// running the engine.
pub fn install_faults(w: &mut World, eng: &mut Eng, plan: crate::faults::FaultPlan) {
    for c in &plan.crashes {
        let host = c.host;
        eng.at(c.at, move |w, eng| crash_host(w, eng, host));
    }
    // Periodic byzantine-tenant behaviours become deterministic tick
    // trains; window-shaped kinds (ring flood, wedged registry) are
    // consulted in place by the data path and need no events.
    for b in &plan.byzantine {
        use crate::faults::ByzantineKind;
        let (host, tenant, end) = (b.host, b.tenant, b.end);
        match b.kind {
            ByzantineKind::TransmitFlood { period, .. }
            | ByzantineKind::CapabilityStorm { period }
            | ByzantineKind::StaleBqi { period } => {
                assert!(period > 0, "byzantine period must be positive");
                let kind = b.kind;
                eng.at(b.start, move |w, eng| {
                    byzantine_tick(w, eng, host, tenant, kind, end);
                });
            }
            ByzantineKind::RingFlood | ByzantineKind::WedgedRegistry => {}
        }
    }
    w.faults = plan;
}

/// One firing of a periodic byzantine behaviour; reschedules itself until
/// the window closes. Every action is resource-bounded by the tenant's
/// own budget — that containment is precisely what the isolation oracle
/// measures.
fn byzantine_tick(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    tenant: u64,
    kind: crate::faults::ByzantineKind,
    end: Nanos,
) {
    use crate::faults::ByzantineKind;
    let now = eng.now();
    if now >= end || !w.faults.enabled {
        return;
    }
    // The hostile tenant abuses its own established connection — the
    // lowest-numbered one, so the pick is deterministic across runs.
    let target = w.hosts[host]
        .conns
        .iter()
        .filter_map(|(&cid, c)| {
            let ci = c.chan.as_ref()?;
            (w.hosts[host].netio.channel_owner(ci.id) == Some(OwnerTag(tenant))).then(|| {
                (
                    cid,
                    ci.send_cap,
                    ci.peer_bqi.unwrap_or(0),
                    c.tcb.local(),
                    c.tcb.remote(),
                )
            })
        })
        .min_by_key(|&(cid, ..)| cid)
        .map(|(_, cap, bqi, l, r)| (cap, bqi, l, r));
    if let Some((send_cap, bqi, local, remote)) = target {
        // What the tenant transmits raw: an empty ACK claiming `src_port`,
        // built by no TCB (so journaled as fabricated).
        let raw_ack = |w: &mut World, eng: &mut Eng, src_port: u16| {
            let repr = TcpRepr {
                src_port,
                dst_port: remote.1,
                seq: unp_wire::SeqNum(0),
                ack_num: unp_wire::SeqNum(0),
                flags: unp_wire::TcpFlags::ack(),
                window: 0,
                mss: None,
            };
            let cap = Some(send_cap);
            send_tcp_frame(w, eng, host, &repr, &[], remote.0, bqi, 0, cap, true);
        };
        match kind {
            ByzantineKind::TransmitFlood { burst, .. } => {
                // A burst of template-valid empty ACKs: each passes the
                // kernel's checks and burns wire + CPU + tx credit until
                // the tenant's per-window allowance runs dry.
                for _ in 0..burst {
                    raw_ack(w, eng, local.1);
                }
            }
            ByzantineKind::CapabilityStorm { .. } => {
                // A replayed revoked capability (BadCapability) plus a
                // template-violating transmit on the real one (spoofed
                // source port): both die inside the kernel, charged to
                // the tenant's credit, never reaching the wire.
                let stale = stale_cap_for(w, host, tenant);
                let frame_len = w.hosts[host].link_header_len() + IPV4_HEADER_LEN + 20;
                let junk = vec![0u8; frame_len];
                let _ = w.hosts[host].netio.transmit(stale, &junk);
                w.hosts[host].netio.advance_tx_window(now);
                raw_ack(w, eng, local.1.wrapping_add(1));
                let c = w.costs.trap;
                w.hosts[host].cpu.charge(now, c);
            }
            ByzantineKind::StaleBqi { .. } => {
                // Replay a stale BQI announcement at the peer host.
                // Announcements are only taken by a handshake in flight,
                // so a post-establishment replay must change nothing for
                // anyone — the oracle's baseline comparison proves it.
                if let Some(peer) = w.hosts.iter().position(|p| p.ip == remote.0) {
                    let local_ip = w.hosts[host].ip;
                    note_announce(w, peer, (remote.1, local_ip, local.1), bqi);
                }
            }
            ByzantineKind::RingFlood | ByzantineKind::WedgedRegistry => unreachable!(),
        }
    }
    let period = match kind {
        ByzantineKind::TransmitFlood { period, .. }
        | ByzantineKind::CapabilityStorm { period }
        | ByzantineKind::StaleBqi { period } => period,
        _ => return,
    };
    let next = now + period;
    if next < end {
        eng.at(next, move |w, eng| {
            byzantine_tick(w, eng, host, tenant, kind, end);
        });
    }
}

/// The revoked capability a capability-storm tenant replays: minted once
/// from a scratch channel that is created and immediately destroyed, so
/// every later use is a genuine use-after-revoke the kernel must refuse.
fn stale_cap_for(w: &mut World, host: usize, tenant: u64) -> Capability {
    if let Some(&c) = w.hosts[host].stale_caps.get(&tenant) {
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
    w.hosts[host].stale_caps.insert(tenant, send_cap);
    send_cap
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// One scheduled step of the world. A step the data path schedules per
/// frame, segment, wakeup or timer restart is a variant, kept by value in
/// the engine's slab; anything per connection or rarer is a boxed closure
/// in [`Event::Call`] — what [`host_exec`] and `eng.at` schedule. Every
/// variant fires under its host's attribution scope, as [`host_exec`]'s
/// closures do: deep protocol paths (TCB transitions, registry setup)
/// have no other way to know whose CPU they run on.
#[derive(Debug)]
pub enum Event {
    /// `frame` reaches `host`'s interface: [`frame_arrives`].
    FrameArrives { host: usize, frame: Frame },
    /// The Lance interrupt (and the PIO copy) is paid for: the kernel
    /// takes the next staged frame.
    LanceIntr { host: usize },
    /// The AN1 completion interrupt is paid for: the kernel takes
    /// `frame`, which the controller classified onto `ring`.
    An1Intr {
        host: usize,
        frame: Frame,
        ring: RingId,
    },
    /// A monolithic stack has paid for the segment `repr` + `data` from
    /// `src`: look up its PCB.
    PcbInput {
        host: usize,
        src: Ipv4Addr,
        repr: TcpRepr,
        data: Frame,
    },
    /// The library thread behind channel `chan` wakes up.
    LibraryWakeup { host: usize, chan: ChannelId },
    /// The library has paid for the frame at the front of `batch`: run
    /// the protocol over it, then go on with the rest of the batch.
    LibraryChain {
        host: usize,
        cid: u32,
        batch: VecDeque<Frame>,
    },
    /// A segment's output processing is paid for: build its frame(s).
    /// `cid` names the connection whose channel it leaves through (`None`
    /// for the kernel's and the registry's own segments); `announce` is
    /// the BQI a registry handshake segment advertises on AN1.
    SendSegment {
        host: usize,
        cid: Option<u32>,
        repr: TcpRepr,
        payload: Vec<u8>,
        remote: Ipv4Addr,
        announce: u16,
    },
    /// Device access is paid for: `frame` goes on the wire.
    Transmit { host: usize, frame: Frame },
    /// An upcall into connection `cid`'s application.
    App {
        host: usize,
        cid: u32,
        upcall: AppEvent,
    },
    /// `host`'s timing wheel reaches its earliest deadline.
    WheelFire { host: usize },
    /// A closure: everything that is not a per-frame step.
    Call(Closure),
}

/// The body of an [`Event::Call`]; opaque when the queue is printed.
pub struct Closure(EventFn<World, Event>);

impl fmt::Debug for Closure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<closure>")
    }
}

impl Event {
    /// The host a step runs on; a closure names its own.
    fn host(&self) -> Option<usize> {
        match self {
            Event::FrameArrives { host, .. }
            | Event::LanceIntr { host }
            | Event::An1Intr { host, .. }
            | Event::PcbInput { host, .. }
            | Event::LibraryWakeup { host, .. }
            | Event::LibraryChain { host, .. }
            | Event::SendSegment { host, .. }
            | Event::Transmit { host, .. }
            | Event::App { host, .. }
            | Event::WheelFire { host } => Some(*host),
            Event::Call(_) => None,
        }
    }
}

impl unp_sim::Event<World> for Event {
    fn fire(self, w: &mut World, eng: &mut Eng) {
        let _attr = self.host().map(|h| unp_trace::host_scope(h as u16));
        match self {
            Event::FrameArrives { host, frame } => frame_arrives(w, eng, host, frame),
            Event::LanceIntr { host } => {
                if let Nic::Lance(nic) = &mut w.hosts[host].nic {
                    if let Some(staged) = nic.host_take_frame() {
                        kernel_input(w, eng, host, staged.bytes, None);
                    }
                }
            }
            Event::An1Intr { host, frame, ring } => kernel_input(w, eng, host, frame, Some(ring)),
            Event::PcbInput {
                host,
                src,
                repr,
                data,
            } => pcb_input(w, eng, host, src, &repr, &data),
            Event::LibraryWakeup { host, chan } => library_wakeup(w, eng, host, chan),
            Event::LibraryChain {
                host,
                cid,
                mut batch,
            } => {
                let frame = batch.pop_front().expect("scheduled for its front frame");
                library_input(w, eng, host, cid, frame);
                library_process_chain(w, eng, host, cid, batch);
            }
            Event::SendSegment {
                host,
                cid,
                repr,
                payload,
                remote,
                announce,
            } => {
                // Only the user library's connections have a channel:
                // their data frames stamp the peer's announced BQI
                // (hardware demux) and pass the template check under the
                // channel's send capability.
                let conn = cid.and_then(|c| w.hosts[host].conns.get(&c));
                let chan = conn.and_then(|c| c.chan.as_ref());
                let bqi = chan.and_then(|ci| ci.peer_bqi).unwrap_or(0);
                let cap = chan.map(|ci| ci.send_cap);
                send_tcp_frame(
                    w, eng, host, &repr, &payload, remote, bqi, announce, cap, false,
                );
            }
            Event::Transmit { host, frame } => transmit_frame(w, eng, host, frame),
            Event::App { host, cid, upcall } => app_event(w, eng, host, cid, upcall),
            Event::WheelFire { host } => wheel_fire(w, eng, host),
            Event::Call(Closure(f)) => f(w, eng),
        }
    }

    fn call(f: EventFn<World, Event>) -> Event {
        Event::Call(Closure(f))
    }
}

/// Charges `cost` to host `h`'s CPU and schedules `step` at completion.
fn host_step(w: &mut World, eng: &mut Eng, h: usize, cost: Nanos, step: Event) {
    let done = w.hosts[h].cpu.charge(eng.now(), cost);
    eng.schedule(done, step);
}

/// Like [`host_step`] but at interrupt priority: device interrupt service
/// preempts process/library work instead of queueing behind it (otherwise
/// NIC staging buffers overflow whenever user-level processing is slower
/// than the wire — a receive livelock real interrupt-driven kernels do not
/// exhibit at these rates).
fn host_step_intr(w: &mut World, eng: &mut Eng, h: usize, cost: Nanos, step: Event) {
    let done = w.hosts[h].cpu.charge_priority(eng.now(), cost);
    eng.schedule(done, step);
}

/// Charges `cost` to host `h`'s CPU and schedules the closure `f` at
/// completion, under `h`'s attribution scope: [`host_step`] for the work
/// that has no [`Event`] variant.
pub fn host_exec<F>(w: &mut World, eng: &mut Eng, h: usize, cost: Nanos, f: F)
where
    F: FnOnce(&mut World, &mut Eng) + 'static,
{
    let done = w.hosts[h].cpu.charge(eng.now(), cost);
    eng.at(done, move |w, eng| {
        let _attr = unp_trace::host_scope(h as u16);
        f(w, eng);
    });
}

/// [`host_exec`] at interrupt priority (see [`host_step_intr`]).
pub fn host_exec_intr<F>(w: &mut World, eng: &mut Eng, h: usize, cost: Nanos, f: F)
where
    F: FnOnce(&mut World, &mut Eng) + 'static,
{
    let done = w.hosts[h].cpu.charge_priority(eng.now(), cost);
    eng.at(done, move |w, eng| {
        let _attr = unp_trace::host_scope(h as u16);
        f(w, eng);
    });
}

// ---------------------------------------------------------------------
// Public API: listen / connect
// ---------------------------------------------------------------------

/// Registers a listener on `host`:`port`. `factory` builds the per-
/// connection application.
pub fn listen(
    w: &mut World,
    host: usize,
    port: u16,
    cfg: TcpConfig,
    factory: Box<dyn FnMut() -> Box<dyn crate::app::AppLogic>>,
) {
    let owner = w.hosts[host].owner();
    listen_as(w, host, owner, port, cfg, factory);
}

/// [`listen`] for an explicit tenant: the listening port, its registry
/// binding, and every channel accepted through it are owned by `tenant`
/// instead of the host's default single-app owner, so multiple tenants
/// can share one host's network I/O module under separate budgets.
pub fn listen_as(
    w: &mut World,
    host: usize,
    tenant: OwnerTag,
    port: u16,
    cfg: TcpConfig,
    factory: Box<dyn FnMut() -> Box<dyn crate::app::AppLogic>>,
) {
    if w.hosts[host].org.is_user_library() {
        w.hosts[host]
            .registry
            .listen(tenant, port, cfg.clone())
            .expect("listen port free");
    }
    let listener = Listener {
        cfg,
        factory,
        tenant,
    };
    w.hosts[host].listeners.insert(port, listener);
}

/// Opens a connection from `host` to `remote`, running `app` over it.
/// `write_size` is the application's write granularity (the experiments'
/// user packet size), which copy-elimination rules consult.
pub fn connect(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    remote: (Ipv4Addr, u16),
    cfg: TcpConfig,
    app: Box<dyn crate::app::AppLogic>,
    write_size: usize,
) {
    connect_as(w, eng, host, None, remote, cfg, app, write_size);
}

/// [`connect`] for an explicit tenant (UserLibrary organization): the
/// registry binding and the connection's channel are owned by `tenant`,
/// so its ring slots and transmit credit draw on that tenant's budget.
/// `None` keeps the host's default single-app owner.
#[allow(clippy::too_many_arguments)]
pub fn connect_as(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    tenant: Option<OwnerTag>,
    remote: (Ipv4Addr, u16),
    cfg: TcpConfig,
    app: Box<dyn crate::app::AppLogic>,
    write_size: usize,
) {
    match w.hosts[host].org {
        OrgKind::UserLibrary => {
            // App → registry RPC, then non-overlapped outbound processing.
            let cost = w.costs.registry_rpc + w.costs.registry_connect_processing;
            host_exec(w, eng, host, cost, move |w, eng| {
                let owner = tenant.unwrap_or_else(|| w.hosts[host].owner());
                let now = eng.now();
                let mut actions = w.reg_spare.take();
                let registry = &mut w.hosts[host].registry;
                match registry.connect_into(owner, remote, cfg, now, &mut actions) {
                    Ok(hs) => {
                        let rec = Handshake::new(owner, Some(app), write_size);
                        w.hosts[host].handshakes.insert(hs.0, rec);
                        apply_registry_actions(w, eng, host, actions);
                    }
                    // Every ephemeral port is bound: the connect is
                    // refused like a handshake that failed.
                    Err(_) => {
                        w.reg_spare.give(actions);
                        w.metrics.bump(Ctr::HandshakeFailures);
                        reset_unconnected(app, now);
                    }
                }
            });
        }
        _ => {
            // Monolithic: the connect call traps into the stack directly,
            // allocating socket + PCB state.
            let cost = app_boundary_cost(w, host) + w.costs.pcb_setup + w.costs.tcp_per_segment;
            host_exec(w, eng, host, cost, move |w, eng| {
                let local_port = w.hosts[host].alloc_port();
                let iss = w.hosts[host].alloc_iss();
                let local_ip = w.hosts[host].ip;
                let now = eng.now();
                let mut actions = w.tcp_spare.take();
                let local = (local_ip, local_port);
                let tcb = Tcb::connect_into(local, remote, cfg, iss, now, &mut actions);
                let c = install_conn(w, host, Box::new(tcb), app, None, write_size);
                apply_tcp_actions(w, eng, host, c, None, actions);
            });
        }
    }
}

fn install_conn(
    w: &mut World,
    h: usize,
    tcb: Box<Tcb>,
    app: Box<dyn crate::app::AppLogic>,
    chan: Option<ChanInfo>,
    write_size: usize,
) -> u32 {
    w.metrics.gauge_inc(Gauge::ActiveConnections);
    let host = &mut w.hosts[h];
    let id = host.next_conn;
    host.next_conn += 1;
    host.conn_index.insert(pair_key(&tcb), id);
    if let Some(ci) = &chan {
        host.chan_owner.insert(ci.id, ChanOwner::Conn(id));
    }
    host.conns.insert(
        id,
        Conn {
            tcb,
            app,
            chan,
            pending_tx: VecDeque::new(),
            close_pending: false,
            bytes_to_app: 0,
            write_size,
        },
    );
    id
}

/// Tells the application of an active open that produced no connection
/// that it failed; the application is dropped.
fn reset_unconnected(mut app: Box<dyn crate::app::AppLogic>, now: Nanos) {
    app.on_reset(&crate::app::AppView {
        now,
        send_space: 0,
        pending_tx: 0,
        local: None,
        remote: None,
    });
}

fn pair_key(tcb: &Tcb) -> PairKey {
    (tcb.local().1, tcb.remote().0, tcb.remote().1)
}

// ---------------------------------------------------------------------
// Per-organization cost rules
// ---------------------------------------------------------------------

/// Cost of one application↔protocol boundary crossing.
fn app_boundary_cost(w: &World, h: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].org {
        OrgKind::InKernel => c.trap + c.socket_layer,
        OrgKind::SingleServer | OrgKind::SingleServerMsg => c.ux_syscall,
        OrgKind::DedicatedServer => c.ux_syscall + c.mach_ipc_one_way,
        OrgKind::UserLibrary => c.library_call,
    }
}

/// Cost of moving `len` app bytes into the protocol on a write.
fn tx_copy_cost(w: &World, h: usize, len: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].org {
        // Ultrix's copy-eliminating buffer path "is invoked only when the
        // user packet size is 1024 bytes or larger".
        OrgKind::InKernel => {
            if len >= 1024 {
                0
            } else {
                c.copy(len)
            }
        }
        // IPC to the server copies the data; the server copies into mbufs.
        OrgKind::SingleServer | OrgKind::SingleServerMsg | OrgKind::DedicatedServer => {
            2 * c.copy(len)
        }
        // "Our implementation uses a buffer organization that eliminates
        // byte copying" — writes land in the pinned shared region.
        OrgKind::UserLibrary => {
            if w.ablate_zero_copy {
                c.copy(len)
            } else {
                0
            }
        }
    }
}

/// Cost of handing `len` received bytes to the application.
fn rx_copy_cost(w: &World, h: usize, len: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].org {
        // The copy-eliminating buffer organization engages at ≥1024 bytes.
        OrgKind::InKernel => {
            if len >= 1024 {
                c.socket_layer
            } else {
                c.copy(len) + c.socket_layer
            }
        }
        OrgKind::SingleServer | OrgKind::SingleServerMsg | OrgKind::DedicatedServer => {
            c.copy(len) + c.ux_data_per_byte * len as Nanos + c.socket_layer
        }
        OrgKind::UserLibrary => {
            if w.ablate_zero_copy {
                c.copy(len)
            } else {
                0
            }
        }
    }
}

/// Per-frame device-access cost on transmit (after protocol processing).
fn tx_device_cost(w: &World, h: usize, frame_len: usize) -> Nanos {
    let c = &w.costs;
    let dev = match w.hosts[h].nic {
        Nic::Lance(_) => c.pio(frame_len),
        Nic::An1(_) => c.dma_setup,
    };
    match w.hosts[h].org {
        OrgKind::InKernel => dev,
        // Mapped device: the server drives it directly.
        OrgKind::SingleServer => dev,
        // Message-based device access adds an IPC per packet.
        OrgKind::SingleServerMsg => dev + c.mach_ipc_one_way,
        // Protocol server → device server hop.
        OrgKind::DedicatedServer => dev + c.mach_ipc_one_way,
        // Specialized kernel entry + template check + ring bookkeeping.
        OrgKind::UserLibrary => dev + c.fast_trap + c.template_check + c.ring_op,
    }
}

/// Per-frame cost from wire arrival to the protocol input routine,
/// *excluding* demux and notification (charged separately where they
/// differ structurally).
fn rx_device_cost(w: &World, h: usize, frame_len: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].nic {
        Nic::Lance(_) => c.interrupt + c.pio(frame_len),
        Nic::An1(_) => c.interrupt,
    }
}

/// Protocol-processing cost for one TCP segment (identical across
/// organizations — same code).
fn tcp_seg_cost(w: &World, payload_and_hdr: usize) -> Nanos {
    let c = &w.costs;
    c.tcp_per_segment + c.ip_per_packet + c.checksum(payload_and_hdr)
}

// ---------------------------------------------------------------------
// Frame construction & transmission
// ---------------------------------------------------------------------

/// Emits the link header for `h`'s network into `buf` (the first
/// link-header-length bytes) — the one place the two framings differ.
fn emit_link_header(
    w: &World,
    h: usize,
    dst_mac: MacAddr,
    ethertype: EtherType,
    bqi: u16,
    announce: u16,
    buf: &mut [u8],
) {
    let host = &w.hosts[h];
    match &host.nic {
        Nic::Lance(_) => EthernetRepr {
            dst: dst_mac,
            src: host.mac,
            ethertype,
        }
        .emit(buf)
        .expect("link headroom"),
        Nic::An1(_) => An1Repr {
            dst: dst_mac,
            src: host.mac,
            ethertype,
            bqi,
            announce,
        }
        .emit(buf)
        .expect("link headroom"),
    }
}

/// Prepends the link header onto an IP-packet frame: in place when the
/// frame carries link headroom (the zero-copy tx path), by copy into a
/// fresh buffer otherwise.
fn encap_link(
    w: &World,
    h: usize,
    dst_mac: MacAddr,
    mut ip_packet: Frame,
    bqi: u16,
    announce: u16,
) -> Frame {
    let lhl = w.hosts[h].link_header_len();
    if ip_packet.headroom() < lhl {
        return build_link_frame(w, h, dst_mac, EtherType::Ipv4, &ip_packet, bqi, announce);
    }
    let header = ip_packet.prepend(lhl);
    emit_link_header(w, h, dst_mac, EtherType::Ipv4, bqi, announce, header);
    ip_packet
}

/// Wraps `payload` in the link header for `h`'s network, copying into a
/// fresh buffer ([`encap_link`]'s slow path, and ARP).
fn build_link_frame(
    w: &World,
    h: usize,
    dst_mac: MacAddr,
    ethertype: EtherType,
    payload: &[u8],
    bqi: u16,
    announce: u16,
) -> Frame {
    let lhl = w.hosts[h].link_header_len();
    let mut buf = vec![0u8; lhl + payload.len()];
    emit_link_header(w, h, dst_mac, ethertype, bqi, announce, &mut buf[..lhl]);
    buf[lhl..].copy_from_slice(payload);
    Frame::from_vec(buf)
}

/// Resolves the next hop MAC, queueing behind ARP if needed. Returns
/// `None` when resolution is pending (the IP packet is parked — a
/// refcount bump, not a copy — and a request broadcast).
fn resolve_mac(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    dst_ip: Ipv4Addr,
    proto: IpProtocol,
    ip_packet: &Frame,
) -> Option<MacAddr> {
    if dst_ip.is_broadcast() {
        return Some(MacAddr::BROADCAST);
    }
    let now = eng.now();
    match w.hosts[h].arp.resolve(dst_ip, now) {
        ArpResult::Hit(mac) => Some(mac),
        ArpResult::Miss { request } => {
            w.hosts[h]
                .arp_wait
                .entry(dst_ip)
                .or_default()
                .push((proto, ip_packet.clone()));
            if let Some(req) = request {
                let frame = build_arp_frame(w, h, &req);
                let cost = w.costs.ip_per_packet + tx_device_cost(w, h, frame.len());
                host_step(w, eng, h, cost, Event::Transmit { host: h, frame });
            }
            None
        }
    }
}

fn build_arp_frame(w: &World, h: usize, arp: &ArpRepr) -> Frame {
    let dst = if arp.target_mac == MacAddr::ZERO {
        MacAddr::BROADCAST
    } else {
        arp.target_mac
    };
    build_link_frame(w, h, dst, EtherType::Arp, &arp.build(), 0, 0)
}

/// Puts a frame on the wire: reserves the link and schedules arrival at
/// each recipient. Taps and recipients share the one frame by refcount —
/// no per-recipient copy.
fn transmit_frame(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    let now = eng.now();
    let (start, arrival) = w.link.reserve(StationId(h), now, frame.len());
    let dst = MacAddr([frame[0], frame[1], frame[2], frame[3], frame[4], frame[5]]);
    w.metrics.bump(Ctr::FramesSent);
    unp_trace::emit_at(h as u16, Some(frame.id()), || unp_trace::Event::NicTx {
        len: frame.len() as u32,
    });
    // The wire-hop span for the causal tracer: time waiting for link
    // access vs serialization + propagation. The split telescopes with
    // the receiver's `nic_rx` timestamp (any residue is injected reorder
    // delay), so journey latency decomposes exactly.
    unp_trace::emit_at(h as u16, Some(frame.id()), || unp_trace::Event::LinkTx {
        queue: start - now,
        wire: arrival - start,
    });
    w.run_taps(now, &frame);
    if !w.faults.enabled {
        for StationId(host) in w.link.recipients(StationId(h), dst) {
            let frame = frame.clone();
            eng.schedule(arrival, Event::FrameArrives { host, frame });
        }
        return;
    }
    // Each verdict needs the whole world, so the recipients are walked by
    // position instead of held as a borrow of the link.
    for nth in 0.. {
        let Some(StationId(to)) = w.link.recipients(StationId(h), dst).nth(nth) else {
            break;
        };
        inject_and_deliver(w, eng, h, to, arrival, now, &frame);
    }
}

/// Applies the fault plan's verdict to one recipient's copy of a frame
/// and schedules the surviving arrivals.
fn inject_and_deliver(
    w: &mut World,
    eng: &mut Eng,
    from: usize,
    to: usize,
    arrival: Nanos,
    now: Nanos,
    frame: &Frame,
) {
    use unp_trace::FaultKind;
    let fate = w.faults.fate(from, to, now);
    let (f16, t16) = (from as u16, to as u16);
    let emit_fault = |kind: FaultKind| {
        unp_trace::emit_at(f16, Some(frame.id()), || unp_trace::Event::FaultInject {
            kind,
            from: f16,
            to: t16,
        });
    };
    if fate.outage {
        w.metrics.bump(Ctr::FaultOutageDrops);
        w.metrics.link(f16, t16).outage_drops += 1;
        emit_fault(FaultKind::Outage);
        return;
    }
    if fate.drop {
        w.metrics.bump(Ctr::FaultDrops);
        w.metrics.link(f16, t16).drops += 1;
        emit_fault(FaultKind::Drop);
        return;
    }
    let mut bytes = frame.clone();
    if fate.corrupt {
        // Flip one byte past the link header: the TCP checksum catches it
        // at the receiver. Link-header corruption on AN1 could flip the
        // BQI field and *misdeliver* a checksum-valid segment — a
        // different fault class than in-flight payload damage, so it is
        // deliberately out of range. The clone diverges copy-on-write, so
        // taps and other recipients keep the pristine frame.
        let lhl = w.hosts[to].link_header_len();
        if bytes.len() > lhl {
            let idx = lhl + w.faults.pick(bytes.len() - lhl);
            bytes.as_mut_slice()[idx] ^= 0x20;
            w.metrics.bump(Ctr::FaultCorrupts);
            w.metrics.link(f16, t16).corrupts += 1;
            emit_fault(FaultKind::Corrupt);
        }
    }
    if fate.delays().len() > 1 {
        w.metrics.bump(Ctr::FaultDups);
        w.metrics.link(f16, t16).dups += 1;
        emit_fault(FaultKind::Duplicate);
    }
    for &extra in fate.delays() {
        if extra > 0 {
            w.metrics.bump(Ctr::FaultReorders);
            w.metrics.link(f16, t16).reorders += 1;
            emit_fault(FaultKind::Reorder);
        }
        let frame = bytes.clone();
        eng.schedule(arrival + extra, Event::FrameArrives { host: to, frame });
    }
}

/// Sends `payload` to `dst_ip` as one IP datagram, on the copying slow
/// path UDP and ICMP take: the datagram's packets (fragments, past the
/// MTU) are each staged once into a pooled frame with link headroom, then
/// the link header is prepended in place.
fn send_ip(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    dst_ip: Ipv4Addr,
    proto: IpProtocol,
    payload: &[u8],
) {
    let mtu = w.link.params().mtu;
    let lhl = w.hosts[h].link_header_len();
    for ip_packet in w.hosts[h].ip_ep.send(proto, dst_ip, payload, mtu) {
        let ipf = w.pool.alloc(lhl, &ip_packet);
        let Some(mac) = resolve_mac(w, eng, h, dst_ip, proto, &ipf) else {
            continue;
        };
        let frame = encap_link(w, h, mac, ipf, 0, 0);
        let cost = tx_device_cost(w, h, frame.len());
        host_step(w, eng, h, cost, Event::Transmit { host: h, frame });
    }
}

// ---------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------

/// Entry point for a frame reaching host `h`'s interface.
pub fn frame_arrives(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    w.metrics.bump(Ctr::FramesReceived);
    let _attr = unp_trace::host_scope(h as u16);
    let cost = rx_device_cost(w, h, frame.len());
    match &mut w.hosts[h].nic {
        Nic::Lance(nic) => {
            if !nic.frame_arrived(frame, eng.now()) {
                w.metrics.bump(Ctr::NicDrops);
                return;
            }
            host_step_intr(w, eng, h, cost, Event::LanceIntr { host: h });
        }
        Nic::An1(nic) => {
            // Hardware classification happens in the controller before the
            // completion interrupt.
            let ring = nic.classify_frame(&frame);
            let host = h;
            host_step_intr(w, eng, h, cost, Event::An1Intr { host, frame, ring });
        }
    }
}

/// Kernel-side input processing after interrupt (+PIO) costs.
/// `hw_ring` is `Some` on AN1 (the controller's BQI classification).
fn kernel_input(w: &mut World, eng: &mut Eng, h: usize, frame: Frame, hw_ring: Option<RingId>) {
    let lhl = w.hosts[h].link_header_len();
    if frame.len() < lhl {
        return;
    }
    let ethertype = EtherType::from_u16(u16::from_be_bytes([frame[12], frame[13]]));
    match ethertype {
        EtherType::Arp => arp_input(w, eng, h, &frame[lhl..]),
        EtherType::Ipv4 => {
            if w.hosts[h].org.is_user_library() {
                userlib_ip_input(w, eng, h, frame, hw_ring);
            } else {
                monolithic_ip_input(w, eng, h, frame);
            }
        }
        EtherType::Other(_) => w.metrics.bump(Ctr::UnknownEthertype),
    }
}

fn arp_input(w: &mut World, eng: &mut Eng, h: usize, payload: &[u8]) {
    let Ok(pkt) = ArpPacket::new_checked(payload) else {
        return;
    };
    let Ok(repr) = ArpRepr::parse(&pkt) else {
        return;
    };
    let now = eng.now();
    let reply = w.hosts[h].arp.input(&repr, now);
    if let Some(rep) = reply {
        let frame = build_arp_frame(w, h, &rep);
        let cost = w.costs.ip_per_packet + tx_device_cost(w, h, frame.len());
        host_step(w, eng, h, cost, Event::Transmit { host: h, frame });
    }
    // Flush packets that were waiting on this resolution.
    if let Some(waiting) = w.hosts[h].arp_wait.remove(&repr.sender_ip) {
        let mac = repr.sender_mac;
        for (_proto, ip_packet) in waiting {
            let frame = encap_link(w, h, mac, ip_packet, 0, 0);
            let cost = tx_device_cost(w, h, frame.len());
            host_step(w, eng, h, cost, Event::Transmit { host: h, frame });
        }
    }
}

// ------------------------- monolithic input ---------------------------

fn monolithic_ip_input(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    let lhl = w.hosts[h].link_header_len();
    let now = eng.now();
    // Zero-copy fast path: a complete unfragmented TCP datagram for us is
    // sliced out of the wire frame (a window over the same backing buffer)
    // instead of copied out by `receive`.
    if let Some((src, IpProtocol::Tcp, range)) =
        w.hosts[h].ip_ep.receive_in_place(&frame[lhl..], now)
    {
        let payload = frame.slice(lhl + range.start, lhl + range.end);
        return tcp_input_direct(w, eng, h, src, payload);
    }
    let recv = w.hosts[h].ip_ep.receive(&frame[lhl..], now);
    match recv {
        IpRecv::Complete {
            protocol: IpProtocol::Tcp,
            src,
            payload,
            ..
        } => tcp_input_direct(w, eng, h, src, Frame::from_vec(payload)),
        IpRecv::Complete {
            protocol: IpProtocol::Udp,
            src,
            dst,
            payload,
        } => {
            // Keep the original datagram header around in case an ICMP
            // destination-unreachable must be generated.
            let orig = frame[lhl..].to_vec();
            udp_input(w, eng, h, src, dst, payload, orig);
        }
        IpRecv::Complete {
            protocol: IpProtocol::Icmp,
            src,
            payload,
            ..
        } => icmp_input_host(w, eng, h, src, &payload),
        IpRecv::Complete { .. } => w.metrics.bump(Ctr::IpUnknownProto),
        IpRecv::FragmentHeld => w.metrics.bump(Ctr::IpFragmentsHeld),
        IpRecv::NotForUs => w.metrics.bump(Ctr::IpNotForUs),
        IpRecv::Bad(_) => w.metrics.bump(Ctr::IpBad),
    }
}

/// The one TCP parse, serving every organization's ingress. `payload` is
/// exactly the IP payload — bounded by the IP total length, so link
/// padding never becomes TCP data — and the returned data frame is a
/// window over it. A segment that does not parse is counted; one whose
/// checksum fails (damage in flight) is counted and journaled as a
/// corrupt-frame discard. Neither is an error path: the sender's
/// retransmission recovers the data.
fn parse_tcp(
    w: &mut World,
    h: usize,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    payload: &Frame,
) -> Option<(TcpRepr, Frame)> {
    let Ok(pkt) = TcpPacket::new_checked(&payload[..]) else {
        w.metrics.bump(Ctr::TcpMalformed);
        return None;
    };
    if !pkt.verify_checksum(src, dst) {
        w.metrics.bump(Ctr::TcpBadChecksum);
        w.metrics.bump(Ctr::FrameCorruptDiscards);
        unp_trace::emit_at(h as u16, Some(payload.id()), || {
            unp_trace::Event::FrameCorruptDiscard {
                len: payload.len() as u32,
            }
        });
        return None;
    }
    let data = payload.slice(pkt.header_len(), payload.len());
    Some((TcpRepr::parse(&pkt), data))
}

/// [`parse_tcp`] for a frame the kernel holds whole (the kernel-default
/// path and frames parked across activation): the IP header is read in
/// place, without consuming reassembly state — handshake segments are
/// never fragmented. Returns the sender with the segment.
fn parse_tcp_frame(w: &mut World, h: usize, frame: &Frame) -> Option<(Ipv4Addr, TcpRepr, Frame)> {
    let lhl = w.hosts[h].link_header_len();
    let ip = unp_wire::Ipv4Packet::new_checked(&frame[lhl..]).ok()?;
    if ip.protocol() != IpProtocol::Tcp || ip.more_frags() || ip.frag_offset() != 0 {
        return None;
    }
    let (src, dst) = (ip.src(), ip.dst());
    let payload = frame.slice(lhl + IPV4_HEADER_LEN, lhl + ip.total_len());
    let (repr, data) = parse_tcp(w, h, src, dst, &payload)?;
    Some((src, repr, data))
}

/// Feeds one parsed segment to connection `cid`'s TCB and routes what it
/// answers. `frame` is the id the resulting journal records carry.
fn conn_segment(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: u32,
    repr: &TcpRepr,
    data: &Frame,
    frame: u64,
) {
    let now = eng.now();
    with_conn(w, eng, h, cid, Some(frame), |conn, out| {
        conn.tcb.on_segment_into(repr, data, now, out)
    });
}

/// Runs `call` on connection `cid` with an action buffer from the spares,
/// then routes what the TCB appended to it. `None` when the connection is
/// gone (nothing runs).
fn with_conn<R>(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: u32,
    frame: Option<u64>,
    call: impl FnOnce(&mut Conn, &mut Vec<TcpAction>) -> R,
) -> Option<R> {
    let conn = w.hosts[h].conns.get_mut(&cid)?;
    let mut actions = w.tcp_spare.take();
    let ret = call(conn, &mut actions);
    apply_tcp_actions(w, eng, h, cid, frame, actions);
    Some(ret)
}

/// Runs `call` on host `h`'s registry server with an action buffer from
/// the spares, then routes what it appended.
fn with_registry(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    call: impl FnOnce(&mut RegistryServer, &mut Vec<RegistryAction>),
) {
    let mut actions = w.reg_spare.take();
    call(&mut w.hosts[h].registry, &mut actions);
    apply_registry_actions(w, eng, h, actions);
}

/// TCP input for the monolithic organizations: in-kernel (or in-server)
/// PCB lookup and processing. `payload` is the IP payload, usually a
/// zero-copy window over the wire frame.
fn tcp_input_direct(w: &mut World, eng: &mut Eng, h: usize, src: Ipv4Addr, payload: Frame) {
    let local_ip = w.hosts[h].ip;
    let Some((repr, data)) = parse_tcp(w, h, src, local_ip, &payload) else {
        return;
    };
    // Per-segment stack cost, plus the kernel→server dispatch for the
    // server-based organizations.
    let c = &w.costs;
    let mut cost = tcp_seg_cost(w, payload.len());
    cost += match w.hosts[h].org {
        OrgKind::SingleServer | OrgKind::SingleServerMsg => c.ux_pkt_dispatch,
        OrgKind::DedicatedServer => c.ux_pkt_dispatch + c.mach_ipc_one_way,
        // Sub-1024-byte segments take the small-mbuf path in the stock
        // kernel (the copy-eliminating organization needs ≥1024).
        OrgKind::InKernel if data.len() < 1024 && !data.is_empty() => c.small_pkt_overhead,
        _ => 0,
    };
    // The AN1 controller's inherent device-management cost applies to the
    // kernel's BQI-0 ring exactly as to user rings (paper Table 5).
    if matches!(w.hosts[h].nic, Nic::An1(_)) {
        cost += c.bqi_demux;
    }
    let host = h;
    let input = Event::PcbInput {
        host,
        src,
        repr,
        data,
    };
    host_step(w, eng, h, cost, input);
}

/// The monolithic stack's PCB lookup for one parsed segment
/// ([`Event::PcbInput`]): its connection, a listener, or a RST.
fn pcb_input(w: &mut World, eng: &mut Eng, h: usize, src: Ipv4Addr, repr: &TcpRepr, data: &Frame) {
    let key = (repr.dst_port, src, repr.src_port);
    let now = eng.now();
    if let Some(&cid) = w.hosts[h].conn_index.get(&key) {
        return conn_segment(w, eng, h, cid, repr, data, data.id());
    }
    // New connection to a listener?
    if w.hosts[h].listeners.contains_key(&repr.dst_port) {
        // Socket + PCB creation for the accepted connection.
        w.hosts[h].cpu.charge(now, w.costs.pcb_setup);
        let local_ip = w.hosts[h].ip;
        let iss = w.hosts[h].alloc_iss();
        let listener = w.hosts[h]
            .listeners
            .get_mut(&repr.dst_port)
            .expect("checked");
        let cfg = listener.cfg.clone();
        let app = (listener.factory)();
        let ltcb = ListenTcb::new((local_ip, repr.dst_port), cfg);
        let mut actions = w.tcp_spare.take();
        let remote = (src, repr.src_port);
        match ltcb.on_syn_into(remote, repr, iss, now, &mut actions) {
            Some(tcb) => {
                let write_size = 4096;
                let cid = install_conn(w, h, Box::new(tcb), app, None, write_size);
                apply_tcp_actions(w, eng, h, cid, None, actions);
            }
            None => w.tcp_spare.give(actions),
        }
        return;
    }
    // Stray: RST.
    if !repr.flags.rst {
        let rst = Tcb::rst_for((w.hosts[h].ip, repr.dst_port), repr, data.len());
        send_tcp_segment(w, eng, h, None, rst, Vec::new(), src);
    }
}

/// Registers and binds a UDP port on `host` through the UDP registry
/// server (name allocation is privileged; the data path then uses the
/// bound `UdpLayer` directly).
pub fn bind_udp(w: &mut World, host: usize, port: u16) -> bool {
    let owner = w.hosts[host].owner();
    if w.hosts[host].udp_registry.bind(owner, port).is_err() {
        return false;
    }
    w.hosts[host].udp.bind(port)
}

/// Sends a UDP datagram from `host` (source port must be bound via
/// [`bind_udp`] for replies to be deliverable).
pub fn send_udp(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    src_port: u16,
    dst: (Ipv4Addr, u16),
    payload: Vec<u8>,
) {
    let cost =
        app_boundary_cost(w, host) + w.costs.udp_per_packet + w.costs.checksum(payload.len());
    host_exec(w, eng, host, cost, move |w, eng| {
        let src_ip = w.hosts[host].ip;
        let dgram = w.hosts[host]
            .udp
            .send(src_ip, src_port, dst.0, dst.1, &payload);
        send_ip(w, eng, host, dst.0, IpProtocol::Udp, &dgram);
    });
}

/// Sends an ICMP echo request from `host` to `dst`. The reply is counted
/// in the trace under `icmp_echo_reply_received`.
pub fn send_ping(w: &mut World, eng: &mut Eng, host: usize, dst: Ipv4Addr, ident: u16, seq: u16) {
    let msg = unp_wire::IcmpRepr::Echo {
        request: true,
        ident,
        seq,
        data: b"unp ping".to_vec(),
    }
    .build();
    let cost = w.costs.ip_per_packet + w.costs.checksum(msg.len());
    host_exec(w, eng, host, cost, move |w, eng| {
        send_ip(w, eng, host, dst, IpProtocol::Icmp, &msg);
    });
}

fn udp_input(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    payload: Vec<u8>,
    orig_ip_packet: Vec<u8>,
) {
    let cost = w.costs.udp_per_packet + w.costs.checksum(payload.len());
    host_exec(w, eng, h, cost, move |w, eng| {
        use unp_proto::udp::UdpRecv;
        match w.hosts[h].udp.receive(src, dst, &payload) {
            UdpRecv::Delivered { .. } => w.metrics.bump(Ctr::UdpDelivered),
            UdpRecv::PortUnreachable => {
                w.metrics.bump(Ctr::UdpUnreachable);
                // "In response to a packet arriving at a port without a
                // listening socket, an ICMP destination unreachable
                // message is generated."
                let icmp = unp_proto::icmp::port_unreachable(&orig_ip_packet).build();
                let cost = w.costs.ip_per_packet + w.costs.checksum(icmp.len());
                host_exec(w, eng, h, cost, move |w, eng| {
                    send_ip(w, eng, h, src, IpProtocol::Icmp, &icmp);
                });
            }
            UdpRecv::Bad(_) => w.metrics.bump(Ctr::UdpBad),
        }
    });
}

fn icmp_input_host(w: &mut World, eng: &mut Eng, h: usize, src: Ipv4Addr, payload: &[u8]) {
    let cost = w.costs.ip_per_packet + w.costs.checksum(payload.len());
    match icmp_input(payload) {
        Ok(Some(reply)) => {
            let bytes = reply.build();
            host_exec(w, eng, h, cost, move |w, eng| {
                send_ip(w, eng, h, src, IpProtocol::Icmp, &bytes);
                w.metrics.bump(Ctr::IcmpEchoReplies);
            });
        }
        Ok(None) => {
            // Classify for the trace: echo replies (our pings coming
            // back) and destination-unreachable errors.
            match unp_wire::IcmpPacket::new_checked(payload)
                .ok()
                .map(|p| p.icmp_type())
            {
                Some(unp_wire::IcmpType::EchoReply) => w.metrics.bump(Ctr::IcmpEchoReplyReceived),
                Some(unp_wire::IcmpType::DestUnreachable(_)) => {
                    w.metrics.bump(Ctr::IcmpDestUnreachableReceived)
                }
                _ => w.metrics.bump(Ctr::IcmpOther),
            }
        }
        Err(_) => w.metrics.bump(Ctr::IcmpBad),
    }
}

// ------------------------- user-library input -------------------------

fn userlib_ip_input(w: &mut World, eng: &mut Eng, h: usize, frame: Frame, hw_ring: Option<RingId>) {
    // Only TCP goes through connection channels; other IP protocols take
    // the kernel path (same handling as monolithic — they are not part of
    // the paper's measurements but keep the host fully functional).
    let lhl = w.hosts[h].link_header_len();
    let is_tcp = frame.len() > lhl + 9 && frame[lhl + 9] == IpProtocol::Tcp.to_u8();
    if !is_tcp {
        monolithic_ip_input(w, eng, h, frame);
        return;
    }
    // Slow-consumer windows from the fault plan clamp the effective ring
    // capacity for the delivery below (None clears any previous clamp; a
    // disabled plan always yields None). Overflow drops recover through
    // normal TCP retransmission.
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
            let signal = signal || w.ablate_batching;
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
            host_exec(w, eng, h, demux_cost, move |w, eng| {
                registry_tcp_input(w, eng, h, frame);
            });
        }
        Delivery::Dropped => w.metrics.bump(Ctr::ChRingDrops),
        // The channel had room but its tenant's aggregate ring budget was
        // exhausted — charged to the tenant, recovered by TCP like any
        // other ring drop.
        Delivery::QuotaDropped { .. } => w.metrics.bump(Ctr::ChQuotaDrops),
    }
}

/// The library thread wakes (or, at the end of a batch, finds more queued
/// without a new semaphore signal): consume every queued frame, run the
/// protocol over each, deliver to the application.
fn library_wakeup(w: &mut World, eng: &mut Eng, h: usize, chan: ChannelId) {
    let cid = match w.hosts[h].chan_owner.get(&chan) {
        Some(&ChanOwner::Conn(cid)) => cid,
        // Pre-establishment hardware deliveries land here with no conn
        // yet: feed them back through the registry.
        Some(&ChanOwner::Handshake(hs)) => {
            let setup = w.hosts[h].handshakes[&hs].setup.as_ref();
            let recv_cap = setup.expect("owner of its channel").chan.recv_cap;
            let Ok(ring) = w.hosts[h].netio.consume_batch(recv_cap) else {
                return;
            };
            let frames: Vec<Frame> = ring.collect();
            let _ = w.hosts[h].netio.end_wakeup(recv_cap);
            for f in frames {
                registry_tcp_input(w, eng, h, f);
            }
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
    let Ok(ring) = host.netio.consume_batch(recv_cap) else {
        return;
    };
    if ring.len() == 0 {
        drop(ring);
        let _ = host.netio.end_wakeup(recv_cap);
        return;
    }
    // Sized to the ring's backlog, not the next power of two: the queue
    // settles at the largest batch seen, as the `Vec` it replaces did.
    let mut batch = host.batch_spare.pop().unwrap_or_default();
    batch.reserve_exact(ring.len());
    batch.extend(ring);
    w.metrics
        .sample(Hist::WakeupBatchFrames, batch.len() as u64);
    // Process the consumed batch one frame at a time, each charged
    // individually, so acknowledgments flow as segments are handled (the
    // batching amortizes only the semaphore/thread-switch, not the
    // protocol work — processing a batch "atomically" would stall the
    // sender's ACK clock).
    library_process_chain(w, eng, h, cid, batch);
}

/// Charges the library for the frame at the front of `batch` and schedules
/// its [`Event::LibraryChain`]; an empty batch ends the wakeup. The frames
/// are charged one by one whether or not the connection outlives them.
fn library_process_chain(w: &mut World, eng: &mut Eng, h: usize, cid: u32, batch: VecDeque<Frame>) {
    let Some(frame) = batch.front() else {
        w.hosts[h].batch_spare.push(batch);
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

/// The library's input for one ring frame: its own IP input (fragments
/// handled by the shared IP library), the TCP parse, the connection.
fn library_input(w: &mut World, eng: &mut Eng, h: usize, cid: u32, frame: Frame) {
    let lhl = w.hosts[h].link_header_len();
    if frame.len() <= lhl {
        return;
    }
    // The common case — a complete unfragmented datagram — is sliced out
    // of the ring frame without copying.
    let now = eng.now();
    let (src, payload) = match w.hosts[h].ip_ep.receive_in_place(&frame[lhl..], now) {
        Some((src, IpProtocol::Tcp, range)) => {
            (src, frame.slice(lhl + range.start, lhl + range.end))
        }
        _ => {
            let recv = w.hosts[h].ip_ep.receive(&frame[lhl..], now);
            let IpRecv::Complete {
                protocol: IpProtocol::Tcp,
                src,
                payload,
                ..
            } = recv
            else {
                w.metrics.bump(Ctr::LibNonTcp);
                return;
            };
            (src, Frame::from_vec(payload))
        }
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

/// Kernel-default TCP traffic: handshakes and strays, handled by the
/// registry server (one address-space crossing away).
fn registry_tcp_input(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    let Some((src, repr, data)) = parse_tcp_frame(w, h, &frame) else {
        return;
    };
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
    host_exec(w, eng, h, cost, move |w, eng| {
        let key = (repr.dst_port, src, repr.src_port);
        // An established connection whose binding the frame missed (e.g. a
        // handshake retransmission racing activation): to the library.
        if let Some(&cid) = w.hosts[h].conn_index.get(&key) {
            return conn_segment(w, eng, h, cid, &repr, &data, data.id());
        }
        // A connection mid-Complete: the kernel holds the frame until the
        // library's channel activates.
        let mut in_flight = w.hosts[h].handshakes.values_mut();
        if let Some(rec) = in_flight.find(|r| r.completing && r.key() == Some(key)) {
            rec.parked.push(frame);
            w.metrics.bump(Ctr::FramesParked);
            return;
        }
        // Registry path (handshakes, inherited connections, strays): the
        // registry's device access is by Mach IPC, not shared memory.
        let now = eng.now();
        w.hosts[h].cpu.charge(now, w.costs.registry_pkt_op);
        with_registry(w, eng, h, |registry, out| {
            registry.on_segment_into(src, &repr, &data, now, out)
        });
        if announce != 0 {
            note_announce(w, h, key, announce);
        }
    });
}

/// Records a peer's BQI announcement on the handshake it belongs to. One
/// that matches no handshake in flight — a stray's, or a replay after
/// establishment — announces to nobody.
fn note_announce(w: &mut World, h: usize, key: PairKey, bqi: u16) {
    let mut setups = w.hosts[h]
        .handshakes
        .values_mut()
        .filter_map(|r| r.setup.as_mut());
    if let Some(setup) = setups.find(|s| s.key == key) {
        setup.chan.peer_bqi = Some(bqi);
    }
}

// ---------------------------------------------------------------------
// Registry action routing
// ---------------------------------------------------------------------

/// Routes one batch of registry actions; the emptied buffer returns to
/// the world's spares.
fn apply_registry_actions(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    mut actions: Vec<RegistryAction>,
) {
    for action in actions.drain(..) {
        match action {
            RegistryAction::Send {
                hs,
                repr,
                payload,
                remote,
            } => {
                ensure_hs_setup(w, h, hs, &repr, remote);
                // Announce our BQI on AN1 handshake segments.
                let rec = w.hosts[h].handshakes.get(&hs.0);
                let setup = rec.and_then(|r| r.setup.as_ref());
                let announce = setup.map_or(0, |s| s.chan.our_bqi);
                let c = &w.costs;
                let cost = c.registry_pkt_op + tcp_seg_cost(w, repr.header_len() + payload.len());
                let send = Event::SendSegment {
                    host: h,
                    cid: None,
                    repr,
                    payload,
                    remote,
                    announce,
                };
                host_step(w, eng, h, cost, send);
            }
            RegistryAction::SetTimer(hs, t, deadline) => {
                arm_timer(w, eng, h, TimerToken::Registry(hs.0, t), deadline);
            }
            RegistryAction::CancelTimer(hs, t) => {
                cancel_timer(w, eng, h, TimerToken::Registry(hs.0, t));
            }
            RegistryAction::Complete { hs, tcb, .. } => {
                if let Some(rec) = w.hosts[h].handshakes.get_mut(&hs.0) {
                    rec.completing = true;
                }
                // Channel finalization + TCP state transfer + reply RPC.
                let c = &w.costs;
                let mut cost = c.channel_setup + c.state_transfer + c.registry_rpc;
                if matches!(w.hosts[h].nic, Nic::An1(_)) {
                    cost += c.bqi_setup; // programming the BQI machinery
                }
                host_exec(w, eng, h, cost, move |w, eng| {
                    finalize_user_conn(w, eng, h, hs, tcb);
                });
            }
            RegistryAction::Failed { hs, .. } => {
                w.metrics.bump(Ctr::HandshakeFailures);
                if let Some(app) = drop_handshake(w, h, hs.0).and_then(|rec| rec.app) {
                    reset_unconnected(app, eng.now());
                }
            }
        }
    }
    w.reg_spare.give(actions);
}

/// Runs `change` — a channel creation or teardown — on host `h`'s kernel
/// module and moves the demux table-size gauges by what it did to that
/// host's tables, so the flow/listen entry counts in the metrics windows
/// track channel churn exactly at a cost that knows nothing of the other
/// hosts. By difference (not inc/dec) because a channel may live in
/// either keyed table or in neither (residual scan tier), and the crash
/// sweep destroys many at once. [`World::leaks`] referees the gauges
/// against a fresh sum over every host.
fn change_channels<R>(w: &mut World, h: usize, change: impl FnOnce(&mut NetIoModule) -> R) -> R {
    let netio = &mut w.hosts[h].netio;
    let before = demux_entries(netio);
    let result = change(netio);
    let after = demux_entries(netio);
    for ((g, before), after) in DEMUX_ENTRY_GAUGES.into_iter().zip(before).zip(after) {
        let moved = (w.metrics.gauge(g) + after).saturating_sub(before);
        w.metrics.gauge_set(g, moved);
    }
    result
}

/// The gauges [`change_channels`] keeps, and what each mirrors of one
/// kernel module, in the same order.
const DEMUX_ENTRY_GAUGES: [Gauge; 2] = [Gauge::DemuxFlowEntries, Gauge::DemuxListenEntries];

fn demux_entries(netio: &NetIoModule) -> [u64; 2] {
    [
        netio.flow_table_len() as u64,
        netio.listen_table_len() as u64,
    ]
}

/// Mirrors every kernel tenant account into the metrics registry's
/// [`unp_trace::TenantScope`]s. Called when quota enforcement fires and
/// by reporting code before it reads the scopes; cheap (a handful of
/// tenants per host), and a no-op on worlds that never budget anyone
/// beyond each host's default owner.
pub fn sync_tenant_scopes(w: &mut World) {
    for h in 0..w.hosts.len() {
        for t in w.hosts[h].netio.tenant_ids() {
            let Some(s) = w.hosts[h].netio.tenant_stats(t) else {
                continue;
            };
            let scope = w.metrics.tenant(h as u16, t.0);
            scope.rx_delivered = s.rx_delivered;
            scope.tx_frames = s.tx_frames;
            scope.quota_drops = s.quota_drops;
            scope.tx_rejections = s.tx_rejections;
            scope.ring_slots = s.ring_slots as u64;
            scope.ring_quota = s.ring_quota as u64;
            scope.open_channels = s.open_channels as u64;
        }
    }
}

/// Mirrors the observer pipeline's stream counters into the metrics
/// registry: violations flagged by an attached conformance monitor and
/// the flight recorder's current occupancy. The stream counter is
/// monotonic per thread while `Ctr` is add-only, and this sync is the
/// counter's sole writer, so the counter itself doubles as the
/// last-synced watermark. Called by reporting code (dashboards,
/// exporters) before it reads the metrics; a no-op when no observer is
/// attached.
pub fn sync_monitor_stats(w: &mut World) {
    let s = unp_trace::stream_stats();
    let seen = w.metrics.get(Ctr::MonitorViolations);
    if s.violations > seen {
        w.metrics.add(Ctr::MonitorViolations, s.violations - seen);
    }
    w.metrics
        .gauge_set(Gauge::RecorderOccupancy, s.recorder_occupancy);
}

/// What a connection's channel is bound to: the demux spec that selects
/// its frames and the header template its transmissions are checked
/// against. Fully specified by construction, so the binding distills into
/// the kernel's exact-match flow table (see `connection_demux_spec`).
fn channel_binding(
    host: &Host,
    local_port: u16,
    remote: (Ipv4Addr, u16),
) -> (unp_filter::programs::DemuxSpec, HeaderTemplate) {
    let lhl = host.link_header_len();
    let spec = unp_registry::connection_demux_spec(lhl, (host.ip, local_port), remote);
    let template = HeaderTemplate {
        link_header_len: lhl,
        src_mac: Some(host.mac),
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: host.ip,
        dst_ip: remote.0,
        src_port: local_port,
        dst_port: Some(remote.1),
        bqi: None,
    };
    (spec, template)
}

/// Creates the channel, template, and (on AN1) BQI for a handshake the
/// first time the registry sends a segment for it. "Before initiating
/// connection the server requests the network I/O module for a BQI that
/// the remote node can use."
fn ensure_hs_setup(w: &mut World, h: usize, hs: HsId, repr: &TcpRepr, remote: Ipv4Addr) {
    let rec = w.hosts[h].handshakes.get(&hs.0);
    if hs.0 == 0 || rec.is_some_and(|r| r.setup.is_some()) {
        return; // hs 0 is the registry's stray-RST pseudo-connection
    }
    // Channels exist only for connections headed to an application; the
    // registry's inherited closers (FIN/RST/ACK traffic, never SYN) stay
    // on the kernel path.
    if !repr.flags.syn {
        return;
    }
    let local_port = repr.src_port;
    let remote_port = repr.dst_port;
    let lhl = w.hosts[h].link_header_len();
    let (spec, template) = channel_binding(&w.hosts[h], local_port, (remote, remote_port));
    // Channel ownership: an active open's tenant was pinned at connect
    // time; a passive open inherits the listening port's tenant, or the
    // host's single-app owner when the listener is already gone.
    let listener = w.hosts[h].listeners.get(&local_port);
    let owner = rec
        .map(|r| r.owner)
        .or(listener.map(|l| l.tenant))
        .unwrap_or_else(|| w.hosts[h].owner());
    let mtu = w.link.params().mtu;
    // The pinned region must cover a full advertised window of segments
    // (paper: "this memory is kept pinned for the duration of the
    // connection"). The window is byte-based (≤64 kB) but the ring is
    // slot-based, so size it for the worst case of small segments: a
    // 64 kB window of ~100-byte no-Nagle dribble segments.
    let Some((chan_id, send_cap, recv_cap, ring)) = change_channels(w, h, |netio| {
        netio.try_create_channel(owner, &spec, template, 768, mtu + lhl + 8)
    }) else {
        // The tenant is at its channel cap: no channel. The handshake can
        // never finalize at the library level; the peer's retransmits run
        // out and the connection fails — contained to the over-cap tenant.
        return;
    };
    w.metrics.gauge_inc(Gauge::OpenChannels);
    let host = &mut w.hosts[h];
    let our_bqi = match &mut host.nic {
        Nic::An1(nic) => nic.bqi_table.allocate(owner, ring).unwrap_or(0),
        Nic::Lance(_) => 0,
    };
    host.chan_owner.insert(chan_id, ChanOwner::Handshake(hs.0));
    let passive = || Handshake::new(owner, None, 4096);
    host.handshakes.entry(hs.0).or_insert_with(passive).setup = Some(HsSetup {
        chan: ChanInfo {
            id: chan_id,
            send_cap,
            recv_cap,
            our_bqi,
            peer_bqi: None,
        },
        key: (local_port, remote, remote_port),
    });
}

/// The one channel release: the kernel's counters for the channel go to
/// the registry (the §9 hand-off), the channel is destroyed, its BQI slot
/// freed and the gauges follow. `None` when the kernel backstop already
/// swept the channel (a wedged tenant's crash) — that sweep did the
/// accounting, and leaves the BQI slot to its own owner sweep.
fn release_channel(w: &mut World, h: usize, chan: &ChanInfo, key: PairKey) -> Option<ChannelStats> {
    w.hosts[h].chan_owner.remove(&chan.id);
    let stats = w.hosts[h].netio.channel_stats(chan.id)?;
    change_channels(w, h, |netio| netio.destroy_channel(chan.id, OwnerTag(0)));
    let host = &mut w.hosts[h];
    if let Nic::An1(nic) = &mut host.nic {
        nic.bqi_table
            .free(chan.our_bqi, unp_buffers::BqiTable::KERNEL_OWNER);
    }
    host.registry
        .record_channel_stats(key.0, (key.1, key.2), stats);
    w.metrics.gauge_dec(Gauge::OpenChannels);
    Some(stats)
}

/// Takes handshake `hs` out of the world and releases the channel it
/// held; frames parked on it are dropped with it. The returned record's
/// `setup` names a channel that no longer exists.
fn drop_handshake(w: &mut World, h: usize, hs: u64) -> Option<Handshake> {
    let rec = w.hosts[h].handshakes.remove(&hs)?;
    if let Some(setup) = &rec.setup {
        release_channel(w, h, &setup.chan, setup.key);
    }
    Some(rec)
}

/// The handshake completed: activate the channel, fix the template's BQI,
/// install the connection in the application's library, and upcall it.
fn finalize_user_conn(w: &mut World, eng: &mut Eng, h: usize, hs: HsId, tcb: Box<Tcb>) {
    let Some(rec) = w.hosts[h].handshakes.remove(&hs.0) else {
        return;
    };
    let Some(HsSetup { chan, .. }) = rec.setup else {
        return; // at its channel cap: nothing to hand the library
    };
    // Peer's announced BQI (AN1): required on our outgoing data frames.
    if let Some(bqi) = chan.peer_bqi {
        w.hosts[h].netio.set_template_bqi(chan.id, bqi);
    }
    w.hosts[h].netio.activate(chan.id);
    // The app: active opens registered it; passive opens use the listener
    // factory.
    let port = tcb.local().1;
    let listener = w.hosts[h].listeners.get_mut(&port);
    let Some(app) = rec.app.or_else(|| listener.map(|l| (l.factory)())) else {
        // The listener was torn down while the handshake was completing.
        // The channel is already activated and the peer believes it is
        // connected, so this cannot just drop on the floor: release the
        // channel and reset the peer.
        listener_vanished(w, eng, h, chan, tcb);
        return;
    };
    let cid = install_conn(w, h, tcb, app, Some(chan), rec.write_size);
    w.metrics.bump(Ctr::ConnectionsEstablished);
    // Frames the kernel parked while the channel was being finalized
    // (costs charged here, then the shared ingress).
    let lhl = w.hosts[h].link_header_len();
    for f in rec.parked {
        let cost = tcp_seg_cost(w, f.len().saturating_sub(lhl));
        host_exec(w, eng, h, cost, move |w, eng| {
            if let Some((_, repr, data)) = parse_tcp_frame(w, h, &f) {
                conn_segment(w, eng, h, cid, &repr, &data, f.id());
            }
        });
    }
    // Deliver the Connected upcall.
    let cost = app_boundary_cost(w, h);
    app_upcall(w, eng, h, cost, cid, AppEvent::Connected);
}

/// A handshake completed for a listener that no longer exists (the
/// accepting process unlistened or died mid-completion). The channel was
/// already activated, so release it and its BQI, and hand the established
/// TCB to the registry, which resets the peer on the vanished
/// application's behalf (the §3.4 trusted-agent role).
fn listener_vanished(w: &mut World, eng: &mut Eng, h: usize, chan: ChanInfo, tcb: Box<Tcb>) {
    w.metrics.bump(Ctr::ListenerVanished);
    w.metrics.bump(Ctr::ResourceReclaims);
    let port = tcb.local().1;
    let owner = w.hosts[h].owner();
    unp_trace::emit_at(h as u16, None, || unp_trace::Event::ResourceReclaim {
        kind: unp_trace::ReclaimKind::Connection,
        owner: owner.0 as u32,
        id: port as u32,
    });
    release_channel(w, h, &chan, pair_key(&tcb));
    let now = eng.now();
    with_registry(w, eng, h, |registry, out| {
        registry.app_exit_into(owner, vec![*tcb], true, now, out)
    });
}

// ---------------------------------------------------------------------
// TCP action routing (library / in-kernel stack, post-establishment)
// ---------------------------------------------------------------------

/// Routes one batch of TCP actions; the emptied buffer returns to the
/// world's spares. `frame` is the id of the received frame that produced
/// them (None for timer fires and app-initiated sends) — it stamps the
/// `app_deliver` journal record so the profiler can join the final stage
/// of the frame's path.
fn apply_tcp_actions(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: u32,
    frame: Option<u64>,
    mut actions: Vec<TcpAction>,
) {
    // Harvest the connection's counter increments into the live registry
    // so windowed samplers see retransmit/RTT activity as it happens, not
    // at teardown. The cumulative per-connection stats are untouched.
    if let Some(conn) = w.hosts[h].conns.get_mut(&cid) {
        let d = conn.tcb.take_stats_delta();
        w.metrics.add(Ctr::TcpRexmitBytes, d.bytes_rexmit);
        w.metrics.add(Ctr::TcpRexmitSegs, d.rexmits);
        w.metrics.add(Ctr::TcpRttSamples, d.rtt_samples);
    }
    for action in actions.drain(..) {
        if !w.hosts[h].conns.contains_key(&cid) {
            break; // connection reaped mid-sequence
        }
        match action {
            TcpAction::Send(repr, payload) => {
                let remote = w.hosts[h].conns[&cid].tcb.remote().0;
                send_tcp_segment(w, eng, h, Some(cid), repr, payload, remote);
            }
            TcpAction::SetTimer(t, deadline) => {
                arm_timer(w, eng, h, TimerToken::Conn(cid, t), deadline);
            }
            TcpAction::CancelTimer(t) => cancel_timer(w, eng, h, TimerToken::Conn(cid, t)),
            TcpAction::Connected => {
                let cost = app_boundary_cost(w, h);
                app_upcall(w, eng, h, cost, cid, AppEvent::Connected);
            }
            TcpAction::DataAvailable => {
                // Drain the receive buffer and upcall the application.
                let now = eng.now();
                let drained = with_conn(w, eng, h, cid, frame, |conn, out| {
                    let data = conn.tcb.recv_into(usize::MAX, now, out);
                    conn.bytes_to_app += data.len() as u64;
                    data
                });
                let data = drained.expect("checked");
                if !data.is_empty() {
                    w.metrics.sample(Hist::AppDeliverBytes, data.len() as u64);
                    unp_trace::emit_at(h as u16, frame, || unp_trace::Event::AppDeliver {
                        conn: cid as u64,
                        bytes: data.len() as u32,
                    });
                    let cost = app_boundary_cost(w, h) + rx_copy_cost(w, h, data.len());
                    app_upcall(w, eng, h, cost, cid, AppEvent::Data(data));
                }
            }
            TcpAction::SendSpace => {
                flush_conn_tx(w, eng, h, cid);
                if w.hosts[h].conns.contains_key(&cid) {
                    let cost = w.costs.library_call;
                    app_upcall(w, eng, h, cost, cid, AppEvent::SendSpace);
                }
            }
            TcpAction::PeerClosed => {
                let cost = app_boundary_cost(w, h);
                app_upcall(w, eng, h, cost, cid, AppEvent::PeerClosed);
            }
            TcpAction::Reset => {
                w.metrics.bump(Ctr::ConnectionsReset);
                if let Some(conn) = w.hosts[h].conns.get_mut(&cid) {
                    let view = crate::app::AppView {
                        now: eng.now(),
                        send_space: 0,
                        pending_tx: 0,
                        local: Some(conn.tcb.local()),
                        remote: Some(conn.tcb.remote()),
                    };
                    conn.app.on_reset(&view);
                }
            }
            TcpAction::ConnClosed => {
                let conn = remove_conn(w, h, cid).expect("checked");
                w.metrics.bump(Ctr::ConnectionsClosed);
                // The TCB sat out TIME_WAIT in the library; the registry,
                // which named the endpoint, now learns the pair is done.
                if conn.chan.is_some() {
                    let port = conn.tcb.local().1;
                    w.hosts[h].registry.connection_closed(port);
                }
            }
        }
    }
    w.tcp_spare.give(actions);
}

/// The journaled control-flag summary of a segment (what the online
/// conformance checkers key their ack/dup-ACK/incarnation logic on).
fn seg_flags(repr: &TcpRepr) -> unp_trace::SegFlags {
    unp_trace::SegFlags {
        syn: repr.flags.syn,
        fin: repr.flags.fin,
        rst: repr.flags.rst,
        ack: repr.flags.ack,
    }
}

/// Builds one TCP segment's IP packet(s) and hands them to the link
/// layer. Unfragmented segments — the entire measured workload — take
/// the zero-copy path: the payload is staged once into a pooled frame
/// and the TCP, IP, and (after ARP) link headers are prepended into its
/// headroom, so no intermediate segment/packet vectors exist. Oversize
/// segments fall back to [`IpEndpoint::send`] fragmentation.
///
/// `fabricated` marks a byzantine tenant's raw transmit: it parses as TCP
/// on the wire but was built by no TCB, so it must not be journaled as a
/// `tcp_segment` (the record means "a TCP endpoint produced this") — only
/// its NIC/template-check chain is real.
/// The conformance monitor depends on this honesty: per-connection
/// invariants like ACK monotonicity hold for the library's segments, not
/// for arbitrary bytes a template happens to pass.
#[allow(clippy::too_many_arguments)]
fn send_tcp_frame(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    repr: &TcpRepr,
    payload: &[u8],
    remote: Ipv4Addr,
    bqi: u16,
    announce: u16,
    send_cap: Option<Capability>,
    fabricated: bool,
) {
    let _attr = unp_trace::host_scope(h as u16);
    let local_ip = w.hosts[h].ip;
    let mtu = w.link.params().mtu;
    let hlen = repr.header_len();
    let lhl = w.hosts[h].link_header_len();
    // One IP packet of the segment: resolve the next hop, prepend the link
    // header, pass the channel's template check, pay for the device.
    let emit = |w: &mut World, eng: &mut Eng, ipf: Frame| {
        let Some(mac) = resolve_mac(w, eng, h, remote, IpProtocol::Tcp, &ipf) else {
            return;
        };
        let frame = encap_link(w, h, mac, ipf, bqi, announce);
        if !fabricated {
            unp_trace::emit(Some(frame.id()), || unp_trace::Event::TcpSegment {
                dir: unp_trace::Dir::Tx,
                local_port: repr.src_port,
                remote_port: repr.dst_port,
                remote_ip: remote.0,
                seq: repr.seq.0,
                ack: repr.ack_num.0,
                wnd: u32::from(repr.window),
                flags: seg_flags(repr),
                payload: payload.len() as u32,
                wire: (frame.len() - lhl) as u32,
            });
        }
        // UserLibrary: the template check really runs. Transmit-credit
        // windows roll forward first so a budgeted tenant's refill
        // instants depend only on sim time, never on call order.
        if let Some(cap) = send_cap {
            let now = eng.now();
            w.hosts[h].netio.advance_tx_window(now);
            match w.hosts[h].netio.transmit_frame(cap, &frame) {
                Ok(_) => {}
                Err(unp_kernel::TxError::QuotaExceeded) => {
                    w.metrics.bump(Ctr::TxQuotaRejections);
                    return;
                }
                Err(_) => {
                    w.metrics.bump(Ctr::TxTemplateRejections);
                    return;
                }
            }
        }
        let cost = tx_device_cost(w, h, frame.len());
        host_step(w, eng, h, cost, Event::Transmit { host: h, frame });
    };
    if IPV4_HEADER_LEN + hlen + payload.len() <= mtu {
        let mut f = w.pool.alloc(lhl + IPV4_HEADER_LEN + hlen, payload);
        f.prepend(hlen);
        repr.emit_into(f.as_mut_slice(), local_ip, remote)
            .expect("segment sized for its headroom");
        let ident = w.hosts[h].ip_ep.alloc_ident();
        let ip_repr = Ipv4Repr {
            ident,
            ..Ipv4Repr::simple(local_ip, remote, IpProtocol::Tcp, hlen + payload.len())
        };
        ip_repr
            .emit(f.prepend(IPV4_HEADER_LEN))
            .expect("headroom covers the IP header");
        emit(w, eng, f);
    } else {
        let seg = repr.build_segment(local_ip, remote, payload);
        let pkts = w.hosts[h].ip_ep.send(IpProtocol::Tcp, remote, &seg, mtu);
        // Every fragment is staged before the first leaves, as their
        // frame ids record.
        let fragments: Vec<Frame> = pkts.iter().map(|p| w.pool.alloc(lhl, p)).collect();
        for ipf in fragments {
            emit(w, eng, ipf);
        }
    }
}

/// Charges one TCP segment's output processing and schedules its
/// [`Event::SendSegment`]. `cid` is `None` for connectionless RSTs from
/// the kernel.
fn send_tcp_segment(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: Option<u32>,
    repr: TcpRepr,
    payload: Vec<u8>,
    remote: Ipv4Addr,
) {
    let cost = tcp_seg_cost(w, repr.header_len() + payload.len());
    let send = Event::SendSegment {
        host: h,
        cid,
        repr,
        payload,
        remote,
        announce: 0,
    };
    host_step(w, eng, h, cost, send);
}

/// The one connection removal, whatever ends the connection's life in
/// the library (close, application exit, the kernel's crash sweep): its
/// timers are disarmed, its index entry and channel released, and its
/// counters retired into the metrics scopes. The caller decides what
/// becomes of the TCB it gets back.
fn remove_conn(w: &mut World, h: usize, cid: u32) -> Option<Conn> {
    let host = &mut w.hosts[h];
    let conn = host.conns.remove(&cid)?;
    for t in TCP_TIMERS {
        if let Some(id) = host.timers.remove(&TimerToken::Conn(cid, t)) {
            host.wheel.stop(id);
        }
    }
    let key = pair_key(&conn.tcb);
    host.conn_index.remove(&key);
    let chan_stats = conn
        .chan
        .as_ref()
        .and_then(|ci| Some((ci.id, release_channel(w, h, ci, key)?)));
    retire_conn_stats(w, h, &conn, chan_stats);
    Some(conn)
}

/// The one writer of a connection's [`ConnScope`]: built here, by value,
/// from the dying connection's TCP counters and (when it had a channel)
/// the kernel channel's demux/delivery counters, and handed to the
/// metrics registry's closed totals.
fn retire_conn_stats(
    w: &mut World,
    h: usize,
    conn: &Conn,
    chan_stats: Option<(ChannelId, ChannelStats)>,
) {
    let tcb = &conn.tcb;
    let (remote_ip, remote_port) = tcb.remote();
    let key = ConnKey {
        host: h as u16,
        local_port: tcb.local().1,
        remote_ip: remote_ip.0,
        remote_port,
    };
    let ts = tcb.stats();
    let cs = chan_stats.map(|(_, cs)| cs).unwrap_or_default();
    let scope = ConnScope {
        segs_out: ts.segs_out,
        segs_in: ts.segs_in,
        bytes_rexmit: ts.bytes_rexmit,
        rto_fires: ts.rto_fires,
        fast_rexmit: ts.fast_rexmit,
        dup_acks_in: ts.dup_acks_in,
        probes: ts.probes,
        srtt: tcb.srtt(),
        rx_delivered: cs.delivered,
        rx_batched: cs.batched,
        flow_hits: cs.flow_hits,
        listen_hits: cs.listen_hits,
        scan_fallbacks: cs.scan_fallbacks,
        bytes_to_app: conn.bytes_to_app,
    };
    let channel = chan_stats.map(|(id, _)| id.0);
    w.metrics.retire_conn(key, channel, scope);
    if let Some(srtt) = scope.srtt {
        w.metrics.sample(Hist::ConnSrtt, srtt);
    }
    w.metrics.gauge_dec(Gauge::ActiveConnections);
}

// ---------------------------------------------------------------------
// Application plumbing
// ---------------------------------------------------------------------

/// An upcall into a connection's application ([`Event::App`]).
#[derive(Debug)]
pub enum AppEvent {
    /// The connection is established.
    Connected,
    /// In-order data, drained from the TCB's receive buffer.
    Data(Vec<u8>),
    /// Send-buffer space was freed.
    SendSpace,
    /// The peer closed its direction.
    PeerClosed,
}

/// Charges the application boundary and schedules `upcall` into
/// connection `cid`'s application.
fn app_upcall(w: &mut World, eng: &mut Eng, h: usize, cost: Nanos, cid: u32, upcall: AppEvent) {
    let host = h;
    host_step(w, eng, h, cost, Event::App { host, cid, upcall });
}

fn app_event(w: &mut World, eng: &mut Eng, h: usize, cid: u32, ev: AppEvent) {
    let ops = {
        let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
            return;
        };
        let view = crate::app::AppView {
            now: eng.now(),
            send_space: conn.tcb.send_space(),
            pending_tx: conn.pending_tx.len(),
            local: Some(conn.tcb.local()),
            remote: Some(conn.tcb.remote()),
        };
        match ev {
            AppEvent::Connected => conn.app.on_connected(&view),
            AppEvent::Data(d) => conn.app.on_data(&d, &view),
            AppEvent::SendSpace => conn.app.on_send_space(&view),
            AppEvent::PeerClosed => conn.app.on_peer_closed(&view),
        }
    };
    apply_app_ops(w, eng, h, cid, ops);
}

fn apply_app_ops(w: &mut World, eng: &mut Eng, h: usize, cid: u32, ops: Vec<crate::app::AppOp>) {
    for op in ops {
        if !w.hosts[h].conns.contains_key(&cid) {
            return;
        }
        match op {
            crate::app::AppOp::Send(data) => {
                // Charge the write boundary + any copy the org performs.
                let cost = app_boundary_cost(w, h) + tx_copy_cost(w, h, data.len());
                w.hosts[h].cpu.charge(eng.now(), cost);
                let mut actions = w.tcp_spare.take();
                let conn = w.hosts[h].conns.get_mut(&cid).expect("checked");
                // `pending_tx` holds only what the TCB refused: a write
                // that finds it empty goes to the TCB straight from the
                // app's buffer, and only the tail that did not fit queues.
                let offered = if conn.pending_tx.is_empty() {
                    offer_tx(&mut conn.tcb, &data, eng.now(), &mut actions)
                } else {
                    None
                };
                conn.pending_tx.extend(&data[offered.unwrap_or(0)..]);
                match offered {
                    Some(_) => apply_tcp_actions(w, eng, h, cid, None, actions),
                    None => w.tcp_spare.give(actions),
                }
                flush_conn_tx(w, eng, h, cid);
            }
            crate::app::AppOp::Close => {
                if let Some(conn) = w.hosts[h].conns.get_mut(&cid) {
                    conn.close_pending = true;
                }
                flush_conn_tx(w, eng, h, cid);
            }
            crate::app::AppOp::Abort => {
                with_conn(w, eng, h, cid, None, |conn, out| conn.tcb.abort_into(out));
            }
        }
    }
}

/// Offers `bytes` to the TCB in a single `send` of as many as fit. One
/// call, because segment boundaries (Nagle, sender silly-window
/// avoidance) depend on how many bytes one `send` sees. `None` when
/// nothing fits or the connection no longer takes data; otherwise the
/// count taken, with what the write triggered appended to `out`.
fn offer_tx(tcb: &mut Tcb, bytes: &[u8], now: Nanos, out: &mut Vec<TcpAction>) -> Option<usize> {
    let n = bytes.len().min(tcb.send_space());
    if n == 0 {
        return None;
    }
    tcb.send_into(&bytes[..n], now, out).ok()
}

/// Moves pending app bytes into the TCB and issues a deferred close.
fn flush_conn_tx(w: &mut World, eng: &mut Eng, h: usize, cid: u32) {
    let now = eng.now();
    loop {
        let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
            return;
        };
        let mut actions = w.tcp_spare.take();
        let queued = conn.pending_tx.make_contiguous();
        let Some(n) = offer_tx(&mut conn.tcb, queued, now, &mut actions) else {
            w.tcp_spare.give(actions);
            break;
        };
        conn.pending_tx.drain(..n);
        apply_tcp_actions(w, eng, h, cid, None, actions);
    }
    // Deferred close once everything is queued.
    let close_now = {
        let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
            return;
        };
        conn.close_pending && conn.pending_tx.is_empty() && conn.tcb.state().is_synchronized()
    };
    if close_now {
        with_conn(w, eng, h, cid, None, |conn, out| {
            conn.close_pending = false;
            // A refused close (already closing) adds nothing.
            let _ = conn.tcb.close_into(now, out);
        });
    }
}

/// Re-delivers a send-space upcall to a connection's application — used by
/// the socket facade to kick a connection whose application has queued new
/// data outside an upcall (e.g. `Socket::send` between engine steps).
pub fn poke_conn(w: &mut World, eng: &mut Eng, host: usize, cid: u32) {
    if !w.hosts[host].conns.contains_key(&cid) {
        return;
    }
    let cost = app_boundary_cost(w, host);
    app_upcall(w, eng, host, cost, cid, AppEvent::SendSpace);
}

/// Looks up a live connection id by its (local port, remote) key — the
/// socket facade's bridge from handles to connections.
pub fn find_conn(w: &World, host: usize, local_port: u16, remote: (Ipv4Addr, u16)) -> Option<u32> {
    w.hosts[host]
        .conn_index
        .get(&(local_port, remote.0, remote.1))
        .copied()
}

/// A terminated application: ignores every event.
struct ExitedApp;

impl crate::app::AppLogic for ExitedApp {}

/// The application owning connection `cid` on `host` exits while the
/// connection is open. Under the user-library organization "the registry
/// server inherits the connections and ensures that the protocol
/// specified delay period is maintained"; on an abnormal exit "the
/// protocol server issues a reset message to the remote peer" (§3.4).
/// Monolithic organizations close or abort in the kernel.
pub fn app_exit(w: &mut World, eng: &mut Eng, host: usize, cid: u32, abnormal: bool) {
    let now = eng.now();
    if !w.hosts[host].org.is_user_library() {
        with_conn(w, eng, host, cid, None, |conn, out| {
            conn.app = Box::new(ExitedApp);
            if abnormal {
                conn.tcb.abort_into(out);
            } else {
                // A refused close (already closing) adds nothing.
                let _ = conn.tcb.close_into(now, out);
            }
        });
        return;
    }
    // The registry tracks the connection under the tenant that opened it
    // (the channel's owner); default single-app conns resolve to the
    // host owner as before. Captured before the channel is destroyed.
    let chan = w.hosts[host].conns.get(&cid).and_then(|c| c.chan.as_ref());
    let owner = chan
        .and_then(|ci| w.hosts[host].netio.channel_owner(ci.id))
        .unwrap_or_else(|| w.hosts[host].owner());
    // Tear the connection out of the library: cancel its timers, revoke
    // its channel (the shared region is reclaimed), and hand the TCP
    // state back to the registry.
    let Some(conn) = remove_conn(w, host, cid) else {
        return;
    };
    resched_wheel(w, eng, host);
    // The registry's inheritance work (reset or orderly close) costs one
    // app↔server interaction plus its usual per-packet device path.
    let cost = w.costs.registry_rpc;
    let tcb = conn.tcb;
    host_exec(w, eng, host, cost, move |w, eng| {
        let now = eng.now();
        w.metrics.bump(Ctr::ConnectionsInherited);
        with_registry(w, eng, host, |registry, out| {
            registry.app_exit_into(owner, vec![*tcb], abnormal, now, out)
        });
    });
}

/// The application process on `host` dies abruptly at the current
/// simulation time (the fault plan's [`crate::faults::Crash`] event;
/// also callable directly from tests): [`crash_tenant`] for the host's
/// single-app owner. Under the monolithic organizations protocol state
/// lives in the kernel, which aborts every connection the process had
/// open; nothing else can leak.
pub fn crash_host(w: &mut World, eng: &mut Eng, host: usize) {
    let owner = w.hosts[host].owner();
    if w.hosts[host].org.is_user_library() {
        return crash_tenant(w, eng, host, owner);
    }
    let _attr = unp_trace::host_scope(host as u16);
    crash_begins(w, host, owner);
    let mut cids: Vec<u32> = w.hosts[host].conns.keys().copied().collect();
    cids.sort_unstable();
    for cid in cids {
        reclaimed(w, host, owner, unp_trace::ReclaimKind::Connection, cid);
        app_exit(w, eng, host, cid, true);
    }
}

/// Counts and journals one resource reclaimed from dead `owner`.
fn reclaimed(w: &mut World, host: usize, owner: OwnerTag, kind: unp_trace::ReclaimKind, id: u32) {
    w.metrics.bump(Ctr::ResourceReclaims);
    unp_trace::emit_at(host as u16, None, || unp_trace::Event::ResourceReclaim {
        kind,
        owner: owner.0 as u32,
        id,
    });
}

/// What every crash starts with, in every organization: the crash is
/// journaled and the dead tenant's listener factories die with it.
fn crash_begins(w: &mut World, host: usize, tenant: OwnerTag) {
    let h16 = host as u16;
    w.metrics.bump(Ctr::AppCrashes);
    unp_trace::emit_at(h16, None, || unp_trace::Event::FaultInject {
        kind: unp_trace::FaultKind::Crash,
        from: h16,
        to: h16,
    });
    let listeners = w.hosts[host].listeners.iter();
    let mut ports: Vec<u16> = listeners
        .filter(|(_, l)| l.tenant == tenant)
        .map(|(&p, _)| p)
        .collect();
    ports.sort_unstable();
    for port in ports {
        w.hosts[host].listeners.remove(&port);
        reclaimed(
            w,
            host,
            tenant,
            unp_trace::ReclaimKind::Listener,
            port as u32,
        );
    }
}

/// One tenant's process on `host` dies abruptly; the host's other tenants
/// keep running. Everything the process owned is reclaimed, in three
/// stages (DESIGN.md §10):
///
/// 1. **Library state** — in-flight handshakes are dropped first (their
///    upcall targets, parked frames and channels: none can reach an
///    application now), so the registry's later `Failed` actions and a
///    `Complete` already in flight find no record; then each established
///    connection takes the normal abnormal-exit inheritance path.
/// 2. **Registry (the trusted agent)** — inherited connections are reset
///    (RST to each peer, §3.4), pending handshakes are aborted, and the
///    process's listening-port reservations released.
/// 3. **Kernel backstop** — [`NetIoModule::reclaim_owner`] and the BQI
///    table sweep anything still tagged with the dead owner (normally
///    nothing; every sweep hit is journaled, so a nonzero backstop count
///    in a trace points at a reclamation-ordering bug).
///
/// If the fault plan marks the tenant
/// [`wedged`](crate::faults::FaultPlan::tenant_wedged), stage 1 never
/// runs and only the registry death notice plus the backstop clean up
/// after it. The zero-leak oracle ([`World::leaks`]) holds on both routes.
pub fn crash_tenant(w: &mut World, eng: &mut Eng, host: usize, tenant: OwnerTag) {
    use unp_trace::ReclaimKind;
    let _attr = unp_trace::host_scope(host as u16);
    crash_begins(w, host, tenant);
    if !w.faults.tenant_wedged(host, tenant.0) {
        let in_flight = w.hosts[host].handshakes.iter();
        let mut hss: Vec<u64> = in_flight
            .filter(|(_, r)| r.owner == tenant)
            .map(|(&hs, _)| hs)
            .collect();
        hss.sort_unstable();
        for hs in hss {
            let rec = drop_handshake(w, host, hs).expect("collected above");
            if let Some(setup) = rec.setup {
                reclaimed(w, host, tenant, ReclaimKind::Channel, setup.chan.id.0);
            }
        }
        let mut cids: Vec<u32> = w.hosts[host]
            .conns
            .iter()
            .filter(|(_, c)| {
                c.chan
                    .as_ref()
                    .and_then(|ci| w.hosts[host].netio.channel_owner(ci.id))
                    == Some(tenant)
            })
            .map(|(&cid, _)| cid)
            .collect();
        cids.sort_unstable();
        for cid in cids {
            reclaimed(w, host, tenant, ReclaimKind::Connection, cid);
            app_exit(w, eng, host, cid, true);
        }
    }
    // Stage 2: the registry's death notice — abort the tenant's pending
    // handshakes, release its port reservations.
    let mut actions = w.reg_spare.take();
    let report = w.hosts[host].registry.owner_died_into(tenant, &mut actions);
    for &port in &report.listeners {
        reclaimed(w, host, tenant, ReclaimKind::Port, port as u32);
    }
    for &(hs, _port) in &report.handshakes {
        reclaimed(w, host, tenant, ReclaimKind::Handshake, hs as u32);
    }
    apply_registry_actions(w, eng, host, actions);
    // Stage 3: kernel backstop sweep. For a wedged tenant this is the
    // only thing standing between its channels and a leak; the world-side
    // records of any swept connection are dropped here too (their upcall
    // target is gone, their timers must not fire into revoked caps), and
    // their TCBs are handed to the registry, which resets each peer on
    // the dead tenant's behalf — inheritance from the kernel sweep, not
    // from the (wedged) library.
    let swept = change_channels(w, host, |netio| netio.reclaim_owner(tenant));
    let mut orphan_tcbs: Vec<Tcb> = Vec::new();
    for (id, _ring) in swept {
        match w.hosts[host].chan_owner.get(&id) {
            Some(&ChanOwner::Conn(cid)) => {
                let conn = remove_conn(w, host, cid).expect("indexed by its channel");
                w.metrics.bump(Ctr::ConnectionsClosed);
                w.metrics.bump(Ctr::ConnectionsInherited);
                orphan_tcbs.push(*conn.tcb);
            }
            Some(&ChanOwner::Handshake(hs)) => {
                drop_handshake(w, host, hs);
            }
            None => {}
        }
        // The kernel already destroyed the channel, so `release_channel`
        // found nothing to account for: the gauge follows here.
        w.metrics.gauge_dec(Gauge::OpenChannels);
        reclaimed(w, host, tenant, ReclaimKind::Channel, id.0);
    }
    if !orphan_tcbs.is_empty() {
        let now = eng.now();
        with_registry(w, eng, host, |registry, out| {
            registry.app_exit_into(tenant, orphan_tcbs, true, now, out)
        });
    }
    let freed = match &mut w.hosts[host].nic {
        Nic::An1(nic) => nic.bqi_table.reclaim_owner(tenant),
        Nic::Lance(_) => Vec::new(),
    };
    for slot in freed {
        reclaimed(w, host, tenant, ReclaimKind::Bqi, slot as u32);
    }
    resched_wheel(w, eng, host);
}

// ---------------------------------------------------------------------
// Timer wheel ↔ engine coupling
// ---------------------------------------------------------------------

/// Arms (or re-arms) the timer `token` names: the one way a deadline
/// reaches the host's wheel.
fn arm_timer(w: &mut World, eng: &mut Eng, h: usize, token: TimerToken, deadline: Nanos) {
    let host = &mut w.hosts[h];
    if let Some(old) = host.timers.remove(&token) {
        host.wheel.stop(old);
    }
    let id = host.wheel.start(deadline, token);
    host.timers.insert(token, id);
    resched_wheel(w, eng, h);
}

fn cancel_timer(w: &mut World, eng: &mut Eng, h: usize, token: TimerToken) {
    let host = &mut w.hosts[h];
    if let Some(old) = host.timers.remove(&token) {
        host.wheel.stop(old);
        resched_wheel(w, eng, h);
    }
}

fn resched_wheel(w: &mut World, eng: &mut Eng, h: usize) {
    let next = w.hosts[h].wheel.next_deadline();
    match (next, w.hosts[h].wheel_event) {
        (Some(d), Some((cur, _))) if d == cur => {}
        (Some(d), prev) => {
            if let Some((_, ev)) = prev {
                eng.cancel(ev);
            }
            let ev = eng.schedule(d, Event::WheelFire { host: h });
            w.hosts[h].wheel_event = Some((d, ev));
        }
        (None, Some((_, ev))) => {
            eng.cancel(ev);
            w.hosts[h].wheel_event = None;
        }
        (None, None) => {}
    }
}

fn wheel_fire(w: &mut World, eng: &mut Eng, h: usize) {
    fire_due(w, eng, h, |w, eng, token| {
        let now = eng.now();
        match token {
            TimerToken::Conn(cid, t) => {
                with_conn(w, eng, h, cid, None, |conn, out| {
                    conn.tcb.on_timer_into(t, now, out)
                });
            }
            TimerToken::Registry(hs, t) => with_registry(w, eng, h, |registry, out| {
                registry.on_timer_into(HsId(hs), t, now, out)
            }),
        }
    });
}

/// Takes every due token off host `h`'s wheel and hands each to
/// `dispatch` in the wheel's `(deadline, start)` order. The whole batch
/// leaves the timer table *before* any of it is dispatched, so an entry a
/// token finds under its own name at its turn can only be a re-arm made
/// by an earlier token of this batch: the table keeps that handle (the
/// timer stays cancellable, and `timers.len() == wheel.pending()` holds
/// throughout), and the fire it supersedes is dropped — the new instance
/// fires at its own deadline. A token an earlier one merely *cancelled*
/// still fires, as it always has: every timer handler re-checks the state
/// it acts on.
fn fire_due(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    mut dispatch: impl FnMut(&mut World, &mut Eng, TimerToken),
) {
    let host = &mut w.hosts[h];
    host.wheel_event = None;
    let mut fired = std::mem::take(&mut host.fired);
    host.wheel.advance(eng.now(), &mut fired);
    for token in &fired {
        host.timers.remove(token);
    }
    for token in fired.drain(..) {
        if !w.hosts[h].timers.contains_key(&token) {
            dispatch(w, eng, token);
        }
    }
    w.hosts[h].fired = fired;
    resched_wheel(w, eng, h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppOp, BulkSender, EchoApp, PingPongApp, SinkApp, TransferStats};

    const ALL_ORGS: [OrgKind; 5] = [
        OrgKind::InKernel,
        OrgKind::SingleServer,
        OrgKind::SingleServerMsg,
        OrgKind::DedicatedServer,
        OrgKind::UserLibrary,
    ];

    fn run_transfer(
        network: Network,
        org: OrgKind,
        total: u64,
        chunk: usize,
    ) -> (World, std::rc::Rc<std::cell::RefCell<TransferStats>>) {
        let (mut w, mut eng) = build_two_hosts(network, org);
        let stats = TransferStats::new_shared();
        let st = std::rc::Rc::clone(&stats);
        listen(
            &mut w,
            1,
            80,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(std::rc::Rc::clone(&st)))),
        );
        connect(
            &mut w,
            &mut eng,
            0,
            (Ipv4Addr::new(10, 0, 0, 2), 80),
            TcpConfig::default(),
            Box::new(BulkSender::new(total, chunk)),
            chunk,
        );
        assert!(eng.run(&mut w, 5_000_000), "simulation did not drain");
        (w, stats)
    }

    #[test]
    fn an_event_fits_its_slab_slot() {
        // The engine's slab keeps 8 + size_of::<Event>() bytes per slot and
        // never shrinks, so a variant that outgrows this budget is paid
        // for by every workload's peak heap: box the rare thing instead.
        assert!(std::mem::size_of::<Event>() <= 96);
    }

    #[test]
    fn a_connection_table_slot_is_a_pointer() {
        // `Host.conns` keeps its capacity after the connections are gone
        // (a `churn` client's table reaches 512 buckets), so the entry
        // holds the TCB's box, not its 600-odd bytes.
        assert!(std::mem::size_of::<Conn>() <= 128);
    }

    #[test]
    fn a_timer_rearmed_by_its_own_batch_keeps_its_handle() {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
        let first = TimerToken::Conn(7, TcpTimer::Retransmit);
        let second = TimerToken::Conn(7, TcpTimer::DelayedAck);
        let third = TimerToken::Conn(7, TcpTimer::Persist);
        for token in [first, second, third] {
            arm_timer(&mut w, &mut eng, 0, token, 1_000_000);
        }
        // This test fires the batch itself, with a handler that does what
        // no TCB timer does today: the first token re-arms the second
        // and cancels the third.
        let (_, wheel_event) = w.hosts[0].wheel_event.take().expect("armed");
        eng.cancel(wheel_event);
        let dispatched = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen = std::rc::Rc::clone(&dispatched);
        eng.at(1_000_000, move |w, eng| {
            fire_due(w, eng, 0, |w, eng, token| {
                seen.borrow_mut().push(token);
                if token == first {
                    arm_timer(w, eng, 0, second, 5_000_000);
                    cancel_timer(w, eng, 0, third);
                }
                let host = &w.hosts[0];
                assert_eq!(host.timers.len(), host.wheel.pending(), "at {token:?}");
            });
        });
        eng.run_until(&mut w, 2_000_000);
        // The re-armed token's superseded fire is dropped; the cancelled
        // one still fires (handlers re-check their state).
        assert_eq!(*dispatched.borrow(), [first, third]);
        let host = &w.hosts[0];
        assert_eq!((host.timers.len(), host.wheel.pending()), (1, 1));
        // The re-armed timer is still cancellable, and fires on time if
        // it is not.
        assert!(host.timers.contains_key(&second));
        assert_eq!(host.wheel_event.map(|(at, _)| at), Some(5_000_000));
        cancel_timer(&mut w, &mut eng, 0, second);
        assert_eq!(w.hosts[0].wheel.pending(), 0);
        assert_eq!(w.leaks(), Vec::<String>::new());
    }

    #[test]
    fn the_pending_queue_prints_its_steps_by_name() {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
        let remote = (Ipv4Addr::new(10, 0, 0, 2), 80);
        let app = Box::new(BulkSender::new(50_000, 4096));
        connect(&mut w, &mut eng, 0, remote, TcpConfig::default(), app, 4096);
        let queue = format!("{eng:?}");
        assert!(queue.ends_with(", 0, Call(<closure>))] }"), "{queue}");
        // Nobody listens: by now the SYN is on the wire and its timer armed.
        eng.run(&mut w, 3);
        let queue = format!("{eng:?}");
        assert!(queue.contains("FrameArrives { host: 1"), "{queue}");
        assert!(queue.contains("WheelFire { host: 0 }"), "{queue}");
    }

    #[test]
    fn transfer_completes_under_every_org_on_ethernet() {
        for org in ALL_ORGS {
            let (w, stats) = run_transfer(Network::Ethernet, org, 100_000, 4096);
            let s = stats.borrow();
            assert_eq!(s.bytes_received, 100_000, "{org:?} lost data");
            assert!(s.peer_closed, "{org:?} missed FIN");
            assert!(!s.reset, "{org:?} reset");
            assert_eq!(w.metrics.get(Ctr::TxTemplateRejections), 0);
        }
    }

    #[test]
    fn transfer_completes_under_every_org_on_an1() {
        for org in ALL_ORGS {
            let (w, stats) = run_transfer(Network::An1, org, 100_000, 4096);
            let s = stats.borrow();
            assert_eq!(s.bytes_received, 100_000, "{org:?} lost data on AN1");
            assert!(!s.reset, "{org:?} reset");
            let _ = w;
        }
    }

    #[test]
    fn user_library_actually_uses_its_mechanisms() {
        let (w, _stats) = run_transfer(Network::Ethernet, OrgKind::UserLibrary, 200_000, 4096);
        // Frames flowed through channels, and batching happened.
        assert!(w.metrics.get(Ctr::ChDeliveries) > 50);
        assert!(
            w.hosts[1].netio.default_deliveries > 0,
            "handshake via registry"
        );
        assert_eq!(w.metrics.get(Ctr::TxTemplateRejections), 0);
    }

    #[test]
    fn an1_hardware_demux_is_used_for_data() {
        let (w, _stats) = run_transfer(Network::An1, OrgKind::UserLibrary, 200_000, 4096);
        assert!(
            w.metrics.get(Ctr::ChDeliveries) > 50,
            "hardware path unused"
        );
        // On AN1 the data path must not fall back to software filters:
        // deliveries arrive via BQI rings.
        if let Nic::An1(nic) = &w.hosts[1].nic {
            assert!(nic.rx_frames > 50);
        } else {
            panic!("expected AN1 nic");
        }
    }

    #[test]
    fn ping_pong_works_under_every_org() {
        for org in ALL_ORGS {
            let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
            let stats = TransferStats::new_shared();
            listen(
                &mut w,
                1,
                80,
                TcpConfig::low_latency(),
                Box::new(|| Box::new(EchoApp)),
            );
            connect(
                &mut w,
                &mut eng,
                0,
                (Ipv4Addr::new(10, 0, 0, 2), 80),
                TcpConfig::low_latency(),
                Box::new(PingPongApp::new(512, 5, std::rc::Rc::clone(&stats))),
                512,
            );
            assert!(eng.run(&mut w, 2_000_000), "{org:?} did not drain");
            let s = stats.borrow();
            assert_eq!(s.rtts.len(), 5, "{org:?} rounds incomplete");
            assert!(s.rtts.iter().all(|&r| r > 0));
        }
    }

    #[test]
    fn faster_orgs_have_lower_latency() {
        let mean_rtt = |org| {
            let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
            let stats = TransferStats::new_shared();
            listen(
                &mut w,
                1,
                80,
                TcpConfig::low_latency(),
                Box::new(|| Box::new(EchoApp)),
            );
            connect(
                &mut w,
                &mut eng,
                0,
                (Ipv4Addr::new(10, 0, 0, 2), 80),
                TcpConfig::low_latency(),
                Box::new(PingPongApp::new(1, 10, std::rc::Rc::clone(&stats))),
                1,
            );
            eng.run(&mut w, 2_000_000);
            let m = stats.borrow().mean_rtt().expect("rtts measured");
            m
        };
        let ultrix = mean_rtt(OrgKind::InKernel);
        let ours = mean_rtt(OrgKind::UserLibrary);
        let mach = mean_rtt(OrgKind::SingleServer);
        let dedicated = mean_rtt(OrgKind::DedicatedServer);
        assert!(
            ultrix < ours,
            "paper: Ultrix beats the library ({ultrix} vs {ours})"
        );
        assert!(
            ours < mach,
            "paper: the library beats Mach/UX ({ours} vs {mach})"
        );
        assert!(mach < dedicated, "dedicated servers are worst");
    }

    const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 80);

    /// An application that answers each event from a closure.
    struct Scripted<F>(F);

    #[derive(PartialEq)]
    enum Ev {
        Connected,
        Data,
        PeerClosed,
    }

    impl<F: FnMut(Ev) -> Vec<AppOp>> crate::app::AppLogic for Scripted<F> {
        fn on_connected(&mut self, _: &crate::app::AppView) -> Vec<AppOp> {
            (self.0)(Ev::Connected)
        }
        fn on_data(&mut self, _: &[u8], _: &crate::app::AppView) -> Vec<AppOp> {
            (self.0)(Ev::Data)
        }
        fn on_peer_closed(&mut self, _: &crate::app::AppView) -> Vec<AppOp> {
            (self.0)(Ev::PeerClosed)
        }
    }

    /// A sink on the server that closes when its peer does.
    fn listen_sink(w: &mut World, tenant: Option<OwnerTag>) {
        let tenant = tenant.unwrap_or(w.hosts[1].owner());
        let sink = || {
            let st = TransferStats::new_shared();
            Box::new(SinkApp::new(st)) as Box<dyn crate::app::AppLogic>
        };
        listen_as(w, 1, tenant, 80, TcpConfig::default(), Box::new(sink));
    }

    fn connect_app(w: &mut World, eng: &mut Eng, app: Box<dyn crate::app::AppLogic>) {
        connect(w, eng, 0, SERVER, TcpConfig::default(), app, 4096);
    }

    /// A 200 kB transfer into [`listen_sink`], stepped until both ends
    /// hold the connection: `(client conn id, server conn id)`.
    fn mid_transfer(w: &mut World, eng: &mut Eng, tenant: Option<OwnerTag>) -> (u32, u32) {
        listen_sink(w, None);
        let app = Box::new(BulkSender::new(200_000, 4096));
        connect_as(w, eng, 0, tenant, SERVER, TcpConfig::default(), app, 4096);
        while w.hosts[0].conns.is_empty() || w.hosts[1].conns.is_empty() {
            assert!(eng.step(w), "never established");
        }
        let only = |h: &Host| *h.conns.keys().next().expect("one connection");
        (only(&w.hosts[0]), only(&w.hosts[1]))
    }

    const HOSTILE: OwnerTag = OwnerTag(66);

    /// Steps until the server's handshake enters completion, then tears
    /// the listener down in the window before `finalize_user_conn` runs.
    fn listener_vanishes(w: &mut World, eng: &mut Eng) {
        listen_sink(w, None);
        connect_app(w, eng, Box::new(BulkSender::new(10_000, 4096)));
        while !w.hosts[1].handshakes.values().any(|r| r.completing) {
            assert!(eng.step(w), "handshake never reached completion");
        }
        w.hosts[1].listeners.clear();
    }

    /// Every way a connection or a handshake can end, by name. Each
    /// route leaves the engine to be drained by the matrix below.
    type Route = fn(&mut World, &mut Eng);
    const TEARDOWN_ROUTES: [(&str, Route); 11] = [
        ("close, client first", |w, eng| {
            listen_sink(w, None);
            connect_app(w, eng, Box::new(BulkSender::new(10_000, 4096)));
        }),
        ("close, server first", |w, eng| {
            let server = || {
                let script = |ev| match ev {
                    Ev::Connected => vec![AppOp::Send(vec![7; 1000]), AppOp::Close],
                    _ => Vec::new(),
                };
                Box::new(Scripted(script)) as Box<dyn crate::app::AppLogic>
            };
            listen(w, 1, 80, TcpConfig::default(), Box::new(server));
            let client = |ev| match ev {
                Ev::PeerClosed => vec![AppOp::Close],
                _ => Vec::new(),
            };
            connect_app(w, eng, Box::new(Scripted(client)));
        }),
        ("abort", |w, eng| {
            listen_sink(w, None);
            let client = |ev| match ev {
                Ev::Connected => vec![AppOp::Send(vec![7; 100]), AppOp::Abort],
                _ => Vec::new(),
            };
            connect_app(w, eng, Box::new(Scripted(client)));
        }),
        ("app_exit, normal", |w, eng| {
            let (client, _) = mid_transfer(w, eng, None);
            app_exit(w, eng, 0, client, false);
        }),
        ("app_exit, abnormal", |w, eng| {
            let (_, server) = mid_transfer(w, eng, None);
            app_exit(w, eng, 1, server, true);
        }),
        ("handshake refused", |w, eng| {
            connect_app(w, eng, Box::new(BulkSender::new(10_000, 4096)));
        }),
        ("listener vanished mid-Complete", listener_vanishes),
        ("crash_host, server", |w, eng| {
            mid_transfer(w, eng, None);
            crash_host(w, eng, 1);
        }),
        ("crash_host mid-handshake, client", |w, eng| {
            listen_sink(w, None);
            connect_app(w, eng, Box::new(BulkSender::new(10_000, 4096)));
            while w.hosts[0].handshakes.is_empty() {
                assert!(eng.step(w), "connect never reached the registry");
            }
            crash_host(w, eng, 0);
        }),
        ("crash_tenant", |w, eng| {
            mid_transfer(w, eng, Some(HOSTILE));
            crash_tenant(w, eng, 0, HOSTILE);
        }),
        ("crash_tenant, wedged", |w, eng| {
            let mut plan = crate::faults::FaultPlan::clean(1);
            plan.byzantine.push(crate::faults::ByzantineSchedule {
                host: 0,
                tenant: HOSTILE.0,
                kind: crate::faults::ByzantineKind::WedgedRegistry,
                start: 0,
                end: Nanos::MAX,
            });
            install_faults(w, eng, plan);
            mid_transfer(w, eng, Some(HOSTILE));
            crash_tenant(w, eng, 0, HOSTILE);
        }),
    ];

    #[test]
    fn every_teardown_route_leaves_nothing_behind() {
        for network in [Network::Ethernet, Network::An1] {
            for (route, run) in TEARDOWN_ROUTES {
                let (mut w, mut eng) = build_two_hosts(network, OrgKind::UserLibrary);
                run(&mut w, &mut eng);
                assert!(eng.run(&mut w, 5_000_000), "{route} on {network:?} hangs");
                let none: Vec<String> = Vec::new();
                assert_eq!(w.leaks(), none, "{route} on {network:?}");
            }
        }
    }

    /// A segment from host 0 to host 1 as it would leave the wire, with
    /// `pad` bytes of link padding after the IP datagram.
    fn padded_frame(w: &mut World, repr: &TcpRepr, payload: &[u8], pad: usize) -> Frame {
        let (src, dst) = (w.hosts[0].ip, w.hosts[1].ip);
        let seg = repr.build_segment(src, dst, payload);
        let mtu = w.link.params().mtu;
        let pkt = w.hosts[0].ip_ep.send(IpProtocol::Tcp, dst, &seg, mtu);
        let mac = w.hosts[1].mac;
        let mut bytes = build_link_frame(w, 0, mac, EtherType::Ipv4, &pkt[0], 0, 0).to_vec();
        bytes.resize(bytes.len() + pad, 0xEE);
        Frame::from_vec(bytes)
    }

    /// A tap on everything sent to `ip`:`port`.
    fn tap_to(w: &mut World, ip: Ipv4Addr, port: u16) -> usize {
        let spec = unp_filter::programs::DemuxSpec {
            link_header_len: w.hosts[0].link_header_len(),
            protocol: IpProtocol::Tcp,
            local_ip: ip,
            local_port: port,
            remote_ip: None,
            remote_port: None,
        };
        w.add_capture_tap("padding", unp_filter::programs::bpf_demux(&spec))
    }

    fn last_tapped(w: &World, tap: usize) -> TcpRepr {
        let (_, frame) = w.tap_frames(tap).last().expect("tap saw a segment");
        let tcp = &frame[w.hosts[0].link_header_len() + IPV4_HEADER_LEN..];
        TcpRepr::parse(&TcpPacket::new_checked(tcp).expect("tapped segment parses"))
    }

    /// Ten bytes continuing the stream the last segment tapped on its
    /// way to the server belongs to.
    fn next_in_stream(w: &World, tap: usize) -> TcpRepr {
        TcpRepr {
            flags: unp_wire::TcpFlags::ack(),
            mss: None,
            ..last_tapped(w, tap)
        }
    }

    #[test]
    fn link_padding_never_becomes_tcp_payload() {
        let idle = || Box::new(Scripted(|_| Vec::new())) as Box<dyn crate::app::AppLogic>;
        let orgs = [
            OrgKind::InKernel,
            OrgKind::SingleServer,
            OrgKind::UserLibrary,
        ];
        for network in [Network::Ethernet, Network::An1] {
            for org in orgs {
                for pad in [0, 6, 46] {
                    let case = format!("{org:?} on {network:?}, {pad} bytes of padding");
                    let (mut w, mut eng) = build_two_hosts(network, org);
                    // A SYN to a closed port: the RST acknowledges the SYN
                    // and nothing else.
                    let client_ip = w.hosts[0].ip;
                    let rsts = tap_to(&mut w, client_ip, 5555);
                    let syn = TcpRepr {
                        src_port: 5555,
                        dst_port: 9,
                        seq: unp_wire::SeqNum(1000),
                        ack_num: unp_wire::SeqNum(0),
                        flags: unp_wire::TcpFlags::SYN,
                        window: 1024,
                        mss: None,
                    };
                    let frame = padded_frame(&mut w, &syn, &[], pad);
                    frame_arrives(&mut w, &mut eng, 1, frame);
                    assert!(eng.run(&mut w, 1_000_000));
                    let rst = last_tapped(&w, rsts);
                    assert!(rst.flags.rst, "{case}");
                    assert_eq!(rst.ack_num, unp_wire::SeqNum(1001), "{case}");

                    // Ten bytes to an established connection, arriving on
                    // the kernel path (AN1: BQI 0) or through its channel.
                    let stats = TransferStats::new_shared();
                    let st = std::rc::Rc::clone(&stats);
                    let sink = move || {
                        let sink = SinkApp::new(std::rc::Rc::clone(&st)).without_verify();
                        Box::new(sink) as Box<dyn crate::app::AppLogic>
                    };
                    listen(&mut w, 1, 80, TcpConfig::default(), Box::new(sink));
                    let to_server = tap_to(&mut w, SERVER.0, SERVER.1);
                    let before = w.metrics.get(Ctr::FramesReceived);
                    connect_app(&mut w, &mut eng, idle());
                    let parks = org == OrgKind::UserLibrary && pad == 46;
                    if parks {
                        // The same, right behind the handshake's last ACK
                        // (SYN, SYN-ACK, ACK: the third frame received), so
                        // that the kernel holds it across the activation.
                        while w.metrics.get(Ctr::FramesReceived) < before + 3 {
                            assert!(eng.step(&mut w), "{case}: no handshake");
                        }
                    } else {
                        assert!(eng.run(&mut w, 1_000_000));
                    }
                    let data = next_in_stream(&w, to_server);
                    let frame = padded_frame(&mut w, &data, &[7; 10], pad);
                    frame_arrives(&mut w, &mut eng, 1, frame);
                    // The real client never sent these bytes, so the two
                    // ends now trade ACKs forever: run long enough, not dry.
                    eng.run(&mut w, 10_000);
                    assert_eq!(w.metrics.get(Ctr::FramesParked), u64::from(parks), "{case}");
                    assert_eq!(stats.borrow().bytes_received, 10, "{case}");
                }
            }
        }
    }

    #[test]
    fn listener_vanished_mid_handshake_resets_peer_and_reclaims() {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
        listener_vanishes(&mut w, &mut eng);
        assert!(eng.run(&mut w, 5_000_000), "did not drain");

        assert_eq!(w.metrics.get(Ctr::ListenerVanished), 1);
        assert!(w.metrics.get(Ctr::ResourceReclaims) >= 1);
        // The registry no longer tracks the connection, and the peer was
        // reset (its conn torn down) instead of hanging half-open.
        assert_eq!(w.hosts[1].registry.tracked(), 0);
        assert!(w.hosts[0].conns.is_empty(), "peer never saw the RST");
        assert_eq!(w.metrics.get(Ctr::ConnectionsEstablished), 1, "no app ran");
    }
}
