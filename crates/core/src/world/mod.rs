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
//!
//! The modules follow the paper's Fig. 1: what the organizations share
//! (this module's world and hosts, `event`, `link`, `ip`, `tcp`, `app`,
//! `timers`, `lifecycle`), what they are charged differently for (`costs`,
//! the only place all five [`OrgKind`]s are told apart), and the two
//! receive paths that differ in kind, `org::monolithic` and
//! `org::userlib`, which do not import each other and whose bookkeeping
//! on [`Host`] is private to each. DESIGN.md §7 has the map.

mod app;
mod conn;
mod costs;
mod event;
mod ip;
mod lifecycle;
mod link;
pub(crate) mod org;
pub(crate) mod tcp;
mod timers;

pub use app::{poke_conn, AppEvent};
pub use conn::Conn;
pub use costs::OrgKind;
pub use event::{host_exec, Closure, Event};
pub use ip::{bind_udp, send_ping, send_udp};
pub use lifecycle::{app_exit, connect, connect_as, crash_host, listen, listen_as};
pub use link::frame_arrives;
pub use org::userlib::handshake::crash_tenant;

pub use crate::faults::install_faults;

use std::collections::HashMap;

use unp_buffers::{Frame, FramePool, OwnerTag};
use unp_kernel::{Capability, ChannelId, NetIoModule, TenantStats};
use unp_netdev::{An1Nic, LanceNic, Link, StationId};
use unp_proto::{ArpCache, IpEndpoint, UdpLayer};
use unp_registry::{HsId, RegistryAction, RegistryServer};
use unp_sim::{CostModel, Cpu, Engine, EventId, LinkParams, Nanos};
use unp_tcp::{TcpConfig, TcpTimer};
use unp_timers::{TimerId, TimerService, TimerWheel};
use unp_trace::Metrics;
use unp_wire::{IpProtocol, Ipv4Addr, MacAddr, AN1_HEADER_LEN, ETHERNET_HEADER_LEN};

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
    Registry(HsId, TcpTimer),
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
    /// What only the user-library organization keeps (handshakes in
    /// flight, whose ring a channel is): private to [`org::userlib`].
    userlib: org::userlib::UserLib,
    /// What only the monolithic organizations keep (the kernel's port and
    /// ISS allocation): private to [`org::monolithic`].
    kernel: org::monolithic::Monolithic,
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

    pub(crate) fn link_header_len(&self) -> usize {
        match self.nic {
            Nic::Lance(_) => ETHERNET_HEADER_LEN,
            Nic::An1(_) => AN1_HEADER_LEN,
        }
    }
}

/// A mechanism of the user-level library's design switched off, to
/// measure what it buys (DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Notification batching: post a semaphore and take a thread switch
    /// for every delivered packet.
    Batching,
    /// The copy-eliminating buffer organization: charge user↔buffer
    /// copies like the monolithic stacks.
    ZeroCopy,
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
    /// Typed measurement registry: event counters, histograms, and the
    /// per-connection/per-link scopes filled at teardown.
    pub metrics: Metrics,
    /// The mechanism switched off for an ablation study, if any.
    pub ablation: Option<Ablation>,
    /// The frame pool backing the zero-copy data path: outgoing segments
    /// are built once in a pooled buffer (headers prepended into
    /// headroom) and the buffer is recycled when the last refcounted
    /// handle drops. Replace with [`FramePool::disabled`] to measure the
    /// allocation behavior of the pre-pool path.
    pub pool: FramePool,
    /// Promiscuous packet taps — the Packet Filter's original use case
    /// ("user-level network code" for monitoring): each tap's BPF program
    /// runs over every frame on the wire and keeps the frames it matches.
    taps: Vec<Tap>,
    /// The active fault-injection schedule. Empty by default
    /// ([`crate::faults::FaultPlan::none`]): it never faults and makes no
    /// RNG draw. Install a schedule with [`install_faults`].
    pub faults: crate::faults::FaultPlan,
    /// Emptied action buffers. The TCB and the registry append their
    /// actions to a buffer drawn from here; [`apply_tcp_actions`] /
    /// [`apply_registry_actions`] drain it and put it back. A list, not
    /// one buffer, because routing re-enters itself (`DataAvailable` →
    /// `recv`, `SendSpace` → [`flush_conn_tx`]).
    tcp_spare: Spare<tcp::TcpOut>,
    reg_spare: Spare<RegistryAction>,
    /// Emptied receive buffers: `DataAvailable` drains a TCB into one and
    /// `app_event` gives it back after the application's `on_data`. Only
    /// buffers no larger than one pool buffer come back: a lossy
    /// transfer's reassembly drains many segments into one read, and
    /// keeping those buffers would hold the burst's peak for good.
    byte_spare: Spare<u8>,
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

/// A promiscuous capture tap: a BPF program applied to all traffic, and
/// the frames it matched. Each entry is a refcount on the wire frame, not
/// a copy.
struct Tap {
    program: unp_filter::BpfProgram,
    frames: Vec<(Nanos, Frame)>,
}

impl World {
    /// Installs a capture tap: matched frames are stored in full and can
    /// be exported with [`crate::pcap::write_pcap`] for analysis in
    /// standard tools. `name` labels the tap at the call site only.
    /// Returns the tap's index for [`World::tap_frames`].
    pub fn add_capture_tap(
        &mut self,
        _name: &'static str,
        program: unp_filter::BpfProgram,
    ) -> usize {
        self.taps.push(Tap {
            program,
            frames: Vec::new(),
        });
        self.taps.len() - 1
    }

    /// The full frames captured by a capture tap.
    pub fn tap_frames(&self, idx: usize) -> &[(Nanos, Frame)] {
        &self.taps[idx].frames
    }

    /// Every tenant account of every host's network I/O module, as
    /// `(host, tenant, stats)` in host, then tenant, order — read from the
    /// kernel, which keeps them.
    pub fn tenants(&self) -> impl Iterator<Item = (usize, u64, TenantStats)> + '_ {
        self.hosts.iter().enumerate().flat_map(|(host, h)| {
            let ids = h.netio.tenant_ids().into_iter();
            ids.filter_map(move |t| Some((host, t.0, h.netio.tenant_stats(t)?)))
        })
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
            // Handshake records go with their parked frames and recorded
            // announcements.
            let [handshakes, chan_owners, connects] = h.userlib.held();
            let held = [
                (h.conns.len(), "connections"),
                (h.conn_index.len(), "connection index entries"),
                (handshakes, "handshake records"),
                (chan_owners, "channel owner entries"),
                (connects, "connect calls waiting for their RPC"),
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
        found
    }

    fn run_taps(&mut self, now: Nanos, frame: &Frame) {
        use unp_filter::Demux;
        for tap in &mut self.taps {
            if tap.program.matches(frame) {
                tap.frames.push((now, frame.clone()));
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
    assert!(n <= 254, "host i is 10.0.0.(i+1): a /24 holds 254 hosts");
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
            userlib: org::userlib::UserLib::default(),
            kernel: org::monolithic::Monolithic::new(idx),
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
        ablation: None,
        pool: FramePool::new(buf_size, 256),
        taps: Vec::new(),
        faults: crate::faults::FaultPlan::none(),
        tcp_spare: Spare(Vec::new()),
        reg_spare: Spare(Vec::new()),
        byte_spare: Spare(Vec::new()),
    };
    (world, Engine::new())
}

#[cfg(test)]
mod tests;
