//! `unp-registry` — the registry server.
//!
//! "The registry server runs as a trusted, privileged process managing the
//! allocation and deallocation of communication end-points" (paper §3.4).
//! There is one registry server per protocol. Its duties, all implemented
//! here:
//!
//! * **Port namespace** — end-point names are unique per machine per
//!   protocol; untrusted libraries cannot self-allocate them
//!   ([`PortAllocator`], with post-connection quarantine because
//!   "connection state needs to be maintained after a connection is
//!   shut down. A transient user linkable library is clearly not
//!   appropriate for this").
//! * **Connection establishment** — "the registry server for TCP executes
//!   the three-way handshake as part of the connection establishment",
//!   using the *same* `unp-tcp` state machine the library uses ("our
//!   organization can be logically thought of as the protocol library
//!   providing a set of functions to both the application and the registry
//!   server"). On completion the TCP state is transferred to the
//!   application's library.
//! * **Connection inheritance** — "when the application exits, the registry
//!   server inherits the connections and ensures that the protocol
//!   specified delay period is maintained before the connection is
//!   reused"; on abnormal termination "the protocol server issues a reset
//!   message to the remote peer."

pub mod ports;
pub mod udp;

pub use ports::PortAllocator;
pub use udp::UdpRegistry;

use std::collections::{HashMap, VecDeque};
use std::num::NonZeroU64;

use unp_buffers::OwnerTag;
use unp_filter::programs::DemuxSpec;
use unp_kernel::{push_kept, ChannelStats};
#[cfg(test)]
use unp_tcp::State;
use unp_tcp::{ListenTcb, Tcb, TcpAction, TcpConfig, TcpTimer};
use unp_wire::{IpProtocol, Ipv4Addr, TcpRepr};

/// Time in nanoseconds.
pub type Nanos = u64;

/// Identifier of an in-progress handshake or inherited connection within
/// the registry (never zero: no id stands for "no connection").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HsId(pub NonZeroU64);

/// Outputs of the registry state machine, routed by the hosting
/// organization (which charges the paper's costs for each). Like the TCB
/// under it, every [`RegistryServer`] entry point that produces actions
/// has a sink form (`*_into`: appends to the caller's buffer, never
/// clears it) and a `Vec`-returning wrapper over it.
#[derive(Debug)]
pub enum RegistryAction {
    /// Transmit a segment to `remote` on behalf of connection `hs`
    /// (via the kernel default path — "the registry server does not access
    /// the network device using shared memory, but instead uses standard
    /// Mach IPCs").
    Send {
        /// Connection this belongs to; `None` for a RST answering a stray.
        hs: Option<HsId>,
        /// Segment header.
        repr: TcpRepr,
        /// Segment payload (handshakes carry none, but inherited
        /// connections may retransmit data).
        payload: Vec<u8>,
        /// Peer address.
        remote: Ipv4Addr,
    },
    /// Arm a timer for connection `hs`.
    SetTimer(HsId, TcpTimer, Nanos),
    /// Disarm a timer.
    CancelTimer(HsId, TcpTimer),
    /// The three-way handshake completed: transfer this TCP state to the
    /// owning application's library (the paper's 1.4 ms state transfer).
    Complete {
        /// Handshake id.
        hs: HsId,
        /// Owner application.
        owner: OwnerTag,
        /// The established connection block.
        tcb: Box<Tcb>,
    },
    /// The handshake failed (reset by peer or retries exhausted).
    Failed {
        /// Handshake id.
        hs: HsId,
        /// Owner application.
        owner: OwnerTag,
    },
}

/// What [`RegistryServer::owner_died`] reclaimed, for journaling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeathReport {
    /// Listening ports removed and released.
    pub listeners: Vec<u16>,
    /// In-flight handshakes aborted: `(hs id, local port)`.
    pub handshakes: Vec<(u64, u16)>,
}

struct Pending {
    tcb: Tcb,
    owner: OwnerTag,
    remote_ip: Ipv4Addr,
    /// True for connections inherited from exited applications.
    inherited: bool,
}

/// The demux binding the registry installs with the network I/O module at
/// connection setup ("the registry server activates the address
/// demultiplexing mechanism as part of the connection establishment
/// phase"). Connection endpoints are always fully specified — both remote
/// address and port are known by the time the channel is created — so the
/// spec is guaranteed *distillable* into an exact-match [`unp_wire::FlowKey`]
/// and every established connection rides the kernel's O(1) flow-table
/// fast path rather than the per-packet filter scan.
pub fn connection_demux_spec(
    link_header_len: usize,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
) -> DemuxSpec {
    let spec = DemuxSpec {
        link_header_len,
        protocol: IpProtocol::Tcp,
        local_ip: local.0,
        local_port: local.1,
        remote_ip: Some(remote.0),
        remote_port: Some(remote.1),
    };
    debug_assert!(spec.distill().is_some(), "connection specs are exact-match");
    spec
}

/// The demux binding for a listening endpoint: local address known, remote
/// fully wildcard. Guaranteed distillable into a 3-tuple
/// [`unp_wire::ListenKey`], so passive bindings land in the kernel's keyed
/// listen table rather than the per-packet filter scan.
pub fn listen_demux_spec(link_header_len: usize, local: (Ipv4Addr, u16)) -> DemuxSpec {
    let spec = DemuxSpec {
        link_header_len,
        protocol: IpProtocol::Tcp,
        local_ip: local.0,
        local_port: local.1,
        remote_ip: None,
        remote_port: None,
    };
    debug_assert!(
        spec.distill_listen().is_some(),
        "listen specs are 3-tuple-match"
    );
    spec
}

/// Errors from registry calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryError {
    /// The port is already bound or quarantined.
    PortUnavailable,
    /// No ephemeral ports free.
    Exhausted,
    /// Unknown listener or handshake.
    NotFound,
}

/// A channel-stats record the hosting world hands back at teardown,
/// identified by the connection endpoint the channel served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindingReport {
    /// Local TCP port of the binding.
    pub local_port: u16,
    /// Peer address.
    pub remote: (Ipv4Addr, u16),
    /// The kernel's per-channel counters at teardown.
    pub stats: ChannelStats,
}

impl BindingReport {
    /// Deliveries the channel saw, before the threshold below applies.
    fn software_deliveries(&self) -> u64 {
        self.stats.flow_hits + self.stats.listen_hits + self.stats.scan_fallbacks
    }

    /// True when the binding kept missing both keyed fast paths: enough
    /// software traffic to judge, yet the residual filter scan decided
    /// most of it. Connection setup always installs distillable
    /// (exact-match) specs and passive bindings distill into the 3-tuple
    /// listen table, so a flagged binding means a half-specified wildcard
    /// shadowed it or its framing mismatched the module — worth
    /// surfacing, not silently eating the per-packet scan cost.
    pub fn missed_fast_path(&self) -> bool {
        const MIN_DELIVERIES: u64 = 16;
        self.software_deliveries() >= MIN_DELIVERIES
            && self.stats.scan_fallbacks > self.stats.flow_hits + self.stats.listen_hits
    }
}

/// The registry server for TCP on one host. See module docs.
pub struct RegistryServer {
    local_ip: Ipv4Addr,
    ports: PortAllocator,
    listeners: HashMap<u16, (OwnerTag, TcpConfig)>,
    conns: HashMap<HsId, Pending>,
    /// Index (local_port, remote_ip, remote_port) → hs.
    index: HashMap<(u16, Ipv4Addr, u16), HsId>,
    /// Channel stats handed back at connection teardown: how many, how
    /// many of them [`BindingReport::missed_fast_path`], and the last
    /// [`unp_kernel::RETIRED_KEPT`] of each, in arrival order.
    reports: u64,
    flagged: u64,
    recent: VecDeque<BindingReport>,
    recent_flagged: VecDeque<BindingReport>,
    next_hs: NonZeroU64,
    next_iss: u32,
    /// Where a TCB's output waits for [`RegistryServer::route`]; empty
    /// between calls, kept for its capacity.
    tcp_actions: Vec<TcpAction>,
}

impl RegistryServer {
    /// Creates the server for a host owning `local_ip`.
    pub fn new(local_ip: Ipv4Addr) -> RegistryServer {
        RegistryServer {
            local_ip,
            ports: PortAllocator::new(),
            listeners: HashMap::new(),
            conns: HashMap::new(),
            index: HashMap::new(),
            reports: 0,
            flagged: 0,
            recent: VecDeque::new(),
            recent_flagged: VecDeque::new(),
            next_hs: NonZeroU64::MIN,
            // Seed the ISS from the host address so two hosts never share
            // sequence spaces (the 4.3BSD clock-driven scheme's role).
            next_iss: 0x1000_u32.wrapping_add(local_ip.to_u32().wrapping_mul(2654435761)),
            tcp_actions: Vec::new(),
        }
    }

    /// Our address.
    pub fn local_ip(&self) -> Ipv4Addr {
        self.local_ip
    }

    fn iss(&mut self) -> u32 {
        // Deterministic spaced ISS (the 4.3BSD clock-driven scheme's role
        // is uniqueness, which spacing provides in simulation).
        self.next_iss = self.next_iss.wrapping_add(64_000);
        self.next_iss
    }

    fn next_id(&mut self) -> HsId {
        let hs = HsId(self.next_hs);
        self.next_hs = self.next_hs.saturating_add(1);
        hs
    }

    /// Registers a listening endpoint for `owner` with per-connection
    /// configuration `cfg`.
    pub fn listen(
        &mut self,
        owner: OwnerTag,
        port: u16,
        cfg: TcpConfig,
    ) -> Result<(), RegistryError> {
        if self.listeners.contains_key(&port) || !self.ports.bind(port) {
            return Err(RegistryError::PortUnavailable);
        }
        self.listeners.insert(port, (owner, cfg));
        Ok(())
    }

    /// Stops listening on `port` (the owner's close of a listening socket).
    pub fn unlisten(&mut self, owner: OwnerTag, port: u16) -> Result<(), RegistryError> {
        match self.listeners.get(&port) {
            Some((o, _)) if *o == owner => {
                self.listeners.remove(&port);
                self.ports.release(port);
                Ok(())
            }
            _ => Err(RegistryError::NotFound),
        }
    }

    /// Starts an active open to `remote` on behalf of `owner`. The SYN is
    /// emitted immediately; the caller routes the returned actions.
    pub fn connect(
        &mut self,
        owner: OwnerTag,
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        now: Nanos,
    ) -> Result<(HsId, Vec<RegistryAction>), RegistryError> {
        let mut out = Vec::new();
        let (hs, _) = self.connect_into(owner, remote, cfg, now, &mut out)?;
        Ok((hs, out))
    }

    /// [`RegistryServer::connect`], appending the actions to `out`, with
    /// the handshake's port: the hosting world binds its channel before it
    /// routes `out`, or aborts it ([`RegistryServer::abort_into`]).
    pub fn connect_into(
        &mut self,
        owner: OwnerTag,
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        now: Nanos,
        out: &mut Vec<RegistryAction>,
    ) -> Result<(HsId, u16), RegistryError> {
        let port = self
            .ports
            .alloc_ephemeral(remote, now)
            .ok_or(RegistryError::Exhausted)?;
        let iss = self.iss();
        let local = (self.local_ip, port);
        let tcb = Tcb::connect_into(local, remote, cfg, iss, now, &mut self.tcp_actions);
        let hs = self.next_id();
        self.index.insert((port, remote.0, remote.1), hs);
        self.conns.insert(
            hs,
            Pending {
                tcb,
                owner,
                remote_ip: remote.0,
                inherited: false,
            },
        );
        self.route(hs, out);
        Ok((hs, port))
    }

    /// Processes a TCP segment that arrived on the kernel default path
    /// (handshake traffic, inherited-connection traffic, or strays).
    /// `src` is the sender's address; the segment is already
    /// checksum-verified.
    pub fn on_segment(
        &mut self,
        src: Ipv4Addr,
        repr: &TcpRepr,
        payload: &[u8],
        now: Nanos,
    ) -> Vec<RegistryAction> {
        let mut out = Vec::new();
        self.on_segment_into(src, repr, payload, now, &mut out);
        out
    }

    /// [`RegistryServer::on_segment`], appending the actions to `out`.
    /// Returns the handshake a SYN to a listener opened, to be bound or
    /// aborted as after [`RegistryServer::connect_into`].
    pub fn on_segment_into(
        &mut self,
        src: Ipv4Addr,
        repr: &TcpRepr,
        payload: &[u8],
        now: Nanos,
        out: &mut Vec<RegistryAction>,
    ) -> Option<HsId> {
        let key = (repr.dst_port, src, repr.src_port);
        if let Some(&hs) = self.index.get(&key) {
            let p = self.conns.get_mut(&hs).expect("indexed");
            p.tcb
                .on_segment_into(repr, payload, now, &mut self.tcp_actions);
            self.route(hs, out);
            return None;
        }
        // New connection to a listener?
        if let Some((owner, cfg)) = self.listeners.get(&repr.dst_port).cloned() {
            let listener = ListenTcb::new((self.local_ip, repr.dst_port), cfg);
            let iss = self.iss();
            let remote = (src, repr.src_port);
            let on_syn = listener.on_syn_into(remote, repr, iss, now, &mut self.tcp_actions);
            if let Some(tcb) = on_syn {
                let hs = self.next_id();
                self.index.insert(key, hs);
                // The connection holds its listener's port from here to
                // its own end, whatever becomes of the listener.
                self.ports.share(repr.dst_port);
                self.conns.insert(
                    hs,
                    Pending {
                        tcb,
                        owner,
                        remote_ip: src,
                        inherited: false,
                    },
                );
                self.route(hs, out);
                return Some(hs);
            }
        }
        // A non-SYN segment to a listening port, or a stray to a dead
        // endpoint: no connection; answer with RST unless it is itself a
        // RST.
        if !repr.flags.rst {
            out.push(RegistryAction::Send {
                hs: None,
                repr: Tcb::rst_for((self.local_ip, repr.dst_port), repr, payload.len()),
                payload: Vec::new(),
                remote: src,
            });
        }
        None
    }

    /// Handles a timer the host armed for connection `hs`.
    pub fn on_timer(&mut self, hs: HsId, timer: TcpTimer, now: Nanos) -> Vec<RegistryAction> {
        let mut out = Vec::new();
        self.on_timer_into(hs, timer, now, &mut out);
        out
    }

    /// [`RegistryServer::on_timer`], appending the actions to `out`.
    pub fn on_timer_into(
        &mut self,
        hs: HsId,
        timer: TcpTimer,
        now: Nanos,
        out: &mut Vec<RegistryAction>,
    ) {
        let Some(p) = self.conns.get_mut(&hs) else {
            return;
        };
        p.tcb.on_timer_into(timer, now, &mut self.tcp_actions);
        self.route(hs, out);
    }

    /// The owning application exited. Established connections it still
    /// holds are returned to the registry: on a normal exit the registry
    /// inherits them and completes the close protocol (FIN, TIME_WAIT);
    /// on an abnormal exit it resets the peer. Returns actions to route.
    pub fn app_exit(
        &mut self,
        owner: OwnerTag,
        tcbs: Vec<Tcb>,
        abnormal: bool,
        now: Nanos,
    ) -> Vec<RegistryAction> {
        let mut out = Vec::new();
        self.app_exit_into(owner, tcbs, abnormal, now, &mut out);
        out
    }

    /// [`RegistryServer::app_exit`], appending the actions to `out`.
    pub fn app_exit_into(
        &mut self,
        owner: OwnerTag,
        tcbs: Vec<Tcb>,
        abnormal: bool,
        now: Nanos,
        out: &mut Vec<RegistryAction>,
    ) {
        for mut tcb in tcbs {
            let (local, remote) = (tcb.local(), tcb.remote());
            let key = (local.1, remote.0, remote.1);
            if abnormal {
                tcb.abort_into(&mut self.tcp_actions);
            } else {
                // Already closing: nothing to add, the TCB finishes as is.
                let _ = tcb.close_into(now, &mut self.tcp_actions);
            }
            let hs = self.adopt(tcb, owner, remote.0, key);
            self.route(hs, out);
        }
    }

    /// Full death cleanup for `owner`, beyond the established connections
    /// [`RegistryServer::app_exit`] inherits: listening sockets are
    /// removed (their ports released for re-binding), and in-flight
    /// handshakes are aborted ([`RegistryServer::abort_into`]): a peer
    /// that has our SYN-ACK gets a RST on the dead application's behalf,
    /// the port returns to the allocator, and a `Failed` action lets the
    /// hosting world tear down the handshake's channel. Inherited
    /// connections the registry is already closing for this owner are
    /// left to finish their protocol.
    /// Returns the actions to route plus a report of what was reclaimed.
    pub fn owner_died(&mut self, owner: OwnerTag) -> (Vec<RegistryAction>, DeathReport) {
        let mut out = Vec::new();
        let report = self.owner_died_into(owner, &mut out);
        (out, report)
    }

    /// [`RegistryServer::owner_died`], appending the actions to `out`.
    pub fn owner_died_into(
        &mut self,
        owner: OwnerTag,
        out: &mut Vec<RegistryAction>,
    ) -> DeathReport {
        let mut report = DeathReport::default();
        let mut dead_ports: Vec<u16> = self
            .listeners
            .iter()
            .filter(|(_, (o, _))| *o == owner)
            .map(|(&p, _)| p)
            .collect();
        dead_ports.sort_unstable();
        for port in dead_ports {
            self.listeners.remove(&port);
            self.ports.release(port);
            report.listeners.push(port);
        }
        let mut dead_hs: Vec<HsId> = self
            .conns
            .iter()
            .filter(|(_, p)| p.owner == owner && !p.inherited)
            .map(|(&hs, _)| hs)
            .collect();
        dead_hs.sort_unstable();
        for hs in dead_hs {
            let port = self.conns[&hs].tcb.local().1;
            report.handshakes.push((hs.0.get(), port));
            self.abort_into(hs, out);
        }
        report
    }

    /// Aborts handshake `hs` on its owner's behalf: a peer that has our
    /// SYN-ACK gets a RST, the port goes back, and `Failed` tells the
    /// hosting world. Nothing if the registry no longer tracks `hs`.
    pub fn abort_into(&mut self, hs: HsId, out: &mut Vec<RegistryAction>) {
        if let Some(p) = self.conns.get_mut(&hs) {
            p.tcb.abort_into(&mut self.tcp_actions);
            self.route(hs, out);
        }
    }

    fn adopt(
        &mut self,
        tcb: Tcb,
        owner: OwnerTag,
        remote_ip: Ipv4Addr,
        key: (u16, Ipv4Addr, u16),
    ) -> HsId {
        let hs = self.next_id();
        self.index.insert(key, hs);
        self.conns.insert(
            hs,
            Pending {
                tcb,
                owner,
                remote_ip,
                inherited: true,
            },
        );
        hs
    }

    /// A connection the registry handed to a library was closed there.
    /// Its TCB sat out TIME_WAIT in the library, so nothing is owed for
    /// the pair and the connection's hold on its local port ends — which
    /// frees the port unless a listener or other accepted connections
    /// still share it. Connections handed back through
    /// [`RegistryServer::app_exit`] let go when the registry finishes
    /// closing them instead.
    pub fn connection_closed(&mut self, local_port: u16) {
        self.ports.release(local_port);
    }

    /// Number of connections the registry currently tracks (handshakes in
    /// progress plus inherited closers).
    pub fn tracked(&self) -> usize {
        self.conns.len()
    }

    /// Records a torn-down channel's kernel counters (the "registry
    /// handoff": the world reads [`unp_kernel::NetIoModule::channel_stats`]
    /// just before destroying the channel and reports them here).
    pub fn record_channel_stats(
        &mut self,
        local_port: u16,
        remote: (Ipv4Addr, u16),
        stats: ChannelStats,
    ) {
        let report = BindingReport {
            local_port,
            remote,
            stats,
        };
        self.reports += 1;
        if report.missed_fast_path() {
            self.flagged += 1;
            push_kept(&mut self.recent_flagged, report);
        }
        push_kept(&mut self.recent, report);
    }

    /// Channel-stats reports received so far.
    pub fn report_count(&self) -> u64 {
        self.reports
    }

    /// How many of them kept missing the keyed fast paths (see
    /// [`BindingReport::missed_fast_path`]).
    pub fn flagged_count(&self) -> u64 {
        self.flagged
    }

    /// The last [`unp_kernel::RETIRED_KEPT`] reports, in arrival order.
    pub fn binding_reports(&self) -> &VecDeque<BindingReport> {
        &self.recent
    }

    /// The last [`unp_kernel::RETIRED_KEPT`] flagged reports, in arrival
    /// order — kept apart so healthy churn cannot push them out.
    pub fn flagged_bindings(&self) -> &VecDeque<BindingReport> {
        &self.recent_flagged
    }

    /// True if `port` can be bound right now.
    pub fn port_free(&self, port: u16, now: Nanos) -> bool {
        self.ports.is_free(port, now)
    }

    /// Converts the TCB actions waiting in `tcp_actions` into registry
    /// actions appended to `out`. A connection that completes (to the
    /// application's library, whose channel bypasses the registry from
    /// here on) or ends leaves the registry in the same call.
    fn route(&mut self, hs: HsId, out: &mut Vec<RegistryAction>) {
        let (mut completed, mut ended) = (false, false);
        let p = self.conns.get_mut(&hs).expect("routing live conn");
        for a in self.tcp_actions.drain(..) {
            match a {
                TcpAction::Send(repr, payload) => out.push(RegistryAction::Send {
                    hs: Some(hs),
                    repr,
                    payload,
                    remote: p.remote_ip,
                }),
                TcpAction::SetTimer(t, d) => out.push(RegistryAction::SetTimer(hs, t, d)),
                TcpAction::CancelTimer(t) => out.push(RegistryAction::CancelTimer(hs, t)),
                // Only a handshake connects: an inherited TCB is past it.
                TcpAction::Connected => completed = true,
                TcpAction::ConnClosed | TcpAction::Reset => ended = true,
                // Data/space notifications are meaningless during a
                // handshake and ignored on inherited closers.
                TcpAction::DataAvailable | TcpAction::PeerClosed | TcpAction::SendSpace => {}
            }
        }
        if !(completed || ended) {
            return;
        }
        let p = self.conns.remove(&hs).expect("live");
        let (local, remote) = (p.tcb.local(), p.tcb.remote());
        self.index.remove(&(local.1, remote.0, remote.1));
        if completed {
            out.push(RegistryAction::Complete {
                hs,
                owner: p.owner,
                tcb: Box::new(p.tcb),
            });
            return;
        }
        if p.inherited {
            // The actual 2MSL wait already happened inside the TCB's
            // TIME_WAIT state for orderly closes; for aborts the pair is
            // quarantined permanently-in-simulation (hosts are
            // short-lived).
            self.ports.quarantine(local.1, remote, Nanos::MAX);
        } else {
            out.push(RegistryAction::Failed { hs, owner: p.owner });
        }
        self.ports.release(local.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Ferries segments between two registries until both sides' handshake
    /// completes or traffic dries up. Returns completed TCBs.
    fn run_handshake(
        ra: &mut RegistryServer,
        rb: &mut RegistryServer,
        mut pending: Vec<(bool, TcpRepr, Vec<u8>)>, // (to_b, repr, payload)
    ) -> (Vec<Tcb>, Vec<Tcb>) {
        let mut done_a = Vec::new();
        let mut done_b = Vec::new();
        let mut now = 0;
        let mut steps = 0;
        while let Some((to_b, repr, payload)) = pending.pop() {
            steps += 1;
            assert!(steps < 100, "handshake livelock");
            now += 100_000;
            let actions = if to_b {
                rb.on_segment(IP_A, &repr, &payload, now)
            } else {
                ra.on_segment(IP_B, &repr, &payload, now)
            };
            for a in actions {
                match a {
                    RegistryAction::Send {
                        repr,
                        payload,
                        remote,
                        ..
                    } => {
                        pending.push((remote == IP_B, repr, payload));
                    }
                    RegistryAction::Complete { tcb, .. } => {
                        if to_b {
                            done_b.push(*tcb);
                        } else {
                            done_a.push(*tcb);
                        }
                    }
                    _ => {}
                }
            }
        }
        (done_a, done_b)
    }

    #[test]
    fn registry_executes_three_way_handshake() {
        let mut ra = RegistryServer::new(IP_A);
        let mut rb = RegistryServer::new(IP_B);
        rb.listen(OwnerTag(20), 80, TcpConfig::default()).unwrap();

        let (_hs, actions) = ra
            .connect(OwnerTag(10), (IP_B, 80), TcpConfig::default(), 0)
            .unwrap();
        let mut pending = Vec::new();
        for a in actions {
            if let RegistryAction::Send {
                repr,
                payload,
                remote,
                ..
            } = a
            {
                pending.push((remote == IP_B, repr, payload));
            }
        }
        let (done_a, done_b) = run_handshake(&mut ra, &mut rb, pending);
        assert_eq!(done_a.len(), 1, "active side completed");
        assert_eq!(done_b.len(), 1, "passive side completed");
        assert_eq!(done_a[0].state(), State::Established);
        assert_eq!(done_b[0].state(), State::Established);
        // Both registries dropped the connection from their tables: the
        // data path now bypasses the server.
        assert_eq!(ra.tracked(), 0);
        assert_eq!(rb.tracked(), 0);
        // The endpoints agree.
        assert_eq!(done_a[0].remote(), done_b[0].local());
        assert_eq!(done_b[0].remote(), done_a[0].local());
    }

    #[test]
    fn connection_specs_are_distillable() {
        // The flow-table fast path depends on setup installing exact-match
        // bindings; pin that here for both link framings.
        for lhl in [14usize, 18] {
            let spec = connection_demux_spec(lhl, (IP_A, 80), (IP_B, 5000));
            let key = spec.distill().expect("setup specs must distill");
            assert_eq!(key.protocol, IpProtocol::Tcp.to_u8());
            assert_eq!((key.local_ip, key.local_port), (IP_A, 80));
            assert_eq!((key.remote_ip, key.remote_port), (IP_B, 5000));
        }
    }

    #[test]
    fn listen_port_conflicts_rejected() {
        let mut r = RegistryServer::new(IP_A);
        assert!(r.listen(OwnerTag(1), 80, TcpConfig::default()).is_ok());
        assert_eq!(
            r.listen(OwnerTag(2), 80, TcpConfig::default()).err(),
            Some(RegistryError::PortUnavailable)
        );
        assert!(r.unlisten(OwnerTag(2), 80).is_err(), "only owner unbinds");
        assert!(r.unlisten(OwnerTag(1), 80).is_ok());
        assert!(r.listen(OwnerTag(2), 80, TcpConfig::default()).is_ok());
    }

    #[test]
    fn stray_segment_answered_with_rst() {
        let mut r = RegistryServer::new(IP_A);
        let stray = TcpRepr {
            src_port: 1234,
            dst_port: 9999,
            seq: unp_wire::SeqNum(5),
            ack_num: unp_wire::SeqNum(0),
            flags: unp_wire::TcpFlags::SYN,
            window: 100,
            mss: None,
        };
        let actions = r.on_segment(IP_B, &stray, &[], 0);
        assert_eq!(actions.len(), 1);
        // A RST on behalf of no connection.
        let RegistryAction::Send { hs: None, repr, .. } = &actions[0] else {
            panic!("expected RST send");
        };
        assert!(repr.flags.rst);
        // RSTs themselves are not answered (no storm).
        let actions = r.on_segment(IP_B, repr, &[], 0);
        assert!(actions.is_empty());
    }

    #[test]
    fn abnormal_exit_resets_peer() {
        // Build an established pair through the registries.
        let mut ra = RegistryServer::new(IP_A);
        let mut rb = RegistryServer::new(IP_B);
        rb.listen(OwnerTag(20), 80, TcpConfig::default()).unwrap();
        let (_hs, actions) = ra
            .connect(OwnerTag(10), (IP_B, 80), TcpConfig::default(), 0)
            .unwrap();
        let mut pending = Vec::new();
        for a in actions {
            if let RegistryAction::Send {
                repr,
                payload,
                remote,
                ..
            } = a
            {
                pending.push((remote == IP_B, repr, payload));
            }
        }
        let (done_a, _done_b) = run_handshake(&mut ra, &mut rb, pending);
        let tcb_a = done_a.into_iter().next().unwrap();

        // The app on A crashes; registry A resets the peer.
        let actions = ra.app_exit(OwnerTag(10), vec![tcb_a], true, 1_000_000);
        let sent_rst = actions
            .iter()
            .any(|a| matches!(a, RegistryAction::Send { repr, .. } if repr.flags.rst));
        assert!(sent_rst, "abnormal exit must RST the peer: {actions:?}");
    }

    #[test]
    fn owner_death_releases_listeners_and_aborts_handshakes() {
        let mut r = RegistryServer::new(IP_A);
        r.listen(OwnerTag(5), 80, TcpConfig::default()).unwrap();
        r.listen(OwnerTag(6), 81, TcpConfig::default()).unwrap();
        // An in-flight active open by the doomed owner.
        let (hs, _) = r
            .connect(OwnerTag(5), (IP_B, 90), TcpConfig::default(), 0)
            .unwrap();
        assert_eq!(r.tracked(), 1);

        let (actions, report) = r.owner_died(OwnerTag(5));
        assert_eq!(report.listeners, vec![80]);
        assert_eq!(report.handshakes.len(), 1);
        assert_eq!(report.handshakes[0].0, hs.0.get());
        // The aborted handshake surfaces as Failed so the hosting world
        // can tear down its channel (SYN_SENT aborts emit no RST).
        assert!(actions
            .iter()
            .any(|a| matches!(a, RegistryAction::Failed { hs: f, .. } if *f == hs)));
        assert_eq!(r.tracked(), 0, "aborted handshake reaped");
        // The dead owner's listening port is immediately re-bindable; the
        // survivor's is untouched.
        assert!(r.listen(OwnerTag(9), 80, TcpConfig::default()).is_ok());
        assert_eq!(
            r.listen(OwnerTag(9), 81, TcpConfig::default()).err(),
            Some(RegistryError::PortUnavailable)
        );
        // Idempotent on a second call.
        let (actions, report) = r.owner_died(OwnerTag(5));
        assert!(actions.is_empty());
        assert_eq!(report, DeathReport::default());
    }

    #[test]
    fn abort_in_syn_sent_fails_without_a_segment_and_returns_the_port() {
        let mut r = RegistryServer::new(IP_A);
        let mut out = Vec::new();
        let cfg = TcpConfig::default();
        let (hs, port) = r
            .connect_into(OwnerTag(3), (IP_B, 80), cfg, 0, &mut out)
            .unwrap();
        assert!(!r.port_free(port, 0));
        out.clear();
        r.abort_into(hs, &mut out);
        let sends = out
            .iter()
            .filter(|a| matches!(a, RegistryAction::Send { .. }));
        assert_eq!(sends.count(), 0, "the peer never saw our SYN: {out:?}");
        assert!(
            matches!(out.last(), Some(RegistryAction::Failed { hs: f, owner: OwnerTag(3) }) if *f == hs),
            "{out:?}"
        );
        assert_eq!(r.tracked(), 0);
        assert!(r.port_free(port, 0), "the ephemeral port went back");
    }

    #[test]
    fn abort_in_syn_rcvd_resets_the_peer_then_fails() {
        let mut rb = RegistryServer::new(IP_B);
        rb.listen(OwnerTag(20), 80, TcpConfig::default()).unwrap();
        let mut ra = RegistryServer::new(IP_A);
        let (_hs, actions) = ra
            .connect(OwnerTag(10), (IP_B, 80), TcpConfig::default(), 0)
            .unwrap();
        let RegistryAction::Send { repr: syn, .. } = &actions[0] else {
            panic!("expected SYN");
        };
        let mut out = Vec::new();
        let hs = rb.on_segment_into(IP_A, syn, &[], 1_000, &mut out);
        let hs = hs.expect("a SYN the listener takes opens a handshake");
        out.clear();
        rb.abort_into(hs, &mut out);
        let [RegistryAction::Send {
            hs: Some(sent),
            repr: rst,
            ..
        }, .., RegistryAction::Failed { hs: failed, .. }] = &out[..]
        else {
            panic!("expected a RST, then Failed: {out:?}");
        };
        assert!(rst.flags.rst && (*sent, *failed) == (hs, hs), "{out:?}");
        assert_eq!(rb.tracked(), 0);
        assert!(!rb.port_free(80, 1_000), "the listener still holds port 80");
        // The peer, still in SYN_SENT, takes the RST: it acknowledges the SYN.
        let reset = ra.on_segment(IP_B, rst, &[], 2_000);
        assert!(
            reset
                .iter()
                .any(|a| matches!(a, RegistryAction::Failed { .. })),
            "{reset:?}"
        );
        // An abort of what the registry no longer tracks adds nothing.
        out.clear();
        rb.abort_into(hs, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn library_side_close_returns_the_ephemeral_port() {
        let mut r = RegistryServer::new(IP_A);
        let span = usize::from(ports::EPHEMERAL_LIMIT - ports::EPHEMERAL_BASE) + 1;
        for _ in 0..span {
            r.connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0)
                .unwrap();
        }
        let exhausted = r.connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0);
        assert_eq!(exhausted.err(), Some(RegistryError::Exhausted));
        r.connection_closed(2000);
        assert!(r
            .connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0)
            .is_ok());
    }

    #[test]
    fn connect_allocates_distinct_ephemeral_ports() {
        let mut r = RegistryServer::new(IP_A);
        let (_h1, a1) = r
            .connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0)
            .unwrap();
        let (_h2, a2) = r
            .connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0)
            .unwrap();
        let port_of = |acts: &[RegistryAction]| {
            acts.iter()
                .find_map(|a| match a {
                    RegistryAction::Send { repr, .. } => Some(repr.src_port),
                    _ => None,
                })
                .unwrap()
        };
        assert_ne!(port_of(&a1), port_of(&a2));
        assert_eq!(r.tracked(), 2);
    }

    #[test]
    fn registry_retransmits_syn_on_timer() {
        let mut r = RegistryServer::new(IP_A);
        let (hs, actions) = r
            .connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0)
            .unwrap();
        let syn_count = actions
            .iter()
            .filter(|a| matches!(a, RegistryAction::Send { repr, .. } if repr.flags.syn))
            .count();
        assert_eq!(syn_count, 1);
        // No response: the retransmission timer fires and the SYN reissues.
        let actions = r.on_timer(hs, unp_tcp::TcpTimer::Retransmit, 1_000_000_000);
        assert!(actions
            .iter()
            .any(|a| matches!(a, RegistryAction::Send { repr, .. } if repr.flags.syn)));
        assert_eq!(r.tracked(), 1, "handshake still pending");
    }

    #[test]
    fn handshake_gives_up_and_reports_failure() {
        let mut r = RegistryServer::new(IP_A);
        let cfg = TcpConfig {
            max_retransmits: 2,
            ..TcpConfig::default()
        };
        let (hs, _) = r.connect(OwnerTag(7), (IP_B, 80), cfg, 0).unwrap();
        let mut failed = false;
        let mut now = 0u64;
        for _ in 0..6 {
            now += 70_000_000_000;
            let actions = r.on_timer(hs, unp_tcp::TcpTimer::Retransmit, now);
            if actions
                .iter()
                .any(|a| matches!(a, RegistryAction::Failed { owner, .. } if *owner == OwnerTag(7)))
            {
                failed = true;
                break;
            }
        }
        assert!(failed, "retry budget exhausted must report Failed");
        assert_eq!(r.tracked(), 0, "failed handshake reaped");
        // The ephemeral port was released for reuse.
        let (_hs2, actions2) = r
            .connect(OwnerTag(7), (IP_B, 80), TcpConfig::default(), now)
            .unwrap();
        assert!(!actions2.is_empty());
    }

    #[test]
    fn channel_stats_handoff_flags_scan_heavy_bindings() {
        let mut r = RegistryServer::new(IP_A);
        // Healthy binding: the flow table decided nearly everything.
        r.record_channel_stats(
            80,
            (IP_B, 5000),
            ChannelStats {
                delivered: 100,
                batched: 40,
                flow_hits: 98,
                listen_hits: 0,
                scan_fallbacks: 2,
            },
        );
        // Scan-heavy binding with enough traffic to judge.
        r.record_channel_stats(
            81,
            (IP_B, 5001),
            ChannelStats {
                delivered: 30,
                batched: 5,
                flow_hits: 3,
                listen_hits: 0,
                scan_fallbacks: 27,
            },
        );
        // Scan-heavy but below the traffic threshold: not judged.
        r.record_channel_stats(
            82,
            (IP_B, 5002),
            ChannelStats {
                delivered: 4,
                batched: 0,
                flow_hits: 0,
                listen_hits: 0,
                scan_fallbacks: 4,
            },
        );
        // Listen-table-heavy binding: keyed hits, so healthy, not flagged.
        r.record_channel_stats(
            83,
            (IP_B, 5003),
            ChannelStats {
                delivered: 50,
                batched: 10,
                flow_hits: 0,
                listen_hits: 45,
                scan_fallbacks: 5,
            },
        );
        assert_eq!(r.binding_reports().len(), 4);
        let flagged = r.flagged_bindings();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].local_port, 81);
    }

    #[test]
    fn binding_reports_are_counted_and_only_the_tail_and_the_flagged_kept() {
        let mut r = RegistryServer::new(IP_A);
        let healthy = ChannelStats {
            delivered: 40,
            batched: 0,
            flow_hits: 40,
            listen_hits: 0,
            scan_fallbacks: 0,
        };
        let scan_heavy = ChannelStats {
            flow_hits: 3,
            scan_fallbacks: 37,
            ..healthy
        };
        // Three flagged reports, all early: 190 healthy ones follow the
        // last and must not push any of them out.
        for port in 0..200u16 {
            let stats = if [2, 5, 9].contains(&port) {
                scan_heavy
            } else {
                healthy
            };
            r.record_channel_stats(port, (IP_B, 5000), stats);
        }
        assert_eq!((r.report_count(), r.flagged_count()), (200, 3));
        let flagged = r.flagged_bindings().iter().map(|b| b.local_port);
        assert_eq!(flagged.collect::<Vec<_>>(), [2, 5, 9]);
        let kept = r.binding_reports();
        assert!(kept.len() <= unp_kernel::RETIRED_KEPT);
        assert_eq!(kept.back().map(|b| b.local_port), Some(199));
    }

    /// An active open from `ra` to `rb`'s `port`, run to completion.
    fn open(ra: &mut RegistryServer, rb: &mut RegistryServer, port: u16) {
        let (_hs, actions) = ra
            .connect(OwnerTag(10), (IP_B, port), TcpConfig::default(), 0)
            .unwrap();
        let syn = actions.into_iter().filter_map(|a| match a {
            RegistryAction::Send { repr, payload, .. } => Some((true, repr, payload)),
            _ => None,
        });
        let (_, accepted) = run_handshake(ra, rb, syn.collect());
        assert_eq!(accepted.len(), 1, "accepted on port {port}");
    }

    /// The local port of a fresh active open by `r`.
    fn active_open_port(r: &mut RegistryServer) -> u16 {
        let (_hs, actions) = r
            .connect(OwnerTag(20), (IP_A, 9), TcpConfig::default(), 0)
            .unwrap();
        let RegistryAction::Send { repr, .. } = &actions[0] else {
            panic!("expected SYN");
        };
        repr.src_port
    }

    #[test]
    fn a_port_is_released_when_its_last_holder_goes() {
        // An accepted connection shares its listener's port, and outlives
        // the listener: the port stays bound — not handed to an active
        // open, not freed by the first accepted connection to close —
        // until the last of them is gone.
        const PORT: u16 = crate::ports::EPHEMERAL_BASE + 6;
        let mut ra = RegistryServer::new(IP_A);
        let mut rb = RegistryServer::new(IP_B);
        rb.listen(OwnerTag(20), PORT, TcpConfig::default()).unwrap();
        open(&mut ra, &mut rb, PORT);
        open(&mut ra, &mut rb, PORT);
        rb.unlisten(OwnerTag(20), PORT).unwrap();
        assert!(!rb.port_free(PORT, 0), "two accepted connections use it");
        // The allocator walks up from EPHEMERAL_BASE, past PORT.
        let taken: Vec<u16> = (0..8).map(|_| active_open_port(&mut rb)).collect();
        assert!(!taken.contains(&PORT), "handed out under them: {taken:?}");
        rb.connection_closed(PORT);
        assert!(!rb.port_free(PORT, 0), "one accepted connection left");
        rb.connection_closed(PORT);
        assert!(rb.port_free(PORT, 0), "the last holder went");
        // While the listener lives, its accepted connections come and go
        // without touching its binding.
        rb.listen(OwnerTag(20), PORT, TcpConfig::default()).unwrap();
        open(&mut ra, &mut rb, PORT);
        rb.connection_closed(PORT);
        assert!(!rb.port_free(PORT, 0), "the listener holds it");
    }

    #[test]
    fn a_refused_passive_open_leaves_the_listeners_port_bound() {
        let mut rb = RegistryServer::new(IP_B);
        rb.listen(OwnerTag(20), 80, TcpConfig::default()).unwrap();
        let mut ra = RegistryServer::new(IP_A);
        let (_hs, actions) = ra
            .connect(OwnerTag(10), (IP_B, 80), TcpConfig::default(), 0)
            .unwrap();
        let RegistryAction::Send { repr: syn, .. } = &actions[0] else {
            panic!("expected SYN");
        };
        let reply = rb.on_segment(IP_A, syn, &[], 1_000);
        let RegistryAction::Send { repr: syn_ack, .. } = &reply[0] else {
            panic!("expected SYN-ACK");
        };
        assert_eq!(rb.tracked(), 1);
        // The client changes its mind: RST instead of the final ACK.
        let rst = Tcb::rst_for((IP_A, syn.src_port), syn_ack, 0);
        rb.on_segment(IP_A, &rst, &[], 2_000);
        assert_eq!(rb.tracked(), 0, "half-open connection reaped");
        assert!(!rb.port_free(80, 2_000), "the listener still holds port 80");
    }

    #[test]
    fn rst_during_handshake_fails_cleanly() {
        let mut r = RegistryServer::new(IP_A);
        let (hs, actions) = r
            .connect(OwnerTag(3), (IP_B, 80), TcpConfig::default(), 0)
            .unwrap();
        let RegistryAction::Send { repr: syn, .. } = &actions[0] else {
            panic!("expected SYN");
        };
        let _ = hs;
        // The peer answers with RST (port closed there).
        let rst = Tcb::rst_for((IP_B, 80), syn, 0);
        let actions = r.on_segment(IP_B, &rst, &[], 1_000_000);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, RegistryAction::Failed { .. })),
            "RST must fail the handshake: {actions:?}"
        );
        assert_eq!(r.tracked(), 0);
    }
}
