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

mod endpoint;
pub mod ports;
mod spare;
pub mod udp;

pub use endpoint::Endpoint;
pub use ports::PortAllocator;
pub use udp::UdpRegistry;

use std::collections::HashMap;
use std::num::NonZeroU64;

use spare::Spare;
use unp_buffers::OwnerTag;
use unp_filter::programs::DemuxSpec;
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
    /// The block, in the box it leaves in ([`RegistryAction::Complete`]),
    /// or an inherited connection's TIME_WAIT record.
    tcb: Endpoint,
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

/// The registry server for TCP on one host. See module docs.
pub struct RegistryServer {
    local_ip: Ipv4Addr,
    ports: PortAllocator,
    listeners: HashMap<u16, (OwnerTag, TcpConfig)>,
    conns: HashMap<HsId, Pending>,
    /// Index (local_port, remote_ip, remote_port) → hs.
    index: HashMap<(u16, Ipv4Addr, u16), HsId>,
    next_hs: NonZeroU64,
    next_iss: u32,
    /// Where a TCB's output waits for [`RegistryServer::route`]; empty
    /// between calls, kept for its capacity.
    tcp_actions: Vec<TcpAction>,
    spare: Spare,
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
            next_hs: NonZeroU64::MIN,
            // Seed the ISS from the host address so two hosts never share
            // sequence spaces (the 4.3BSD clock-driven scheme's role).
            next_iss: 0x1000_u32.wrapping_add(local_ip.to_u32().wrapping_mul(2654435761)),
            tcp_actions: Vec::new(),
            spare: Spare::default(),
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
        let sink = &mut self.tcp_actions;
        let tcb = self.spare.connect(local, remote, cfg, iss, now, sink);
        let hs = self.next_id();
        self.index.insert((port, remote.0, remote.1), hs);
        self.conns.insert(
            hs,
            Pending {
                tcb: tcb.into(),
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
            let sink = &mut self.tcp_actions;
            let on_syn = self.spare.on_syn(&listener, remote, repr, iss, now, sink);
            if let Some(tcb) = on_syn {
                let hs = self.next_id();
                self.index.insert(key, hs);
                // The connection holds its listener's port from here to
                // its own end, whatever becomes of the listener.
                self.ports.share(repr.dst_port);
                self.conns.insert(
                    hs,
                    Pending {
                        tcb: tcb.into(),
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
    /// A block handed back boxed stays in its box, which the spare keeps
    /// once the registry has ended the connection or the block sits out
    /// TIME_WAIT as a record; a connection handed back as its record
    /// ([`Endpoint::TimeWait`]) sits out the rest of its wait here.
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
        tcbs: impl IntoIterator<Item = impl Into<Endpoint>>,
        abnormal: bool,
        now: Nanos,
        out: &mut Vec<RegistryAction>,
    ) {
        for tcb in tcbs {
            let mut tcb = tcb.into();
            let remote = tcb.remote();
            let key = (tcb.local_port(), remote.0, remote.1);
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
            let port = self.conns[&hs].tcb.local_port();
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
        tcb: Endpoint,
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

    /// The block of a library connection comes back for the next
    /// connection on this host, with its rings: when the connection
    /// closes, or as soon as it sits out TIME_WAIT as a record
    /// ([`Tcb::time_wait`]).
    pub fn recycle(&mut self, tcb: Box<Tcb>) {
        self.spare.keep(tcb);
    }

    /// What the spare holds for the host's next connections: finished
    /// connections' blocks, and ring sets.
    pub fn spare(&self) -> [usize; 2] {
        self.spare.held()
    }

    /// Number of connections the registry currently tracks (handshakes in
    /// progress plus inherited closers).
    pub fn tracked(&self) -> usize {
        self.conns.len()
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
            // An inherited closer sits out TIME_WAIT as a record.
            if let Some(block) = p.tcb.sit_out() {
                self.spare.keep(block);
            }
            return;
        }
        let p = self.conns.remove(&hs).expect("live");
        let (port, remote) = (p.tcb.local_port(), p.tcb.remote());
        self.index.remove(&(port, remote.0, remote.1));
        match p.tcb {
            Endpoint::Block(tcb) if completed => {
                let owner = p.owner;
                return out.push(RegistryAction::Complete { hs, owner, tcb });
            }
            Endpoint::Block(tcb) => self.spare.keep(tcb),
            Endpoint::TimeWait(_) => {}
        }
        if p.inherited {
            // The actual 2MSL wait already happened in TIME_WAIT (the
            // block's or its record's) for orderly closes; for aborts the pair is
            // quarantined permanently-in-simulation (hosts are
            // short-lived).
            self.ports.quarantine(port, remote, Nanos::MAX);
        } else {
            out.push(RegistryAction::Failed { hs, owner: p.owner });
        }
        self.ports.release(port);
    }
}

#[cfg(test)]
mod tests;
