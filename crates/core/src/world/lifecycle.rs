//! The connection life cycle every organization shares: the `listen` /
//! `connect` entry points, the one installation and the one removal of a
//! connection (timers, index entry, channel, metrics scopes), and what an
//! application's exit or crash does to its connections. Each entry point
//! asks once whether the host runs the user library — whose handshakes,
//! channels and inheritance are [`handshake`]'s — and the monolithic
//! answer is given here or in [`monolithic`].

use unp_buffers::OwnerTag;
use unp_kernel::{ChannelId, ChannelStats};
use unp_registry::RegistryError;
use unp_sim::Nanos;
use unp_tcp::{Tcb, TcpConfig, TcpTimer};
use unp_timers::TimerService;
use unp_trace::{ConnKey, ConnScope, Ctr, Hist, ReclaimKind};
use unp_wire::Ipv4Addr;

use super::org::monolithic;
use super::org::userlib::handshake::{self, release_channel};
use super::tcp::with_conn;
use super::{ChanInfo, Conn, Eng, Listener, TimerToken, World};
use crate::app::{AppLogic, AppView};

/// Registers a listener on `host`:`port`. `factory` builds the per-
/// connection application. A port that is not free is the caller's error:
/// [`listen_as`] reports it, and this frozen form panics on it.
pub fn listen(
    w: &mut World,
    host: usize,
    port: u16,
    cfg: TcpConfig,
    factory: Box<dyn FnMut() -> Box<dyn AppLogic>>,
) {
    let owner = w.hosts[host].owner();
    listen_as(w, host, owner, port, cfg, factory).expect("listen port free");
}

/// [`listen`] for an explicit tenant: the listening port, its registry
/// binding, and every channel accepted through it are owned by `tenant`
/// instead of the host's default single-app owner, so multiple tenants
/// can share one host's network I/O module under separate budgets.
/// Refuses, in every organization, a port that already has a listener
/// (or, under the user library, that the registry holds for anything
/// else); the listener already there keeps accepting.
pub fn listen_as(
    w: &mut World,
    host: usize,
    tenant: OwnerTag,
    port: u16,
    cfg: TcpConfig,
    factory: Box<dyn FnMut() -> Box<dyn AppLogic>>,
) -> Result<(), RegistryError> {
    let h = &mut w.hosts[host];
    if h.listeners.contains_key(&port) {
        return Err(RegistryError::PortUnavailable);
    }
    if h.org.is_user_library() {
        h.registry.listen(tenant, port, cfg.clone())?;
    }
    let listener = Listener {
        cfg,
        factory,
        tenant,
    };
    h.listeners.insert(port, listener);
    Ok(())
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
    app: Box<dyn AppLogic>,
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
    app: Box<dyn AppLogic>,
    write_size: usize,
) {
    if w.hosts[host].org.is_user_library() {
        handshake::connect(w, eng, host, tenant, remote, cfg, app, write_size);
    } else {
        monolithic::connect(w, eng, host, remote, cfg, app, write_size);
    }
}

/// The one installation of a connection, whichever organization opened
/// it and on whichever side.
pub(super) fn install_conn(
    w: &mut World,
    h: usize,
    tcb: Box<Tcb>,
    app: Box<dyn AppLogic>,
    chan: Option<ChanInfo>,
    write_size: usize,
) -> u32 {
    let host = &mut w.hosts[h];
    let id = host.next_conn;
    host.next_conn += 1;
    let conn = Conn::new(tcb, app, chan, write_size);
    host.conn_index.insert(conn.pair_key(), id);
    host.conns.insert(id, conn);
    id
}

/// Tells the application of an active open that produced no connection
/// that it failed; the application is dropped.
pub(super) fn reset_unconnected(mut app: Box<dyn AppLogic>, now: Nanos) {
    app.on_reset(&AppView {
        now,
        send_space: 0,
        pending_tx: 0,
        remote: None,
    });
}

/// Every timer kind a connection can arm — what its removal disarms.
const TCP_TIMERS: [TcpTimer; 5] = [
    TcpTimer::Retransmit,
    TcpTimer::Persist,
    TcpTimer::DelayedAck,
    TcpTimer::TimeWait,
    TcpTimer::Keepalive,
];

/// The one connection removal, whatever ends the connection's life in
/// the library (close, application exit, the kernel's crash sweep): its
/// timers are disarmed, its index entry and channel released, and its
/// counters retired into the metrics scopes. The caller decides what
/// becomes of the TCB it gets back.
pub(super) fn remove_conn(w: &mut World, h: usize, cid: u32) -> Option<Conn> {
    let host = &mut w.hosts[h];
    let conn = host.conns.remove(&cid)?;
    for t in TCP_TIMERS {
        if let Some(id) = host.timers.remove(&TimerToken::Conn(cid, t)) {
            host.wheel.stop(id);
        }
    }
    host.conn_index.remove(&conn.pair_key());
    let chan_stats = conn
        .chan
        .as_ref()
        .and_then(|ci| Some((ci.id, release_channel(w, h, ci)?)));
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
    let (remote_ip, remote_port) = conn.remote();
    let key = ConnKey {
        host: h as u16,
        local_port: conn.local_port(),
        remote_ip: remote_ip.0,
        remote_port,
    };
    let cs = chan_stats.map(|(_, cs)| cs).unwrap_or_default();
    let scope = ConnScope {
        rx_delivered: cs.delivered,
        rx_batched: cs.batched,
        flow_hits: cs.flow_hits,
        listen_hits: cs.listen_hits,
        scan_fallbacks: cs.scan_fallbacks,
        ..conn.scope()
    };
    let channel = chan_stats.map(|(id, _)| id.0);
    w.metrics.retire_conn(key, channel, scope);
    if let Some(srtt) = scope.srtt {
        w.metrics.sample(Hist::ConnSrtt, srtt);
    }
}

/// A terminated application: ignores every event.
struct ExitedApp;

impl AppLogic for ExitedApp {}

/// The application owning connection `cid` on `host` exits while the
/// connection is open. Under the user-library organization "the registry
/// server inherits the connections and ensures that the protocol
/// specified delay period is maintained"; on an abnormal exit "the
/// protocol server issues a reset message to the remote peer" (§3.4).
/// Monolithic organizations close or abort in the kernel.
pub fn app_exit(w: &mut World, eng: &mut Eng, host: usize, cid: u32, abnormal: bool) {
    if w.hosts[host].org.is_user_library() {
        return handshake::inherit(w, eng, host, cid, abnormal);
    }
    let now = eng.now();
    with_conn(w, eng, host, cid, None, |conn, out| {
        conn.app = Box::new(ExitedApp);
        if abnormal {
            conn.abort_into(out);
        } else {
            // A refused close (already closing) adds nothing.
            let _ = conn.close_into(now, out);
        }
    });
}

/// The application process on `host` dies abruptly at the current
/// simulation time (the fault plan's [`crate::faults::Crash`] event;
/// also callable directly from tests): [`handshake::crash_tenant`] for the host's
/// single-app owner. Under the monolithic organizations protocol state
/// lives in the kernel, which aborts every connection the process had
/// open; nothing else can leak.
pub fn crash_host(w: &mut World, eng: &mut Eng, host: usize) {
    let owner = w.hosts[host].owner();
    if w.hosts[host].org.is_user_library() {
        return handshake::crash_tenant(w, eng, host, owner);
    }
    let _attr = unp_trace::host_scope(host as u16);
    crash_begins(w, host, owner);
    let mut cids: Vec<u32> = w.hosts[host].conns.keys().copied().collect();
    cids.sort_unstable();
    for cid in cids {
        reclaimed(w, host, owner, ReclaimKind::Connection, cid);
        app_exit(w, eng, host, cid, true);
    }
}

/// Counts and journals one resource reclaimed from dead `owner`.
pub(super) fn reclaimed(w: &mut World, host: usize, owner: OwnerTag, kind: ReclaimKind, id: u32) {
    w.metrics.bump(Ctr::ResourceReclaims);
    unp_trace::emit_at(host as u16, None, || unp_trace::Event::ResourceReclaim {
        kind,
        owner: owner.0 as u32,
        id,
    });
}

/// What every crash starts with, in every organization: the crash is
/// journaled and the dead tenant's listener factories and UDP ports die
/// with it.
pub(super) fn crash_begins(w: &mut World, host: usize, tenant: OwnerTag) {
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
        reclaimed(w, host, tenant, ReclaimKind::Listener, port as u32);
    }
    for port in w.hosts[host].udp_registry.app_exit(tenant) {
        w.hosts[host].udp.unbind(port);
    }
}
