//! The user library's side of the connection life cycle: what the
//! registry server's actions do to the world. A connection is handed
//! registry → library → registry, with its kernel channel and BQI slot
//! following it (DESIGN.md §7, "who owns what"): [`connect`] or a SYN a
//! listener takes opens a handshake, [`open`] binds its channel before
//! anything is sent, [`finalize_user_conn`] hands both to the library,
//! [`release_channel`] is the one way a channel ends, and [`inherit`],
//! [`crash_tenant`] and [`unclaimed`] give the TCP state back to the
//! registry.

use unp_buffers::{Frame, OwnerTag};
use unp_kernel::{ChannelStats, HeaderTemplate};
use unp_registry::{Endpoint, HsId, RegistryAction, RegistryServer};
use unp_tcp::{Tcb, TcpConfig};
use unp_trace::{Ctr, ReclaimKind};
use unp_wire::{EtherType, IpProtocol, Ipv4Addr};

use super::{ChanOwner, ConnectCall, Handshake, Phase};
use crate::app::AppLogic;
use crate::world::app::{app_upcall, AppEvent};
use crate::world::costs::{app_boundary_cost, tcp_seg_cost};
use crate::world::event::{host_exec, host_step, Event};
use crate::world::lifecycle::{
    crash_begins, install_conn, reclaimed, remove_conn, reset_unconnected,
};
use crate::world::tcp::{conn_segment, parse_tcp_frame, stage_segment};
use crate::world::timers::{arm_timer, cancel_timer, resched_wheel};
use crate::world::{ChanInfo, Eng, Host, Nic, PairKey, TimerToken, World};

/// An active open: app → registry RPC, then non-overlapped outbound
/// processing. `tenant` owns the registry binding and the channel; `None`
/// is the host's single-app owner. The call waits in the host's queue
/// until its [`Event::Connect`] fires.
#[allow(clippy::too_many_arguments)]
pub(crate) fn connect(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    tenant: Option<OwnerTag>,
    remote: (Ipv4Addr, u16),
    cfg: TcpConfig,
    app: Box<dyn AppLogic>,
    write_size: usize,
) {
    let cost = w.costs.registry_rpc + w.costs.registry_connect_processing;
    let call = ConnectCall {
        tenant,
        remote,
        cfg,
        app,
        write_size,
    };
    w.hosts[host].userlib.connects.push_back(call);
    host_step(w, eng, host, cost, Event::Connect { host });
}

/// [`Event::Connect`]: the registry takes the connect call at the front
/// of the host's queue.
pub(crate) fn connect_rpc(w: &mut World, eng: &mut Eng, host: usize) {
    let call = w.hosts[host].userlib.connects.pop_front();
    let ConnectCall {
        tenant,
        remote,
        cfg,
        app,
        write_size,
    } = call.expect("an Event::Connect per queued call");
    let owner = tenant.unwrap_or_else(|| w.hosts[host].owner());
    let now = eng.now();
    let mut actions = w.reg_spare.take();
    let registry = &mut w.hosts[host].registry;
    match registry.connect_into(owner, remote, cfg, now, &mut actions) {
        Ok((hs, port)) => {
            let (key, active) = ((port, remote.0, remote.1), Some((owner, app, write_size)));
            open(w, eng, host, hs, key, active, actions);
        }
        // Every ephemeral port is bound: the connect is refused like a
        // handshake that failed.
        Err(_) => {
            w.reg_spare.give(actions);
            w.metrics.bump(Ctr::HandshakeFailures);
            reset_unconnected(app, now);
        }
    }
}

/// Runs `call` on host `h`'s registry server with an action buffer from
/// the spares, then routes what it appended.
pub(crate) fn with_registry(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    call: impl FnOnce(&mut RegistryServer, &mut Vec<RegistryAction>),
) {
    let mut actions = w.reg_spare.take();
    call(&mut w.hosts[h].registry, &mut actions);
    apply_registry_actions(w, eng, h, actions);
}

/// Binds the channel of handshake `hs`, which the registry has just opened
/// with `actions`, before any of them is routed: "before initiating
/// connection the server requests the network I/O module for a BQI that
/// the remote node can use". `active` is an active open's tenant,
/// application and write granularity; a passive open's channel is the
/// listening port's tenant's (the host's single-app owner's, once the
/// listener is gone). At the tenant's channel cap there is no channel, so
/// no handshake: the registry aborts it before its SYN or SYN-ACK leaves
/// (a passive open's peer gets a RST instead), and an active open is
/// refused like one whose ports ran out — contained to the tenant.
pub(super) fn open(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    hs: HsId,
    key: PairKey,
    active: Option<(OwnerTag, Box<dyn AppLogic>, usize)>,
    mut actions: Vec<RegistryAction>,
) {
    let tenant = active.as_ref().map(|a| a.0);
    let listener = || w.hosts[h].listeners.get(&key.0).map(|l| l.tenant);
    let owner = tenant.or_else(listener).unwrap_or(w.hosts[h].owner());
    let refused = match bind_channel(w, h, owner, key) {
        Some(chan) => {
            let (app, write_size) = active.map_or((None, 4096), |(_, app, n)| (Some(app), n));
            let lib = &mut w.hosts[h].userlib;
            lib.chan_owner.insert(chan.id, ChanOwner::Handshake(hs));
            let rec = Handshake {
                owner,
                app,
                write_size,
                chan,
                key,
                phase: Phase::Bound,
            };
            lib.handshakes.insert(hs, rec);
            None
        }
        None => {
            actions.clear();
            w.hosts[h].registry.abort_into(hs, &mut actions);
            active
        }
    };
    apply_registry_actions(w, eng, h, actions);
    if let Some((_, app, _)) = refused {
        reset_unconnected(app, eng.now());
    }
}

/// Routes one batch of registry actions; the emptied buffer returns to
/// the world's spares.
pub(super) fn apply_registry_actions(
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
                // Announce our BQI on AN1 handshake segments.
                let rec = hs.and_then(|hs| w.hosts[h].userlib.handshakes.get(&hs));
                let announce = rec.map_or(0, |r| r.chan.our_bqi);
                let c = &w.costs;
                let cost = c.registry_pkt_op + tcp_seg_cost(w, repr.header_len() + payload.len());
                let send = Event::SendSegment {
                    host: h,
                    cid: None,
                    repr,
                    payload: stage_segment(w, h, &repr, &payload),
                    remote,
                    announce,
                };
                host_step(w, eng, h, cost, send);
            }
            RegistryAction::SetTimer(hs, t, deadline) => {
                arm_timer(w, eng, h, TimerToken::Registry(hs, t), deadline);
            }
            RegistryAction::CancelTimer(hs, t) => {
                cancel_timer(w, eng, h, TimerToken::Registry(hs, t));
            }
            RegistryAction::Complete { hs, owner, tcb } => {
                // Every handshake the registry runs has its record (`open`).
                let lib = &mut w.hosts[h].userlib;
                let Some(rec) = lib.handshakes.get_mut(&hs) else {
                    unclaimed(w, eng, h, owner, tcb);
                    continue;
                };
                let parked = lib.batch_spare.pop().unwrap_or_default();
                rec.phase = Phase::Completing(tcb, parked);
                // Channel finalization + TCP state transfer + reply RPC.
                let c = &w.costs;
                let mut cost = c.channel_setup + c.state_transfer + c.registry_rpc;
                if matches!(w.hosts[h].nic, Nic::An1(_)) {
                    cost += c.bqi_setup; // programming the BQI machinery
                }
                host_step(w, eng, h, cost, Event::Finalize { host: h, hs });
            }
            RegistryAction::Failed { hs, .. } => {
                w.metrics.bump(Ctr::HandshakeFailures);
                if let Some(app) = drop_handshake(w, eng, h, hs).and_then(|rec| rec.app) {
                    reset_unconnected(app, eng.now());
                }
            }
        }
    }
    w.reg_spare.give(actions);
}

/// What a connection's channel is bound to: the demux spec that selects
/// its frames and the header template its transmissions are checked
/// against. Fully specified by construction, so the binding distills into
/// the kernel's exact-match flow table (see `connection_demux_spec`).
pub(super) fn channel_binding(
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

/// Creates `owner`'s channel for connection `key` — its demux binding,
/// its template and, on AN1, the BQI slot the peer is told to stamp — or
/// `None` when the tenant is at its channel cap.
fn bind_channel(w: &mut World, h: usize, owner: OwnerTag, key: PairKey) -> Option<ChanInfo> {
    let (local_port, remote, remote_port) = key;
    let lhl = w.hosts[h].link_header_len();
    let (spec, template) = channel_binding(&w.hosts[h], local_port, (remote, remote_port));
    let mtu = w.link.params().mtu;
    // The pinned region must cover a full advertised window of segments
    // (paper: "this memory is kept pinned for the duration of the
    // connection"). The window is byte-based (≤64 kB) but the ring is
    // slot-based, so size it for the worst case of small segments: a
    // 64 kB window of ~100-byte no-Nagle dribble segments.
    let host = &mut w.hosts[h];
    let (id, send_cap, recv_cap, ring) =
        host.netio
            .try_create_channel(owner, &spec, template, 768, mtu + lhl + 8)?;
    let our_bqi = match &mut host.nic {
        Nic::An1(nic) => nic.bqi_table.allocate(owner, ring).unwrap_or(0),
        Nic::Lance(_) => 0,
    };
    Some(ChanInfo {
        id,
        send_cap,
        recv_cap,
        our_bqi,
        peer_bqi: None,
    })
}

/// The one channel release: the channel is destroyed and its BQI slot
/// freed, and the kernel's counters for it are returned for the
/// connection's scope. `None` when the kernel backstop already swept the
/// channel (a wedged tenant's crash) — that sweep did the accounting, and
/// leaves the BQI slot to its own owner sweep.
pub(crate) fn release_channel(w: &mut World, h: usize, chan: &ChanInfo) -> Option<ChannelStats> {
    let host = &mut w.hosts[h];
    host.userlib.chan_owner.remove(&chan.id);
    let stats = host.netio.channel_stats(chan.id)?;
    host.netio.destroy_channel(chan.id, OwnerTag(0));
    if let Nic::An1(nic) = &mut host.nic {
        nic.bqi_table
            .free(chan.our_bqi, unp_buffers::BqiTable::KERNEL_OWNER);
    }
    Some(stats)
}

/// Takes handshake `hs` out of the world and releases the channel it
/// held; frames parked on it are dropped with it, and a completing one's
/// TCB goes to [`unclaimed`]. The returned record's `chan` names a channel
/// that no longer exists.
fn drop_handshake(w: &mut World, eng: &mut Eng, h: usize, hs: HsId) -> Option<Handshake> {
    let mut rec = w.hosts[h].userlib.handshakes.remove(&hs)?;
    release_channel(w, h, &rec.chan);
    if let Phase::Completing(tcb, _) = std::mem::replace(&mut rec.phase, Phase::Bound) {
        unclaimed(w, eng, h, rec.owner, tcb);
    }
    Some(rec)
}

/// [`Event::Finalize`]: the handshake completed — activate the channel,
/// fix the template's BQI, install the connection in the application's
/// library, and upcall it — or, with no library left to take it, hand it
/// to [`unclaimed`].
pub(crate) fn finalize_user_conn(w: &mut World, eng: &mut Eng, h: usize, hs: HsId) {
    // The `Complete` that scheduled this made the record `Completing`; it
    // is gone only if a crash took it, TCB and all, first.
    let rec = w.hosts[h].userlib.handshakes.remove(&hs);
    let Some(Handshake {
        owner,
        app,
        write_size,
        chan,
        phase: Phase::Completing(tcb, mut parked),
        ..
    }) = rec
    else {
        return;
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
    let Some(app) = app.or_else(|| listener.map(|l| (l.factory)())) else {
        // The listener was torn down while the handshake was completing,
        // and the channel is already activated: release it first.
        w.metrics.bump(Ctr::ListenerVanished);
        release_channel(w, h, &chan);
        return unclaimed(w, eng, h, owner, tcb);
    };
    let chan_id = chan.id;
    let cid = install_conn(w, h, tcb, app, Some(chan), write_size);
    // The channel's ring is the connection's from here on.
    w.hosts[h]
        .userlib
        .chan_owner
        .insert(chan_id, ChanOwner::Conn(cid));
    w.metrics.bump(Ctr::ConnectionsEstablished);
    // Frames the kernel parked while the channel was being finalized
    // (costs charged here, then the shared ingress); the emptied queue
    // goes back to the spares it came from.
    let lhl = w.hosts[h].link_header_len();
    for frame in parked.drain(..) {
        let cost = tcp_seg_cost(w, frame.len().saturating_sub(lhl));
        host_step(
            w,
            eng,
            h,
            cost,
            Event::Parked {
                host: h,
                cid,
                frame,
            },
        );
    }
    w.hosts[h].userlib.batch_spare.push(parked);
    // Deliver the Connected upcall.
    let cost = app_boundary_cost(w, h);
    app_upcall(w, eng, h, cost, cid, AppEvent::Connected);
}

/// [`Event::Parked`]: a frame parked across connection `cid`'s activation
/// is paid for — its segment goes to the connection.
pub(crate) fn parked_segment(w: &mut World, eng: &mut Eng, h: usize, cid: u32, frame: Frame) {
    if let Some((_, repr, data)) = parse_tcp_frame(w, h, &frame) {
        conn_segment(w, eng, h, cid, &repr, &data, frame.id());
    }
}

/// A handshake completed with no library left to take it: the accepting
/// process unlistened, or the tenant crashed, mid-completion. The peer
/// believes it is connected, so the established TCB goes to the registry,
/// which resets the peer on the vanished application's behalf (the §3.4
/// trusted-agent role).
fn unclaimed(w: &mut World, eng: &mut Eng, h: usize, owner: OwnerTag, tcb: Box<Tcb>) {
    let port = u32::from(tcb.local().1);
    reclaimed(w, h, owner, ReclaimKind::Connection, port);
    let now = eng.now();
    with_registry(w, eng, h, |registry, out| {
        registry.app_exit_into(owner, [tcb], true, now, out)
    });
}

/// [`app_exit`](crate::world::app_exit) under the user library: the
/// connection leaves the library and the registry inherits its TCP state.
pub(crate) fn inherit(w: &mut World, eng: &mut Eng, host: usize, cid: u32, abnormal: bool) {
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
    let endpoint = conn.into_endpoint();
    host_exec(w, eng, host, cost, move |w, eng| {
        let now = eng.now();
        w.metrics.bump(Ctr::ConnectionsInherited);
        with_registry(w, eng, host, |registry, out| {
            registry.app_exit_into(owner, [endpoint], abnormal, now, out)
        });
    });
}

/// One tenant's process on `host` dies abruptly; the host's other tenants
/// keep running. Everything the process owned is reclaimed, in three
/// stages (DESIGN.md §10):
///
/// 1. **Library state** — in-flight handshakes are dropped first (their
///    upcall targets, parked frames and channels: none can reach an
///    application now; a completing one's TCB goes to [`unclaimed`]), so
///    the registry's later `Failed` actions and a finalization already
///    scheduled find no record; then each established connection takes
///    the normal abnormal-exit inheritance path.
/// 2. **Registry (the trusted agent)** — inherited connections are reset
///    (RST to each peer, §3.4), pending handshakes are aborted, and the
///    process's listening-port reservations released.
/// 3. **Kernel backstop** — `NetIoModule::reclaim_owner` and the BQI
///    table sweep anything still tagged with the dead owner (normally
///    nothing; every sweep hit is journaled, so a nonzero backstop count
///    in a trace points at a reclamation-ordering bug).
///
/// If the fault plan marks the tenant
/// [`wedged`](crate::faults::FaultPlan::tenant_wedged), stage 1 never
/// runs and only the registry death notice plus the backstop clean up
/// after it. The zero-leak oracle ([`World::leaks`]) holds on both routes.
pub fn crash_tenant(w: &mut World, eng: &mut Eng, host: usize, tenant: OwnerTag) {
    let _attr = unp_trace::host_scope(host as u16);
    crash_begins(w, host, tenant);
    if !w.faults.tenant_wedged(host, tenant.0) {
        let in_flight = w.hosts[host].userlib.handshakes.iter();
        let mut hss: Vec<HsId> = in_flight
            .filter(|(_, r)| r.owner == tenant)
            .map(|(&hs, _)| hs)
            .collect();
        hss.sort_unstable();
        for hs in hss {
            if let Some(rec) = drop_handshake(w, eng, host, hs) {
                reclaimed(w, host, tenant, ReclaimKind::Channel, rec.chan.id.0);
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
            inherit(w, eng, host, cid, true);
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
    let swept = w.hosts[host].netio.reclaim_owner(tenant);
    let mut orphans: Vec<Endpoint> = Vec::new();
    for id in swept {
        match w.hosts[host].userlib.chan_owner.get(&id) {
            Some(&ChanOwner::Conn(cid)) => {
                if let Some(conn) = remove_conn(w, host, cid) {
                    w.metrics.bump(Ctr::ConnectionsClosed);
                    w.metrics.bump(Ctr::ConnectionsInherited);
                    orphans.push(conn.into_endpoint());
                }
            }
            Some(&ChanOwner::Handshake(hs)) => {
                drop_handshake(w, eng, host, hs);
            }
            None => {}
        }
        reclaimed(w, host, tenant, ReclaimKind::Channel, id.0);
    }
    if !orphans.is_empty() {
        let now = eng.now();
        with_registry(w, eng, host, |registry, out| {
            registry.app_exit_into(tenant, orphans, true, now, out)
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
