//! The user library's side of the connection life cycle: what the
//! registry server's actions do to the world. A connection is handed
//! registry → library → registry, with its kernel channel and BQI slot
//! following it (DESIGN.md §7, "who owns what"): [`connect`] or a SYN
//! begins a handshake, [`ensure_hs_setup`] creates its channel,
//! [`finalize_user_conn`] hands both to the library, [`release_channel`]
//! is the one way a channel ends, and [`inherit`] / [`crash_tenant`] give
//! the TCP state back to the registry.

use unp_buffers::OwnerTag;
use unp_kernel::{ChannelStats, HeaderTemplate};
use unp_registry::{HsId, RegistryAction, RegistryServer};
use unp_tcp::{Tcb, TcpConfig};
use unp_trace::{Ctr, ReclaimKind};
use unp_wire::{EtherType, IpProtocol, Ipv4Addr, TcpRepr};

use super::{ChanOwner, Handshake, HsSetup};
use crate::app::AppLogic;
use crate::world::app::{app_upcall, AppEvent};
use crate::world::costs::{app_boundary_cost, tcp_seg_cost};
use crate::world::event::{host_exec, host_step, Event};
use crate::world::lifecycle::{
    crash_begins, install_conn, pair_key, reclaimed, remove_conn, reset_unconnected,
};
use crate::world::tcp::{conn_segment, parse_tcp_frame};
use crate::world::timers::{arm_timer, cancel_timer, resched_wheel};
use crate::world::{ChanInfo, Eng, Host, Nic, PairKey, TimerToken, World};

/// An active open: app → registry RPC, then non-overlapped outbound
/// processing. `tenant` owns the registry binding and the channel; `None`
/// is the host's single-app owner.
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
    host_exec(w, eng, host, cost, move |w, eng| {
        let owner = tenant.unwrap_or_else(|| w.hosts[host].owner());
        let now = eng.now();
        let mut actions = w.reg_spare.take();
        let registry = &mut w.hosts[host].registry;
        match registry.connect_into(owner, remote, cfg, now, &mut actions) {
            Ok(hs) => {
                let rec = Handshake::new(owner, Some(app), write_size);
                w.hosts[host].userlib.handshakes.insert(hs.0, rec);
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
                let rec = w.hosts[h].userlib.handshakes.get(&hs.0);
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
                if let Some(rec) = w.hosts[h].userlib.handshakes.get_mut(&hs.0) {
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

/// Creates the channel, template, and (on AN1) BQI for a handshake the
/// first time the registry sends a segment for it. "Before initiating
/// connection the server requests the network I/O module for a BQI that
/// the remote node can use."
fn ensure_hs_setup(w: &mut World, h: usize, hs: HsId, repr: &TcpRepr, remote: Ipv4Addr) {
    let rec = w.hosts[h].userlib.handshakes.get(&hs.0);
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
    let host = &mut w.hosts[h];
    let Some((chan_id, send_cap, recv_cap, ring)) =
        host.netio
            .try_create_channel(owner, &spec, template, 768, mtu + lhl + 8)
    else {
        // The tenant is at its channel cap: no channel. The handshake can
        // never finalize at the library level; the peer's retransmits run
        // out and the connection fails — contained to the over-cap tenant.
        return;
    };
    let our_bqi = match &mut host.nic {
        Nic::An1(nic) => nic.bqi_table.allocate(owner, ring).unwrap_or(0),
        Nic::Lance(_) => 0,
    };
    host.userlib
        .chan_owner
        .insert(chan_id, ChanOwner::Handshake(hs.0));
    let passive = || Handshake::new(owner, None, 4096);
    let rec = host.userlib.handshakes.entry(hs.0).or_insert_with(passive);
    rec.setup = Some(HsSetup {
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
/// the registry (the §9 hand-off), the channel is destroyed and its BQI
/// slot freed. `None` when the kernel backstop already swept the channel
/// (a wedged tenant's crash) — that sweep did the accounting, and leaves
/// the BQI slot to its own owner sweep.
pub(crate) fn release_channel(
    w: &mut World,
    h: usize,
    chan: &ChanInfo,
    key: PairKey,
) -> Option<ChannelStats> {
    let host = &mut w.hosts[h];
    host.userlib.chan_owner.remove(&chan.id);
    let stats = host.netio.channel_stats(chan.id)?;
    host.netio.destroy_channel(chan.id, OwnerTag(0));
    if let Nic::An1(nic) = &mut host.nic {
        nic.bqi_table
            .free(chan.our_bqi, unp_buffers::BqiTable::KERNEL_OWNER);
    }
    host.registry
        .record_channel_stats(key.0, (key.1, key.2), stats);
    Some(stats)
}

/// Takes handshake `hs` out of the world and releases the channel it
/// held; frames parked on it are dropped with it. The returned record's
/// `setup` names a channel that no longer exists.
fn drop_handshake(w: &mut World, h: usize, hs: u64) -> Option<Handshake> {
    let rec = w.hosts[h].userlib.handshakes.remove(&hs)?;
    if let Some(setup) = &rec.setup {
        release_channel(w, h, &setup.chan, setup.key);
    }
    Some(rec)
}

/// The handshake completed: activate the channel, fix the template's BQI,
/// install the connection in the application's library, and upcall it.
fn finalize_user_conn(w: &mut World, eng: &mut Eng, h: usize, hs: HsId, tcb: Box<Tcb>) {
    let Some(rec) = w.hosts[h].userlib.handshakes.remove(&hs.0) else {
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
    let chan_id = chan.id;
    let cid = install_conn(w, h, tcb, app, Some(chan), rec.write_size);
    // The channel's ring is the connection's from here on.
    w.hosts[h]
        .userlib
        .chan_owner
        .insert(chan_id, ChanOwner::Conn(cid));
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
        kind: ReclaimKind::Connection,
        owner: owner.0 as u32,
        id: port as u32,
    });
    release_channel(w, h, &chan, pair_key(&tcb));
    let now = eng.now();
    with_registry(w, eng, h, |registry, out| {
        registry.app_exit_into(owner, vec![*tcb], true, now, out)
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
    let tcb = conn.tcb;
    host_exec(w, eng, host, cost, move |w, eng| {
        let now = eng.now();
        w.metrics.bump(Ctr::ConnectionsInherited);
        with_registry(w, eng, host, |registry, out| {
            registry.app_exit_into(owner, vec![*tcb], abnormal, now, out)
        });
    });
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
        let mut hss: Vec<u64> = in_flight
            .filter(|(_, r)| r.owner == tenant)
            .map(|(&hs, _)| hs)
            .collect();
        hss.sort_unstable();
        for hs in hss {
            let Some(rec) = drop_handshake(w, host, hs) else {
                continue;
            };
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
    let mut orphan_tcbs: Vec<Tcb> = Vec::new();
    for id in swept {
        match w.hosts[host].userlib.chan_owner.get(&id) {
            Some(&ChanOwner::Conn(cid)) => {
                if let Some(conn) = remove_conn(w, host, cid) {
                    w.metrics.bump(Ctr::ConnectionsClosed);
                    w.metrics.bump(Ctr::ConnectionsInherited);
                    orphan_tcbs.push(*conn.tcb);
                }
            }
            Some(&ChanOwner::Handshake(hs)) => {
                drop_handshake(w, host, hs);
            }
            None => {}
        }
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
