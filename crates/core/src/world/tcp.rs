//! TCP between the wire and a connection's TCB, the same for every
//! organization: the one parse of a received segment, the one way a
//! segment reaches a TCB, the sink a TCB answers into and the routing of
//! what it answered, and segment output down to the link.

use unp_buffers::{Frame, FramePool, Staged};
use unp_kernel::Capability;
use unp_registry::Endpoint;
use unp_tcp::{TcpAction, TcpSink, TcpTimer};
use unp_trace::{Ctr, Hist};
use unp_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, TcpPacket, TcpRepr, IPV4_HEADER_LEN};

use super::app::{app_upcall, flush_conn_tx, AppEvent};
use super::conn::Open;
use super::costs::{app_boundary_cost, rx_copy_cost, tcp_seg_cost, tx_device_cost};
use super::event::{host_step, Event};
use super::lifecycle::remove_conn;
use super::link::{encap_link, resolve_mac};
use super::timers::{arm_timer, cancel_timer};
use super::{Conn, Eng, TimerToken, World};
use crate::app::AppView;

/// The one TCP parse, serving every organization's ingress. `payload` is
/// exactly the IP payload — bounded by the IP total length, so link
/// padding never becomes TCP data — and the returned data frame is a
/// window over it. A segment that does not parse is counted; one whose
/// checksum fails (damage in flight) is counted and journaled as a
/// corrupt-frame discard. Neither is an error path: the sender's
/// retransmission recovers the data.
pub(super) fn parse_tcp(
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
pub(super) fn parse_tcp_frame(
    w: &mut World,
    h: usize,
    frame: &Frame,
) -> Option<(Ipv4Addr, TcpRepr, Frame)> {
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
pub(super) fn conn_segment(
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
        conn.on_segment_into(repr, data, now, out)
    });
}

/// What a TCB answered, in order, as the world holds it: each segment
/// with its payload already in the pooled frame it will leave in.
#[derive(Debug)]
pub(super) enum TcpOut {
    /// A segment the TCB emitted, its payload staged.
    Segment(TcpRepr, Staged),
    /// Any other action.
    Act(TcpAction),
}

/// The world's [`TcpSink`]: it copies a segment's payload out of the
/// TCB's send buffer once, as the TCB emits it, straight into a pooled
/// frame with room for the link, IP and TCP headers
/// ([`FramePool::stage`]), and appends everything to `out` in order.
pub(super) struct Staging<'a> {
    pool: &'a FramePool,
    /// The link and IP headers' room on this host.
    headroom: usize,
    out: &'a mut Vec<TcpOut>,
}

impl<'a> Staging<'a> {
    /// The sink for the TCBs of a host whose link header is `lhl` bytes,
    /// over `out`, a buffer from the spares.
    pub(super) fn new(pool: &'a FramePool, lhl: usize, out: &'a mut Vec<TcpOut>) -> Staging<'a> {
        Staging {
            pool,
            headroom: lhl + IPV4_HEADER_LEN,
            out,
        }
    }
}

impl TcpSink for Staging<'_> {
    fn push(&mut self, action: TcpAction) {
        self.out.push(TcpOut::Act(action));
    }

    fn segment(&mut self, repr: TcpRepr, payload: [&[u8]; 2]) {
        let staged = self.pool.stage(self.headroom + repr.header_len(), payload);
        self.out.push(TcpOut::Segment(repr, staged));
    }
}

/// `payload` staged for a segment of `repr` leaving host `h`: what
/// [`Staging`] does for a TCB's segments, for the registry's, the
/// kernel's, a fabricated one and one a sink was handed already built.
pub(crate) fn stage_segment(w: &World, h: usize, repr: &TcpRepr, payload: &[u8]) -> Staged {
    let headroom = w.hosts[h].link_header_len() + IPV4_HEADER_LEN + repr.header_len();
    w.pool.stage(headroom, [payload, &[]])
}

/// Runs `call` on connection `cid` with the staging sink over an action
/// buffer from the spares, then routes what the TCB answered. `None` when
/// the connection is gone (nothing runs).
pub(super) fn with_conn<R>(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: u32,
    frame: Option<u64>,
    call: impl FnOnce(&mut Conn, &mut dyn TcpSink) -> R,
) -> Option<R> {
    let lhl = w.hosts[h].link_header_len();
    let conn = w.hosts[h].conns.get_mut(&cid)?;
    let mut actions = w.tcp_spare.take();
    let ret = call(conn, &mut Staging::new(&w.pool, lhl, &mut actions));
    apply_tcp_actions(w, eng, h, cid, frame, actions);
    Some(ret)
}

/// Routes one batch of TCP actions; the emptied buffer returns to the
/// world's spares. `frame` is the id of the received frame that produced
/// them (None for timer fires and app-initiated sends) — it stamps the
/// `app_deliver` journal record so the profiler can join the final stage
/// of the frame's path.
pub(super) fn apply_tcp_actions(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: u32,
    frame: Option<u64>,
    mut actions: Vec<TcpOut>,
) {
    // Harvest the connection's counter increments into the live registry
    // so windowed samplers see retransmit/RTT activity as it happens, not
    // at teardown. The cumulative per-connection stats are untouched.
    if let Some(open) = w.hosts[h].conns.get_mut(&cid).and_then(Conn::open) {
        let d = open.tcb.take_stats_delta();
        w.metrics.add(Ctr::TcpRexmitBytes, d.bytes_rexmit);
        w.metrics.add(Ctr::TcpRexmitSegs, d.rexmits);
        w.metrics.add(Ctr::TcpRttSamples, d.rtt_samples);
    }
    let mut time_wait = false;
    for out in actions.drain(..) {
        let Some(conn) = w.hosts[h].conns.get(&cid) else {
            break; // connection reaped mid-sequence
        };
        let remote = conn.remote().0;
        let action = match out {
            TcpOut::Segment(repr, payload) => {
                send_tcp_segment(w, eng, h, Some(cid), repr, payload, remote);
                continue;
            }
            TcpOut::Act(action) => action,
        };
        match action {
            TcpAction::Send(repr, payload) => {
                let payload = stage_segment(w, h, &repr, &payload);
                send_tcp_segment(w, eng, h, Some(cid), repr, payload, remote);
            }
            TcpAction::SetTimer(t, deadline) => {
                time_wait |= t == TcpTimer::TimeWait;
                arm_timer(w, eng, h, TimerToken::Conn(cid, t), deadline);
            }
            TcpAction::CancelTimer(t) => cancel_timer(w, eng, h, TimerToken::Conn(cid, t)),
            TcpAction::Connected => {
                let cost = app_boundary_cost(w, h);
                app_upcall(w, eng, h, cost, cid, AppEvent::Connected);
            }
            TcpAction::DataAvailable => {
                // Drain the receive buffer into a spare and upcall the
                // application; `app_event` gives the buffer back.
                let now = eng.now();
                let mut data = w.byte_spare.take();
                let gone = with_conn(w, eng, h, cid, frame, |conn, out| {
                    let read =
                        |open: &mut Open| open.tcb.recv_into(usize::MAX, now, &mut data, out);
                    conn.bytes_to_app += conn.open().map_or(0, read) as u64;
                })
                .is_none();
                if data.is_empty() {
                    w.byte_spare.give(data);
                } else {
                    w.metrics.sample(Hist::AppDeliverBytes, data.len() as u64);
                    unp_trace::emit_at(h as u16, frame, || unp_trace::Event::AppDeliver {
                        conn: cid as u64,
                        bytes: data.len() as u32,
                    });
                    let cost = app_boundary_cost(w, h) + rx_copy_cost(w, h, data.len());
                    app_upcall(w, eng, h, cost, cid, AppEvent::Data(data));
                }
                if gone {
                    break;
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
                    let view = AppView {
                        now: eng.now(),
                        send_space: 0,
                        pending_tx: 0,
                        remote: Some(conn.remote()),
                    };
                    conn.app.on_reset(&view);
                }
            }
            TcpAction::ConnClosed => {
                let Some(conn) = remove_conn(w, h, cid) else {
                    break;
                };
                w.metrics.bump(Ctr::ConnectionsClosed);
                // The pair sat out TIME_WAIT in the library; the registry,
                // which named the endpoint, now learns it is done, and
                // takes back the block it built if it does not have it
                // back already.
                if conn.chan.is_some() {
                    let registry = &mut w.hosts[h].registry;
                    registry.connection_closed(conn.local_port());
                    if let Endpoint::Block(tcb) = conn.into_endpoint() {
                        registry.recycle(tcb);
                    }
                }
            }
        }
    }
    // A library connection sits out TIME_WAIT as a record, its
    // application having drained the block by now: the block goes back to
    // the registry for the host's next connection.
    if time_wait {
        let host = &mut w.hosts[h];
        let conn = host.conns.get_mut(&cid).filter(|c| c.chan.is_some());
        if let Some(block) = conn.and_then(Conn::sit_out) {
            host.registry.recycle(block);
        }
    }
    w.tcp_spare.give(actions);
}

/// The journaled control-flag summary of a segment (what the online
/// conformance checkers key their ack/dup-ACK/incarnation logic on).
pub(super) fn seg_flags(repr: &TcpRepr) -> unp_trace::SegFlags {
    unp_trace::SegFlags {
        syn: repr.flags.syn,
        fin: repr.flags.fin,
        rst: repr.flags.rst,
        ack: repr.flags.ack,
    }
}

/// Builds one TCP segment's IP packet(s) and hands them to the link
/// layer. Unfragmented segments — the entire measured workload — take
/// the zero-copy path: the payload, staged once into a pooled frame when
/// the segment was produced ([`Staging`], [`stage_segment`]), is sealed
/// into a frame here — its id minted in transmission order — and the
/// TCP, IP, and (after ARP) link headers are prepended into its headroom,
/// so no intermediate segment/packet vectors exist. Oversize segments
/// fall back to [`IpEndpoint::send`] fragmentation, reading their bytes
/// from the staged window.
///
/// `fabricated` marks a byzantine tenant's raw transmit: it parses as TCP
/// on the wire but was built by no TCB, so it must not be journaled as a
/// `tcp_segment` (the record means "a TCP endpoint produced this") — only
/// its NIC/template-check chain is real.
/// The conformance monitor depends on this honesty: per-connection
/// invariants like ACK monotonicity hold for the library's segments, not
/// for arbitrary bytes a template happens to pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn send_tcp_frame(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    repr: &TcpRepr,
    payload: Staged,
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
    let plen = payload.len();
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
                payload: plen as u32,
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
                // The tenant's account counts it (`tx_rejections`).
                Err(unp_kernel::TxError::QuotaExceeded) => return,
                Err(_) => {
                    w.metrics.bump(Ctr::TxTemplateRejections);
                    return;
                }
            }
        }
        let cost = tx_device_cost(w, h, frame.len());
        host_step(w, eng, h, cost, Event::Transmit { host: h, frame });
    };
    if IPV4_HEADER_LEN + hlen + plen <= mtu {
        let mut f = payload.seal();
        f.prepend(hlen);
        // Neither emit can fail: the payload was staged with headroom for
        // the link, IP and TCP headers, and `prepend` has opened exactly
        // `hlen`, then `IPV4_HEADER_LEN`, bytes of it.
        repr.emit_into(f.as_mut_slice(), local_ip, remote)
            .expect("segment sized for its headroom");
        let ident = w.hosts[h].ip_ep.alloc_ident();
        let ip_repr = Ipv4Repr {
            ident,
            ..Ipv4Repr::simple(local_ip, remote, IpProtocol::Tcp, hlen + plen)
        };
        ip_repr
            .emit(f.prepend(IPV4_HEADER_LEN))
            .expect("headroom covers the IP header");
        emit(w, eng, f);
    } else {
        let seg = repr.build_segment(local_ip, remote, payload.as_slice());
        drop(payload); // back to the pool before the fragments take theirs
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
/// [`Event::SendSegment`], whose `payload` is already staged. `cid` is
/// `None` for connectionless RSTs from the kernel.
pub(super) fn send_tcp_segment(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: Option<u32>,
    repr: TcpRepr,
    payload: Staged,
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
