//! Application plumbing: upcalls into a connection's application and the
//! operations it answers with — writes (through `pending_tx` into the
//! TCB), close, abort.

use unp_sim::Nanos;
use unp_tcp::{Tcb, TcpSink};
use unp_wire::Ipv4Addr;

use super::costs::{app_boundary_cost, tx_copy_cost};
use super::event::{host_step, Event};
use super::tcp::{apply_tcp_actions, with_conn, Staging};
use super::{Eng, World};
use crate::app::{AppOp, AppView};

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
pub(super) fn app_upcall(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cost: Nanos,
    cid: u32,
    upcall: AppEvent,
) {
    let host = h;
    host_step(w, eng, h, cost, Event::App { host, cid, upcall });
}

pub(super) fn app_event(w: &mut World, eng: &mut Eng, h: usize, cid: u32, ev: AppEvent) {
    let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
        return;
    };
    let view = AppView {
        now: eng.now(),
        send_space: conn.tcb.send_space(),
        pending_tx: conn.pending_tx.len(),
        local: Some(conn.tcb.local()),
        remote: Some(conn.tcb.remote()),
    };
    let ops = match ev {
        AppEvent::Connected => conn.app.on_connected(&view),
        AppEvent::Data(d) => {
            let ops = conn.app.on_data(&d, &view);
            // Back to `byte_spare`, under its keep rule.
            if d.capacity() <= w.pool.buf_size() {
                w.byte_spare.give(d);
            }
            ops
        }
        AppEvent::SendSpace => conn.app.on_send_space(&view),
        AppEvent::PeerClosed => conn.app.on_peer_closed(&view),
    };
    apply_app_ops(w, eng, h, cid, ops);
}

fn apply_app_ops(w: &mut World, eng: &mut Eng, h: usize, cid: u32, ops: Vec<AppOp>) {
    for op in ops {
        if !w.hosts[h].conns.contains_key(&cid) {
            return;
        }
        match op {
            AppOp::Send(data) => {
                // Charge the write boundary + any copy the org performs.
                let cost = app_boundary_cost(w, h) + tx_copy_cost(w, h, data.len());
                w.hosts[h].cpu.charge(eng.now(), cost);
                let (mut actions, lhl) = (w.tcp_spare.take(), w.hosts[h].link_header_len());
                let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
                    return w.tcp_spare.give(actions);
                };
                // `pending_tx` holds only what the TCB refused: a write
                // that finds it empty goes to the TCB straight from the
                // app's buffer, and only the tail that did not fit queues.
                let offered = if conn.pending_tx.is_empty() {
                    let out = &mut Staging::new(&w.pool, lhl, &mut actions);
                    offer_tx(&mut conn.tcb, &data, eng.now(), out)
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
            AppOp::Close => {
                if let Some(conn) = w.hosts[h].conns.get_mut(&cid) {
                    conn.close_pending = true;
                }
                flush_conn_tx(w, eng, h, cid);
            }
            AppOp::Abort => {
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
fn offer_tx(tcb: &mut Tcb, bytes: &[u8], now: Nanos, out: &mut dyn TcpSink) -> Option<usize> {
    let n = bytes.len().min(tcb.send_space());
    if n == 0 {
        return None;
    }
    tcb.send_into(&bytes[..n], now, out).ok()
}

/// Moves pending app bytes into the TCB and issues a deferred close.
pub(super) fn flush_conn_tx(w: &mut World, eng: &mut Eng, h: usize, cid: u32) {
    let (now, lhl) = (eng.now(), w.hosts[h].link_header_len());
    loop {
        let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
            return;
        };
        let mut actions = w.tcp_spare.take();
        let queued = conn.pending_tx.make_contiguous();
        let out = &mut Staging::new(&w.pool, lhl, &mut actions);
        let Some(n) = offer_tx(&mut conn.tcb, queued, now, out) else {
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
