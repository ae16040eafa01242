//! Application plumbing: upcalls into a connection's application and the
//! operations it answers with — writes (through `pending_tx` into the
//! TCB), close, abort.

use unp_sim::Nanos;
use unp_tcp::{Tcb, TcpSink};

use super::costs::{app_boundary_cost, tx_copy_cost};
use super::event::{host_step, Event};
use super::tcp::{apply_tcp_actions, with_conn, Staging};
use super::{Conn, Eng, World};
use crate::app::{AppOp, AppView};

/// An upcall into a connection's application ([`Event::App`]).
#[derive(Debug)]
pub enum AppEvent {
    /// The connection is established.
    Connected,
    /// In-order data: this many bytes the TCB leased the application,
    /// read in place from its receive ring.
    Data(usize),
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
        send_space: conn.send_space(),
        pending_tx: conn.pending_tx(),
        remote: Some(conn.remote()),
    };
    let ops = match ev {
        AppEvent::Connected => conn.app.on_connected(&view),
        AppEvent::Data(n) => conn.data_upcall(n, &view),
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
                // A connection sitting out TIME_WAIT takes no more data.
                let Some(open) = w.hosts[h].conns.get_mut(&cid).and_then(Conn::open) else {
                    w.tcp_spare.give(actions);
                    continue;
                };
                // `pending_tx` holds only what the TCB refused: a write
                // that finds it empty goes to the TCB straight from the
                // app's buffer, and only a write with a tail that did not
                // fit waits, in that buffer.
                let offered = if open.pending_tx.is_empty() {
                    let out = &mut Staging::new(&w.pool, lhl, &mut actions);
                    offer_tx(&mut open.tcb, [&data[..]], eng.now(), out)
                } else {
                    None
                };
                open.pending_tx.push(data, offered.unwrap_or(0));
                match offered {
                    Some(_) => apply_tcp_actions(w, eng, h, cid, None, actions),
                    None => w.tcp_spare.give(actions),
                }
                flush_conn_tx(w, eng, h, cid);
            }
            AppOp::Close => {
                if let Some(open) = w.hosts[h].conns.get_mut(&cid).and_then(Conn::open) {
                    open.close_pending = true;
                }
                flush_conn_tx(w, eng, h, cid);
            }
            AppOp::Abort => {
                with_conn(w, eng, h, cid, None, |conn, out| conn.abort_into(out));
            }
        }
    }
}

/// Offers `bytes`, the parts in order, to the TCB in a single `send` of
/// as many as fit. One call, because segment boundaries (Nagle, sender
/// silly-window avoidance) depend on how many bytes one `send` sees.
/// `None` when there is no byte to offer, nothing fits or the connection
/// no longer takes data; otherwise the count taken, with what the write
/// triggered appended to `out`.
fn offer_tx<'a>(
    tcb: &mut Tcb,
    bytes: impl IntoIterator<Item = &'a [u8], IntoIter: Clone>,
    now: Nanos,
    out: &mut dyn TcpSink,
) -> Option<usize> {
    let bytes = bytes.into_iter();
    if tcb.send_space() == 0 || bytes.clone().all(<[u8]>::is_empty) {
        return None;
    }
    tcb.send_into(bytes, now, out).ok()
}

/// Moves pending app bytes into the TCB and issues a deferred close.
pub(super) fn flush_conn_tx(w: &mut World, eng: &mut Eng, h: usize, cid: u32) {
    let (now, lhl) = (eng.now(), w.hosts[h].link_header_len());
    loop {
        let Some(open) = w.hosts[h].conns.get_mut(&cid).and_then(Conn::open) else {
            return;
        };
        let mut actions = w.tcp_spare.take();
        let out = &mut Staging::new(&w.pool, lhl, &mut actions);
        let Some(n) = offer_tx(&mut open.tcb, open.pending_tx.slices(), now, out) else {
            w.tcp_spare.give(actions);
            break;
        };
        open.pending_tx.consume(n);
        apply_tcp_actions(w, eng, h, cid, None, actions);
    }
    // Deferred close once everything is queued.
    let close_now = {
        let Some(open) = w.hosts[h].conns.get_mut(&cid).and_then(Conn::open) else {
            return;
        };
        open.close_pending && open.pending_tx.is_empty() && open.tcb.state().is_synchronized()
    };
    if close_now {
        with_conn(w, eng, h, cid, None, |conn, out| {
            if let Some(open) = conn.open() {
                open.close_pending = false;
                // A refused close (already closing) adds nothing.
                let _ = open.tcb.close_into(now, out);
            }
        });
    }
}

/// Re-delivers a send-space upcall to a connection's application, so an
/// application installed or changed outside an upcall (an inetd-style
/// daemon taking over a live connection) gets a turn to answer with
/// operations.
pub fn poke_conn(w: &mut World, eng: &mut Eng, host: usize, cid: u32) {
    if !w.hosts[host].conns.contains_key(&cid) {
        return;
    }
    let cost = app_boundary_cost(w, host);
    app_upcall(w, eng, host, cost, cid, AppEvent::SendSpace);
}
