//! Flow control: the window the peer has offered us, the window edge we
//! have offered the peer, when an acknowledgment is owed, and how far the
//! zero-window probe has backed off.

use unp_wire::{SeqNum, TcpRepr};

use crate::config::{ACK_EVERY, RTO_MAX};
use crate::Nanos;

/// One connection's flow-control state.
#[derive(Debug)]
pub(crate) struct FlowControl {
    snd_wnd: u32,
    snd_wl1: SeqNum,
    snd_wl2: SeqNum,
    /// Edge (rcv_nxt + window) advertised in our last segment; for
    /// receiver-side silly-window avoidance on reads.
    adv_edge: SeqNum,
    /// Received data segments not yet acknowledged.
    ack_pending: u32,
    persist_backoff: u32,
}

impl FlowControl {
    /// Nothing offered either way yet.
    pub(crate) fn new() -> FlowControl {
        FlowControl {
            snd_wnd: 0,
            snd_wl1: SeqNum(0),
            snd_wl2: SeqNum(0),
            adv_edge: SeqNum(0),
            ack_pending: 0,
            persist_backoff: 0,
        }
    }

    /// Bytes past `snd_una` the peer will take.
    pub(crate) fn send_window(&self) -> u32 {
        self.snd_wnd
    }

    /// Takes the window a segment advertises, under RFC 793's (wl1, wl2)
    /// gate against old segments. True if that opened a closed window.
    pub(crate) fn update_send_window(&mut self, repr: &TcpRepr) -> bool {
        if repr.flags.syn
            || self.snd_wl1.lt(repr.seq)
            || (self.snd_wl1 == repr.seq && self.snd_wl2.le(repr.ack_num))
        {
            let was_zero = self.snd_wnd == 0;
            self.snd_wnd = u32::from(repr.window);
            self.snd_wl1 = repr.seq;
            self.snd_wl2 = repr.ack_num;
            return was_zero && self.snd_wnd > 0;
        }
        false
    }

    /// A segment left advertising the receive window up to `edge`.
    pub(crate) fn advertised(&mut self, edge: SeqNum) {
        self.adv_edge = edge;
    }

    /// Receiver-side silly-window avoidance: is the window a read has
    /// opened — now reaching `edge` — worth an update of its own?
    pub(crate) fn window_update_due(&self, edge: SeqNum, mss: usize, recv_buf: usize) -> bool {
        edge.dist(self.adv_edge) >= mss.min(recv_buf / 2) as i32
    }

    /// A received data segment wants acknowledging.
    pub(crate) fn ack_owed(&mut self) {
        self.ack_pending += 1;
    }

    /// A segment carrying the current acknowledgment left.
    pub(crate) fn ack_sent(&mut self) {
        self.ack_pending = 0;
    }

    pub(crate) fn ack_pending(&self) -> bool {
        self.ack_pending > 0
    }

    /// The ACK policy: with acknowledgments pending, send one now (true)
    /// or leave it to the delayed-ACK timer (false)?
    pub(crate) fn ack_now(&self, delayed_ack: bool) -> bool {
        !delayed_ack || self.ack_pending >= ACK_EVERY
    }

    /// The window closed or reopened: the next probe interval is one RTO.
    pub(crate) fn reset_persist(&mut self) {
        self.persist_backoff = 0;
    }

    /// Backs the zero-window probe off once more; the interval to the
    /// next probe from the current `rto`.
    pub(crate) fn next_persist_delay(&mut self, rto: Nanos) -> Nanos {
        self.persist_backoff = (self.persist_backoff + 1).min(10);
        (rto << self.persist_backoff).min(RTO_MAX)
    }
}
