//! A block in TIME_WAIT answers through the record
//! ([`crate::TimeWait`]), and a host can keep that record in its place.

use unp_trace::ConnScope;

use super::{State, Tcb, TcpSink};
use crate::time_wait::TimeWait;

impl Tcb {
    /// This connection's TIME_WAIT as a record a host can keep in place of
    /// the block — the pair, both sequence numbers, the window, the timers
    /// pending, and the counters and final RTT it retires with — while the
    /// block's storage goes to the next connection. `None` unless the
    /// block is in `TimeWait` with both rings drained (nothing to resend,
    /// nothing left to read, no lease outstanding: a record would drop
    /// bytes an upcall is yet to read), or when a counter is past what
    /// the record keeps; such a block sits out the wait itself, answering
    /// the same.
    pub fn time_wait(&self) -> Option<TimeWait> {
        if self.state() != State::TimeWait || !self.rod.drained() {
            return None;
        }
        self.waiting().counting(&self.stats, self.rod.srtt())
    }

    /// The TCP half of the connection's [`ConnScope`]: its counters and
    /// final smoothed RTT; the channel's counters are the host's to add.
    pub fn scope(&self) -> ConnScope {
        let s = self.stats;
        ConnScope {
            segs_out: s.segs_out,
            segs_in: s.segs_in,
            bytes_rexmit: s.bytes_rexmit,
            rto_fires: s.rto_fires,
            fast_rexmit: s.fast_rexmit,
            dup_acks_in: s.dup_acks_in,
            probes: s.probes,
            srtt: self.srtt(),
            ..ConnScope::default()
        }
    }

    /// Runs `answer` on this block's TIME_WAIT as a record, then keeps
    /// what the record changed: its timers, the segments it counted, and
    /// `Closed` if the wait ended.
    pub(super) fn answer_time_wait<R>(
        &mut self,
        out: &mut dyn TcpSink,
        answer: impl FnOnce(&mut TimeWait, &mut dyn TcpSink) -> R,
    ) -> R {
        let mut record = self.waiting();
        let ret = answer(&mut record, out);
        let (armed, closed, [segs_in, segs_out]) = record.left();
        self.stats.segs_in += segs_in;
        self.stats.segs_out += segs_out;
        self.conn.time_wait_left(armed, closed);
        ret
    }

    /// The record of this block's wait, nothing counted yet. The window is
    /// what the receive buffer offers now, as every segment's is (at most
    /// 65,535: `recv_window` caps it).
    fn waiting(&self) -> TimeWait {
        let window = self.rod.recv_window(self.cfg.recv_buf) as u16;
        let seqs = (self.rod.snd_nxt(), self.rod.rcv_nxt());
        let (local, remote) = (self.conn.local(), self.conn.remote());
        let armed = self.conn.armed();
        TimeWait::new(local.1, remote, seqs, window, self.cfg.time_wait, armed)
    }
}
