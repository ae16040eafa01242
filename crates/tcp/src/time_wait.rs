//! TIME_WAIT as a record: what a connection sitting out 2·MSL keeps — the
//! pair, both sequence numbers, the window it advertises, its timers and
//! the counters it retires with — and every answer it gives.
//!
//! TIME_WAIT is written once, here. A block in `TimeWait` answers through
//! this code: for each segment, timer or call, [`crate::Tcb`] builds the
//! record from its components and keeps what the record changed. A host
//! that keeps the record in place of the block ([`crate::Tcb::time_wait`])
//! frees the block's storage for its next connection while the pair is
//! still quarantined.
//!
//! What it does with a segment is RFC 793's TIME-WAIT, and no more. One
//! outside the window is acknowledged again, and only the peer's FIN again
//! — at `rcv_nxt − 1`, the segment ending where ours picks up — restarts
//! the 2·MSL wait. An RST or a SYN in
//! the window ends the connection, and an ACK of something never sent is
//! answered with ours. Text or a FIN in the window could only come from a
//! peer that lied about where its FIN was, and is ignored.

use unp_trace::ConnScope;
use unp_wire::{Ipv4Addr, SeqNum, TcpFlags, TcpRepr};

use crate::conn::Armed;
use crate::delivery::acceptable;
use crate::tcb::{State, TcpAction, TcpSink, TcpStats, TcpTimer};
use crate::{Nanos, Tcb, TcpError};

/// A connection sitting out TIME_WAIT without its block: a `Copy` value,
/// on no heap. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWait {
    /// 2·MSL: how long the wait lasts from its last (re)start.
    time_wait: Nanos,
    /// The connection's final smoothed RTT, if it took a sample.
    srtt: Option<Nanos>,
    remote: (Ipv4Addr, u16),
    local_port: u16,
    /// Everything before it, our FIN included, is acknowledged.
    snd_nxt: SeqNum,
    /// Just past the peer's FIN.
    rcv_nxt: SeqNum,
    /// The window every ACK advertises: the whole receive buffer, drained.
    window: u16,
    counts: Counts,
    armed: Armed,
    /// The wait ended: [`TcpAction::ConnClosed`] went out.
    closed: bool,
}

/// The connection's counters as [`ConnScope`] retires them, in 32 bits
/// each: a block counted past that sits out TIME_WAIT as a block
/// ([`crate::Tcb::time_wait`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    segs_out: u32,
    segs_in: u32,
    bytes_rexmit: u32,
    rto_fires: u32,
    fast_rexmit: u32,
    dup_acks_in: u32,
    probes: u32,
}

impl Counts {
    /// `stats`, if every counter the scope retires fits.
    fn of(stats: &TcpStats) -> Option<Counts> {
        let fit = |n: u64| u32::try_from(n).ok();
        Some(Counts {
            segs_out: fit(stats.segs_out)?,
            segs_in: fit(stats.segs_in)?,
            bytes_rexmit: fit(stats.bytes_rexmit)?,
            rto_fires: fit(stats.rto_fires)?,
            fast_rexmit: fit(stats.fast_rexmit)?,
            dup_acks_in: fit(stats.dup_acks_in)?,
            probes: fit(stats.probes)?,
        })
    }
}

impl TimeWait {
    /// The wait of the connection `local_port` ↔ `remote`, with `armed`
    /// pending and nothing counted yet: what a block's own TIME_WAIT
    /// answers through.
    pub(crate) fn new(
        local_port: u16,
        remote: (Ipv4Addr, u16),
        (snd_nxt, rcv_nxt): (SeqNum, SeqNum),
        window: u16,
        time_wait: Nanos,
        armed: Armed,
    ) -> TimeWait {
        TimeWait {
            time_wait,
            srtt: None,
            remote,
            local_port,
            snd_nxt,
            rcv_nxt,
            window,
            counts: Counts::default(),
            armed,
            closed: false,
        }
    }

    /// The same wait carrying the connection's counters and final RTT,
    /// for a host that retires them with the record; `None` when a
    /// counter does not fit.
    pub(crate) fn counting(self, stats: &TcpStats, srtt: Option<Nanos>) -> Option<TimeWait> {
        let counts = Counts::of(stats)?;
        Some(TimeWait {
            counts,
            srtt,
            ..self
        })
    }

    /// What an answer left: the timers pending, whether the wait ended,
    /// and the segments that came in and went out.
    pub(crate) fn left(&self) -> (Armed, bool, [u64; 2]) {
        let segs = [self.counts.segs_in, self.counts.segs_out].map(u64::from);
        (self.armed, self.closed, segs)
    }

    /// `TimeWait`, then `Closed` once the wait has ended.
    pub fn state(&self) -> State {
        if self.closed {
            State::Closed
        } else {
            State::TimeWait
        }
    }

    /// The local port.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// Remote (address, port).
    pub fn remote(&self) -> (Ipv4Addr, u16) {
        self.remote
    }

    /// The send sequence space as [`Tcb::send_sequence`] gives it: all of
    /// it acknowledged.
    pub fn send_sequence(&self) -> (SeqNum, SeqNum) {
        (self.snd_nxt, self.snd_nxt)
    }

    /// The connection's counters and final RTT as [`Tcb::scope`] gives
    /// them.
    pub fn scope(&self) -> ConnScope {
        let c = self.counts;
        ConnScope {
            segs_out: c.segs_out.into(),
            segs_in: c.segs_in.into(),
            bytes_rexmit: c.bytes_rexmit.into(),
            rto_fires: c.rto_fires.into(),
            fast_rexmit: c.fast_rexmit.into(),
            dup_acks_in: c.dup_acks_in.into(),
            probes: c.probes.into(),
            srtt: self.srtt,
            ..ConnScope::default()
        }
    }

    /// A segment from the peer, checksum-verified and demultiplexed (see
    /// the module docs for what it answers).
    pub fn on_segment_into(
        &mut self,
        repr: &TcpRepr,
        payload: &[u8],
        now: Nanos,
        out: &mut dyn TcpSink,
    ) {
        self.counts.segs_in = self.counts.segs_in.saturating_add(1);
        if self.closed {
            return;
        }
        let len = payload.len() as u32;
        let seg_len = len + u32::from(repr.flags.syn) + u32::from(repr.flags.fin);
        if !acceptable(repr.seq, seg_len, self.rcv_nxt, u32::from(self.window)) {
            if !repr.flags.rst {
                // The peer's FIN again: our ACK of it was lost.
                if repr.flags.fin && repr.seq + seg_len == self.rcv_nxt {
                    self.armed
                        .arm(TcpTimer::TimeWait, now + self.time_wait, out);
                }
                self.ack(out);
            }
            return;
        }
        if repr.flags.rst {
            out.push(TcpAction::Reset);
            return self.close(out);
        }
        if repr.flags.syn && repr.seq.ge(self.rcv_nxt) {
            // `rst_for` reads only the local port.
            let local = (Ipv4Addr::UNSPECIFIED, self.local_port);
            self.counts.segs_out = self.counts.segs_out.saturating_add(1);
            out.segment(Tcb::rst_for(local, repr, payload.len()), [&[], &[]]);
            out.push(TcpAction::Reset);
            return self.close(out);
        }
        if repr.flags.ack && repr.ack_num.gt(self.snd_nxt) {
            self.ack(out);
        }
    }

    /// A timer the host armed for the connection fired: the 2·MSL one
    /// ends the wait, and any other has nothing left to do.
    pub fn on_timer_into(&mut self, t: TcpTimer, _now: Nanos, out: &mut dyn TcpSink) {
        self.armed.fired(t);
        if t == TcpTimer::TimeWait && !self.closed {
            self.close(out);
        }
    }

    /// [`Tcb::rearm_into`] for the record: the 2·MSL wait restarts from
    /// `now`, and any other timer pending fires at once, with nothing
    /// left to do.
    pub fn rearm_into(&mut self, now: Nanos, out: &mut dyn TcpSink) {
        let wait = self.time_wait;
        let deadline = |t| now + if t == TcpTimer::TimeWait { wait } else { 0 };
        self.armed.rearm(deadline, out);
    }

    /// The connection takes no more data.
    pub fn send_into<'a>(
        &mut self,
        _data: impl IntoIterator<Item = &'a [u8]>,
        _now: Nanos,
        _out: &mut dyn TcpSink,
    ) -> Result<usize, TcpError> {
        Err(self.refusal())
    }

    /// Our FIN went out long ago.
    pub fn close_into(&mut self, _now: Nanos, _out: &mut dyn TcpSink) -> Result<(), TcpError> {
        Err(self.refusal())
    }

    /// Ends the wait at once: nothing goes to the peer, whose connection
    /// is over (RFC 793's ABORT in TIME-WAIT).
    pub fn abort_into(&mut self, out: &mut dyn TcpSink) {
        if !self.closed {
            self.close(out);
        }
    }

    fn refusal(&self) -> TcpError {
        if self.closed {
            TcpError::InvalidState
        } else {
            TcpError::Closing
        }
    }

    /// Our ACK of everything.
    fn ack(&mut self, out: &mut dyn TcpSink) {
        self.armed.cancel(TcpTimer::DelayedAck, out);
        let repr = TcpRepr {
            src_port: self.local_port,
            dst_port: self.remote.1,
            seq: self.snd_nxt,
            ack_num: self.rcv_nxt,
            flags: TcpFlags::ack(),
            window: self.window,
            mss: None,
        };
        self.counts.segs_out = self.counts.segs_out.saturating_add(1);
        out.segment(repr, [&[], &[]]);
    }

    /// The wait ends: the timers the block's own close disarms are
    /// disarmed, the move to `Closed` journaled, and the pair given up.
    fn close(&mut self, out: &mut dyn TcpSink) {
        for t in [
            TcpTimer::Retransmit,
            TcpTimer::Persist,
            TcpTimer::DelayedAck,
            TcpTimer::TimeWait,
        ] {
            self.armed.cancel(t, out);
        }
        let (from, to) = (State::TimeWait, State::Closed);
        debug_assert!(unp_trace::legal_transition(from, to));
        unp_trace::emit(None, || unp_trace::Event::TcpState {
            local_port: self.local_port,
            remote_port: self.remote.1,
            remote_ip: self.remote.0 .0,
            from,
            to,
        });
        self.closed = true;
        out.push(TcpAction::ConnClosed);
    }
}
