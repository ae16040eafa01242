//! Connection management: which connection this is, where it stands in
//! RFC 793's state machine, which of its timers are armed, and how many
//! keepalive probes have gone unanswered.
//!
//! [`ConnMgmt::transition`] is the only writer of the state, and it
//! refuses a move the legal relation does not hold — but for the end of
//! TIME_WAIT, which the record answering for the block checks and
//! journals ([`ConnMgmt::time_wait_left`]).

use unp_wire::Ipv4Addr;

use crate::tcb::{TcpAction, TcpSink};
use crate::{Nanos, State};

/// The timers a connection uses. Each kind has at most one pending
/// instance; re-arming replaces the previous deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpTimer {
    /// Retransmission timeout.
    Retransmit,
    /// Zero-window probe (persist) timer.
    Persist,
    /// Delayed-ACK flush.
    DelayedAck,
    /// 2·MSL quarantine.
    TimeWait,
    /// Idle-connection keepalive probe.
    Keepalive,
}

/// Which of a connection's timers are pending with the host, one bit per
/// [`TcpTimer`] kind, so that a re-arm cancels first and a cancel of an
/// idle timer says nothing. A block's [`ConnMgmt`] and a TIME_WAIT record
/// ([`crate::TimeWait`]) keep their timers with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Armed(u8);

impl Armed {
    pub(crate) fn arm(&mut self, t: TcpTimer, deadline: Nanos, out: &mut dyn TcpSink) {
        if self.take(t) {
            out.push(TcpAction::CancelTimer(t));
        }
        self.0 |= 1 << t as u8;
        out.push(TcpAction::SetTimer(t, deadline));
    }

    pub(crate) fn cancel(&mut self, t: TcpTimer, out: &mut dyn TcpSink) {
        if self.take(t) {
            out.push(TcpAction::CancelTimer(t));
        }
    }

    pub(crate) fn is_armed(self, t: TcpTimer) -> bool {
        self.0 & 1 << t as u8 != 0
    }

    /// Hands a host that holds none of them every timer pending here,
    /// each at `deadline(t)`.
    pub(crate) fn rearm(self, deadline: impl Fn(TcpTimer) -> Nanos, out: &mut dyn TcpSink) {
        const ALL: [TcpTimer; 5] = [
            TcpTimer::Retransmit,
            TcpTimer::Persist,
            TcpTimer::DelayedAck,
            TcpTimer::TimeWait,
            TcpTimer::Keepalive,
        ];
        for t in ALL.into_iter().filter(|&t| self.is_armed(t)) {
            out.push(TcpAction::SetTimer(t, deadline(t)));
        }
    }

    /// The host delivered `t`: it is no longer pending.
    pub(crate) fn fired(&mut self, t: TcpTimer) {
        self.take(t);
    }

    /// Disarms `t`; whether it was armed.
    fn take(&mut self, t: TcpTimer) -> bool {
        let was = self.is_armed(t);
        self.0 &= !(1 << t as u8);
        was
    }
}

/// One connection's identity, protocol state and timer bookkeeping.
#[derive(Debug)]
pub(crate) struct ConnMgmt {
    state: State,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    armed: Armed,
    /// Consecutive unanswered keepalive probes.
    keepalive_fails: u32,
}

impl ConnMgmt {
    /// A block that has not left `Closed` yet.
    pub(crate) fn new(local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16)) -> ConnMgmt {
        ConnMgmt {
            state: State::Closed,
            local,
            remote,
            armed: Armed::default(),
            keepalive_fails: 0,
        }
    }

    pub(crate) fn state(&self) -> State {
        self.state
    }

    pub(crate) fn local(&self) -> (Ipv4Addr, u16) {
        self.local
    }

    pub(crate) fn remote(&self) -> (Ipv4Addr, u16) {
        self.remote
    }

    /// True in the states that exchange keepalives and answer an abort
    /// with a RST: synchronized, and not sitting out `TimeWait`.
    pub(crate) fn is_live(&self) -> bool {
        self.state.is_synchronized() && self.state != State::TimeWait
    }

    /// Commits a protocol-state move and journals the edge. The move must
    /// be in the legal transition relation, the same table the online
    /// conformance monitor checks the journaled edge against. Re-entering
    /// the current state is a no-op (teardown paths close more than once).
    pub(crate) fn transition(&mut self, to: State) {
        let from = self.state;
        if from == to {
            return;
        }
        debug_assert!(
            unp_trace::legal_transition(from, to),
            "illegal TCP transition {from:?} -> {to:?}"
        );
        self.state = to;
        unp_trace::emit(None, || unp_trace::Event::TcpState {
            local_port: self.local.1,
            remote_port: self.remote.1,
            remote_ip: self.remote.0 .0,
            from,
            to,
        });
    }

    pub(crate) fn arm_timer(&mut self, t: TcpTimer, deadline: Nanos, out: &mut dyn TcpSink) {
        self.armed.arm(t, deadline, out);
    }

    pub(crate) fn cancel_timer(&mut self, t: TcpTimer, out: &mut dyn TcpSink) {
        self.armed.cancel(t, out);
    }

    pub(crate) fn timer_armed(&self, t: TcpTimer) -> bool {
        self.armed.is_armed(t)
    }

    /// The host delivered `t`: it is no longer pending.
    pub(crate) fn timer_fired(&mut self, t: TcpTimer) {
        self.armed.fired(t);
    }

    /// The timers pending with the host.
    pub(crate) fn armed(&self) -> Armed {
        self.armed
    }

    /// What a TIME_WAIT record answering for this block left: its timers,
    /// and `Closed` if it ended the wait. The record checked and
    /// journaled that move itself.
    pub(crate) fn time_wait_left(&mut self, armed: Armed, closed: bool) {
        debug_assert_eq!(self.state, State::TimeWait);
        self.armed = armed;
        if closed {
            self.state = State::Closed;
        }
    }

    /// Counts a keepalive interval that passed in silence; how many have
    /// in a row.
    pub(crate) fn keepalive_unanswered(&mut self) -> u32 {
        self.keepalive_fails += 1;
        self.keepalive_fails
    }

    /// Any traffic from the peer proves liveness.
    pub(crate) fn peer_heard(&mut self) {
        self.keepalive_fails = 0;
    }
}
