//! Connection management: which connection this is, where it stands in
//! RFC 793's state machine, which of its timers are armed, and how many
//! keepalive probes have gone unanswered.
//!
//! [`ConnMgmt::transition`] is the only writer of the state, and it
//! refuses a move the legal relation does not hold.

use unp_wire::Ipv4Addr;

use crate::tcb::TcpAction;
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

const TIMER_KINDS: usize = 5;

/// One connection's identity, protocol state and timer bookkeeping.
#[derive(Debug)]
pub(crate) struct ConnMgmt {
    state: State,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    /// Which timers are pending with the host, by [`TcpTimer`]
    /// discriminant, so that a re-arm cancels first and a cancel of an
    /// idle timer says nothing.
    armed: [bool; TIMER_KINDS],
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
            armed: [false; TIMER_KINDS],
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

    pub(crate) fn arm_timer(&mut self, t: TcpTimer, deadline: Nanos, out: &mut Vec<TcpAction>) {
        if std::mem::replace(&mut self.armed[t as usize], true) {
            out.push(TcpAction::CancelTimer(t));
        }
        out.push(TcpAction::SetTimer(t, deadline));
    }

    pub(crate) fn cancel_timer(&mut self, t: TcpTimer, out: &mut Vec<TcpAction>) {
        if std::mem::take(&mut self.armed[t as usize]) {
            out.push(TcpAction::CancelTimer(t));
        }
    }

    pub(crate) fn timer_armed(&self, t: TcpTimer) -> bool {
        self.armed[t as usize]
    }

    /// The host delivered `t`: it is no longer pending.
    pub(crate) fn timer_fired(&mut self, t: TcpTimer) {
        self.armed[t as usize] = false;
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
