//! What the registry holds of a connection it runs — a handshake's block,
//! or an inherited one's: the block, or, once the connection sits out
//! TIME_WAIT, the record that answers for the pair ([`TimeWait`]).

use unp_tcp::{Tcb, TcpError, TcpSink, TcpTimer, TimeWait};
use unp_wire::{Ipv4Addr, TcpRepr};

use crate::Nanos;

/// A connection's protocol state in the registry's hands: a block, or the
/// TIME_WAIT record of one.
#[derive(Debug)]
pub enum Endpoint {
    /// The block, in the box it leaves in.
    Block(Box<Tcb>),
    /// A connection sitting out TIME_WAIT without its block.
    TimeWait(TimeWait),
}

impl From<Box<Tcb>> for Endpoint {
    fn from(tcb: Box<Tcb>) -> Endpoint {
        Endpoint::Block(tcb)
    }
}

impl From<Tcb> for Endpoint {
    fn from(tcb: Tcb) -> Endpoint {
        Endpoint::Block(Box::new(tcb))
    }
}

impl From<TimeWait> for Endpoint {
    fn from(record: TimeWait) -> Endpoint {
        Endpoint::TimeWait(record)
    }
}

impl Endpoint {
    pub(crate) fn local_port(&self) -> u16 {
        match self {
            Endpoint::Block(tcb) => tcb.local().1,
            Endpoint::TimeWait(tw) => tw.local_port(),
        }
    }

    pub(crate) fn remote(&self) -> (Ipv4Addr, u16) {
        match self {
            Endpoint::Block(tcb) => tcb.remote(),
            Endpoint::TimeWait(tw) => tw.remote(),
        }
    }

    pub(crate) fn on_segment_into(
        &mut self,
        repr: &TcpRepr,
        payload: &[u8],
        now: Nanos,
        out: &mut dyn TcpSink,
    ) {
        match self {
            Endpoint::Block(tcb) => tcb.on_segment_into(repr, payload, now, out),
            Endpoint::TimeWait(tw) => tw.on_segment_into(repr, payload, now, out),
        }
    }

    pub(crate) fn on_timer_into(&mut self, t: TcpTimer, now: Nanos, out: &mut dyn TcpSink) {
        match self {
            Endpoint::Block(tcb) => tcb.on_timer_into(t, now, out),
            Endpoint::TimeWait(tw) => tw.on_timer_into(t, now, out),
        }
    }

    pub(crate) fn close_into(&mut self, now: Nanos, out: &mut dyn TcpSink) -> Result<(), TcpError> {
        match self {
            Endpoint::Block(tcb) => tcb.close_into(now, out),
            Endpoint::TimeWait(tw) => tw.close_into(now, out),
        }
    }

    pub(crate) fn abort_into(&mut self, out: &mut dyn TcpSink) {
        match self {
            Endpoint::Block(tcb) => tcb.abort_into(out),
            Endpoint::TimeWait(tw) => tw.abort_into(out),
        }
    }

    /// A block that has entered TIME_WAIT ([`Tcb::time_wait`]) becomes its
    /// record; the block, for the spare.
    pub(crate) fn sit_out(&mut self) -> Option<Box<Tcb>> {
        let Endpoint::Block(tcb) = self else {
            return None;
        };
        let record = tcb.time_wait()?;
        match std::mem::replace(self, Endpoint::TimeWait(record)) {
            Endpoint::Block(tcb) => Some(tcb),
            Endpoint::TimeWait(_) => None,
        }
    }
}
