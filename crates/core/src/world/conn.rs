//! One connection endpoint in a host's table: its application, its
//! channel, and its protocol state — the block while the connection is
//! open and, once a library connection starts its TIME_WAIT, the record
//! that sits out the wait for the pair while the block goes back to the
//! registry for the host's next connection.

use std::collections::VecDeque;

use unp_registry::Endpoint;
use unp_sim::Nanos;
use unp_tcp::{State, Tcb, TcpError, TcpSink, TcpTimer, TimeWait};
use unp_trace::ConnScope;
use unp_wire::{Ipv4Addr, TcpRepr};

use super::{ChanInfo, PairKey};
use crate::app::AppLogic;

/// One live connection endpoint.
pub struct Conn {
    /// The owning application.
    pub app: Box<dyn AppLogic>,
    /// Channel info when running under the UserLibrary organization.
    pub chan: Option<ChanInfo>,
    /// Bytes handed to the application so far ([`ConnScope::bytes_to_app`]).
    pub(super) bytes_to_app: u64,
    body: Body,
}

/// What a [`Conn`] holds of its protocol state.
enum Body {
    Open(Open),
    /// A library connection sitting out TIME_WAIT: its pair, channel,
    /// timers and port stay until `ConnClosed`, its block does not.
    TimeWait(TimeWait),
}

/// An open connection's protocol state.
pub(super) struct Open {
    /// The TCP state (the paper's "TCP state transferred to user level"),
    /// in the box the registry handed it over in, and gets back when the
    /// connection starts its TIME_WAIT or closes: a table slot is a
    /// pointer, so the table's capacity does not cost what it indexes.
    pub(super) tcb: Box<Tcb>,
    /// App bytes the library holds beyond the TCB's send buffer.
    pub(super) pending_tx: VecDeque<u8>,
    /// The app requested close once `pending_tx` drains.
    pub(super) close_pending: bool,
    /// Typical application write size (the experiments' "user packet
    /// size").
    pub(super) write_size: usize,
}

impl Conn {
    pub(super) fn new(
        tcb: Box<Tcb>,
        app: Box<dyn AppLogic>,
        chan: Option<ChanInfo>,
        write_size: usize,
    ) -> Conn {
        let open = Open {
            tcb,
            pending_tx: VecDeque::new(),
            close_pending: false,
            write_size,
        };
        Conn {
            app,
            chan,
            bytes_to_app: 0,
            body: Body::Open(open),
        }
    }

    /// The block and what the library holds beside it, while the
    /// connection is open.
    pub(super) fn open(&mut self) -> Option<&mut Open> {
        match &mut self.body {
            Body::Open(open) => Some(open),
            Body::TimeWait(_) => None,
        }
    }

    /// The application's write size, while the connection is open.
    pub fn write_size(&self) -> Option<usize> {
        self.open_ref().map(|open| open.write_size)
    }

    /// The connection's TCP state.
    pub fn state(&self) -> State {
        match &self.body {
            Body::Open(open) => open.tcb.state(),
            Body::TimeWait(tw) => tw.state(),
        }
    }

    /// The local port.
    pub fn local_port(&self) -> u16 {
        match &self.body {
            Body::Open(open) => open.tcb.local().1,
            Body::TimeWait(tw) => tw.local_port(),
        }
    }

    /// Remote (address, port).
    pub fn remote(&self) -> (Ipv4Addr, u16) {
        match &self.body {
            Body::Open(open) => open.tcb.remote(),
            Body::TimeWait(tw) => tw.remote(),
        }
    }

    pub(super) fn pair_key(&self) -> PairKey {
        let remote = self.remote();
        (self.local_port(), remote.0, remote.1)
    }

    /// Room for the application's next write: none in TIME_WAIT.
    pub(super) fn send_space(&self) -> usize {
        self.open_ref().map_or(0, |open| open.tcb.send_space())
    }

    /// Application bytes waiting for room in the TCB.
    pub(super) fn pending_tx(&self) -> usize {
        self.open_ref().map_or(0, |open| open.pending_tx.len())
    }

    /// The connection's counters and final RTT, and the bytes it handed
    /// to the application; the channel's counters are the caller's.
    pub(super) fn scope(&self) -> ConnScope {
        let tcp = match &self.body {
            Body::Open(open) => open.tcb.scope(),
            Body::TimeWait(tw) => tw.scope(),
        };
        ConnScope {
            bytes_to_app: self.bytes_to_app,
            ..tcp
        }
    }

    pub(super) fn on_segment_into(
        &mut self,
        repr: &TcpRepr,
        payload: &[u8],
        now: Nanos,
        out: &mut dyn TcpSink,
    ) {
        match &mut self.body {
            Body::Open(open) => open.tcb.on_segment_into(repr, payload, now, out),
            Body::TimeWait(tw) => tw.on_segment_into(repr, payload, now, out),
        }
    }

    pub(super) fn on_timer_into(&mut self, t: TcpTimer, now: Nanos, out: &mut dyn TcpSink) {
        match &mut self.body {
            Body::Open(open) => open.tcb.on_timer_into(t, now, out),
            Body::TimeWait(tw) => tw.on_timer_into(t, now, out),
        }
    }

    pub(super) fn close_into(&mut self, now: Nanos, out: &mut dyn TcpSink) -> Result<(), TcpError> {
        match &mut self.body {
            Body::Open(open) => open.tcb.close_into(now, out),
            Body::TimeWait(tw) => tw.close_into(now, out),
        }
    }

    pub(super) fn abort_into(&mut self, out: &mut dyn TcpSink) {
        match &mut self.body {
            Body::Open(open) => open.tcb.abort_into(out),
            Body::TimeWait(tw) => tw.abort_into(out),
        }
    }

    /// Once the block has entered TIME_WAIT ([`Tcb::time_wait`]), the
    /// connection keeps its record instead, and the block — rings and
    /// all — is handed back. Whatever the application still held to send
    /// goes: no more can be sent.
    pub(super) fn sit_out(&mut self) -> Option<Box<Tcb>> {
        let record = self.open_ref()?.tcb.time_wait()?;
        match std::mem::replace(&mut self.body, Body::TimeWait(record)) {
            Body::Open(open) => Some(open.tcb),
            Body::TimeWait(_) => None,
        }
    }

    /// What the registry inherits when the application exits: the block,
    /// or the record of its TIME_WAIT.
    pub(super) fn into_endpoint(self) -> Endpoint {
        match self.body {
            Body::Open(open) => Endpoint::Block(open.tcb),
            Body::TimeWait(tw) => Endpoint::TimeWait(tw),
        }
    }

    fn open_ref(&self) -> Option<&Open> {
        match &self.body {
            Body::Open(open) => Some(open),
            Body::TimeWait(_) => None,
        }
    }
}
