//! The listening endpoint: a new block per SYN, fresh or reopened.

use unp_wire::{Ipv4Addr, SeqNum, TcpRepr};

use super::{Tcb, TcpAction, TcpSink};
use crate::config::TcpConfig;
use crate::delivery::Rings;
use crate::Nanos;

/// A listening endpoint: produces a new [`Tcb`] per SYN.
#[derive(Debug, Clone)]
pub struct ListenTcb {
    local: (Ipv4Addr, u16),
    cfg: TcpConfig,
}

impl ListenTcb {
    /// Creates a listener on `local`.
    pub fn new(local: (Ipv4Addr, u16), cfg: TcpConfig) -> ListenTcb {
        ListenTcb { local, cfg }
    }

    /// The listening address.
    pub fn local(&self) -> (Ipv4Addr, u16) {
        self.local
    }

    /// Handles an incoming SYN addressed to this listener, creating a
    /// half-open connection in `SynReceived` with its SYN|ACK queued.
    /// `iss` is the initial send sequence number to use. Non-SYN segments
    /// return `None` (the caller answers unknown traffic with RST).
    pub fn on_syn(
        &self,
        remote: (Ipv4Addr, u16),
        repr: &TcpRepr,
        iss: u32,
        now: Nanos,
    ) -> Option<(Tcb, Vec<TcpAction>)> {
        let mut out = Vec::new();
        let tcb = self.on_syn_into(remote, repr, iss, now, &mut out)?;
        Some((tcb, out))
    }

    /// [`ListenTcb::on_syn`], appending the new block's actions to `out`.
    pub fn on_syn_into(
        &self,
        remote: (Ipv4Addr, u16),
        repr: &TcpRepr,
        iss: u32,
        now: Nanos,
        out: &mut dyn TcpSink,
    ) -> Option<Tcb> {
        if !opens(repr) {
            return None;
        }
        let cfg = self.cfg.clone();
        let mut tcb = Tcb::new(self.local, remote, cfg, SeqNum(iss), Rings::default());
        tcb.open_passive(repr, now, out);
        Some(tcb)
    }

    /// [`ListenTcb::on_syn_into`] in `block`, a closed connection's: the
    /// block is reopened ([`Tcb::connect_in_place`] says how) and takes
    /// the SYN exactly as a fresh one would. False, and `block` untouched,
    /// for a segment that opens nothing.
    pub fn on_syn_in_place(
        &self,
        block: &mut Tcb,
        remote: (Ipv4Addr, u16),
        repr: &TcpRepr,
        iss: u32,
        now: Nanos,
        out: &mut dyn TcpSink,
    ) -> bool {
        if !opens(repr) {
            return false;
        }
        block.reopen(self.local, remote, self.cfg.clone(), SeqNum(iss));
        block.open_passive(repr, now, out);
        true
    }
}

/// A segment a listener answers with a new connection: a SYN alone.
fn opens(repr: &TcpRepr) -> bool {
    repr.flags.syn && !repr.flags.ack && !repr.flags.rst
}
