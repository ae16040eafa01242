//! Direct-TCB scripts shared by the tests that need a block in a given
//! state: two endpoints `A` (the active opener, ISS 1000) and `B` (the
//! listener, ISS 9000) handing each other's segments over by hand. Each
//! test binary that includes them uses a different part.

#![allow(dead_code)]

use std::collections::HashSet;

use unp_tcp::{ListenTcb, State, Tcb, TcpAction, TcpConfig};
use unp_trace::{Event, Observer, Record};
use unp_wire::{Ipv4Addr, TcpRepr};

pub const A: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 100);
pub const B: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 200);
pub const ISS_A: u32 = 1000;
pub const ISS_B: u32 = 9000;

/// Every state a `Tcb` can be in short of `Closed`.
pub const LIVE: [State; 9] = [
    State::SynSent,
    State::SynReceived,
    State::Established,
    State::FinWait1,
    State::FinWait2,
    State::Closing,
    State::CloseWait,
    State::LastAck,
    State::TimeWait,
];

pub type Edge = (State, State);

/// Collects every journaled state edge while attached.
#[derive(Default)]
struct Edges(HashSet<Edge>);

impl Observer for Edges {
    fn on_record(&mut self, rec: &Record) {
        if let Event::TcpState { from, to, .. } = rec.event {
            self.0.insert((from, to));
        }
    }
}

/// Runs `script`; what it returned, and every state edge any `Tcb` on
/// this thread took meanwhile.
pub fn edges_taken<R>(script: impl FnOnce() -> R) -> (R, HashSet<Edge>) {
    let handle = unp_trace::attach(Box::new(Edges::default()));
    let result = script();
    let Edges(taken) = *unp_trace::detach_as::<Edges>(handle).expect("attached above");
    (result, taken)
}

/// The segments in `actions`, in order, each with its payload.
pub fn sends(actions: &[TcpAction]) -> Vec<(TcpRepr, Vec<u8>)> {
    actions
        .iter()
        .filter_map(|a| match a {
            TcpAction::Send(r, p) => Some((*r, p.clone())),
            _ => None,
        })
        .collect()
}

/// Feeds every segment in `actions` to `dst`; what `dst` answers.
pub fn deliver(dst: &mut Tcb, actions: &[TcpAction], now: u64) -> Vec<TcpAction> {
    let mut out = Vec::new();
    for action in actions {
        if let TcpAction::Send(repr, payload) = action {
            out.extend(dst.on_segment(repr, payload, now));
        }
    }
    out
}

/// An active opener in `SynSent`, a passive one in `SynReceived`, and the
/// SYN-ACK between them.
pub fn half_open(cfg: &TcpConfig) -> (Tcb, Tcb, Vec<TcpAction>) {
    half_open_from(cfg, ISS_A)
}

/// [`half_open`], the opener starting its sequence space at `iss_a`.
pub fn half_open_from(cfg: &TcpConfig, iss_a: u32) -> (Tcb, Tcb, Vec<TcpAction>) {
    let (a, syn) = Tcb::connect(A, B, cfg.clone(), iss_a, 0);
    let Some(TcpAction::Send(syn, _)) = syn.first() else {
        panic!("connect emits its SYN first");
    };
    let (b, synack) = ListenTcb::new(B, cfg.clone())
        .on_syn(A, syn, ISS_B, 0)
        .expect("a SYN to a listener opens");
    (a, b, synack)
}

/// A pair through the three-way handshake, the SYN sent at 0 and the
/// SYN-ACK and the ACK each landing at `now`.
pub fn established(cfg: &TcpConfig, now: u64) -> (Tcb, Tcb) {
    established_from(cfg, ISS_A, now)
}

/// [`established`], the opener starting its sequence space at `iss_a`.
pub fn established_from(cfg: &TcpConfig, iss_a: u32, now: u64) -> (Tcb, Tcb) {
    let (mut a, mut b, synack) = half_open_from(cfg, iss_a);
    let ack = deliver(&mut a, &synack, now);
    deliver(&mut b, &ack, now);
    assert_eq!(
        (a.state(), b.state()),
        (State::Established, State::Established)
    );
    (a, b)
}

/// `a` has closed and `b` has seen the FIN — `FinWait1` and `CloseWait` —
/// with `b`'s ACK of it still in flight.
pub fn half_closed(cfg: &TcpConfig) -> (Tcb, Tcb, Vec<TcpAction>) {
    let (mut a, mut b) = established(cfg, 1);
    let fin = a.close(10).expect("Established takes a close");
    let ack = deliver(&mut b, &fin, 11);
    assert_eq!((a.state(), b.state()), (State::FinWait1, State::CloseWait));
    (a, b, ack)
}

/// A block walked into `state` (one of [`LIVE`]) by the shortest script.
pub fn walk_to(state: State, cfg: &TcpConfig) -> Tcb {
    let tcb = match state {
        State::SynSent => half_open(cfg).0,
        State::SynReceived => half_open(cfg).1,
        State::Established => established(cfg, 1).0,
        State::FinWait1 => half_closed(cfg).0,
        State::CloseWait => half_closed(cfg).1,
        State::FinWait2 => {
            let (mut a, _b, ack) = half_closed(cfg);
            deliver(&mut a, &ack, 12);
            a
        }
        State::LastAck => {
            let (_a, mut b, _ack) = half_closed(cfg);
            b.close(13).expect("CloseWait takes a close");
            b
        }
        State::Closing => {
            // Both close before either FIN lands.
            let (mut a, mut b) = established(cfg, 1);
            let fin = a.close(10).expect("Established takes a close");
            b.close(10).expect("Established takes a close");
            deliver(&mut b, &fin, 11);
            b
        }
        State::TimeWait => {
            // The peer's FIN carries the ACK of ours (its own ACK was
            // lost): the ACK is processed first, so this is two moves
            // through `FinWait2`, not RFC 793's direct `FinWait1 →
            // TimeWait` — which is why the table has no such edge.
            let (mut a, mut b, _lost) = half_closed(cfg);
            let fin_ack = b.close(12).expect("CloseWait takes a close");
            deliver(&mut a, &fin_ack, 13);
            a
        }
        State::Closed => panic!("Closed is not a live state"),
    };
    assert_eq!(tcb.state(), state);
    tcb
}
