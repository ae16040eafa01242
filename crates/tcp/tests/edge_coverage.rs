//! Edge coverage of the TCP state machine: the transitions the named
//! scripts below actually drive must be exactly the legal relation
//! `Tcb::transition` asserts and the conformance monitor checks
//! (`unp_trace::TcpFsm::EDGES`, plus `Closed` from every live state).
//!
//! Both directions matter. A listed edge that nothing drives is either
//! dead (delete it from the table) or untested (give it a script here);
//! an edge that is driven but not listed is a bug in the table or in the
//! TCB, and the `debug_assert!` in `Tcb::transition` stops the script
//! that found it. The scripts replay, in short form, the scenarios of
//! `state_machine.rs`, `keepalive.rs` and the lossy loopback runs, and
//! add direct-TCB ones for the edges those never reach.

use std::collections::HashSet;

use unp_tcp::loopback::{ChannelModel, Loopback, Side};
use unp_tcp::{ListenTcb, State, Tcb, TcpAction, TcpConfig, TcpTimer};
use unp_trace::{Event, Observer, Record, TcpFsm};
use unp_wire::Ipv4Addr;

type Edge = (TcpFsm, TcpFsm);

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

const A: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 100);
const B: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 200);
const SEC: u64 = 1_000_000_000;

/// Feeds every segment in `actions` to `dst`; what `dst` answers.
fn deliver(dst: &mut Tcb, actions: &[TcpAction], now: u64) -> Vec<TcpAction> {
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
fn half_open(cfg: TcpConfig) -> (Tcb, Tcb, Vec<TcpAction>) {
    let (a, syn) = Tcb::connect(A, B, cfg.clone(), 1000, 0);
    let Some(TcpAction::Send(syn, _)) = syn.first() else {
        panic!("connect emits its SYN first");
    };
    let (b, synack) = ListenTcb::new(B, cfg)
        .on_syn(A, syn, 9000, 0)
        .expect("a SYN to a listener opens");
    (a, b, synack)
}

fn established(cfg: TcpConfig) -> (Tcb, Tcb) {
    let (mut a, mut b, synack) = half_open(cfg);
    let ack = deliver(&mut a, &synack, 1);
    deliver(&mut b, &ack, 2);
    assert_eq!(
        (a.state(), b.state()),
        (State::Established, State::Established)
    );
    (a, b)
}

fn loopback() -> Loopback {
    let cfg = TcpConfig::default();
    let mut lb = Loopback::new(cfg.clone(), cfg, ChannelModel::clean());
    assert!(lb.run_until(200, |lb| {
        lb.state(Side::A) == State::Established && lb.state(Side::B) == State::Established
    }));
    lb
}

fn both_closed(lb: &Loopback) -> bool {
    lb.state(Side::A) == State::Closed && lb.state(Side::B) == State::Closed
}

/// `state_machine.rs::close_initiated_by_passive_side`, run on through
/// the closer's 2·MSL.
fn orderly_close() {
    let mut lb = loopback();
    lb.close(Side::B);
    assert!(lb.run_until(1000, |lb| lb.events(Side::A).peer_closed));
    lb.close(Side::A);
    assert!(lb.run_until(1_000_000, both_closed));
}

/// `state_machine.rs::simultaneous_close_goes_through_closing`.
fn simultaneous_close() {
    let mut lb = loopback();
    lb.close(Side::A);
    lb.close(Side::B);
    assert!(lb.run_until(1_000_000, both_closed));
}

/// `state_machine.rs::abort_sends_rst_and_peer_observes_reset`.
fn abort_resets_the_peer() {
    let mut lb = loopback();
    lb.abort(Side::A);
    assert!(lb.run_until(1000, |lb| lb.events(Side::B).reset));
}

/// `lossy_properties.rs`: a transfer and a close over a channel that
/// loses a tenth of the segments, for a few seeds.
fn lossy_transfer_and_close() {
    for seed in 1..4 {
        let cfg = TcpConfig::default();
        let mut lb = Loopback::new(cfg.clone(), cfg, ChannelModel::lossy(seed, 0.1));
        lb.send(Side::A, &[7; 5000]);
        lb.close(Side::A);
        assert!(lb.run_until(1_000_000, |lb| lb.events(Side::B).peer_closed));
        lb.close(Side::B);
        assert!(lb.run_until(2_000_000, both_closed), "seed {seed}");
    }
}

/// `keepalive.rs::dead_peer_causes_reset_after_probe_budget`.
fn keepalive_gives_up_on_a_dead_peer() {
    let cfg = TcpConfig {
        keepalive: Some(10 * SEC),
        max_keepalive_probes: 3,
        ..TcpConfig::default()
    };
    let (mut a, _gone) = established(cfg);
    for probe in 1..=10 {
        a.on_timer(TcpTimer::Keepalive, probe * 11 * SEC);
    }
    assert_eq!(a.state(), State::Closed);
}

/// Both ends connect to each other and the SYNs cross.
fn simultaneous_open() {
    let cfg = TcpConfig::default();
    let (mut a, syn_a) = Tcb::connect(A, B, cfg.clone(), 1000, 0);
    let (mut b, syn_b) = Tcb::connect(B, A, cfg, 9000, 0);
    let synack_a = deliver(&mut a, &syn_b, 1);
    let synack_b = deliver(&mut b, &syn_a, 1);
    assert_eq!(
        (a.state(), b.state()),
        (State::SynReceived, State::SynReceived)
    );
    // Each SYN-ACK repeats a SYN already taken: it is answered with the
    // ACK that completes the other side's handshake.
    let ack_a = deliver(&mut a, &synack_b, 2);
    let ack_b = deliver(&mut b, &synack_a, 2);
    deliver(&mut a, &ack_b, 3);
    deliver(&mut b, &ack_a, 3);
    assert_eq!(
        (a.state(), b.state()),
        (State::Established, State::Established)
    );
}

/// The accepting side closes before the handshake's last ACK arrives.
fn close_before_the_handshake_completes() {
    let (_a, mut b, _synack) = half_open(TcpConfig::default());
    b.close(1).expect("SynReceived takes a close");
    assert_eq!(b.state(), State::FinWait1);
}

/// `a` has closed and `b` has seen the FIN — `FinWait1` and `CloseWait` —
/// with `b`'s ACK of it still in flight.
fn half_closed() -> (Tcb, Tcb, Vec<TcpAction>) {
    let (mut a, mut b) = established(TcpConfig::default());
    let fin = a.close(10).expect("Established takes a close");
    let ack = deliver(&mut b, &fin, 11);
    assert_eq!((a.state(), b.state()), (State::FinWait1, State::CloseWait));
    (a, b, ack)
}

/// The peer's FIN carries the ACK of ours (its own ACK was lost): the ACK
/// is processed first, so this is two moves through `FinWait2`, not RFC
/// 793's direct `FinWait1 → TimeWait` — which is why the table has no
/// such edge.
fn fin_arrives_with_the_ack_of_ours() -> Tcb {
    let (mut a, mut b, _lost) = half_closed();
    let fin_ack = b.close(12).expect("CloseWait takes a close");
    deliver(&mut a, &fin_ack, 13);
    assert_eq!(a.state(), State::TimeWait);
    a
}

/// `Closed` is reachable from every live state: abort in each.
fn abort_from_every_live_state() {
    let aborted = |mut tcb: Tcb, from: State| {
        assert_eq!(tcb.state(), from);
        tcb.abort();
        assert_eq!(tcb.state(), State::Closed, "abort in {from:?}");
    };
    let (a, b, _) = half_open(TcpConfig::default());
    aborted(a, State::SynSent);
    aborted(b, State::SynReceived);
    let (a, _) = established(TcpConfig::default());
    aborted(a, State::Established);
    let (a, b, _) = half_closed();
    aborted(a, State::FinWait1);
    aborted(b, State::CloseWait);
    let (mut a, mut b, ack) = half_closed();
    deliver(&mut a, &ack, 12);
    aborted(a, State::FinWait2);
    b.close(13).expect("CloseWait takes a close");
    aborted(b, State::LastAck);
    // Both close before either FIN lands.
    let (mut a, mut b) = established(TcpConfig::default());
    let fin = a.close(10).expect("Established takes a close");
    b.close(10).expect("Established takes a close");
    deliver(&mut b, &fin, 11);
    aborted(b, State::Closing);
    aborted(fin_arrives_with_the_ack_of_ours(), State::TimeWait);
}

#[test]
fn the_scripts_drive_exactly_the_legal_relation() {
    let handle = unp_trace::attach(Box::new(Edges::default()));
    orderly_close();
    simultaneous_close();
    abort_resets_the_peer();
    lossy_transfer_and_close();
    keepalive_gives_up_on_a_dead_peer();
    simultaneous_open();
    close_before_the_handshake_completes();
    abort_from_every_live_state();
    let Edges(driven) = *unp_trace::detach_as::<Edges>(handle).expect("attached above");
    let live = [
        TcpFsm::SynSent,
        TcpFsm::SynReceived,
        TcpFsm::Established,
        TcpFsm::FinWait1,
        TcpFsm::FinWait2,
        TcpFsm::Closing,
        TcpFsm::CloseWait,
        TcpFsm::LastAck,
        TcpFsm::TimeWait,
    ];
    let mut legal: HashSet<Edge> = TcpFsm::EDGES.into_iter().collect();
    legal.extend(live.map(|from| (from, TcpFsm::Closed)));
    let undriven: Vec<&Edge> = legal.difference(&driven).collect();
    assert!(undriven.is_empty(), "listed but never driven: {undriven:?}");
    let unlisted: Vec<&Edge> = driven.difference(&legal).collect();
    assert!(unlisted.is_empty(), "driven but not listed: {unlisted:?}");
}
