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

mod scripts;

use std::collections::HashSet;

use scripts::{deliver, edges_taken, established, half_open, walk_to, Edge, A, B, LIVE};
use unp_tcp::loopback::{ChannelModel, Loopback, Side};
use unp_tcp::{State, Tcb, TcpConfig, TcpTimer};
use unp_trace::TcpFsm;

const SEC: u64 = 1_000_000_000;

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
    let (mut a, _gone) = established(&cfg, 1);
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
    let (_a, mut b, _synack) = half_open(&TcpConfig::default());
    b.close(1).expect("SynReceived takes a close");
    assert_eq!(b.state(), State::FinWait1);
}

/// `Closed` is reachable from every live state: abort in each. Walking
/// there drives, among others, `FinWait1 → FinWait2 → TimeWait` by a FIN
/// that carries the ACK of ours.
fn abort_from_every_live_state() {
    for from in LIVE {
        let mut tcb = walk_to(from, &TcpConfig::default());
        tcb.abort();
        assert_eq!(tcb.state(), State::Closed, "abort in {from:?}");
    }
}

#[test]
fn the_scripts_drive_exactly_the_legal_relation() {
    let ((), driven) = edges_taken(|| {
        orderly_close();
        simultaneous_close();
        abort_resets_the_peer();
        lossy_transfer_and_close();
        keepalive_gives_up_on_a_dead_peer();
        simultaneous_open();
        close_before_the_handshake_completes();
        abort_from_every_live_state();
    });
    let mut legal: HashSet<Edge> = TcpFsm::EDGES.into_iter().collect();
    legal.extend(LIVE.map(|from| (from, TcpFsm::Closed)));
    let undriven: Vec<&Edge> = legal.difference(&driven).collect();
    assert!(undriven.is_empty(), "listed but never driven: {undriven:?}");
    let unlisted: Vec<&Edge> = driven.difference(&legal).collect();
    assert!(unlisted.is_empty(), "driven but not listed: {unlisted:?}");
}
