//! Keepalive tests: idle connections are probed; live peers answer and the
//! connection persists; dead peers cause a reset after the probe budget.

mod scripts;

use scripts::{deliver, established, sends};
use unp_tcp::{State, TcpAction, TcpConfig, TcpTimer};

const SEC: u64 = 1_000_000_000;

fn keepalive_cfg() -> TcpConfig {
    TcpConfig {
        keepalive: Some(10 * SEC),
        max_keepalive_probes: 3,
        ..TcpConfig::default()
    }
}

#[test]
fn establishment_arms_the_keepalive_timer() {
    // The active opener arms keepalive on reaching ESTABLISHED. (We
    // can't inspect timers directly; verify via the action stream.)
    let (mut a, _b) = established(&keepalive_cfg(), SEC);
    // Firing the timer on an idle established connection emits a probe.
    let probe = a.on_timer(TcpTimer::Keepalive, 11 * SEC);
    let segs = sends(&probe);
    assert_eq!(segs.len(), 1, "one keepalive probe expected: {probe:?}");
    assert!(segs[0].0.flags.ack && segs[0].1.is_empty());
    assert_eq!(a.stats().probes, 1);
}

#[test]
fn live_peer_answers_probe_and_connection_survives() {
    let (mut a, mut b) = established(&keepalive_cfg(), SEC / 100);
    for round in 1..=6u64 {
        let probe = a.on_timer(TcpTimer::Keepalive, round * 11 * SEC);
        assert!(!sends(&probe).is_empty(), "probe {round} must go out");
        // The peer answers (the probe's seq is below rcv_nxt → re-ACK),
        // which resets the failure count.
        let reply = deliver(&mut b, &probe, round * 11 * SEC + 1);
        assert!(!sends(&reply).is_empty(), "peer must answer the probe");
        deliver(&mut a, &reply, round * 11 * SEC + 2);
        assert_eq!(a.state(), State::Established);
    }
}

#[test]
fn dead_peer_causes_reset_after_probe_budget() {
    let (mut a, b) = established(&keepalive_cfg(), SEC / 100);
    drop(b); // the peer machine is gone; probes vanish
    let mut now = 11 * SEC;
    let mut reset = false;
    for _ in 0..10 {
        let actions = a.on_timer(TcpTimer::Keepalive, now);
        if actions.iter().any(|x| matches!(x, TcpAction::Reset)) {
            reset = true;
            break;
        }
        now += 11 * SEC;
    }
    assert!(reset, "unanswered probes must reset the connection");
    assert_eq!(a.state(), State::Closed);
}

#[test]
fn disabled_keepalive_never_probes() {
    let (mut a, _b) = established(&TcpConfig::default(), SEC); // keepalive: None
                                                               // A stray keepalive fire (should never be armed) is a no-op.
    let actions = a.on_timer(TcpTimer::Keepalive, 100 * SEC);
    assert!(actions.is_empty());
    assert_eq!(a.state(), State::Established);
}
