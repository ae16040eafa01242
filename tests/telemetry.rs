//! Windowed-telemetry integration tests: metrics snapshots bracketing a
//! live transfer, and the live counters against the retired connection
//! scopes.

use unp::core::experiments::Transfer;
use unp::core::faults::FaultPlan;
use unp::core::world::{install_faults, Eng, Network, OrgKind, World};
use unp::trace::{Ctr, Hist};

const TOTAL: u64 = 150_000;

fn table2(total: u64, user_packet: usize) -> Transfer {
    Transfer::table2(Network::Ethernet, OrgKind::UserLibrary, user_packet, total)
}

#[test]
fn windowed_snapshots_do_exact_delta_arithmetic() {
    // The hook runs before the transfer's first event, so it can step the
    // engine itself; `run` drains whatever it leaves.
    table2(TOTAL, 4096).run(windowed_checks);
}

fn windowed_checks(w: &mut World, eng: &mut Eng) {
    // Three snapshots bracketing two 100 ms slices of the transfer.
    let s0 = w.metrics.snapshot(eng.now());
    eng.run_until(w, 100_000_000);
    let s1 = w.metrics.snapshot(eng.now());
    eng.run_until(w, 200_000_000);
    let s2 = w.metrics.snapshot(eng.now());

    let w01 = s1.window_since(&s0);
    let w12 = s2.window_since(&s1);
    let w02 = s2.window_since(&s0);

    // Windows are pure deltas: adjacent slices sum to the full window.
    assert_eq!(w02.duration(), w01.duration() + w12.duration());
    assert_eq!(
        w02.delta(Ctr::FramesReceived),
        w01.delta(Ctr::FramesReceived) + w12.delta(Ctr::FramesReceived)
    );
    assert_eq!(
        w02.delta(Ctr::ChFlowHits),
        w01.delta(Ctr::ChFlowHits) + w12.delta(Ctr::ChFlowHits)
    );
    // And they agree with the raw snapshot arithmetic.
    assert_eq!(
        w01.delta(Ctr::FramesReceived),
        s1.get(Ctr::FramesReceived) - s0.get(Ctr::FramesReceived)
    );

    // Rates are delta / window-duration in seconds.
    assert!(w01.duration() > 0);
    let expect_pps = w01.delta(Ctr::FramesReceived) as f64 / (w01.duration() as f64 / 1e9);
    assert!((w01.per_sec(Ctr::FramesReceived) - expect_pps).abs() < 1e-9);
    assert!(
        w01.per_sec(Ctr::FramesReceived) > 0.0,
        "the transfer moves frames in slice one"
    );

    // Derived ratios stay in range and the ring histogram windows.
    if let Some(r) = w01.flow_hit_rate() {
        assert!((0.0..=1.0).contains(&r));
    }
    assert!(
        w01.hist_mean(Hist::RingDepth).is_some(),
        "channel deliveries must sample ring occupancy"
    );

    // A zero-length window divides nothing by zero.
    let wz = s2.window_since(&s2);
    assert_eq!(wz.duration(), 0);
    assert_eq!(wz.per_sec(Ctr::FramesReceived), 0.0);
}

#[test]
fn global_rexmit_counters_match_connection_scopes() {
    unp::trace::journal_start();
    let (w, _) =
        table2(TOTAL, 2048).run(|w, eng| install_faults(w, eng, FaultPlan::lossy(11, 0.02)));
    unp::trace::journal_stop();

    // Loss forces retransmission; the live global counters must agree
    // with the scopes retired into the closed totals.
    let global = w.metrics.get(Ctr::TcpRexmitBytes);
    let closed: u64 = w.metrics.closed().map(|(_, c)| c.sum.bytes_rexmit).sum();
    assert!(global > 0, "a 2% lossy run must retransmit");
    assert_eq!(
        global, closed,
        "windowed rexmit counter must match retired conn scopes"
    );
    // Two endpoints closed, and both are still whole in the tail.
    assert_eq!(w.metrics.closed().map(|(_, c)| c.count).sum::<u64>(), 2);
    let kept: u64 = w.metrics.conns().map(|(_, c)| c.bytes_rexmit).sum();
    assert_eq!(kept, closed);
    assert!(w.metrics.get(Ctr::TcpRexmitSegs) > 0);
    assert!(w.metrics.get(Ctr::TcpRttSamples) > 0);
}
