//! Critical-path profiler and windowed-telemetry integration tests
//! (satellites of the profiling tentpole).

use unp::core::experiments::Transfer;
use unp::core::faults::FaultPlan;
use unp::core::world::{install_faults, Eng, Network, OrgKind, World};
use unp::trace::{Ctr, PathOutcome, Profile, Record, Stage};

const TOTAL: u64 = 150_000;

/// One Table-2-style bulk run with the journal armed before the world is
/// built. When `faults` is set the seeded plan is installed, so the
/// journal contains duplicated frame ids and checksum discards for the
/// join to cope with.
fn bulk_run(total: u64, user_packet: usize, faults: Option<FaultPlan>) -> Vec<Record> {
    unp::trace::journal_start();
    table2(total, user_packet).run(|w, eng| {
        if let Some(plan) = faults {
            install_faults(w, eng, plan);
        }
    });
    unp::trace::journal_stop()
}

fn table2(total: u64, user_packet: usize) -> Transfer {
    Transfer::table2(Network::Ethernet, OrgKind::UserLibrary, user_packet, total)
}

#[test]
fn clean_run_decomposes_every_delivered_frame_exactly() {
    let recs = bulk_run(TOTAL, 4096, None);
    let p = Profile::build(&recs);
    p.check_consistency().expect("profiler invariants");

    assert!(
        p.delivered() > 30,
        "expected many delivered frames, got {}",
        p.delivered()
    );
    // Outcome counts tile the trace set: every frame ends somewhere.
    let tiled: u64 = PathOutcome::ALL.iter().map(|&o| p.outcome_count(o)).sum();
    assert_eq!(tiled, p.traces.len() as u64);

    // The decomposition telescopes: per-stage components sum exactly to
    // the end-to-end span, frame by frame — no rounding, no residue.
    for t in p
        .traces
        .iter()
        .filter(|t| t.outcome == PathOutcome::Delivered)
    {
        let e2e = t.end_to_end().expect("delivered frame has both endpoints");
        let sum: u64 = t.components().iter().map(|&(_, ns)| ns).sum();
        assert_eq!(
            sum, e2e,
            "frame {}: components must sum to end-to-end",
            t.frame
        );
    }
    // And the aggregate histograms agree with the per-frame view.
    let stage_total: u128 = p.stages.iter().map(|h| h.sum()).sum();
    assert_eq!(stage_total, p.end_to_end.sum());
    assert_eq!(p.end_to_end.count(), p.delivered());
}

#[test]
fn profiler_joins_across_fault_duplicated_and_corrupt_frames() {
    // 3% loss with half-rate duplication/corruption/reordering: the
    // journal now holds repeated frame ids (wire duplicates) and frames
    // that die at the checksum. The join must keep the FIFO discipline
    // and still account for every trace.
    let recs = bulk_run(TOTAL, 2048, Some(FaultPlan::lossy(7, 0.03)));
    let p = Profile::build(&recs);
    p.check_consistency()
        .expect("profiler invariants under faults");

    // Reordering makes the receiver deliver in bursts: a queued-up run of
    // segments is handed to the app when the hole fills, and the
    // AppDeliver record carries the *triggering* frame's id — so most
    // data frames close as `processed` here and only the burst triggers
    // count as `delivered`. Both must appear.
    assert!(p.delivered() > 0, "faulty run still delivers the transfer");
    assert!(
        p.outcome_count(PathOutcome::Processed) > 30,
        "reordered segments close as processed"
    );
    let tiled: u64 = PathOutcome::ALL.iter().map(|&o| p.outcome_count(o)).sum();
    assert_eq!(tiled, p.traces.len() as u64);
    // The seeded plan corrupts frames; the checksum catches them and the
    // profiler closes those paths as corrupt-discarded rather than
    // leaving them open or cross-wiring them into a duplicate's path.
    assert!(
        p.outcome_count(PathOutcome::CorruptDiscarded) > 0,
        "expected checksum discards under the seeded corruption plan"
    );
    // Delivered traces stay exact even with duplicates in flight.
    for t in p
        .traces
        .iter()
        .filter(|t| t.outcome == PathOutcome::Delivered)
    {
        let e2e = t.end_to_end().unwrap();
        let sum: u64 = t.components().iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sum, e2e);
        assert!(t.stage_time(Stage::NicRx).is_some());
        assert!(t.stage_time(Stage::Deliver).is_some());
    }
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
    assert!((w01.rx_pps() - expect_pps).abs() < 1e-9);
    assert!(w01.rx_pps() > 0.0, "the transfer moves frames in slice one");

    // Derived ratios stay in range and the ring histogram windows.
    if let Some(r) = w01.flow_hit_rate() {
        assert!((0.0..=1.0).contains(&r));
    }
    assert!(
        w01.mean_ring_depth().is_some(),
        "channel deliveries must sample ring occupancy"
    );

    // A zero-length window divides nothing by zero.
    let wz = s2.window_since(&s2);
    assert_eq!(wz.duration(), 0);
    assert_eq!(wz.rx_pps(), 0.0);
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
