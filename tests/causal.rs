//! Cross-host causal tracing integration tests: the fault-plan oracle.
//!
//! The injected `FaultPlan` schedule is ground truth — every retransmit
//! the TCP machines fire must trace back to the injected event that
//! caused it, every lost data frame must be claimed by exactly one
//! attribution (or superseded by a redundant delivery of its range),
//! and every journey's latency split must telescope exactly to its
//! cross-host end-to-end span. The receive half of the same join must
//! decompose every delivered copy exactly, with fault-duplicated ids and
//! checksum discards in the journal.

use unp::core::experiments::Transfer;
use unp::core::faults::{FaultPlan, LinkFaults, RingPressure};
use unp::core::world::{install_faults, Network, OrgKind};
use unp::trace::{CausalGraph, Cause, JourneyFate, Loss, PathOutcome, Record, Stage};

const TOTAL: u64 = 150_000;

/// One Table-2-style bulk run with the journal armed before the world
/// is built (frame ids and the clock must start from zero for the run
/// to be reproducible).
fn bulk_run(total: u64, user_packet: usize, faults: Option<FaultPlan>) -> Vec<Record> {
    unp::trace::journal_start();
    Transfer::table2(Network::Ethernet, OrgKind::UserLibrary, user_packet, total).run(|w, eng| {
        if let Some(plan) = faults {
            install_faults(w, eng, plan);
        }
    });
    unp::trace::journal_stop()
}

/// The oracle body: total attribution, and exactly-once claims over
/// every lost data-carrying frame (a redundantly-delivered range may go
/// unclaimed — the retransmit it would have needed never happened).
fn assert_oracle(graph: &CausalGraph) {
    assert_eq!(
        graph.coverage(),
        1.0,
        "unattributed rexmits: {:?}",
        graph
            .rexmits
            .iter()
            .filter(|a| !a.cause.is_attributed())
            .map(|a| (a.t, a.seq))
            .collect::<Vec<_>>()
    );
    let claims = graph.claims();
    for (j, loss) in graph.losses() {
        let Some(s) = &j.seg else { continue };
        if s.payload == 0 {
            continue;
        }
        let n = claims.get(&j.frame).copied().unwrap_or(0);
        assert!(
            n == 1 || (n == 0 && graph.superseded(j)),
            "lost data frame f{} ({}) claimed {n} times, want exactly 1",
            j.frame,
            loss.label()
        );
    }
}

#[test]
fn clean_run_has_no_rexmits_and_exact_splits() {
    let recs = bulk_run(TOTAL, 4096, None);
    let graph = CausalGraph::build(&recs);
    graph.check_consistency().expect("splits must telescope");
    assert!(graph.rexmits.is_empty(), "clean run retransmitted");
    assert_eq!(graph.losses().count(), 0, "clean run lost frames");
    assert_eq!(graph.coverage(), 1.0, "vacuous coverage is 1.0");
    assert!(
        graph.journeys.len() > 40,
        "expected many journeys, got {}",
        graph.journeys.len()
    );
    // Every data journey carries the full tx-side story.
    let complete = graph
        .journeys
        .iter()
        .filter(|j| j.seg.is_some() && j.nic_tx.is_some() && j.lat_split().is_some())
        .count();
    assert!(
        complete > 30,
        "expected complete tx->rx journeys, got {complete}"
    );
}

#[test]
fn drop_only_plan_attributes_every_rexmit_to_a_wire_drop() {
    let mut plan = FaultPlan::clean(42);
    plan.default_link = LinkFaults {
        drop: 0.06,
        ..LinkFaults::clean()
    };
    let recs = bulk_run(TOTAL, 1460, Some(plan));
    let graph = CausalGraph::build(&recs);
    graph.check_consistency().expect("splits must telescope");
    assert!(
        !graph.rexmits.is_empty(),
        "a 6% drop plan must force retransmits"
    );
    assert_oracle(&graph);
    // With drops as the only impairment, every cause is a drop (of data
    // or of the ACK acknowledging it) — or a delay-induced spurious
    // retransmit, which the tracer names rather than guessing a fault:
    // recovery bursts congest the link queue enough to hold a frame
    // past the dup-ACK threshold.
    let mut wire_drops = 0;
    for a in &graph.rexmits {
        match a.cause {
            Cause::DataLoss {
                loss: Loss::WireDrop { .. },
                ..
            }
            | Cause::AckLoss {
                loss: Loss::WireDrop { .. },
                ..
            } => wire_drops += 1,
            Cause::LateDelivery { .. } => {}
            other => panic!("drop-only plan produced cause {other:?}"),
        }
    }
    assert!(wire_drops > 0, "no rexmit traced back to an injected drop");
}

#[test]
fn lossy_plan_stays_fully_attributed() {
    let recs = bulk_run(TOTAL, 1460, Some(FaultPlan::lossy(7, 0.04)));
    let graph = CausalGraph::build(&recs);
    graph.check_consistency().expect("splits must telescope");
    assert!(!graph.rexmits.is_empty(), "lossy plan must force rexmits");
    assert_oracle(&graph);
}

#[test]
fn ring_pressure_losses_name_the_slow_consumer() {
    let mut plan = FaultPlan::clean(5);
    // The receiver's consumer stalls early in the transfer: its rings
    // clamp to one slot while the sender's window is still opening.
    plan.pressure.push(RingPressure {
        host: 1,
        start: 2_000_000,
        end: 40_000_000,
        cap: 1,
    });
    let recs = bulk_run(TOTAL, 1460, Some(plan));
    let graph = CausalGraph::build(&recs);
    graph.check_consistency().expect("splits must telescope");
    let pressure_losses = graph
        .losses()
        .filter(|(_, l)| matches!(l, Loss::RingOverflow { pressure: true, .. }))
        .count();
    assert!(
        pressure_losses > 0,
        "the clamped ring never overflowed (losses: {:?})",
        graph.loss_counts()
    );
    assert_oracle(&graph);
    assert!(
        graph.rexmits.iter().any(|a| matches!(
            a.cause,
            Cause::DataLoss {
                loss: Loss::RingOverflow { pressure: true, .. },
                ..
            }
        )),
        "no rexmit was attributed to the injected pressure (causes: {:?})",
        graph.cause_counts()
    );
}

#[test]
fn explain_surfaces_cover_the_injected_story() {
    let recs = bulk_run(60_000, 1460, Some(FaultPlan::lossy(11, 0.05)));
    let graph = CausalGraph::build(&recs);
    assert_oracle(&graph);

    let conn = graph.explain_conn(80);
    assert!(
        conn.contains("rexmit"),
        "conn report names rexmits:\n{conn}"
    );
    assert!(
        conn.contains("losses:"),
        "conn report lists losses:\n{conn}"
    );

    let (lost, _) = graph.losses().next().expect("seeded plan injects loss");
    let frame = graph.explain_frame(lost.frame);
    assert!(
        frame.contains("fate:"),
        "frame report names the fate:\n{frame}"
    );
    assert!(
        frame.contains("tcp tx"),
        "frame report shows the tx timeline:\n{frame}"
    );

    // A delivered journey's report carries the exact latency split.
    let arrived = graph
        .journeys
        .iter()
        .find(|j| j.fate == JourneyFate::Arrived && j.lat_split().is_some())
        .expect("an arrived journey with a split");
    let report = graph.explain_frame(arrived.frame);
    assert!(
        report.contains("latency split"),
        "arrived report splits latency:\n{report}"
    );
}

#[test]
fn chrome_trace_is_valid_and_complete() {
    let recs = bulk_run(60_000, 1460, Some(FaultPlan::lossy(11, 0.05)));
    let graph = CausalGraph::build(&recs);
    let trace = graph.render_chrome_trace();
    let doc = unp::trace::json::parse(&trace).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(unp::trace::json::Value::items)
        .expect("traceEvents array");
    let ph = |k: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(unp::trace::json::Value::as_str) == Some(k))
            .count()
    };
    assert!(ph("X") > 100, "duration events per stage");
    assert!(ph("s") > 0 && ph("f") > 0, "flow arrows tie the wire hops");
    assert!(
        ph("f") <= ph("s"),
        "a flow finish needs a start (lost frames start but never finish)"
    );
    assert!(ph("i") > 0, "fault/rexmit instants present");
    assert!(ph("M") >= 6, "process/thread metadata for both hosts");
}

#[test]
fn clean_run_decomposes_every_delivered_frame_exactly() {
    let recs = bulk_run(TOTAL, 4096, None);
    let graph = CausalGraph::build(&recs);
    graph.check_consistency().expect("graph invariants");

    let delivered = graph.outcome_count(PathOutcome::Delivered);
    assert!(
        delivered > 30,
        "expected many delivered frames, got {delivered}"
    );
    // Outcome counts tile the receive copies: every copy ends somewhere.
    let tiled: u64 = (PathOutcome::ALL.iter())
        .map(|&o| graph.outcome_count(o))
        .sum();
    assert_eq!(tiled, graph.rx().count() as u64);

    // The decomposition telescopes: per-stage components sum exactly to
    // the end-to-end span, frame by frame — no rounding, no residue.
    for t in graph.rx().filter(|t| t.outcome == PathOutcome::Delivered) {
        let e2e = t.end_to_end().expect("delivered frame has both endpoints");
        let sum: u64 = t.components().iter().map(|&(_, ns)| ns).sum();
        assert_eq!(
            sum, e2e,
            "frame {}: components must sum to end-to-end",
            t.frame
        );
    }
    // And the roll-ups agree with the per-frame view.
    let (stages, e2e) = (graph.stage_latency(), graph.rx_end_to_end());
    let stage_total: u128 = stages.iter().map(|h| h.sum()).sum();
    assert_eq!(stage_total, e2e.sum());
    assert_eq!(e2e.count(), delivered);
}

#[test]
fn profiler_joins_across_fault_duplicated_and_corrupt_frames() {
    // 3% loss with half-rate duplication/corruption/reordering: the
    // journal now holds repeated frame ids (wire duplicates) and frames
    // that die at the checksum. The join must keep the FIFO discipline
    // and still account for every receive copy.
    let recs = bulk_run(TOTAL, 2048, Some(FaultPlan::lossy(7, 0.03)));
    let graph = CausalGraph::build(&recs);
    graph
        .check_consistency()
        .expect("graph invariants under faults");

    // Reordering makes the receiver deliver in bursts: a queued-up run of
    // segments is handed to the app when the hole fills, and the
    // AppDeliver record carries the *triggering* frame's id — so most
    // data frames close as `processed` here and only the burst triggers
    // count as `delivered`. Both must appear.
    assert!(
        graph.outcome_count(PathOutcome::Delivered) > 0,
        "faulty run still delivers the transfer"
    );
    assert!(
        graph.outcome_count(PathOutcome::Processed) > 30,
        "reordered segments close as processed"
    );
    let tiled: u64 = (PathOutcome::ALL.iter())
        .map(|&o| graph.outcome_count(o))
        .sum();
    assert_eq!(tiled, graph.rx().count() as u64);
    // The seeded plan corrupts frames; the checksum catches them and the
    // join closes those paths as corrupt-discarded rather than leaving
    // them open or cross-wiring them into a duplicate's path.
    assert!(
        graph.outcome_count(PathOutcome::CorruptDiscarded) > 0,
        "expected checksum discards under the seeded corruption plan"
    );
    // Delivered copies stay exact even with duplicates in flight.
    for t in graph.rx().filter(|t| t.outcome == PathOutcome::Delivered) {
        let e2e = t.end_to_end().unwrap();
        let sum: u64 = t.components().iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sum, e2e);
        assert!(t.stage_time(Stage::NicRx).is_some());
        assert!(t.stage_time(Stage::Deliver).is_some());
    }
}
