use super::attribute::seq_contains;
use super::*;
use crate::{PathKind, RexmitReason};

fn rec(time: Nanos, host: u16, frame: Option<u64>, event: Event) -> Record {
    Record {
        time,
        host: Some(host),
        frame,
        event,
    }
}

/// A hand-built journal: host 0 sends one data segment (frame 1),
/// it is dropped by the fault plan, the RTO fires, and the resend
/// (frame 2) arrives and delivers.
fn dropped_then_resent() -> Vec<Record> {
    vec![
        rec(
            100,
            0,
            Some(1),
            Event::TcpSegment {
                dir: Dir::Tx,
                local_port: 9000,
                remote_port: 80,
                remote_ip: [10, 0, 0, 2],
                seq: 1000,
                ack: 0,
                wnd: 8192,
                flags: crate::SegFlags::default(),
                payload: 500,
                wire: 540,
            },
        ),
        rec(
            150,
            0,
            Some(1),
            Event::TxTemplateCheck {
                channel: 1,
                ok: true,
            },
        ),
        rec(200, 0, Some(1), Event::NicTx { len: 554 }),
        rec(
            200,
            0,
            Some(1),
            Event::LinkTx {
                queue: 40,
                wire: 400,
            },
        ),
        rec(
            200,
            0,
            Some(1),
            Event::FaultInject {
                kind: FaultKind::Drop,
                from: 0,
                to: 1,
            },
        ),
        rec(
            5_000_000,
            0,
            None,
            Event::TcpRexmit {
                local_port: 9000,
                remote_port: 80,
                remote_ip: [10, 0, 0, 2],
                seq: 1000,
                bytes: 500,
                reason: RexmitReason::Rto,
            },
        ),
        rec(
            5_000_000,
            0,
            Some(2),
            Event::TcpSegment {
                dir: Dir::Tx,
                local_port: 9000,
                remote_port: 80,
                remote_ip: [10, 0, 0, 2],
                seq: 1000,
                ack: 0,
                wnd: 8192,
                flags: crate::SegFlags::default(),
                payload: 500,
                wire: 540,
            },
        ),
        rec(5_000_100, 0, Some(2), Event::NicTx { len: 554 }),
        rec(
            5_000_100,
            0,
            Some(2),
            Event::LinkTx {
                queue: 0,
                wire: 400,
            },
        ),
        rec(
            5_000_500,
            1,
            Some(2),
            Event::NicRx {
                len: 554,
                accepted: true,
            },
        ),
        rec(
            5_000_600,
            1,
            Some(2),
            Event::DemuxClassify {
                path: PathKind::FlowTable,
                filter_instrs: 8,
                matched: true,
            },
        ),
        rec(
            5_000_700,
            1,
            Some(2),
            Event::RingEnqueue {
                channel: 3,
                depth: 1,
                signal: true,
            },
        ),
        rec(
            5_001_000,
            1,
            None,
            Event::WakeupBatch {
                channel: 3,
                frames: 1,
            },
        ),
        rec(
            5_001_200,
            1,
            Some(2),
            Event::TcpSegment {
                dir: Dir::Rx,
                local_port: 80,
                remote_port: 9000,
                remote_ip: [10, 0, 0, 1],
                seq: 1000,
                ack: 0,
                wnd: 8192,
                flags: crate::SegFlags::default(),
                payload: 500,
                wire: 540,
            },
        ),
        rec(
            5_001_300,
            1,
            Some(2),
            Event::AppDeliver {
                conn: 7,
                bytes: 500,
            },
        ),
    ]
}

#[test]
fn drop_is_attributed_to_the_injected_fault() {
    let g = CausalGraph::build(&dropped_then_resent());
    assert_eq!(g.rexmits.len(), 1);
    let a = &g.rexmits[0];
    assert_eq!(a.reason, RexmitReason::Rto);
    assert_eq!(
        a.cause,
        Cause::DataLoss {
            frame: 1,
            loss: Loss::WireDrop { from: 0, to: 1 }
        }
    );
    assert_eq!(g.coverage(), 1.0);
    assert_eq!(g.claims().get(&1), Some(&1));
    // The lost journey's fate is the loss itself.
    assert_eq!(
        g.journey(1).unwrap().fate,
        JourneyFate::Lost(Loss::WireDrop { from: 0, to: 1 })
    );
}

#[test]
fn journey_split_telescopes_exactly() {
    let g = CausalGraph::build(&dropped_then_resent());
    g.check_consistency().unwrap();
    let j = g.journey(2).unwrap();
    assert_eq!(j.fate, JourneyFate::Arrived);
    let split = j.lat_split().unwrap();
    let sum: Nanos = split.iter().map(|c| c.ns).sum();
    // 5_001_300 (deliver) - 5_000_000 (segment build).
    assert_eq!(sum, 1300);
    assert_eq!(j.end_to_end(), Some(1300));
    // tx_build 100, queue 0, wire 400, reorder 0, then rx stages.
    let get = |label: &str| split.iter().find(|c| c.label == label).unwrap().ns;
    assert_eq!(get("tx_build"), 100);
    assert_eq!(get("link_wire"), 400);
    assert_eq!(get("reorder_wait"), 0);
    assert_eq!(get("ring_enqueue") + get("wakeup_batch"), 100 + 300);
    // Queue/service labels: ring residency is a queue, demux is not.
    assert!(split
        .iter()
        .find(|c| c.label == "wakeup_batch")
        .is_some_and(|c| !c.queue));
    assert!(split
        .iter()
        .find(|c| c.label == "link_queue")
        .is_some_and(|c| c.queue));
}

#[test]
fn explain_surfaces_the_cause_chain() {
    let g = CausalGraph::build(&dropped_then_resent());
    let text = g.explain_frame(1);
    assert!(text.contains("injected drop on link 0\u{2192}1"), "{text}");
    assert!(text.contains("triggered rexmit"), "{text}");
    let conn = g.explain_conn(80);
    assert!(conn.contains("reason=rto"), "{conn}");
    assert!(conn.contains("1 retransmits"), "{conn}");
}

#[test]
fn chrome_trace_is_valid_json_with_flow_arrows() {
    let g = CausalGraph::build(&dropped_then_resent());
    let text = g.render_chrome_trace();
    let v = crate::json::parse(&text).expect("chrome trace parses");
    let events = v.get("traceEvents").and_then(|e| e.items()).unwrap();
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
        .collect();
    assert!(phases.contains(&"X"));
    assert!(phases.contains(&"s"), "flow start for the wire hop");
    assert!(phases.contains(&"f"), "flow end for the wire hop");
    assert!(phases.contains(&"i"), "fault + rexmit instants");
    assert!(phases.contains(&"M"), "process metadata");
}

#[test]
fn seq_matching_wraps() {
    assert!(seq_contains(u32::MAX - 10, 20, 3));
    assert!(!seq_contains(u32::MAX - 10, 5, 3));
    assert!(!seq_contains(100, 0, 100), "zero-length never contains");
}

fn nic_rx(t: Nanos, f: u64) -> Record {
    rec(
        t,
        1,
        Some(f),
        Event::NicRx {
            len: 64,
            accepted: true,
        },
    )
}

fn classify(t: Nanos, f: u64) -> Record {
    rec(
        t,
        1,
        Some(f),
        Event::DemuxClassify {
            path: PathKind::FlowTable,
            filter_instrs: 8,
            matched: true,
        },
    )
}

fn enqueue(t: Nanos, f: u64, signal: bool) -> Record {
    rec(
        t,
        1,
        Some(f),
        Event::RingEnqueue {
            channel: 3,
            depth: 1,
            signal,
        },
    )
}

fn wakeup(t: Nanos, frames: u32) -> Record {
    rec(t, 1, None, Event::WakeupBatch { channel: 3, frames })
}

fn tcp(t: Nanos, host: u16, f: u64, dir: Dir) -> Record {
    rec(
        t,
        host,
        Some(f),
        Event::TcpSegment {
            dir,
            local_port: 80,
            remote_port: 2000,
            remote_ip: [10, 0, 0, 9],
            seq: 0,
            ack: 0,
            wnd: 8192,
            flags: crate::SegFlags::default(),
            payload: 10,
            wire: 50,
        },
    )
}

fn tcp_rx(t: Nanos, f: u64) -> Record {
    tcp(t, 1, f, Dir::Rx)
}

fn deliver(t: Nanos, f: u64) -> Record {
    rec(t, 1, Some(f), Event::AppDeliver { conn: 9, bytes: 10 })
}

/// Builds the graph and holds it to its one checker.
fn build(recs: &[Record]) -> CausalGraph {
    let g = CausalGraph::build(recs);
    g.check_consistency().unwrap();
    g
}

#[test]
fn full_path_decomposes_exactly() {
    let recs = vec![
        nic_rx(100, 0),
        classify(130, 0),
        enqueue(150, 0, true),
        wakeup(190, 1),
        tcp_rx(240, 0),
        deliver(300, 0),
    ];
    let g = build(&recs);
    let traces: Vec<_> = g.rx().collect();
    assert_eq!(traces.len(), 1);
    let tr = traces[0];
    assert!(tr.is_complete());
    assert_eq!(tr.end_to_end(), Some(200));
    assert_eq!(
        tr.components(),
        vec![
            (Stage::Demux, 30),
            (Stage::Ring, 20),
            (Stage::Wakeup, 40),
            (Stage::Tcp, 50),
            (Stage::Deliver, 60),
        ]
    );
    assert_eq!(tr.channel, Some(3));
    assert_eq!(tr.signaled, Some(true));
    assert_eq!(g.outcome_count(PathOutcome::Delivered), 1);
    assert_eq!(g.rx_end_to_end().mean(), Some(200.0));
    assert_eq!(g.stage_latency()[Stage::Tcp as usize].sum(), 50);
    let folded = g.folded();
    assert!(folded.contains("rx;demux_classify;flow 30"));
    assert!(folded.contains("rx;wakeup_batch;signaled 40"));
    assert!(folded.contains("rx;app_deliver 60"));
}

#[test]
fn duplicated_frame_ids_join_fifo_without_cross_talk() {
    // The fault plan delivered frame 5 twice: two traces, and the
    // batch of two wakeups pairs with them in ring order.
    let recs = vec![
        nic_rx(100, 5),
        classify(110, 5),
        enqueue(120, 5, true),
        nic_rx(130, 5),
        classify(140, 5),
        enqueue(150, 5, false),
        wakeup(200, 2),
        tcp_rx(210, 5),
        tcp_rx(220, 5),
        deliver(230, 5),
        deliver(240, 5),
    ];
    let g = build(&recs);
    // One journey, both copies on it, in arrival order.
    assert_eq!(g.journeys.len(), 1);
    let traces = &g.journey(5).unwrap().rx;
    assert_eq!(traces.len(), 2);
    assert!(traces.iter().all(|t| t.is_complete()));
    // First arrival claims the first classify/enqueue/tcp/deliver.
    assert_eq!(traces[0].stage_time(Stage::Ring), Some(120));
    assert_eq!(traces[1].stage_time(Stage::Ring), Some(150));
    assert_eq!(traces[0].stage_time(Stage::Deliver), Some(230));
    assert_eq!(traces[1].stage_time(Stage::Deliver), Some(240));
    assert_eq!(traces[0].signaled, Some(true));
    assert_eq!(traces[1].signaled, Some(false));
}

#[test]
fn early_exits_close_with_their_outcomes() {
    let recs = vec![
        // NIC staging overflow.
        rec(
            10,
            1,
            Some(0),
            Event::NicRx {
                len: 64,
                accepted: false,
            },
        ),
        // Kernel-default classify.
        nic_rx(20, 1),
        rec(
            25,
            1,
            Some(1),
            Event::DemuxClassify {
                path: PathKind::FilterScan,
                filter_instrs: 90,
                matched: false,
            },
        ),
        // Ring drop.
        nic_rx(30, 2),
        classify(35, 2),
        rec(
            40,
            1,
            Some(2),
            Event::RingDrop {
                channel: 3,
                pressure: false,
            },
        ),
        // Corrupt discard after wakeup.
        nic_rx(50, 3),
        classify(55, 3),
        enqueue(60, 3, true),
        wakeup(70, 1),
        rec(80, 1, Some(3), Event::FrameCorruptDiscard { len: 64 }),
        // Truncated: journal stops while in the ring.
        nic_rx(90, 4),
        classify(95, 4),
        enqueue(99, 4, true),
    ];
    let g = build(&recs);
    assert_eq!(g.rx().count(), 5);
    assert_eq!(g.outcome_count(PathOutcome::NicDropped), 1);
    assert_eq!(g.outcome_count(PathOutcome::KernelDefault), 1);
    assert_eq!(g.outcome_count(PathOutcome::RingDropped), 1);
    assert_eq!(g.outcome_count(PathOutcome::CorruptDiscarded), 1);
    assert_eq!(g.outcome_count(PathOutcome::Truncated), 1);
    assert_eq!(g.outcome_count(PathOutcome::Delivered), 0);
    // The corrupt-discarded trace still carries its partial path.
    let corrupt = g
        .rx()
        .find(|t| t.outcome == PathOutcome::CorruptDiscarded)
        .unwrap();
    assert_eq!(corrupt.stage_time(Stage::Wakeup), Some(70));
    assert_eq!(corrupt.stage_time(Stage::Tcp), None);
}

#[test]
fn processed_frames_without_delivery_are_not_truncated() {
    // A pure ACK: full protocol processing, nothing for the app.
    let recs = vec![
        nic_rx(10, 0),
        classify(20, 0),
        enqueue(30, 0, true),
        wakeup(40, 1),
        tcp_rx(50, 0),
    ];
    let g = build(&recs);
    assert_eq!(g.outcome_count(PathOutcome::Processed), 1);
    assert_eq!(g.outcome_count(PathOutcome::Delivered), 0);
    assert_eq!(g.rx().next().unwrap().end_to_end(), Some(40));
}

#[test]
fn receive_only_frames_journey_after_every_tx_sighted_one() {
    // Frames 9 and 8 reach host 1 with no tx-side record (their
    // sender journaled nothing); frame 7 is built and sent by host 0
    // after both arrived. Journeys keep first tx-side sight first,
    // then the receive-only frames in `nic_rx` order, not id order.
    let recs = vec![
        nic_rx(100, 9),
        classify(110, 9),
        nic_rx(120, 8),
        tcp(200, 0, 7, Dir::Tx),
        rec(210, 0, Some(7), Event::NicTx { len: 64 }),
        nic_rx(300, 7),
    ];
    let g = build(&recs);
    let order: Vec<u64> = g.journeys.iter().map(|j| j.frame).collect();
    assert_eq!(order, [7, 9, 8]);
    let j = g.journey(9).unwrap();
    assert_eq!((j.tx_host, j.seg.as_ref(), j.nic_tx), (None, None, None));
    assert_eq!(j.start(), Some(100), "anchored at its nic_rx");
    assert_eq!(j.rx.len(), 1);
    assert_eq!(g.journey(8).unwrap().start(), Some(120));
    assert_eq!(g.journey(7).unwrap().start(), Some(200));
}
