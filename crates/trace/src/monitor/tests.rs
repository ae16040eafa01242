use super::*;
use crate::{PathKind, RexmitReason, SegFlags, TcpFsm};

/// What varies between the segments these tests journal; all are
/// plain ACKs of host 0's connection 80 ↔ 10.0.0.9:9000.
struct Seg {
    time: Nanos,
    dir: Dir,
    seq: u32,
    ack: u32,
    payload: u32,
}

fn seg(s: Seg) -> Record {
    Record {
        time: s.time,
        host: Some(0),
        frame: None,
        event: Event::TcpSegment {
            dir: s.dir,
            local_port: 80,
            remote_port: 9000,
            remote_ip: [10, 0, 0, 9],
            seq: s.seq,
            ack: s.ack,
            wnd: 8192,
            flags: A,
            payload: s.payload,
            wire: 40 + s.payload,
        },
    }
}

/// A data-less ACK sent at `time`.
fn ack(time: Nanos, ack: u32) -> Record {
    seg(Seg {
        time,
        dir: Dir::Tx,
        seq: 0,
        ack,
        payload: 0,
    })
}

const A: SegFlags = SegFlags {
    syn: false,
    fin: false,
    rst: false,
    ack: true,
};

#[test]
fn ack_regression_is_caught_and_wrap_is_not() {
    // Monotone acks, including across the 2^32 wrap: clean.
    let recs = vec![
        ack(1, u32::MAX - 10),
        ack(2, 5), // wrapped forward
        ack(3, 5), // repeat is fine
    ];
    let m = Monitor::new().run_over(&recs);
    assert_eq!(m.total_violations(), 0);
    assert_eq!(m.checked().tcp_acks, 3);

    // A genuine rewind violates.
    let recs = vec![ack(1, 5000), ack(2, 4000)];
    let m = Monitor::new().run_over(&recs);
    assert_eq!(m.count(ViolationKind::TcpAckRegression), 1);
}

#[test]
fn dup_ack_rexmit_requires_three_dups() {
    let data = |time| {
        seg(Seg {
            time,
            dir: Dir::Tx,
            seq: 100,
            ack: 1,
            payload: 500,
        })
    };
    let dup = |time| {
        seg(Seg {
            time,
            dir: Dir::Rx,
            seq: 1,
            ack: 100,
            payload: 0,
        })
    };
    let rex = |t| Record {
        time: t,
        host: Some(0),
        frame: None,
        event: Event::TcpRexmit {
            local_port: 80,
            remote_port: 9000,
            remote_ip: [10, 0, 0, 9],
            seq: 100,
            bytes: 500,
            reason: RexmitReason::DupAck,
        },
    };
    // Rx ack 100 seeds, then three repeats = three dups: justified.
    let recs = vec![data(1), dup(2), dup(3), dup(4), dup(5), rex(6)];
    let m = Monitor::new().run_over(&recs);
    assert_eq!(m.total_violations(), 0, "{:?}", m.violations());
    // Only one repeat: unjustified.
    let recs = vec![data(1), dup(2), dup(3), rex(4)];
    let m = Monitor::new().run_over(&recs);
    assert_eq!(m.count(ViolationKind::RexmitUnjustified), 1);
}

#[test]
fn an_ack_of_what_was_never_sent_acknowledges_nothing() {
    let data = seg(Seg {
        time: 1,
        dir: Dir::Tx,
        seq: 100,
        ack: 1,
        payload: 500,
    });
    let acked_at = |seq, ack| {
        seg(Seg {
            time: 2,
            dir: Dir::Rx,
            seq,
            ack,
            payload: 0,
        })
    };
    let acked = |ack| acked_at(1, ack);
    let rto = Record {
        time: 3,
        host: Some(0),
        frame: None,
        event: Event::TcpRexmit {
            local_port: 80,
            remote_port: 9000,
            remote_ip: [10, 0, 0, 9],
            seq: 100,
            bytes: 500,
            reason: RexmitReason::Rto,
        },
    };
    // A forged ACK of bytes never sent: the TCB drops it, so the 500
    // bytes are still outstanding and their RTO retransmit is due.
    let recs = vec![data.clone(), acked(5000), rto.clone()];
    let m = Monitor::new().run_over(&recs);
    assert_eq!(m.total_violations(), 0, "{:?}", m.violations());
    // Nor does an ACK on an old duplicate, wholly behind what this
    // host has acknowledged (its data sent with ACK 1): RFC 793 drops
    // the segment unread.
    let recs = vec![data.clone(), acked_at(0, 600), rto.clone()];
    let m = Monitor::new().run_over(&recs);
    assert_eq!(m.total_violations(), 0, "{:?}", m.violations());
    // Acknowledged for real, the same retransmit is unjustified.
    let m = Monitor::new().run_over(&[data, acked(600), rto]);
    assert_eq!(m.count(ViolationKind::RexmitUnjustified), 1);
}

#[test]
fn fsm_legality_and_continuity() {
    let edge = |t, from, to| Record {
        time: t,
        host: Some(0),
        frame: None,
        event: Event::TcpState {
            local_port: 80,
            remote_port: 9000,
            remote_ip: [10, 0, 0, 9],
            from,
            to,
        },
    };
    use TcpFsm::*;
    let recs = vec![
        edge(1, Closed, SynSent),
        edge(2, SynSent, Established),
        edge(3, Established, FinWait1),
        edge(4, FinWait1, FinWait2),
        edge(5, FinWait2, TimeWait),
        edge(6, TimeWait, Closed),
    ];
    let m = Monitor::new().run_over(&recs);
    assert_eq!(m.total_violations(), 0);
    assert_eq!(m.checked().transitions, 6);

    // Illegal edge and a discontinuity.
    let recs = vec![
        edge(1, Closed, SynSent),
        edge(2, SynSent, TimeWait),      // illegal
        edge(3, Established, CloseWait), // discontinuous with tracked
    ];
    let m = Monitor::new().run_over(&recs);
    assert!(m.count(ViolationKind::TcpFsmIllegal) >= 2);
}

#[test]
fn ring_conservation_tracks_residency() {
    let enq = |t, depth| Record {
        time: t,
        host: Some(1),
        frame: Some(7),
        event: Event::RingEnqueue {
            channel: 3,
            depth,
            signal: true,
        },
    };
    let wake = |t, frames| Record {
        time: t,
        host: Some(1),
        frame: None,
        event: Event::WakeupBatch { channel: 3, frames },
    };
    let m = Monitor::new().run_over(&[enq(1, 1), enq(2, 2), wake(3, 2), enq(4, 1)]);
    assert_eq!(m.total_violations(), 0);
    // Draining more than resides violates.
    let m = Monitor::new().run_over(&[enq(1, 1), wake(2, 3)]);
    assert_eq!(m.count(ViolationKind::RingConservation), 1);
    // A skipped enqueue (depth jump) violates.
    let m = Monitor::new().run_over(&[enq(1, 1), enq(2, 3)]);
    assert_eq!(m.count(ViolationKind::RingConservation), 1);
}

#[test]
fn pool_chain_and_drain_baseline() {
    let ev = |t, e| Record {
        time: t,
        host: None,
        frame: None,
        event: e,
    };
    let recs = vec![
        ev(1, Event::FrameAlloc { live: 4 }),
        ev(2, Event::FrameAlloc { live: 5 }),
        ev(3, Event::FrameFree { live: 4 }),
        ev(4, Event::FrameFree { live: 3 }),
    ];
    let m = Monitor::new().expect_pool_drained(true).run_over(&recs);
    assert_eq!(m.total_violations(), 0, "{:?}", m.violations());
    // Dropping a free breaks the chain at the next event.
    let recs = vec![
        ev(1, Event::FrameAlloc { live: 4 }),
        ev(2, Event::FrameAlloc { live: 5 }),
        ev(4, Event::FrameFree { live: 3 }),
    ];
    let m = Monitor::new().run_over(&recs);
    assert_eq!(m.count(ViolationKind::PoolAccounting), 1);
    // Undrained at finish (leak) violates only when asked to check.
    let recs = vec![ev(1, Event::FrameAlloc { live: 4 })];
    let m = Monitor::new().run_over(&recs);
    assert_eq!(m.total_violations(), 0);
    let m = Monitor::new().expect_pool_drained(true).run_over(&recs);
    assert_eq!(m.count(ViolationKind::PoolAccounting), 1);
}

#[test]
fn demux_adjacency_and_tier_consistency() {
    let classify = |t, frame, path, matched| Record {
        time: t,
        host: Some(0),
        frame: Some(frame),
        event: Event::DemuxClassify {
            path,
            filter_instrs: 8,
            matched,
        },
    };
    let enq = |t, frame| Record {
        time: t,
        host: Some(0),
        frame: Some(frame),
        event: Event::RingEnqueue {
            channel: 1,
            depth: 1,
            signal: true,
        },
    };
    let m = Monitor::new().run_over(&[classify(1, 7, PathKind::FlowTable, true), enq(1, 7)]);
    assert_eq!(m.total_violations(), 0);
    // Keyed tier without a match.
    let m = Monitor::new().run_over(&[classify(1, 7, PathKind::ListenTable, false)]);
    assert_eq!(m.count(ViolationKind::DemuxAttribution), 1);
    // Matched classify with no adjacent placement.
    let m = Monitor::new().run_over(&[
        classify(1, 7, PathKind::FlowTable, true),
        classify(2, 8, PathKind::FlowTable, true),
        enq(2, 8),
    ]);
    assert_eq!(m.count(ViolationKind::DemuxAttribution), 1);
    // Scan misses are allowed.
    let m = Monitor::new().run_over(&[classify(1, 7, PathKind::FilterScan, false)]);
    assert_eq!(m.total_violations(), 0);
}

#[test]
fn quota_drops_must_be_earned() {
    let drop = |in_use, quota| Record {
        time: 1,
        host: Some(4),
        frame: Some(1),
        event: Event::QuotaDrop {
            channel: 2,
            tenant: 66,
            in_use,
            quota,
        },
    };
    let m = Monitor::new().run_over(&[drop(8, 8)]);
    assert_eq!(m.total_violations(), 0);
    let m = Monitor::new().run_over(&[drop(3, 8)]);
    assert_eq!(m.count(ViolationKind::QuotaConservation), 1);
    let m = Monitor::new().run_over(&[drop(0, 0)]);
    assert_eq!(m.count(ViolationKind::QuotaConservation), 1);
}

#[test]
fn recorder_freezes_postmortem_on_first_violation() {
    let mut recs: Vec<Record> = (0..10)
        .map(|t| Record {
            time: t,
            host: Some(0),
            frame: None,
            event: Event::NicTx { len: 60 },
        })
        .collect();
    recs.push(Record {
        time: 10,
        host: Some(4),
        frame: Some(1),
        event: Event::QuotaDrop {
            channel: 2,
            tenant: 66,
            in_use: 0,
            quota: 8,
        },
    });
    recs.push(Record {
        time: 11,
        host: Some(0),
        frame: None,
        event: Event::NicTx { len: 61 },
    });
    let m = Monitor::with_recorder(4).run_over(&recs);
    assert_eq!(m.total_violations(), 1);
    let post = m.postmortem().expect("postmortem frozen");
    // The window ends at the violating record, not the stream's end.
    assert_eq!(post.last().unwrap().time, 10);
    assert!(post.len() <= 4 * 2, "bounded by cap * hosts");
    // The live dump keeps rolling past the freeze.
    assert_eq!(m.dump().last().unwrap().time, 11);
}

#[test]
fn mutation_harness_catches_every_class_and_only_on_mutants() {
    // A miniature but checker-complete journal: handshake edges,
    // data + acks + a justified rexmit, ring traffic, pool chain,
    // demux classifies, and a legitimate quota drop.
    use mutations::BugClass;
    let mut recs = Vec::new();
    let t = |recs: &mut Vec<Record>, r| recs.push(r);
    let mkseg = |time, host, dir, seq, ack, flags, payload| Record {
        time,
        host: Some(host),
        frame: None,
        event: Event::TcpSegment {
            dir,
            local_port: 80,
            remote_port: 9000,
            remote_ip: [10, 0, 0, 9],
            seq,
            ack,
            wnd: 8192,
            flags,
            payload,
            wire: 40 + payload,
        },
    };
    let s = SegFlags {
        syn: true,
        ..Default::default()
    };
    let sa = SegFlags {
        syn: true,
        ack: true,
        ..Default::default()
    };
    t(
        &mut recs,
        Record {
            time: 0,
            host: None,
            frame: None,
            event: Event::FrameAlloc { live: 1 },
        },
    );
    t(
        &mut recs,
        Record {
            time: 0,
            host: None,
            frame: None,
            event: Event::FrameAlloc { live: 2 },
        },
    );
    t(
        &mut recs,
        Record {
            time: 1,
            host: Some(0),
            frame: None,
            event: Event::TcpState {
                local_port: 80,
                remote_port: 9000,
                remote_ip: [10, 0, 0, 9],
                from: TcpFsm::Closed,
                to: TcpFsm::SynSent,
            },
        },
    );
    t(&mut recs, mkseg(1, 0, Dir::Tx, 0, 0, s, 0));
    t(&mut recs, mkseg(2, 0, Dir::Rx, 0, 1, sa, 0));
    t(
        &mut recs,
        Record {
            time: 2,
            host: Some(0),
            frame: None,
            event: Event::TcpState {
                local_port: 80,
                remote_port: 9000,
                remote_ip: [10, 0, 0, 9],
                from: TcpFsm::SynSent,
                to: TcpFsm::Established,
            },
        },
    );
    // Data, three dups, a justified fast rexmit.
    t(&mut recs, mkseg(3, 0, Dir::Tx, 1, 1, A, 500));
    t(&mut recs, mkseg(4, 0, Dir::Tx, 501, 1, A, 500));
    t(&mut recs, mkseg(5, 0, Dir::Rx, 1, 1, A, 0));
    t(&mut recs, mkseg(6, 0, Dir::Rx, 1, 1, A, 0));
    t(&mut recs, mkseg(7, 0, Dir::Rx, 1, 1, A, 0));
    t(&mut recs, mkseg(8, 0, Dir::Rx, 1, 1, A, 0));
    t(
        &mut recs,
        Record {
            time: 9,
            host: Some(0),
            frame: None,
            event: Event::TcpRexmit {
                local_port: 80,
                remote_port: 9000,
                remote_ip: [10, 0, 0, 9],
                seq: 1,
                bytes: 500,
                reason: RexmitReason::DupAck,
            },
        },
    );
    t(&mut recs, mkseg(10, 0, Dir::Rx, 1, 1001, A, 0));
    // Ring + demux traffic on the receive host.
    t(
        &mut recs,
        Record {
            time: 11,
            host: Some(1),
            frame: Some(3),
            event: Event::DemuxClassify {
                path: PathKind::FlowTable,
                filter_instrs: 8,
                matched: true,
            },
        },
    );
    t(
        &mut recs,
        Record {
            time: 11,
            host: Some(1),
            frame: Some(3),
            event: Event::RingEnqueue {
                channel: 5,
                depth: 1,
                signal: true,
            },
        },
    );
    t(
        &mut recs,
        Record {
            time: 12,
            host: Some(1),
            frame: None,
            event: Event::WakeupBatch {
                channel: 5,
                frames: 1,
            },
        },
    );
    // An earned quota drop.
    t(
        &mut recs,
        Record {
            time: 13,
            host: Some(1),
            frame: Some(4),
            event: Event::DemuxClassify {
                path: PathKind::FlowTable,
                filter_instrs: 8,
                matched: true,
            },
        },
    );
    t(
        &mut recs,
        Record {
            time: 13,
            host: Some(1),
            frame: Some(4),
            event: Event::QuotaDrop {
                channel: 5,
                tenant: 66,
                in_use: 8,
                quota: 8,
            },
        },
    );
    // Pool drains.
    t(
        &mut recs,
        Record {
            time: 14,
            host: None,
            frame: None,
            event: Event::FrameFree { live: 1 },
        },
    );
    t(
        &mut recs,
        Record {
            time: 14,
            host: None,
            frame: None,
            event: Event::FrameFree { live: 0 },
        },
    );

    let clean = Monitor::new().run_over(&recs);
    assert_eq!(clean.total_violations(), 0, "{:?}", clean.violations());

    for class in BugClass::ALL {
        let mutated = mutations::mutate(&recs, class, 42)
            .unwrap_or_else(|| panic!("no mutation site for {}", class.label()));
        let m = Monitor::new().run_over(&mutated);
        assert!(
            m.count(class.expected_kind()) >= 1,
            "{} not caught: {:?}",
            class.label(),
            m.violations()
        );
    }
}
