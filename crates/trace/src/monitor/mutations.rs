//! Seeded single-defect journal mutations: each injects exactly one bug
//! of a known class into a recorded journal, and the matching checker
//! must catch it. This is the soundness harness's "both ways" half —
//! clean journals replay violation-free, mutated ones do not.

use std::collections::HashSet;

use super::ViolationKind;
use crate::{Dir, Event, PathKind, Record, RexmitReason, SegFlags};

keywords! {
    /// One injectable bug class; `ALL` is every class the harness injects.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BugClass {
        /// Rewind a transmitted cumulative ACK (a skipped ACK update).
        AckRegression => "ack_regression",
        /// Turn a state edge into a self-loop outside the relation.
        IllegalTransition => "illegal_transition",
        /// Fast retransmit with zero duplicate ACKs observed.
        UnjustifiedDupAck => "unjustified_dup_ack",
        /// RTO retransmit after everything was acknowledged.
        UnjustifiedRto => "unjustified_rto",
        /// A wakeup claiming one more frame than the ring held.
        RingLeak => "ring_leak",
        /// Drop a frame-free record (a leaked backing).
        PoolLeak => "pool_leak",
        /// A keyed-tier classify stripped of its match.
        DemuxMisattribution => "demux_misattribution",
        /// A quota drop fabricated below the tenant's budget.
        QuotaFabrication => "quota_fabrication",
    }
}

impl BugClass {
    /// The violation kind the injected bug must surface as.
    pub fn expected_kind(self) -> ViolationKind {
        match self {
            BugClass::AckRegression => ViolationKind::TcpAckRegression,
            BugClass::IllegalTransition => ViolationKind::TcpFsmIllegal,
            BugClass::UnjustifiedDupAck | BugClass::UnjustifiedRto => {
                ViolationKind::RexmitUnjustified
            }
            BugClass::RingLeak => ViolationKind::RingConservation,
            BugClass::PoolLeak => ViolationKind::PoolAccounting,
            BugClass::DemuxMisattribution => ViolationKind::DemuxAttribution,
            BugClass::QuotaFabrication => ViolationKind::QuotaConservation,
        }
    }
}

/// Deterministic site picker: xorshift over the candidate count.
fn pick(seed: u64, n: usize) -> usize {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    (x % n as u64) as usize
}

/// A seeded pick among the indices of the records `is_site` accepts
/// (`None` when it accepts none).
fn site(
    records: &[Record],
    seed: u64,
    mut is_site: impl FnMut(usize, &Record) -> bool,
) -> Option<usize> {
    let sites: Vec<usize> = (0..records.len())
        .filter(|&i| is_site(i, &records[i]))
        .collect();
    sites.get(pick(seed, sites.len().max(1))).copied()
}

/// Applies one seeded mutation of `class` to a copy of `records`.
/// Returns `None` when the journal has no applicable site (the
/// harness treats that as a workload-coverage failure).
pub fn mutate(records: &[Record], class: BugClass, seed: u64) -> Option<Vec<Record>> {
    let mut out: Vec<Record> = records.to_vec();
    match class {
        BugClass::AckRegression => {
            // A non-first, non-SYN transmitted ACK, rewound by 1000.
            let mut seen = HashSet::new();
            let i = site(records, seed, |_, r| match r.event {
                Event::TcpSegment {
                    dir: Dir::Tx,
                    local_port,
                    remote_port,
                    flags,
                    ..
                } if flags.ack && !flags.syn && !flags.rst => {
                    !seen.insert((r.host, local_port, remote_port))
                }
                _ => false,
            })?;
            if let Event::TcpSegment { ack, .. } = &mut out[i].event {
                *ack = ack.wrapping_sub(1000);
            }
            Some(out)
        }
        BugClass::IllegalTransition => {
            let i = site(records, seed, |_, r| {
                matches!(r.event, Event::TcpState { .. })
            })?;
            if let Event::TcpState { from, to, .. } = &mut out[i].event {
                *to = *from;
            }
            Some(out)
        }
        BugClass::UnjustifiedDupAck => {
            // Insert a fast retransmit right after the first data
            // segment a host transmits — no dup ACKs exist yet.
            let (i, r) = records.iter().enumerate().find(|(_, r)| {
                matches!(
                    r.event,
                    Event::TcpSegment {
                        dir: Dir::Tx,
                        payload,
                        flags: SegFlags { syn: false, rst: false, .. },
                        ..
                    } if payload > 0
                )
            })?;
            let Event::TcpSegment {
                local_port,
                remote_port,
                remote_ip,
                seq,
                ..
            } = r.event
            else {
                unreachable!()
            };
            out.insert(
                i + 1,
                Record {
                    time: r.time,
                    host: r.host,
                    frame: None,
                    event: Event::TcpRexmit {
                        local_port,
                        remote_port,
                        remote_ip,
                        seq,
                        bytes: 100,
                        reason: RexmitReason::DupAck,
                    },
                },
            );
            Some(out)
        }
        BugClass::UnjustifiedRto => {
            // Append an RTO retransmit after the run finished and
            // every transmitted byte was acknowledged.
            let r = records.iter().rev().find_map(|r| {
                if let Event::TcpSegment {
                    dir: Dir::Tx,
                    local_port,
                    remote_port,
                    remote_ip,
                    seq,
                    payload,
                    ..
                } = r.event
                {
                    (payload > 0).then_some((r.host, local_port, remote_port, remote_ip, seq))
                } else {
                    None
                }
            })?;
            let (host, local_port, remote_port, remote_ip, seq) = r;
            let time = records.last().map(|r| r.time).unwrap_or(0);
            out.push(Record {
                time,
                host,
                frame: None,
                event: Event::TcpRexmit {
                    local_port,
                    remote_port,
                    remote_ip,
                    seq,
                    bytes: 100,
                    reason: RexmitReason::Rto,
                },
            });
            Some(out)
        }
        BugClass::RingLeak => {
            // A wakeup that claims one more frame than it drained —
            // the slot the kernel "lost".
            let i = site(
                records,
                seed,
                |_, r| matches!(r.event, Event::WakeupBatch { frames, .. } if frames > 0),
            )?;
            if let Event::WakeupBatch { frames, .. } = &mut out[i].event {
                *frames += 1;
            }
            Some(out)
        }
        BugClass::PoolLeak => {
            // Delete a frame-free that has a later pool event to
            // notice the broken chain.
            let last_pool = records.iter().rposition(|r| {
                matches!(r.event, Event::FrameAlloc { .. } | Event::FrameFree { .. })
            })?;
            let i = site(records, seed, |i, r| {
                i < last_pool && matches!(r.event, Event::FrameFree { .. })
            })?;
            out.remove(i);
            Some(out)
        }
        BugClass::DemuxMisattribution => {
            let i = site(records, seed, |_, r| {
                matches!(
                    r.event,
                    Event::DemuxClassify {
                        path: PathKind::FlowTable | PathKind::ListenTable,
                        matched: true,
                        ..
                    }
                )
            })?;
            if let Event::DemuxClassify { matched, .. } = &mut out[i].event {
                *matched = false;
            }
            Some(out)
        }
        BugClass::QuotaFabrication => {
            let time = records.last().map(|r| r.time).unwrap_or(0);
            out.push(Record {
                time,
                host: Some(0),
                frame: None,
                event: Event::QuotaDrop {
                    channel: 1,
                    tenant: 66,
                    in_use: 0,
                    quota: 8,
                },
            });
            Some(out)
        }
    }
}
