//! The receive half of the causal graph: the receive-path stage taxonomy
//! (`nic_rx → demux_classify → ring_enqueue → wakeup_batch → tcp_segment
//! → app_deliver`), the per-copy [`PathTrace`] that
//! [`CausalGraph::build`] stamps for every frame a host received, and the
//! receive-side views over the graph: per-stage and end-to-end latency
//! roll-ups, outcome counts and a folded flamegraph-style text output.
//!
//! This is the paper's Table 2/3-style accounting: *where* does a
//! received packet's time go — demultiplexing, buffering in the ring,
//! waiting for the wakeup, or protocol processing? The traces are built by
//! the receive step of [`CausalGraph::build`], the one join of a journal.

use std::collections::BTreeMap;

use crate::causal::CausalGraph;
use crate::metrics::Histogram;
use crate::{Nanos, PathKind};

/// The receive-path stage taxonomy, in path order. Each stage's component
/// is the time from the previous *present* stage's timestamp to its own,
/// so the components of one trace telescope exactly to its end-to-end
/// latency. `NicRx` anchors the path and never carries a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Frame accepted into NIC receive staging (the path anchor).
    NicRx,
    /// Software demultiplex classified the frame to a channel.
    Demux,
    /// Frame placed into the channel's receive ring.
    Ring,
    /// A library wakeup consumed the frame from the ring (attributed in
    /// ring FIFO order — the event itself carries no frame id).
    Wakeup,
    /// The protocol library processed the frame's TCP segment.
    Tcp,
    /// Received bytes crossed the final boundary into the application.
    Deliver,
}

/// Number of stages in [`Stage`].
pub const N_STAGES: usize = 6;

impl Stage {
    /// Every stage, in path order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::NicRx,
        Stage::Demux,
        Stage::Ring,
        Stage::Wakeup,
        Stage::Tcp,
        Stage::Deliver,
    ];

    /// The stage's journal keyword.
    pub fn label(self) -> &'static str {
        match self {
            Stage::NicRx => "nic_rx",
            Stage::Demux => "demux_classify",
            Stage::Ring => "ring_enqueue",
            Stage::Wakeup => "wakeup_batch",
            Stage::Tcp => "tcp_segment",
            Stage::Deliver => "app_deliver",
        }
    }
}

/// How a frame's path through the receive stages ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum PathOutcome {
    /// The full path: bytes reached the application.
    Delivered,
    /// Protocol-processed to completion but nothing crossed into the
    /// application (pure ACK, window update, retransmitted duplicate).
    Processed,
    /// The demux matched no channel binding; the frame took the
    /// kernel-default path and left the profiled taxonomy.
    KernelDefault,
    /// Dropped at NIC staging overflow.
    NicDropped,
    /// Dropped at ring placement (ring full or slot too small).
    RingDropped,
    /// A checksum caught in-flight corruption; the frame was discarded.
    CorruptDiscarded,
    /// The frame's events stop mid-path (still in a ring at journal
    /// stop, or lost where no discard event marks it).
    Truncated,
}

/// Number of variants in [`PathOutcome`].
pub const N_OUTCOMES: usize = 7;

impl PathOutcome {
    /// Every outcome, in declaration order.
    pub const ALL: [PathOutcome; N_OUTCOMES] = [
        PathOutcome::Delivered,
        PathOutcome::Processed,
        PathOutcome::KernelDefault,
        PathOutcome::NicDropped,
        PathOutcome::RingDropped,
        PathOutcome::CorruptDiscarded,
        PathOutcome::Truncated,
    ];

    /// The outcome's report name.
    pub fn label(self) -> &'static str {
        match self {
            PathOutcome::Delivered => "delivered",
            PathOutcome::Processed => "processed",
            PathOutcome::KernelDefault => "kernel_default",
            PathOutcome::NicDropped => "nic_dropped",
            PathOutcome::RingDropped => "ring_dropped",
            PathOutcome::CorruptDiscarded => "corrupt_discarded",
            PathOutcome::Truncated => "truncated",
        }
    }
}

/// One received copy of a frame, traced through the receive-path stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTrace {
    /// The frame id joined on.
    pub frame: u64,
    /// Receiving host (from the `nic_rx` record).
    pub host: Option<u16>,
    /// Channel the frame was enqueued to, once known.
    pub channel: Option<u32>,
    /// Demux tier that classified it, once known.
    pub path: Option<PathKind>,
    /// Whether ring placement posted a semaphore (`false` = batched
    /// behind a pending notification), once known.
    pub signaled: Option<bool>,
    /// Scan-equivalent filter instruction count charged at classify.
    pub filter_instrs: u32,
    /// Bytes past the link header of the segment `tcp_segment(rx)`
    /// processed — what the modeled per-segment cost is keyed on; 0 until
    /// that stage.
    pub wire: u32,
    /// How the path ended.
    pub outcome: PathOutcome,
    /// Per-stage timestamps, indexed by `Stage as usize`; `None` where
    /// the frame never reached (or an event wasn't attributable to) that
    /// stage.
    pub t: [Option<Nanos>; N_STAGES],
}

impl PathTrace {
    pub(crate) fn new(frame: u64, host: Option<u16>) -> PathTrace {
        PathTrace {
            frame,
            host,
            channel: None,
            path: None,
            signaled: None,
            filter_instrs: 0,
            wire: 0,
            outcome: PathOutcome::Truncated,
            t: [None; N_STAGES],
        }
    }

    /// Timestamp of `stage`, if the frame reached it.
    pub fn stage_time(&self, stage: Stage) -> Option<Nanos> {
        self.t[stage as usize]
    }

    /// The present stages with their timestamps, in path order.
    fn present(&self) -> impl Iterator<Item = (Stage, Nanos)> + '_ {
        Stage::ALL
            .iter()
            .filter_map(|&s| self.t[s as usize].map(|t| (s, t)))
    }

    /// End-to-end latency: last present stage minus first present stage.
    /// `None` when fewer than one stage is present.
    pub fn end_to_end(&self) -> Option<Nanos> {
        let first = self.present().next()?;
        let last = self.present().last()?;
        Some(last.1 - first.1)
    }

    /// Per-stage latency components: for each consecutive pair of present
    /// stages, the delta attributed to the later stage. The components
    /// telescope: their sum equals [`end_to_end`](Self::end_to_end)
    /// exactly (deterministic sim time, no rounding).
    pub fn components(&self) -> Vec<(Stage, Nanos)> {
        let mut out = Vec::new();
        let mut prev: Option<Nanos> = None;
        for (s, t) in self.present() {
            if let Some(p) = prev {
                out.push((s, t.saturating_sub(p)));
            }
            prev = Some(t);
        }
        out
    }

    /// Whether the frame completed the full path into the application.
    pub fn is_complete(&self) -> bool {
        self.outcome == PathOutcome::Delivered
    }

    /// The per-copy invariants [`CausalGraph::check_consistency`] holds:
    /// stage timestamps nondecreasing in path order, components summing
    /// exactly to the end-to-end latency (deterministic sim time — no
    /// tolerance), and a delivered copy stamped at both ends.
    pub(crate) fn check(&self) -> Result<(), String> {
        let mut prev: Option<(Stage, Nanos)> = None;
        for (s, t) in self.present() {
            if let Some((ps, pt)) = prev {
                if t < pt {
                    return Err(format!(
                        "frame {}: stage {} at {} precedes {} at {}",
                        self.frame,
                        s.label(),
                        t,
                        ps.label(),
                        pt
                    ));
                }
            }
            prev = Some((s, t));
        }
        if let Some(e2e) = self.end_to_end() {
            let sum: Nanos = self.components().iter().map(|&(_, dt)| dt).sum();
            if sum != e2e {
                return Err(format!(
                    "frame {}: components sum {} != end-to-end {}",
                    self.frame, sum, e2e
                ));
            }
        }
        if self.is_complete()
            && (self.t[Stage::NicRx as usize].is_none()
                || self.t[Stage::Deliver as usize].is_none())
        {
            return Err(format!(
                "frame {}: delivered without nic_rx/app_deliver stamps",
                self.frame
            ));
        }
        Ok(())
    }
}

/// The receive-side views: every roll-up is over the graph's receive
/// copies, the stage and end-to-end ones over the delivered copies only.
impl CausalGraph {
    /// Every receive-side copy, journey by journey, each journey's copies
    /// in arrival order.
    pub fn rx(&self) -> impl Iterator<Item = &PathTrace> + '_ {
        self.journeys.iter().flat_map(|j| &j.rx)
    }

    fn delivered_rx(&self) -> impl Iterator<Item = &PathTrace> + '_ {
        self.rx().filter(|tr| tr.is_complete())
    }

    /// How many receive copies ended with `outcome`.
    pub fn outcome_count(&self, outcome: PathOutcome) -> u64 {
        self.rx().filter(|tr| tr.outcome == outcome).count() as u64
    }

    /// Per-stage component distributions over the delivered copies,
    /// indexed by `Stage as usize`. The `NicRx` slot stays empty (the
    /// anchor carries no component).
    pub fn stage_latency(&self) -> [Histogram; N_STAGES] {
        let mut stages: [Histogram; N_STAGES] = Default::default();
        for (s, dt) in self.delivered_rx().flat_map(PathTrace::components) {
            stages[s as usize].record(dt);
        }
        stages
    }

    /// Receive-side end-to-end latency distribution over the delivered
    /// copies: `nic_rx` to `app_deliver`.
    pub fn rx_end_to_end(&self) -> Histogram {
        let mut e2e = Histogram::new();
        for tr in self.delivered_rx() {
            e2e.record(tr.end_to_end().unwrap_or(0));
        }
        e2e
    }

    /// Folded flamegraph-style text: one `rx;<stage>[;<qualifier>] <ns>`
    /// line per distinct stack over the delivered copies, weights in
    /// summed component nanoseconds, sorted by stack. The demux stage is
    /// split by tier (`flow`/`scan`/`hw`) and the wakeup stage by
    /// `signaled`/`batched` — collapse with any flamegraph tool.
    pub fn folded(&self) -> String {
        let mut stacks: BTreeMap<String, u128> = BTreeMap::new();
        for tr in self.delivered_rx() {
            for (s, dt) in tr.components() {
                let stack = match s {
                    Stage::Demux => format!(
                        "rx;{};{}",
                        s.label(),
                        tr.path.map_or("unknown", PathKind::label)
                    ),
                    Stage::Wakeup => format!(
                        "rx;{};{}",
                        s.label(),
                        match tr.signaled {
                            Some(true) => "signaled",
                            Some(false) => "batched",
                            None => "unknown",
                        }
                    ),
                    _ => format!("rx;{}", s.label()),
                };
                *stacks.entry(stack).or_default() += dt as u128;
            }
        }
        let mut out = String::new();
        for (stack, ns) in stacks {
            out.push_str(&format!("{stack} {ns}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dir, Event, Record};

    fn rec(time: Nanos, host: u16, frame: Option<u64>, event: Event) -> Record {
        Record {
            time,
            host: Some(host),
            frame,
            event,
        }
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
}
