//! The critical-path latency profiler: joins a journal by frame id into
//! per-frame [`PathTrace`]s over the receive-path stage taxonomy
//! (`nic_rx → demux_classify → ring_enqueue → wakeup_batch → tcp_segment
//! → app_deliver`), decomposes each delivered frame's end-to-end latency
//! into per-stage components, and aggregates per-stage and per-channel
//! histograms plus a folded flamegraph-style text output.
//!
//! This is the layer that turns the raw journal into the paper's Table
//! 2/3-style accounting: *where* does a received packet's time go —
//! demultiplexing, buffering in the ring, waiting for the wakeup, or
//! protocol processing?
//!
//! # Join discipline
//!
//! The join consumes the record slice in **emission order** (not
//! [`render`](crate::render)'s sorted display order). Two structures
//! drive it: a per-frame queue of open traces (so a fault-duplicated
//! frame id yields two traces that claim their own events in arrival
//! order), and a per-`(host, channel)` FIFO of ring-resident traces —
//! `wakeup_batch` events carry no frame id, so batch consumption is
//! attributed in ring order, exactly as the library drains the ring.
//!
//! Frames that leave the path early close their trace with a non-
//! [`Delivered`](PathOutcome::Delivered) outcome instead of panicking or
//! mis-joining: NIC staging overflow, an unmatched (kernel-default)
//! classify, a ring drop, or a checksum-caught corruption. A frame whose
//! events simply stop (still in a ring at `journal_stop`, or wire-dropped
//! mid-path) is [`Truncated`](PathOutcome::Truncated). Known limits: a
//! wire-dropped frame that never reached the receiver's NIC produces no
//! trace at all (the taxonomy starts at `nic_rx`), and frames the
//! monolithic-organization demux routes to the kernel default close at
//! [`KernelDefault`](PathOutcome::KernelDefault) — their later in-kernel
//! protocol events are not attributed.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::metrics::Histogram;
use crate::{Dir, Event, Nanos, PathKind, Record};

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

/// One frame's reconstructed journey through the receive-path stages.
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
    fn new(frame: u64, host: Option<u16>) -> PathTrace {
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
}

/// Per-channel profile roll-up, keyed by `(host, channel id)`.
#[derive(Debug, Clone, Default)]
pub struct ChannelProfile {
    /// Delivered frames attributed to the channel.
    pub frames: u64,
    /// End-to-end latency distribution of those frames.
    pub end_to_end: Histogram,
    /// Summed per-stage component nanoseconds, indexed by `Stage as usize`.
    pub stage_ns: [u128; N_STAGES],
}

/// The aggregated profile: every reconstructed [`PathTrace`] plus stage,
/// channel, and outcome roll-ups over the delivered frames.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Every reconstructed trace, in `nic_rx` arrival order.
    pub traces: Vec<PathTrace>,
    /// Per-stage component distributions over delivered frames. The
    /// `NicRx` slot stays empty (the anchor carries no component).
    pub stages: [Histogram; N_STAGES],
    /// End-to-end latency distribution over delivered frames.
    pub end_to_end: Histogram,
    /// Per-`(host, channel)` roll-ups over delivered frames.
    pub channels: BTreeMap<(u16, u32), ChannelProfile>,
    outcomes: [u64; N_OUTCOMES],
}

/// Index of the first trace in `open[frame]` that hasn't reached `stage`.
fn find_open(
    open: &HashMap<u64, VecDeque<usize>>,
    traces: &[PathTrace],
    frame: u64,
    stage: Stage,
) -> Option<usize> {
    open.get(&frame)?
        .iter()
        .copied()
        .find(|&i| traces[i].t[stage as usize].is_none())
}

fn close(open: &mut HashMap<u64, VecDeque<usize>>, frame: u64, idx: usize) {
    if let Some(q) = open.get_mut(&frame) {
        q.retain(|&i| i != idx);
        if q.is_empty() {
            open.remove(&frame);
        }
    }
}

impl Profile {
    /// Joins a journal (in emission order) into per-frame traces and
    /// aggregates them. Never panics on incomplete lifecycles: faulted,
    /// dropped, and duplicated frames close with their own outcomes.
    pub fn build(records: &[Record]) -> Profile {
        let mut traces: Vec<PathTrace> = Vec::new();
        // Open traces per frame id, in arrival order — duplicates queue.
        let mut open: HashMap<u64, VecDeque<usize>> = HashMap::new();
        // Ring-resident traces per (host, channel): wakeup_batch carries
        // no frame id, so consumption is attributed FIFO, like the ring.
        let mut ring: HashMap<(u16, u32), VecDeque<usize>> = HashMap::new();

        for rec in records {
            match &rec.event {
                Event::NicRx { accepted, .. } => {
                    let Some(f) = rec.frame else { continue };
                    let mut tr = PathTrace::new(f, rec.host);
                    tr.t[Stage::NicRx as usize] = Some(rec.time);
                    let idx = traces.len();
                    if *accepted {
                        traces.push(tr);
                        open.entry(f).or_default().push_back(idx);
                    } else {
                        tr.outcome = PathOutcome::NicDropped;
                        traces.push(tr);
                    }
                }
                Event::DemuxClassify {
                    path,
                    filter_instrs,
                    matched,
                } => {
                    let Some(f) = rec.frame else { continue };
                    let Some(idx) = find_open(&open, &traces, f, Stage::Demux) else {
                        continue;
                    };
                    let tr = &mut traces[idx];
                    tr.t[Stage::Demux as usize] = Some(rec.time);
                    tr.path = Some(*path);
                    tr.filter_instrs = *filter_instrs;
                    if !*matched {
                        tr.outcome = PathOutcome::KernelDefault;
                        close(&mut open, f, idx);
                    }
                }
                Event::RingEnqueue {
                    channel, signal, ..
                } => {
                    let Some(f) = rec.frame else { continue };
                    let Some(idx) = find_open(&open, &traces, f, Stage::Ring) else {
                        continue;
                    };
                    let tr = &mut traces[idx];
                    tr.t[Stage::Ring as usize] = Some(rec.time);
                    tr.channel = Some(*channel);
                    tr.signaled = Some(*signal);
                    if let Some(h) = rec.host.or(tr.host) {
                        ring.entry((h, *channel)).or_default().push_back(idx);
                    }
                }
                // A tenant-quota drop dies at the same stage as a ring
                // overflow; the causal layer tells them apart by the
                // quota record's tenant id, so the profiler's stage
                // taxonomy stays at seven outcomes.
                Event::RingDrop { .. } | Event::QuotaDrop { .. } => {
                    let Some(f) = rec.frame else { continue };
                    let Some(idx) = find_open(&open, &traces, f, Stage::Ring) else {
                        continue;
                    };
                    traces[idx].outcome = PathOutcome::RingDropped;
                    close(&mut open, f, idx);
                }
                Event::WakeupBatch { channel, frames } => {
                    let Some(h) = rec.host else { continue };
                    let Some(q) = ring.get_mut(&(h, *channel)) else {
                        continue;
                    };
                    for _ in 0..*frames {
                        let Some(idx) = q.pop_front() else { break };
                        let slot = &mut traces[idx].t[Stage::Wakeup as usize];
                        if slot.is_none() {
                            *slot = Some(rec.time);
                        }
                    }
                }
                Event::TcpSegment {
                    dir: Dir::Rx, wire, ..
                } => {
                    let Some(f) = rec.frame else { continue };
                    let Some(idx) = find_open(&open, &traces, f, Stage::Tcp) else {
                        continue;
                    };
                    traces[idx].t[Stage::Tcp as usize] = Some(rec.time);
                    traces[idx].wire = *wire;
                }
                Event::FrameCorruptDiscard { .. } => {
                    let Some(f) = rec.frame else { continue };
                    let Some(&idx) = open.get(&f).and_then(VecDeque::front) else {
                        continue;
                    };
                    traces[idx].outcome = PathOutcome::CorruptDiscarded;
                    close(&mut open, f, idx);
                }
                Event::AppDeliver { .. } => {
                    let Some(f) = rec.frame else { continue };
                    let Some(idx) = find_open(&open, &traces, f, Stage::Deliver) else {
                        continue;
                    };
                    let tr = &mut traces[idx];
                    tr.t[Stage::Deliver as usize] = Some(rec.time);
                    tr.outcome = PathOutcome::Delivered;
                    close(&mut open, f, idx);
                }
                _ => {}
            }
        }

        // Whatever is still open ran off the end of the journal: fully
        // protocol-processed frames (pure ACKs and the like) are
        // Processed, the rest are Truncated.
        for q in open.into_values() {
            for idx in q {
                let tr = &mut traces[idx];
                tr.outcome = if tr.t[Stage::Tcp as usize].is_some() {
                    PathOutcome::Processed
                } else {
                    PathOutcome::Truncated
                };
            }
        }

        // Aggregate the delivered traces.
        let mut stages: [Histogram; N_STAGES] = Default::default();
        let mut end_to_end = Histogram::new();
        let mut channels: BTreeMap<(u16, u32), ChannelProfile> = BTreeMap::new();
        let mut outcomes = [0u64; N_OUTCOMES];
        for tr in &traces {
            outcomes[tr.outcome as usize] += 1;
            if !tr.is_complete() {
                continue;
            }
            let e2e = tr.end_to_end().unwrap_or(0);
            end_to_end.record(e2e);
            let ch = tr
                .host
                .zip(tr.channel)
                .map(|key| channels.entry(key).or_default());
            if let Some(ch) = ch {
                ch.frames += 1;
                ch.end_to_end.record(e2e);
            }
            for (s, dt) in tr.components() {
                stages[s as usize].record(dt);
                if let Some(key) = tr.host.zip(tr.channel) {
                    channels.get_mut(&key).unwrap().stage_ns[s as usize] += dt as u128;
                }
            }
        }

        Profile {
            traces,
            stages,
            end_to_end,
            channels,
            outcomes,
        }
    }

    /// How many traces ended with `outcome`.
    pub fn outcome_count(&self, outcome: PathOutcome) -> u64 {
        self.outcomes[outcome as usize]
    }

    /// Delivered-trace count (the population behind the stage roll-ups).
    pub fn delivered(&self) -> u64 {
        self.outcome_count(PathOutcome::Delivered)
    }

    /// Verifies the profile's internal invariants and returns an error
    /// describing the first violation: per-trace stage timestamps must be
    /// nondecreasing in path order, and each trace's components must sum
    /// exactly to its end-to-end latency (deterministic sim time — no
    /// tolerance).
    pub fn check_consistency(&self) -> Result<(), String> {
        for tr in &self.traces {
            let mut prev: Option<(Stage, Nanos)> = None;
            for (s, t) in tr.present() {
                if let Some((ps, pt)) = prev {
                    if t < pt {
                        return Err(format!(
                            "frame {}: stage {} at {} precedes {} at {}",
                            tr.frame,
                            s.label(),
                            t,
                            ps.label(),
                            pt
                        ));
                    }
                }
                prev = Some((s, t));
            }
            if let Some(e2e) = tr.end_to_end() {
                let sum: Nanos = tr.components().iter().map(|&(_, dt)| dt).sum();
                if sum != e2e {
                    return Err(format!(
                        "frame {}: components sum {} != end-to-end {}",
                        tr.frame, sum, e2e
                    ));
                }
            }
            if tr.is_complete()
                && (tr.t[Stage::NicRx as usize].is_none()
                    || tr.t[Stage::Deliver as usize].is_none())
            {
                return Err(format!(
                    "frame {}: delivered without nic_rx/app_deliver stamps",
                    tr.frame
                ));
            }
        }
        Ok(())
    }

    /// Folded flamegraph-style text: one `rx;<stage>[;<qualifier>] <ns>`
    /// line per distinct stack over the delivered frames, weights in
    /// summed component nanoseconds, sorted by stack. The demux stage is
    /// split by tier (`flow`/`scan`/`hw`) and the wakeup stage by
    /// `signaled`/`batched` — collapse with any flamegraph tool.
    pub fn folded(&self) -> String {
        let mut stacks: BTreeMap<String, u128> = BTreeMap::new();
        for tr in &self.traces {
            if !tr.is_complete() {
                continue;
            }
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

    /// Serializes the profile through [`crate::json::write`]: outcome
    /// counts, per-stage component summaries over delivered frames, the
    /// end-to-end distribution, and per-channel roll-ups.
    pub fn to_json(&self) -> String {
        use crate::json::Value;
        let outcomes = PathOutcome::ALL
            .iter()
            .map(|&o| (o.label(), self.outcome_count(o).into()));
        let stages = Stage::ALL.iter().skip(1);
        let stages = stages.map(|&s| (s.label(), self.stages[s as usize].summary()));
        let channels = self.channels.iter().map(|(&(host, id), ch)| {
            Value::obj([
                ("host", u64::from(host).into()),
                ("channel", u64::from(id).into()),
                ("frames", ch.frames.into()),
                ("end_to_end", ch.end_to_end.summary()),
            ])
        });
        crate::json::write(&Value::obj([
            ("outcomes", Value::obj(outcomes)),
            ("stages", Value::obj(stages)),
            ("end_to_end", self.end_to_end.summary()),
            ("channels", channels.collect()),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn tcp_rx(t: Nanos, f: u64) -> Record {
        rec(
            t,
            1,
            Some(f),
            Event::TcpSegment {
                dir: Dir::Rx,
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

    fn deliver(t: Nanos, f: u64) -> Record {
        rec(t, 1, Some(f), Event::AppDeliver { conn: 9, bytes: 10 })
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
        let p = Profile::build(&recs);
        assert_eq!(p.traces.len(), 1);
        let tr = &p.traces[0];
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
        assert_eq!(p.delivered(), 1);
        p.check_consistency().unwrap();
        assert_eq!(p.end_to_end.mean(), Some(200.0));
        assert_eq!(p.channels[&(1, 3)].frames, 1);
        assert_eq!(p.channels[&(1, 3)].stage_ns[Stage::Tcp as usize], 50);
        let folded = p.folded();
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
        let p = Profile::build(&recs);
        assert_eq!(p.traces.len(), 2);
        assert!(p.traces.iter().all(|t| t.is_complete()));
        // First arrival claims the first classify/enqueue/tcp/deliver.
        assert_eq!(p.traces[0].stage_time(Stage::Ring), Some(120));
        assert_eq!(p.traces[1].stage_time(Stage::Ring), Some(150));
        assert_eq!(p.traces[0].stage_time(Stage::Deliver), Some(230));
        assert_eq!(p.traces[1].stage_time(Stage::Deliver), Some(240));
        assert_eq!(p.traces[0].signaled, Some(true));
        assert_eq!(p.traces[1].signaled, Some(false));
        p.check_consistency().unwrap();
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
        let p = Profile::build(&recs);
        assert_eq!(p.traces.len(), 5);
        assert_eq!(p.outcome_count(PathOutcome::NicDropped), 1);
        assert_eq!(p.outcome_count(PathOutcome::KernelDefault), 1);
        assert_eq!(p.outcome_count(PathOutcome::RingDropped), 1);
        assert_eq!(p.outcome_count(PathOutcome::CorruptDiscarded), 1);
        assert_eq!(p.outcome_count(PathOutcome::Truncated), 1);
        assert_eq!(p.delivered(), 0);
        // The corrupt-discarded trace still carries its partial path.
        let corrupt = p
            .traces
            .iter()
            .find(|t| t.outcome == PathOutcome::CorruptDiscarded)
            .unwrap();
        assert_eq!(corrupt.stage_time(Stage::Wakeup), Some(70));
        assert_eq!(corrupt.stage_time(Stage::Tcp), None);
        p.check_consistency().unwrap();
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
        let p = Profile::build(&recs);
        assert_eq!(p.outcome_count(PathOutcome::Processed), 1);
        assert_eq!(p.delivered(), 0);
        assert_eq!(p.traces[0].end_to_end(), Some(40));
        p.check_consistency().unwrap();
    }

    #[test]
    fn profile_json_is_shaped() {
        let recs = vec![
            nic_rx(100, 0),
            classify(130, 0),
            enqueue(150, 0, true),
            wakeup(190, 1),
            tcp_rx(240, 0),
            deliver(300, 0),
        ];
        let p = Profile::build(&recs);
        let j = p.to_json();
        assert!(j.contains("\"delivered\": 1"));
        assert!(j.contains("\"demux_classify\""));
        assert!(j.contains("\"end_to_end\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
