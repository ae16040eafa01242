//! The receive half of the causal graph: the receive-path stage taxonomy
//! (`nic_rx → demux_classify → ring_enqueue → wakeup_batch → tcp_segment
//! → app_deliver`), the per-copy [`PathTrace`], the receive step of
//! [`CausalGraph::build`] that stamps one for every frame a host received
//! (the only code that stamps a stage), and the receive-side views over
//! the graph: per-stage and end-to-end latency roll-ups, outcome counts
//! and a folded flamegraph-style text output.
//!
//! This is the paper's Table 2/3-style accounting: *where* does a
//! received packet's time go — demultiplexing, buffering in the ring,
//! waiting for the wakeup, or protocol processing?

use std::collections::{BTreeMap, HashMap, VecDeque};

use super::CausalGraph;
use crate::{Dir, Event, Histogram, Nanos, PathKind, Record};

keywords! {
    /// The receive-path stage taxonomy, in path order; each stage's
    /// keyword is the journal event that stamps it. Each stage's component
    /// is the time from the previous *present* stage's timestamp to its
    /// own, so the components of one trace telescope exactly to its
    /// end-to-end latency. `NicRx` anchors the path and never carries a
    /// component.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Stage {
        /// Frame accepted into NIC receive staging (the path anchor).
        NicRx => "nic_rx",
        /// Software demultiplex classified the frame to a channel.
        Demux => "demux_classify",
        /// Frame placed into the channel's receive ring.
        Ring => "ring_enqueue",
        /// A library wakeup consumed the frame from the ring (attributed in
        /// ring FIFO order — the event itself carries no frame id).
        Wakeup => "wakeup_batch",
        /// The protocol library processed the frame's TCP segment.
        Tcp => "tcp_segment",
        /// Received bytes crossed the final boundary into the application.
        Deliver => "app_deliver",
    }

    /// How a frame's path through the receive stages ended.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum PathOutcome {
        /// The full path: bytes reached the application.
        Delivered => "delivered",
        /// Protocol-processed to completion but nothing crossed into the
        /// application (pure ACK, window update, retransmitted duplicate).
        Processed => "processed",
        /// The demux matched no channel binding; the frame took the
        /// kernel-default path and left the profiled taxonomy.
        KernelDefault => "kernel_default",
        /// Dropped at NIC staging overflow.
        NicDropped => "nic_dropped",
        /// Dropped at ring placement (ring full or slot too small).
        RingDropped => "ring_dropped",
        /// A checksum caught in-flight corruption; the frame was discarded.
        CorruptDiscarded => "corrupt_discarded",
        /// The frame's events stop mid-path (still in a ring at journal
        /// stop, or lost where no discard event marks it).
        Truncated => "truncated",
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
    t: [Option<Nanos>; Stage::ALL.len()],
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
            t: [None; Stage::ALL.len()],
        }
    }

    /// Timestamp of `stage`, if the frame reached it.
    pub fn stage_time(&self, stage: Stage) -> Option<Nanos> {
        self.t[stage as usize]
    }

    /// The present stages with their timestamps, in path order.
    pub fn present(&self) -> impl Iterator<Item = (Stage, Nanos)> + '_ {
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
    pub fn check(&self) -> Result<(), String> {
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
    pub fn stage_latency(&self) -> [Histogram; Stage::ALL.len()] {
        let mut stages: [Histogram; Stage::ALL.len()] = Default::default();
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

/// The receive step of [`CausalGraph::build`]: one [`PathTrace`] per
/// received copy, in `nic_rx` order.
///
/// It consumes the records in **emission order** (not
/// [`render`](crate::render)'s sorted display order). A per-frame queue
/// of open traces lets a fault-duplicated frame id yield two copies that
/// claim their own events in arrival order; a per-`(host, channel)` FIFO
/// of ring-resident traces attributes `wakeup_batch` (which carries no
/// frame id) in ring order, exactly as the library drains the ring. A
/// copy that leaves the path early closes with its own
/// [`PathOutcome`]; one whose events simply stop (still in a ring at
/// `journal_stop`, or wire-dropped mid-path) is
/// [`Truncated`](PathOutcome::Truncated).
pub(super) fn join_rx(records: &[Record]) -> Vec<PathTrace> {
    let mut traces: Vec<PathTrace> = Vec::new();
    // Open traces per frame id, in arrival order — duplicates queue.
    let mut open: HashMap<u64, VecDeque<usize>> = HashMap::new();
    // Ring-resident traces per (host, channel): wakeup_batch carries
    // no frame id, so consumption is attributed FIFO, like the ring.
    let mut ring: HashMap<(u16, u32), VecDeque<usize>> = HashMap::new();

    for rec in records {
        if let Event::WakeupBatch { channel, frames } = rec.event {
            let Some(q) = rec.host.and_then(|h| ring.get_mut(&(h, channel))) else {
                continue;
            };
            for idx in q.drain(..q.len().min(frames as usize)) {
                traces[idx].t[Stage::Wakeup as usize].get_or_insert(rec.time);
            }
            continue;
        }
        let Some(f) = rec.frame else { continue };
        match &rec.event {
            Event::NicRx { accepted, .. } => {
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
            // overflow; `fate_of` tells them apart by the quota record's
            // tenant id, so the stage taxonomy stays at seven outcomes.
            Event::RingDrop { .. } | Event::QuotaDrop { .. } => {
                let Some(idx) = find_open(&open, &traces, f, Stage::Ring) else {
                    continue;
                };
                traces[idx].outcome = PathOutcome::RingDropped;
                close(&mut open, f, idx);
            }
            Event::TcpSegment {
                dir: Dir::Rx, wire, ..
            } => {
                let Some(idx) = find_open(&open, &traces, f, Stage::Tcp) else {
                    continue;
                };
                traces[idx].t[Stage::Tcp as usize] = Some(rec.time);
                traces[idx].wire = *wire;
            }
            Event::FrameCorruptDiscard { .. } => {
                let Some(&idx) = open.get(&f).and_then(VecDeque::front) else {
                    continue;
                };
                traces[idx].outcome = PathOutcome::CorruptDiscarded;
                close(&mut open, f, idx);
            }
            Event::AppDeliver { .. } => {
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
    // protocol-processed frames (pure ACKs and the like) are Processed,
    // the rest are Truncated.
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
    traces
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
