//! Cross-host causal tracing: the journal joined into end-to-end frame
//! **journeys**, plus root-cause attribution for every retransmit and
//! loss.
//!
//! [`CausalGraph::build`] is the one post-hoc join of a journal. It joins
//! three thirds of a frame's life on the world-unique frame id: the
//! transmit side (`tcp_segment tx` → template check → `nic_tx`), the wire
//! hop (`link_tx` queue/serialization split plus any `fault_inject`
//! verdicts), and what happened *inside the receiving host* — one
//! [`PathTrace`] per received copy over [`crate::profile`]'s stage
//! taxonomy. A [`Journey`] therefore spans hosts: it starts when the
//! sender's TCP builds the segment and ends when the receiver's
//! application takes delivery — or earlier, with a [`Loss`] naming the
//! proximate cause.
//!
//! On top of the journeys sits the attribution layer: every
//! `tcp_rexmit` record is traced back to the latest prior transmission
//! of the resent sequence range, and that journey's fate names the
//! root [`Cause`] — an injected wire drop, an outage window, a
//! checksum-caught corruption, a ring overflow (genuine or
//! pressure-clamped), a reorder-induced spurious retransmit, a lost
//! ACK, or a crashed peer. Under a seeded `FaultPlan` the injected
//! schedule is the oracle: `tests/causal.rs` cross-checks that every
//! attribution points at a genuinely injected fault and that every
//! dropped data frame is claimed exactly once.
//!
//! Latency is decomposed the same way: [`Journey::lat_split`] labels
//! every nanosecond between segment build and application delivery as
//! queue-wait (link access, ring residency, reorder delay) or service
//! time (tx build, serialization, demux, wakeup, protocol, delivery),
//! and the components telescope **exactly** to the cross-host
//! end-to-end latency — sim time is deterministic, so
//! [`CausalGraph::check_consistency`] asserts equality, not tolerance.
//!
//! Known limits: the cause taxonomy tracks the user-library receive
//! path; frames the monolithic organization routes to the kernel
//! default close at `Arrived` (their copy at
//! [`KernelDefault`](PathOutcome::KernelDefault)) without per-stage
//! decomposition; a wire-dropped frame that never reached the receiver's
//! NIC has no receive copy (the stage taxonomy starts at `nic_rx`); and a
//! corrupted frame that dies of ring overflow before its checksum runs
//! is attributed to the overflow (the *proximate* cause, by design).

use std::collections::{HashMap, VecDeque};

use crate::profile::{PathOutcome, PathTrace, Stage};
use crate::{Dir, Event, FaultKind, Nanos, Record, RexmitReason};

/// The transmit-side TCP segment record of a journey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegTx {
    /// Sim time the sender's TCP built the segment.
    pub t: Nanos,
    /// Sender-side local port.
    pub local_port: u16,
    /// Sender-side remote port.
    pub remote_port: u16,
    /// First sequence number carried.
    pub seq: u32,
    /// Payload bytes carried (0 = pure ACK / control).
    pub payload: u32,
    /// Wire bytes past the link header.
    pub wire: u32,
}

/// Where and why a frame was lost in flight or at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Random injected drop on the link `from → to`.
    WireDrop {
        /// Sending host.
        from: u16,
        /// Receiving host.
        to: u16,
    },
    /// The frame fell inside a scheduled outage window on `from → to`.
    Outage {
        /// Sending host.
        from: u16,
        /// Receiving host.
        to: u16,
    },
    /// Injected corruption on `from → to`, caught by the receiver's
    /// checksum and discarded.
    Corrupt {
        /// Sending host.
        from: u16,
        /// Receiving host.
        to: u16,
    },
    /// Dropped at ring placement. `pressure == true` means a fault
    /// plan's slow-consumer window clamped the ring below its real
    /// capacity — injected pressure, not genuine load.
    RingOverflow {
        /// The overflowed channel.
        channel: u32,
        /// Whether an injected pressure clamp caused the drop.
        pressure: bool,
    },
    /// Dropped at ring placement because the owning tenant had exhausted
    /// its aggregate ring-slot quota — the channel itself still had room,
    /// so the root cause is the tenant overrunning its budget, not load
    /// on this channel.
    QuotaExceeded {
        /// The channel the frame was bound for.
        channel: u32,
        /// The tenant whose exhausted quota caused the drop.
        tenant: u64,
    },
    /// Dropped at NIC receive staging overflow.
    NicOverflow,
}

impl Loss {
    /// Stable report keyword for the loss kind.
    pub fn label(self) -> &'static str {
        match self {
            Loss::WireDrop { .. } => "wire_drop",
            Loss::Outage { .. } => "outage",
            Loss::Corrupt { .. } => "corrupt",
            Loss::RingOverflow { pressure: true, .. } => "ring_pressure",
            Loss::RingOverflow { .. } => "ring_overflow",
            Loss::QuotaExceeded { .. } => "quota_exceeded",
            Loss::NicOverflow => "nic_overflow",
        }
    }

    /// Human-readable description.
    pub fn describe(self) -> String {
        match self {
            Loss::WireDrop { from, to } => format!("injected drop on link {from}\u{2192}{to}"),
            Loss::Outage { from, to } => format!("outage window on link {from}\u{2192}{to}"),
            Loss::Corrupt { from, to } => {
                format!("injected corruption on link {from}\u{2192}{to} (discarded on receive)")
            }
            Loss::RingOverflow { channel, pressure } => {
                if pressure {
                    format!("ring overflow on ch{channel} (injected slow-consumer pressure)")
                } else {
                    format!("ring overflow on ch{channel}")
                }
            }
            Loss::QuotaExceeded { channel, tenant } => {
                format!("ring quota exhausted by tenant {tenant} (drop on ch{channel})")
            }
            Loss::NicOverflow => "NIC staging overflow".into(),
        }
    }
}

/// How a journey ended, cross-host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JourneyFate {
    /// Reached the peer's TCP (payload delivered or pure ACK processed).
    Arrived,
    /// Lost in flight or at the receiver.
    Lost(Loss),
    /// The journal stopped (or the run ended) with the frame still
    /// pending — no verdict.
    InFlight,
}

/// One frame's end-to-end journey: tx-side spans, wire hop, fault
/// verdicts, and every receive-side [`PathTrace`] copy (a duplicated
/// frame arrives more than once), joined by frame id.
#[derive(Debug, Clone, PartialEq)]
pub struct Journey {
    /// The world-unique frame id joined on.
    pub frame: u64,
    /// Transmitting host, when a tx-side record named it.
    pub tx_host: Option<u16>,
    /// The TCP segment the sender built into this frame.
    pub seg: Option<SegTx>,
    /// Kernel template-check verdict on transmit.
    pub template_ok: Option<bool>,
    /// Sim time the frame was handed to the NIC for transmit.
    pub nic_tx: Option<Nanos>,
    /// Wait for link access (CSMA backoff / token rotation).
    pub link_queue: Option<Nanos>,
    /// Serialization plus propagation time on the wire.
    pub link_wire: Option<Nanos>,
    /// Fault-plan verdicts on this frame: `(time, kind, from, to)`.
    pub faults: Vec<(Nanos, FaultKind, u16, u16)>,
    /// Receive-side traces, in arrival order (duplicates queue).
    pub rx: Vec<PathTrace>,
    /// The journey's cross-host verdict.
    pub fate: JourneyFate,
}

/// One latency component of a journey, labeled queue-wait or service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatComp {
    /// Stage label (`tx_build`, `link_queue`, `link_wire`,
    /// `reorder_wait`, then the receive-path stage keywords).
    pub label: &'static str,
    /// Nanoseconds attributed to the stage.
    pub ns: Nanos,
    /// `true` = the frame sat in a queue; `false` = something worked on
    /// it (service time).
    pub queue: bool,
}

impl Journey {
    fn new(frame: u64) -> Journey {
        Journey {
            frame,
            tx_host: None,
            seg: None,
            template_ok: None,
            nic_tx: None,
            link_queue: None,
            link_wire: None,
            faults: Vec::new(),
            rx: Vec::new(),
            fate: JourneyFate::InFlight,
        }
    }

    /// Whether the fault plan hit this frame with `kind`.
    pub fn has_fault(&self, kind: FaultKind) -> bool {
        self.faults.iter().any(|&(_, k, _, _)| k == kind)
    }

    /// The receive-side copy that reached the peer's protocol (delivered
    /// payload, or a processed pure ACK), if any.
    pub fn primary_rx(&self) -> Option<&PathTrace> {
        self.rx
            .iter()
            .find(|tr| tr.outcome == PathOutcome::Delivered)
            .or_else(|| {
                self.rx.iter().find(|tr| {
                    matches!(
                        tr.outcome,
                        PathOutcome::Processed | PathOutcome::KernelDefault
                    )
                })
            })
    }

    /// Sim time the frame's primary copy reached the peer's TCP (or its
    /// last recorded stage), if it arrived.
    pub fn arrival(&self) -> Option<Nanos> {
        let tr = self.primary_rx()?;
        tr.stage_time(Stage::Tcp)
            .or_else(|| Stage::ALL.iter().rev().find_map(|&s| tr.stage_time(s)))
    }

    /// The journey's anchor timestamp: segment build when known, else
    /// NIC transmit, else the first receive-side stage.
    pub fn start(&self) -> Option<Nanos> {
        self.seg
            .as_ref()
            .map(|s| s.t)
            .or(self.nic_tx)
            .or_else(|| self.rx.first().and_then(|tr| tr.stage_time(Stage::NicRx)))
    }

    /// Cross-host end-to-end latency of the primary copy: last receive
    /// stage minus the anchor ([`start`](Self::start)).
    pub fn end_to_end(&self) -> Option<Nanos> {
        let tr = self.primary_rx()?;
        let last = Stage::ALL.iter().rev().find_map(|&s| tr.stage_time(s))?;
        Some(last - self.start()?)
    }

    /// Decomposes the primary copy's cross-host latency into labeled
    /// queue-wait / service components that telescope **exactly** to
    /// [`end_to_end`](Self::end_to_end). `None` when no copy arrived.
    pub fn lat_split(&self) -> Option<Vec<LatComp>> {
        let tr = self.primary_rx()?;
        let rx0 = tr.stage_time(Stage::NicRx)?;
        let mut out = Vec::new();
        let mut cursor = self.start()?;
        if let (Some(s), Some(tx)) = (self.seg.as_ref(), self.nic_tx) {
            out.push(LatComp {
                label: "tx_build",
                ns: tx - s.t,
                queue: false,
            });
            cursor = tx;
        }
        if let (Some(tx), Some(q), Some(w)) = (self.nic_tx, self.link_queue, self.link_wire) {
            out.push(LatComp {
                label: "link_queue",
                ns: q,
                queue: true,
            });
            out.push(LatComp {
                label: "link_wire",
                ns: w,
                queue: false,
            });
            cursor = tx + q + w;
        }
        // Anything between the modeled wire arrival and the NIC seeing
        // the frame is injected reorder delay (zero otherwise).
        out.push(LatComp {
            label: "reorder_wait",
            ns: rx0 - cursor,
            queue: true,
        });
        for (stage, dt) in tr.components() {
            out.push(LatComp {
                label: stage.label(),
                ns: dt,
                queue: stage == Stage::Ring,
            });
        }
        Some(out)
    }

    /// One-line fate description for reports.
    pub fn describe_fate(&self) -> String {
        match self.fate {
            JourneyFate::Arrived => "arrived".into(),
            JourneyFate::Lost(loss) => format!("lost: {}", loss.describe()),
            JourneyFate::InFlight => "in flight at journal stop".into(),
        }
    }
}

/// The root cause attributed to one retransmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// The previous transmission of these bytes was lost.
    DataLoss {
        /// The lost frame.
        frame: u64,
        /// Where and why it was lost.
        loss: Loss,
    },
    /// The data arrived; the acknowledgment coming back was lost.
    AckLoss {
        /// The data frame that arrived.
        data_frame: u64,
        /// The reverse-direction frame that was lost.
        ack_frame: u64,
        /// Where and why the ACK was lost.
        loss: Loss,
    },
    /// The previous transmission arrived, but late (injected reorder) —
    /// dup-ACKs or the RTO beat it. A spurious retransmit.
    Reorder {
        /// The late frame.
        frame: u64,
    },
    /// The peer crashed; nothing will acknowledge.
    PeerCrash {
        /// The crashed host.
        host: u16,
    },
    /// The previous transmission had no verdict when the journal
    /// stopped (RTO raced a slow wire at the end of the run).
    InFlight {
        /// The still-pending frame.
        frame: u64,
    },
    /// The previous transmission arrived, but the retransmit fired
    /// before the delivery (or the ACK carrying the news) could reach
    /// the sender — queueing delay, not loss. A spurious retransmit.
    LateDelivery {
        /// The frame that was still on the wire when the retransmit
        /// fired.
        frame: u64,
    },
    /// No prior transmission overlapping the resent range was found.
    Unattributed,
}

impl Cause {
    /// Stable report keyword.
    pub fn label(self) -> &'static str {
        match self {
            Cause::DataLoss { loss, .. } => loss.label(),
            Cause::AckLoss { .. } => "ack_loss",
            Cause::Reorder { .. } => "reorder",
            Cause::PeerCrash { .. } => "peer_crash",
            Cause::InFlight { .. } => "in_flight",
            Cause::LateDelivery { .. } => "late_delivery",
            Cause::Unattributed => "unattributed",
        }
    }

    /// Whether a concrete cause was established.
    pub fn is_attributed(self) -> bool {
        !matches!(self, Cause::Unattributed)
    }

    /// Human-readable cause chain.
    pub fn describe(self) -> String {
        match self {
            Cause::DataLoss { frame, loss } => {
                format!("previous tx f{frame} {}", loss.describe())
            }
            Cause::AckLoss {
                data_frame,
                ack_frame,
                loss,
            } => format!(
                "data f{data_frame} arrived; ACK f{ack_frame} {}",
                loss.describe()
            ),
            Cause::Reorder { frame } => {
                format!("spurious: previous tx f{frame} arrived late (injected reorder)")
            }
            Cause::PeerCrash { host } => format!("peer host{host} crashed"),
            Cause::InFlight { frame } => {
                format!("previous tx f{frame} still in flight at journal stop")
            }
            Cause::LateDelivery { frame } => format!(
                "spurious: previous tx f{frame} was still on the wire when the retransmit fired (delay, not loss)"
            ),
            Cause::Unattributed => "no prior transmission found".into(),
        }
    }
}

/// One retransmit with its attributed root cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// Sim time the retransmit fired.
    pub t: Nanos,
    /// Retransmitting host, when known.
    pub host: Option<u16>,
    /// Sender-side local port.
    pub local_port: u16,
    /// Sender-side remote port.
    pub remote_port: u16,
    /// First resent sequence number.
    pub seq: u32,
    /// Resent bytes.
    pub bytes: u32,
    /// Which loss-detection mechanism fired.
    pub reason: RexmitReason,
    /// The attributed root cause.
    pub cause: Cause,
}

/// `lo <= x < lo + len` in sequence-number space (wrapping).
fn seq_contains(lo: u32, len: u32, x: u32) -> bool {
    len > 0 && x.wrapping_sub(lo) < len
}

/// The cross-host causal trace graph: every journey, every retransmit
/// attribution, and the crash schedule observed in one journal. The
/// receive-side views (`rx`, `stage_latency`, `folded`, …) are in
/// [`crate::profile`].
#[derive(Debug, Clone)]
pub struct CausalGraph {
    /// Every journey, in frame-creation (emission) order.
    pub journeys: Vec<Journey>,
    /// Every retransmit with its attributed cause, in firing order.
    pub rexmits: Vec<Attribution>,
    /// Observed crash events: `(time, host)`.
    pub crashes: Vec<(Nanos, u16)>,
    by_frame: HashMap<u64, usize>,
}

/// A `tcp_rexmit` record before attribution: `(time, host, local_port,
/// remote_port, seq, bytes, reason)`.
type RawRexmit = (Nanos, Option<u16>, u16, u16, u32, u32, RexmitReason);

impl CausalGraph {
    /// Joins a journal (emission order) into journeys and attributes
    /// every retransmit. Never panics on incomplete lifecycles: faulted,
    /// dropped, and duplicated frames close with their own outcomes.
    /// Journeys are ordered by a frame's first tx-side record; frames no
    /// tx-side record names follow, in `nic_rx` order.
    pub fn build(records: &[Record]) -> CausalGraph {
        let mut journeys: Vec<Journey> = Vec::new();
        let mut by_frame: HashMap<u64, usize> = HashMap::new();
        let mut ring_pressure: HashMap<u64, Vec<bool>> = HashMap::new();
        let mut quota_tenant: HashMap<u64, u64> = HashMap::new();
        let mut raw_rexmits: Vec<RawRexmit> = Vec::new();
        let mut crashes: Vec<(Nanos, u16)> = Vec::new();

        fn entry<'a>(
            journeys: &'a mut Vec<Journey>,
            by_frame: &mut HashMap<u64, usize>,
            frame: u64,
        ) -> &'a mut Journey {
            let idx = *by_frame.entry(frame).or_insert_with(|| {
                journeys.push(Journey::new(frame));
                journeys.len() - 1
            });
            &mut journeys[idx]
        }

        for rec in records {
            match &rec.event {
                Event::TcpSegment {
                    dir: Dir::Tx,
                    local_port,
                    remote_port,
                    seq,
                    payload,
                    wire,
                    ..
                } => {
                    let Some(f) = rec.frame else { continue };
                    let j = entry(&mut journeys, &mut by_frame, f);
                    j.tx_host = j.tx_host.or(rec.host);
                    j.seg = Some(SegTx {
                        t: rec.time,
                        local_port: *local_port,
                        remote_port: *remote_port,
                        seq: *seq,
                        payload: *payload,
                        wire: *wire,
                    });
                }
                Event::TxTemplateCheck { ok, .. } => {
                    let Some(f) = rec.frame else { continue };
                    entry(&mut journeys, &mut by_frame, f).template_ok = Some(*ok);
                }
                Event::NicTx { .. } => {
                    let Some(f) = rec.frame else { continue };
                    let j = entry(&mut journeys, &mut by_frame, f);
                    j.tx_host = j.tx_host.or(rec.host);
                    j.nic_tx = Some(rec.time);
                }
                Event::LinkTx { queue, wire } => {
                    let Some(f) = rec.frame else { continue };
                    let j = entry(&mut journeys, &mut by_frame, f);
                    j.link_queue = Some(*queue);
                    j.link_wire = Some(*wire);
                }
                Event::FaultInject { kind, from, to } => match rec.frame {
                    Some(f) => entry(&mut journeys, &mut by_frame, f)
                        .faults
                        .push((rec.time, *kind, *from, *to)),
                    None if *kind == FaultKind::Crash => crashes.push((rec.time, *from)),
                    None => {}
                },
                Event::RingDrop { pressure, .. } => {
                    let Some(f) = rec.frame else { continue };
                    ring_pressure.entry(f).or_default().push(*pressure);
                }
                Event::QuotaDrop { tenant, .. } => {
                    let Some(f) = rec.frame else { continue };
                    quota_tenant.entry(f).or_insert(*tenant);
                }
                Event::TcpRexmit {
                    local_port,
                    remote_port,
                    seq,
                    bytes,
                    reason,
                    ..
                } => raw_rexmits.push((
                    rec.time,
                    rec.host,
                    *local_port,
                    *remote_port,
                    *seq,
                    *bytes,
                    *reason,
                )),
                _ => {}
            }
        }

        // The receive copies come in `nic_rx` order, so a frame no
        // tx-side record named journeys after every one that was.
        for tr in join_rx(records) {
            entry(&mut journeys, &mut by_frame, tr.frame).rx.push(tr);
        }

        for j in journeys.iter_mut() {
            j.fate = fate_of(
                j,
                ring_pressure.get(&j.frame),
                quota_tenant.get(&j.frame).copied(),
            );
        }

        let rexmits = raw_rexmits
            .into_iter()
            .map(|(t, host, local_port, remote_port, seq, bytes, reason)| {
                let cause = attribute(&journeys, &crashes, t, host, local_port, remote_port, seq);
                Attribution {
                    t,
                    host,
                    local_port,
                    remote_port,
                    seq,
                    bytes,
                    reason,
                    cause,
                }
            })
            .collect();

        CausalGraph {
            journeys,
            rexmits,
            crashes,
            by_frame,
        }
    }

    /// The journey of `frame`, if the journal saw it.
    pub fn journey(&self, frame: u64) -> Option<&Journey> {
        self.by_frame.get(&frame).map(|&i| &self.journeys[i])
    }

    /// Fraction of retransmits with an established cause (1.0 when no
    /// retransmit happened).
    pub fn coverage(&self) -> f64 {
        if self.rexmits.is_empty() {
            return 1.0;
        }
        let attributed = self
            .rexmits
            .iter()
            .filter(|a| a.cause.is_attributed())
            .count();
        attributed as f64 / self.rexmits.len() as f64
    }

    /// Every lost journey with its loss cause (losses are self-
    /// attributing: the fate *is* the cause).
    pub fn losses(&self) -> impl Iterator<Item = (&Journey, Loss)> {
        self.journeys.iter().filter_map(|j| match j.fate {
            JourneyFate::Lost(loss) => Some((j, loss)),
            _ => None,
        })
    }

    /// How many attributions claim each lost data frame (oracle
    /// surface: under a seeded drop plan every lost *data* frame must be
    /// claimed exactly once, or superseded by a redundant delivery).
    pub fn claims(&self) -> HashMap<u64, usize> {
        let mut out = HashMap::new();
        for a in &self.rexmits {
            match a.cause {
                Cause::DataLoss { frame, .. } => *out.entry(frame).or_insert(0) += 1,
                Cause::AckLoss { ack_frame, .. } => *out.entry(ack_frame).or_insert(0) += 1,
                _ => {}
            }
        }
        out
    }

    /// Whether another transmission of an overlapping sequence range on
    /// the same connection arrived — a lost frame with a redundant
    /// delivery needs no retransmit to claim it.
    pub fn superseded(&self, j: &Journey) -> bool {
        let Some(s) = &j.seg else { return false };
        self.journeys.iter().any(|o| {
            o.frame != j.frame
                && o.fate == JourneyFate::Arrived
                && o.seg.as_ref().is_some_and(|os| {
                    os.local_port == s.local_port
                        && os.remote_port == s.remote_port
                        && os.payload > 0
                        && (seq_contains(os.seq, os.payload, s.seq)
                            || seq_contains(s.seq, s.payload, os.seq))
                })
        })
    }

    /// The graph's one checker. Every receive copy's stage timestamps are
    /// nondecreasing and its components telescope exactly to its own
    /// end-to-end latency; over every arrived journey, the labeled
    /// cross-host components sum **exactly** to the cross-host end-to-end
    /// latency; and tx-side timestamps are monotone.
    pub fn check_consistency(&self) -> Result<(), String> {
        for j in &self.journeys {
            for tr in &j.rx {
                tr.check()?;
            }
            if let (Some(s), Some(tx)) = (&j.seg, j.nic_tx) {
                if tx < s.t {
                    return Err(format!("f{}: nic_tx before segment build", j.frame));
                }
            }
            let Some(split) = j.lat_split() else { continue };
            let sum: Nanos = split.iter().map(|c| c.ns).sum();
            let e2e = j.end_to_end().unwrap_or(0);
            if sum != e2e {
                return Err(format!(
                    "f{}: components sum to {sum} ns but end-to-end is {e2e} ns",
                    j.frame
                ));
            }
        }
        Ok(())
    }

    /// Per-cause retransmit counts, sorted by label.
    pub fn cause_counts(&self) -> Vec<(&'static str, usize)> {
        let mut map: HashMap<&'static str, usize> = HashMap::new();
        for a in &self.rexmits {
            *map.entry(a.cause.label()).or_insert(0) += 1;
        }
        let mut out: Vec<_> = map.into_iter().collect();
        out.sort();
        out
    }

    /// Per-kind loss counts, sorted by label.
    pub fn loss_counts(&self) -> Vec<(&'static str, usize)> {
        let mut map: HashMap<&'static str, usize> = HashMap::new();
        for (_, loss) in self.losses() {
            *map.entry(loss.label()).or_insert(0) += 1;
        }
        let mut out: Vec<_> = map.into_iter().collect();
        out.sort();
        out
    }

    /// The postmortem timeline of one frame's journey, with the
    /// attributed cause chain of any retransmit it triggered.
    pub fn explain_frame(&self, frame: u64) -> String {
        let Some(j) = self.journey(frame) else {
            return format!("frame {frame}: not in journal\n");
        };
        let mut out = String::new();
        let peer =
            j.rx.first()
                .and_then(|tr| tr.host)
                .map_or("?".to_string(), |h| h.to_string());
        let me = j.tx_host.map_or("?".to_string(), |h| h.to_string());
        out.push_str(&format!("frame {frame}: host {me} \u{2192} host {peer}\n"));
        let t0 = j.start().unwrap_or(0);
        let line = |t: Nanos, what: String| format!("  +{:<9} {}\n", t.saturating_sub(t0), what);
        if let Some(s) = &j.seg {
            out.push_str(&line(
                s.t,
                format!(
                    "tcp tx   lp={} rp={} seq={} payload={}",
                    s.local_port, s.remote_port, s.seq, s.payload
                ),
            ));
        }
        if let Some(ok) = j.template_ok {
            if let Some(s) = &j.seg {
                out.push_str(&line(s.t, format!("template check ok={ok}")));
            }
        }
        if let Some(tx) = j.nic_tx {
            out.push_str(&line(tx, "nic_tx".into()));
            if let (Some(q), Some(w)) = (j.link_queue, j.link_wire) {
                out.push_str(&line(tx + q, format!("wire     queue={q} serialize={w}")));
            }
        }
        for &(t, kind, from, to) in &j.faults {
            out.push_str(&line(
                t,
                format!("fault    {} on link {from}\u{2192}{to}", kind.label()),
            ));
        }
        for tr in &j.rx {
            for (stage, t) in Stage::ALL
                .iter()
                .filter_map(|&s| tr.stage_time(s).map(|t| (s, t)))
            {
                out.push_str(&line(t, stage.label().to_string()));
            }
            out.push_str(&format!("  rx outcome: {}\n", tr.outcome.label()));
        }
        out.push_str(&format!("  fate: {}\n", j.describe_fate()));
        if let Some(split) = j.lat_split() {
            let e2e = j.end_to_end().unwrap_or(0);
            out.push_str(&format!("  latency split (end-to-end {e2e} ns):\n"));
            for c in split {
                if c.ns == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "    {:<14} {:>9} ns  [{}]\n",
                    c.label,
                    c.ns,
                    if c.queue { "queue" } else { "service" }
                ));
            }
        }
        for a in self.rexmits.iter().filter(|a| match a.cause {
            Cause::DataLoss { frame: f, .. }
            | Cause::AckLoss { data_frame: f, .. }
            | Cause::Reorder { frame: f }
            | Cause::InFlight { frame: f }
            | Cause::LateDelivery { frame: f } => f == frame,
            _ => false,
        }) {
            out.push_str(&format!(
                "  triggered rexmit at t={} seq={} reason={} \u{2014} {}\n",
                a.t,
                a.seq,
                a.reason.label(),
                a.cause.describe()
            ));
        }
        out
    }

    /// The postmortem report of one connection (any attribution or
    /// journey touching `port` on either side).
    pub fn explain_conn(&self, port: u16) -> String {
        let mut out = String::new();
        let rexmits: Vec<&Attribution> = self
            .rexmits
            .iter()
            .filter(|a| a.local_port == port || a.remote_port == port)
            .collect();
        let journeys = self
            .journeys
            .iter()
            .filter(|j| {
                j.seg
                    .as_ref()
                    .is_some_and(|s| s.local_port == port || s.remote_port == port)
            })
            .count();
        out.push_str(&format!(
            "conn :{port} \u{2014} {journeys} transmissions, {} retransmits\n",
            rexmits.len()
        ));
        for a in &rexmits {
            out.push_str(&format!(
                "  t={:<11} rexmit lp={} seq={} bytes={} reason={:<7} \u{2190} {}\n",
                a.t,
                a.local_port,
                a.seq,
                a.bytes,
                a.reason.label(),
                a.cause.describe()
            ));
        }
        let losses: Vec<_> = self
            .losses()
            .filter(|(j, _)| {
                j.seg
                    .as_ref()
                    .is_some_and(|s| s.local_port == port || s.remote_port == port)
            })
            .collect();
        if !losses.is_empty() {
            out.push_str("  losses:\n");
            for (j, loss) in losses {
                let s = j.seg.as_ref().unwrap();
                out.push_str(&format!(
                    "    f{:<5} seq={} payload={} \u{2014} {}\n",
                    j.frame,
                    s.seq,
                    s.payload,
                    loss.describe()
                ));
            }
        }
        out
    }

    /// Summary block for reports: coverage plus cause/loss breakdowns.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "journeys: {} ({} arrived, {} lost, {} in flight)\n",
            self.journeys.len(),
            self.journeys
                .iter()
                .filter(|j| j.fate == JourneyFate::Arrived)
                .count(),
            self.losses().count(),
            self.journeys
                .iter()
                .filter(|j| j.fate == JourneyFate::InFlight)
                .count(),
        ));
        out.push_str(&format!(
            "rexmits: {} attributed {:.1}%\n",
            self.rexmits.len(),
            self.coverage() * 100.0
        ));
        for (label, n) in self.cause_counts() {
            out.push_str(&format!("  cause {label:<14} {n}\n"));
        }
        for (label, n) in self.loss_counts() {
            out.push_str(&format!("  loss  {label:<14} {n}\n"));
        }
        out
    }

    /// Serializes the graph as Chrome trace-event JSON (the
    /// `chrome://tracing` / Perfetto format): one process per host, a
    /// `tx path` and an `rx path` track each, duration events per
    /// journey stage, flow arrows (`s`/`f`) tying each wire hop from
    /// sender to receiver, and instant events for fault verdicts and
    /// retransmits. Deterministic: journeys serialize in creation order
    /// and timestamps are exact decimal microseconds.
    pub fn render_chrome_trace(&self) -> String {
        let us = |ns: Nanos| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut ev: Vec<String> = Vec::new();
        let mut hosts: Vec<u16> = self
            .journeys
            .iter()
            .flat_map(|j| {
                j.tx_host
                    .into_iter()
                    .chain(j.rx.iter().filter_map(|tr| tr.host))
            })
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        for &h in &hosts {
            ev.push(format!(
                "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {h}, \"args\": {{\"name\": \"host{h}\"}}}}"
            ));
            ev.push(format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {h}, \"tid\": 0, \"args\": {{\"name\": \"tx path\"}}}}"
            ));
            ev.push(format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {h}, \"tid\": 1, \"args\": {{\"name\": \"rx path\"}}}}"
            ));
        }
        for j in &self.journeys {
            let f = j.frame;
            let txh = j.tx_host.unwrap_or(0);
            if let (Some(s), Some(tx)) = (&j.seg, j.nic_tx) {
                ev.push(format!(
                    "{{\"ph\": \"X\", \"name\": \"tx_build\", \"cat\": \"tx\", \"pid\": {txh}, \"tid\": 0, \"ts\": {}, \"dur\": {}, \"args\": {{\"frame\": {f}, \"seq\": {}, \"payload\": {}}}}}",
                    us(s.t),
                    us(tx - s.t),
                    s.seq,
                    s.payload
                ));
            }
            if let (Some(tx), Some(q), Some(w)) = (j.nic_tx, j.link_queue, j.link_wire) {
                if q > 0 {
                    ev.push(format!(
                        "{{\"ph\": \"X\", \"name\": \"link_queue\", \"cat\": \"wire\", \"pid\": {txh}, \"tid\": 0, \"ts\": {}, \"dur\": {}, \"args\": {{\"frame\": {f}}}}}",
                        us(tx),
                        us(q)
                    ));
                }
                ev.push(format!(
                    "{{\"ph\": \"X\", \"name\": \"link_wire\", \"cat\": \"wire\", \"pid\": {txh}, \"tid\": 0, \"ts\": {}, \"dur\": {}, \"args\": {{\"frame\": {f}}}}}",
                    us(tx + q),
                    us(w)
                ));
                ev.push(format!(
                    "{{\"ph\": \"s\", \"id\": {f}, \"name\": \"hop\", \"cat\": \"wire\", \"pid\": {txh}, \"tid\": 0, \"ts\": {}}}",
                    us(tx)
                ));
            }
            for (ci, tr) in j.rx.iter().enumerate() {
                let Some(h) = tr.host else { continue };
                let Some(t0) = tr.stage_time(Stage::NicRx) else {
                    continue;
                };
                if ci == 0 && j.nic_tx.is_some() {
                    ev.push(format!(
                        "{{\"ph\": \"f\", \"bp\": \"e\", \"id\": {f}, \"name\": \"hop\", \"cat\": \"wire\", \"pid\": {h}, \"tid\": 1, \"ts\": {}}}",
                        us(t0)
                    ));
                }
                for (stage, dt) in tr.components() {
                    let end = tr.stage_time(stage).unwrap_or(t0);
                    ev.push(format!(
                        "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"rx\", \"pid\": {h}, \"tid\": 1, \"ts\": {}, \"dur\": {}, \"args\": {{\"frame\": {f}}}}}",
                        stage.label(),
                        us(end - dt),
                        us(dt)
                    ));
                }
            }
            for &(t, kind, from, to) in &j.faults {
                ev.push(format!(
                    "{{\"ph\": \"i\", \"s\": \"p\", \"name\": \"fault:{}\", \"pid\": {from}, \"tid\": 0, \"ts\": {}, \"args\": {{\"frame\": {f}, \"to\": {to}}}}}",
                    kind.label(),
                    us(t)
                ));
            }
        }
        for a in &self.rexmits {
            ev.push(format!(
                "{{\"ph\": \"i\", \"s\": \"p\", \"name\": \"rexmit:{}\", \"pid\": {}, \"tid\": 0, \"ts\": {}, \"args\": {{\"seq\": {}, \"cause\": \"{}\"}}}}",
                a.reason.label(),
                a.host.unwrap_or(0),
                us(a.t),
                a.seq,
                a.cause.label()
            ));
        }
        let mut out = String::from("{\"displayTimeUnit\": \"ns\",\n \"traceEvents\": [\n  ");
        out.push_str(&ev.join(",\n  "));
        out.push_str("\n]}\n");
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
fn join_rx(records: &[Record]) -> Vec<PathTrace> {
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
            // overflow; `fate_of` tells them apart by the quota record's
            // tenant id, so the stage taxonomy stays at seven outcomes.
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

/// Computes a journey's cross-host verdict from its fault records and
/// receive-side outcomes.
fn fate_of(
    j: &Journey,
    ring_pressure: Option<&Vec<bool>>,
    quota_tenant: Option<u64>,
) -> JourneyFate {
    for &(_, kind, from, to) in &j.faults {
        match kind {
            FaultKind::Outage => return JourneyFate::Lost(Loss::Outage { from, to }),
            FaultKind::Drop => return JourneyFate::Lost(Loss::WireDrop { from, to }),
            _ => {}
        }
    }
    if j.primary_rx().is_some() {
        return JourneyFate::Arrived;
    }
    let corrupt_link = j
        .faults
        .iter()
        .find(|&&(_, k, _, _)| k == FaultKind::Corrupt)
        .map(|&(_, _, from, to)| (from, to));
    for tr in &j.rx {
        match tr.outcome {
            // A corrupted frame dies at the receiver either way: a
            // flipped payload byte fails the checksum, a flipped length
            // byte truncates the parse.
            PathOutcome::CorruptDiscarded | PathOutcome::Truncated => {
                let (from, to) =
                    corrupt_link.unwrap_or((j.tx_host.unwrap_or(0), tr.host.unwrap_or(0)));
                return JourneyFate::Lost(Loss::Corrupt { from, to });
            }
            PathOutcome::RingDropped => {
                // A quota record outranks the generic ring verdict: the
                // channel had room, the tenant's budget did not.
                if let Some(tenant) = quota_tenant {
                    return JourneyFate::Lost(Loss::QuotaExceeded {
                        channel: tr.channel.unwrap_or(0),
                        tenant,
                    });
                }
                // No copy arrived (checked above), so the first
                // ring-dropped copy pairs with the first recorded flag.
                let pressure = ring_pressure
                    .and_then(|v| v.first())
                    .copied()
                    .unwrap_or(false);
                return JourneyFate::Lost(Loss::RingOverflow {
                    channel: tr.channel.unwrap_or(0),
                    pressure,
                });
            }
            PathOutcome::NicDropped => return JourneyFate::Lost(Loss::NicOverflow),
            _ => {}
        }
    }
    JourneyFate::InFlight
}

/// Attributes one retransmit: walk every prior transmission of the
/// resent range on the same connection, latest first, and let the first
/// fate that explains the retransmit name the cause. A transmission
/// that *arrived* but whose delivery (or the ACK carrying the news)
/// post-dates the retransmit is merely late — the walk keeps going, and
/// if no older transmission was genuinely lost the retransmit is
/// attributed to that delay ([`Cause::LateDelivery`]): queueing can
/// hold a frame past the dup-ACK threshold without any fault injected.
fn attribute(
    journeys: &[Journey],
    crashes: &[(Nanos, u16)],
    t: Nanos,
    host: Option<u16>,
    local_port: u16,
    remote_port: u16,
    seq: u32,
) -> Cause {
    let matches_conn = |s: &SegTx| s.local_port == local_port && s.remote_port == remote_port;
    let mut candidates: Vec<&Journey> = journeys
        .iter()
        .filter(|j| {
            let Some(s) = &j.seg else { return false };
            // Strictly earlier: the resend the rexmit itself triggers
            // can share the firing tick, and it must never claim
            // itself.
            if !matches_conn(s) || s.t >= t || !seq_contains(s.seq, s.payload, seq) {
                return false;
            }
            match (host, j.tx_host) {
                (Some(h), Some(jh)) => h == jh,
                _ => true,
            }
        })
        .collect();
    candidates.sort_by_key(|j| std::cmp::Reverse((j.seg.as_ref().unwrap().t, j.frame)));
    let mut late: Option<u64> = None;
    for j in candidates {
        match j.fate {
            JourneyFate::Lost(loss) => {
                return Cause::DataLoss {
                    frame: j.frame,
                    loss,
                };
            }
            JourneyFate::InFlight => {
                return if j.has_fault(FaultKind::Reorder) {
                    Cause::Reorder { frame: j.frame }
                } else {
                    Cause::InFlight { frame: j.frame }
                };
            }
            JourneyFate::Arrived => {
                if j.has_fault(FaultKind::Reorder) {
                    return Cause::Reorder { frame: j.frame };
                }
                let peer = j.rx.first().and_then(|tr| tr.host);
                if let Some(p) = peer {
                    if let Some(&(_, h)) = crashes.iter().find(|&&(ct, h)| h == p && ct <= t) {
                        return Cause::PeerCrash { host: h };
                    }
                }
                // The data got there: look for a lost reverse-direction
                // frame (the ACK) between its arrival and the
                // retransmit, and check whether ANY reverse frame sent
                // after the arrival reached the sender in time to carry
                // the news.
                let arrival = j.arrival().unwrap_or(0);
                let mut ack: Option<(&Journey, Loss)> = None;
                let mut heard = false;
                for o in journeys {
                    let Some(s) = &o.seg else { continue };
                    if s.local_port != remote_port || s.remote_port != local_port {
                        continue;
                    }
                    if s.t < arrival || s.t > t {
                        continue;
                    }
                    match o.fate {
                        JourneyFate::Lost(loss) => {
                            if ack.is_none_or(|(b, _)| b.seg.as_ref().unwrap().t <= s.t) {
                                ack = Some((o, loss));
                            }
                        }
                        JourneyFate::Arrived => {
                            if o.arrival().unwrap_or(Nanos::MAX) <= t {
                                heard = true;
                            }
                        }
                        JourneyFate::InFlight => {}
                    }
                }
                if let Some((a, loss)) = ack {
                    return Cause::AckLoss {
                        data_frame: j.frame,
                        ack_frame: a.frame,
                        loss,
                    };
                }
                if arrival > t || !heard {
                    // The delivery — or every ACK that could report it —
                    // post-dates the retransmit. Delay, not loss: keep
                    // walking in case an older transmission was the real
                    // trigger.
                    late.get_or_insert(j.frame);
                    continue;
                }
                return Cause::Unattributed;
            }
        }
    }
    match late {
        Some(frame) => Cause::LateDelivery { frame },
        None => Cause::Unattributed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PathKind;

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
}
