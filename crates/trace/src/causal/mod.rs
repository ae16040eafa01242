//! Cross-host causal tracing: the journal joined into end-to-end frame
//! **journeys**, plus root-cause attribution for every retransmit and
//! loss.
//!
//! [`CausalGraph::build`] is the one post-hoc join of a journal. It joins
//! three thirds of a frame's life on the world-unique frame id: the
//! transmit side (`tcp_segment tx` → template check → `nic_tx`), the wire
//! hop (`link_tx` queue/serialization split plus any `fault_inject`
//! verdicts), and what happened *inside the receiving host* — one
//! [`PathTrace`] per received copy over the [`Stage`] taxonomy. A
//! [`Journey`] therefore spans hosts: it starts when the sender's TCP
//! builds the segment and ends when the receiver's application takes
//! delivery — or earlier, with a [`Loss`] naming the proximate cause.
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
//!
//! `build` is one module per join step, each a function of plain values:
//! the transmit-side pass here, `rx`'s receive join (the one place a
//! [`PathTrace`] stage is stamped), `fate`'s verdict per journey and
//! `attribute`'s cause per retransmit; `views` reads the result.

mod attribute;
mod fate;
mod rx;
mod views;

use std::collections::HashMap;

use crate::{Dir, Event, FaultKind, Nanos, Record};
use attribute::attribute;
pub use attribute::{Attribution, Cause};
use fate::fate_of;
pub use fate::{JourneyFate, Loss};
use rx::join_rx;
pub use rx::{PathOutcome, PathTrace, Stage};

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

/// One frame's end-to-end journey: tx-side spans, wire hop, fault
/// verdicts, and every receive-side [`PathTrace`] copy (a duplicated
/// frame arrives more than once), joined by frame id.
#[derive(Debug, Clone, PartialEq, Default)]
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
            .or_else(|| tr.present().last().map(|(_, t)| t))
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
        let (_, last) = tr.present().last()?;
        Some(last - self.start()?)
    }

    /// Decomposes the primary copy's cross-host latency into labeled
    /// queue-wait / service components that telescope **exactly** to
    /// [`end_to_end`](Self::end_to_end). `None` when no copy arrived.
    pub fn lat_split(&self) -> Option<Vec<LatComp>> {
        let tr = self.primary_rx()?;
        let rx0 = tr.stage_time(Stage::NicRx)?;
        let comp = |label, ns, queue| LatComp { label, ns, queue };
        let mut out = Vec::new();
        let mut cursor = self.start()?;
        if let (Some(s), Some(tx)) = (self.seg.as_ref(), self.nic_tx) {
            out.push(comp("tx_build", tx - s.t, false));
            cursor = tx;
        }
        if let (Some(tx), Some(q), Some(w)) = (self.nic_tx, self.link_queue, self.link_wire) {
            out.extend([comp("link_queue", q, true), comp("link_wire", w, false)]);
            cursor = tx + q + w;
        }
        // Anything between the modeled wire arrival and the NIC seeing
        // the frame is injected reorder delay (zero otherwise).
        out.push(comp("reorder_wait", rx0 - cursor, true));
        let rx_stages = tr.components().into_iter();
        out.extend(rx_stages.map(|(stage, dt)| comp(stage.label(), dt, stage == Stage::Ring)));
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

/// The cross-host causal trace graph: every journey, every retransmit
/// attribution, and the crash schedule observed in one journal.
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
        let mut rexmits: Vec<Attribution> = Vec::new();
        let mut crashes: Vec<(Nanos, u16)> = Vec::new();

        fn entry<'a>(
            journeys: &'a mut Vec<Journey>,
            by_frame: &mut HashMap<u64, usize>,
            frame: u64,
        ) -> &'a mut Journey {
            let idx = *by_frame.entry(frame).or_insert_with(|| {
                journeys.push(Journey {
                    frame,
                    ..Journey::default()
                });
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
                } => rexmits.push(Attribution {
                    t: rec.time,
                    host: rec.host,
                    local_port: *local_port,
                    remote_port: *remote_port,
                    seq: *seq,
                    bytes: *bytes,
                    reason: *reason,
                    cause: Cause::Unattributed,
                }),
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

        for a in &mut rexmits {
            a.cause = attribute(&journeys, &crashes, a);
        }

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
}

#[cfg(test)]
mod tests;
