//! Online protocol-conformance monitor: streaming checkers over the
//! record pipeline, in O(per-connection + per-ring state) memory.
//!
//! The [`Monitor`] is an [`Observer`]: attach it and every emitted record
//! flows through seven checkers as it happens, instead of post-hoc over a
//! drained journal. Each checker verifies one invariant the stack is
//! supposed to uphold:
//!
//! * **TCP ack monotonicity** — the cumulative ACK a host puts on the
//!   wire never regresses (mod 2³²) within a connection incarnation.
//! * **TCP state machine** — every [`Event::TcpState`] edge is in the
//!   legal transition relation, and edges are continuous (each starts
//!   where the previous one ended).
//! * **RFC 5681 rexmit preconditions** — a fast retransmit is preceded by
//!   at least three duplicate ACKs; an RTO retransmit fires only with
//!   unacknowledged data outstanding.
//! * **Ring conservation** — per channel ring, enqueues = delivers +
//!   drops + resident: each `ring_enqueue` depth is exactly the tracked
//!   residency plus one, and no `wakeup_batch` drains more than resides.
//! * **Frame-pool accounting** — consecutive `frame_alloc`/`frame_free`
//!   events chain their `live` counts (±1), catching leaked or
//!   double-freed backings online; optionally, the pool must drain back
//!   to its baseline by detach time.
//! * **Demux tier attribution** — a keyed-tier (`flow`/`listen`) classify
//!   must report a match, and every matched classify is immediately
//!   followed by exactly one ring placement event for the same frame.
//! * **Tenant quota conservation** — a `quota_drop` is earned: the
//!   tenant's recorded occupancy is at or over a positive budget.
//!
//! Every checker is deliberately **one-sided**: its predicate is no
//! stricter than the stack's own (e.g. the dup-ACK count is a superset of
//! the TCB's RFC 5681 count, which also requires the advertised window
//! unchanged and in-window sequence numbers), so a conformant run can
//! never violate, while the seeded mutation harness ([`mutations`])
//! proves each checker still catches its bug class.
//!
//! Violations are typed ([`ViolationKind`]), carry bounded context, and
//! freeze the attached [`FlightRecorder`]'s window into a postmortem on
//! first occurrence (host crashes freeze it too).
//!
//! Each checker with state is a module owning it behind private fields —
//! `tcp` (the three TCP checkers' shared per-connection map), `ring`,
//! `pool`, `demux` — whose methods take plain values and return what they
//! found; the stateless quota check is a function here. [`Monitor`] holds
//! one of each plus what a violation writes, and hands every record to
//! its checker with one `match`.

mod demux;
pub mod mutations;
mod pool;
mod ring;
mod tcp;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::stream::{FlightRecorder, Observer};
use crate::{Dir, Event, FaultKind, Nanos, ReclaimKind, Record};

/// Multiply-rotate hasher for the monitor's small fixed-size keys: the
/// checkers probe these maps on every emitted record, where SipHash's
/// DoS hardening costs more than the rest of the check. Keys are
/// simulation-internal (ports, channel ids), not attacker-chosen.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Which invariant a [`Violation`] breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A transmitted cumulative ACK moved backwards.
    TcpAckRegression,
    /// A TCP state edge outside the legal relation, or discontinuous
    /// with the connection's tracked state.
    TcpFsmIllegal,
    /// A retransmit without its RFC 5681 / RTO precondition.
    RexmitUnjustified,
    /// A ring enqueue/wakeup inconsistent with tracked residency.
    RingConservation,
    /// A frame-pool live count off its event chain (leak / double free).
    PoolAccounting,
    /// A demux classify whose tier, match flag, and ring placement
    /// disagree.
    DemuxAttribution,
    /// A tenant quota drop that was not earned by recorded occupancy.
    QuotaConservation,
}

impl ViolationKind {
    /// All kinds, in severity-agnostic declaration order.
    pub const ALL: [ViolationKind; 7] = [
        ViolationKind::TcpAckRegression,
        ViolationKind::TcpFsmIllegal,
        ViolationKind::RexmitUnjustified,
        ViolationKind::RingConservation,
        ViolationKind::PoolAccounting,
        ViolationKind::DemuxAttribution,
        ViolationKind::QuotaConservation,
    ];

    /// Stable keyword for reports (`tcp_ack_regression`, …).
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::TcpAckRegression => "tcp_ack_regression",
            ViolationKind::TcpFsmIllegal => "tcp_fsm_illegal",
            ViolationKind::RexmitUnjustified => "rexmit_unjustified",
            ViolationKind::RingConservation => "ring_conservation",
            ViolationKind::PoolAccounting => "pool_accounting",
            ViolationKind::DemuxAttribution => "demux_attribution",
            ViolationKind::QuotaConservation => "quota_conservation",
        }
    }
}

/// One conformance breach, with bounded captured context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Sim time of the offending record.
    pub time: Nanos,
    /// Host the offending record was attributed to.
    pub host: Option<u16>,
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable specifics (offending values, tracked expectation).
    pub detail: String,
}

impl Violation {
    /// One-line report form.
    pub fn line(&self) -> String {
        let host = match self.host {
            Some(h) => format!("h{h}"),
            None => "h-".to_string(),
        };
        format!(
            "{} {} {}: {}",
            self.time,
            host,
            self.kind.label(),
            self.detail
        )
    }
}

/// How many violations the monitor retains verbatim; past this only the
/// counts grow (bounded memory under a violation storm).
const RETAIN: usize = 64;

/// Per-checker counts of *validated* events — the non-vacuity oracle:
/// a zero-violation run only means something if each checker actually
/// exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckStats {
    /// Transmitted cumulative ACKs checked for monotonicity.
    pub tcp_acks: u64,
    /// TCP state edges checked against the legal relation.
    pub transitions: u64,
    /// Retransmits checked against their preconditions.
    pub rexmits: u64,
    /// Ring enqueue/drop/wakeup events folded into residency tracking.
    pub ring_events: u64,
    /// Frame-pool alloc/free events chained.
    pub pool_events: u64,
    /// Demux classifies checked for tier/match/placement consistency.
    pub demux_classifies: u64,
    /// Tenant quota drops checked for earned occupancy.
    pub quota_drops: u64,
}

/// The online conformance monitor. Attach with [`crate::attach`]; detach
/// with [`crate::detach_as::<Monitor>`] to harvest violations, checker
/// stats, and the frozen postmortem.
#[derive(Default)]
pub struct Monitor {
    tcp: tcp::Conns,
    rings: ring::Rings,
    pool: pool::Pool,
    demux: demux::Demux,
    checked: CheckStats,
    kind_counts: [u64; 7],
    violations: Vec<Violation>,
    total: u64,
    recorder: Option<FlightRecorder>,
    postmortem: Option<Vec<Record>>,
    expect_pool_drained: bool,
    last_time: Nanos,
}

impl Monitor {
    /// A monitor with no flight recorder (checkers only).
    pub fn new() -> Monitor {
        Monitor::default()
    }

    /// A monitor feeding a [`FlightRecorder`] keeping the last `cap`
    /// records per host; the window freezes into [`Monitor::postmortem`]
    /// on the first violation or host crash.
    pub fn with_recorder(cap: usize) -> Monitor {
        Monitor {
            recorder: Some(FlightRecorder::new(cap)),
            ..Monitor::default()
        }
    }

    /// Also violate if, at detach time, the frame pool has not drained
    /// back to its inferred baseline (use when the world is dropped
    /// before the monitor detaches).
    pub fn expect_pool_drained(mut self, yes: bool) -> Monitor {
        self.expect_pool_drained = yes;
        self
    }

    /// Feeds a pre-recorded journal through this monitor and returns it
    /// finished — the replay surface the mutation harness and the bench
    /// gate use.
    pub fn run_over(mut self, records: &[Record]) -> Monitor {
        for r in records {
            self.on_record(r);
        }
        self.on_finish();
        self
    }

    /// Total violations flagged (including ones past the retention cap).
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Violations flagged for one kind.
    pub fn count(&self, kind: ViolationKind) -> u64 {
        self.kind_counts[kind as usize]
    }

    /// The retained violations (first [`RETAIN`]; the counts keep going).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Per-checker validated-event counts.
    pub fn checked(&self) -> CheckStats {
        self.checked
    }

    /// The postmortem window frozen at the first violation or crash.
    pub fn postmortem(&self) -> Option<&[Record]> {
        self.postmortem.as_deref()
    }

    /// The flight recorder's *current* window, on demand.
    pub fn dump(&self) -> Vec<Record> {
        self.recorder
            .as_ref()
            .map_or_else(Vec::new, |r| r.dump_all())
    }

    /// The recorder's current occupancy (0 without a recorder).
    pub fn recorder_occupancy(&self) -> usize {
        self.recorder.as_ref().map_or(0, |r| r.occupancy())
    }

    /// Approximate bytes of streaming state held — the O(ring +
    /// per-connection) bound the scale sweep reports.
    pub fn memory_bytes(&self) -> u64 {
        let viols: usize = self
            .violations
            .iter()
            .map(|v| size_of::<Violation>() + v.detail.len())
            .sum();
        let recorder = self.recorder_occupancy() * size_of::<(u64, Record)>();
        let post = self
            .postmortem
            .as_ref()
            .map_or(0, |p| p.len() * size_of::<Record>());
        (self.tcp.bytes() + self.rings.bytes() + self.demux.bytes() + viols + recorder + post)
            as u64
    }

    fn violate(&mut self, time: Nanos, host: Option<u16>, kind: ViolationKind, detail: String) {
        self.total += 1;
        self.kind_counts[kind as usize] += 1;
        if self.violations.len() < RETAIN {
            self.violations.push(Violation {
                time,
                host,
                kind,
                detail,
            });
        }
        self.freeze();
    }

    /// Flags what a checker found at `rec`, if anything, as `kind`.
    fn flag(&mut self, rec: &Record, kind: ViolationKind, found: Option<String>) {
        if let Some(detail) = found {
            self.violate(rec.time, rec.host, kind, detail);
        }
    }

    fn freeze(&mut self) {
        if self.postmortem.is_none() {
            if let Some(r) = &self.recorder {
                self.postmortem = Some(r.dump_all());
            }
        }
    }

    /// A TCP record, on the connection `key` it names.
    fn on_tcp(&mut self, rec: &Record, key: tcp::ConnKey) {
        match rec.event {
            Event::TcpSegment {
                dir,
                seq,
                ack,
                flags,
                payload,
                ..
            } => match dir {
                Dir::Tx => {
                    // A SYN's or RST's ACK opens or leaves the stream: exempt.
                    self.checked.tcp_acks += u64::from(flags.ack && !flags.syn && !flags.rst);
                    let found = self.tcp.tx(key, seq, ack, flags, payload);
                    self.flag(rec, ViolationKind::TcpAckRegression, found);
                }
                Dir::Rx => self.tcp.rx(key, seq, ack, flags, payload),
            },
            Event::TcpState { from, to, .. } => {
                self.checked.transitions += 1;
                for found in self.tcp.state(key, from, to) {
                    self.flag(rec, ViolationKind::TcpFsmIllegal, found);
                }
            }
            Event::TcpRexmit { reason, .. } => {
                self.checked.rexmits += 1;
                let found = self.tcp.rexmit(key, reason);
                self.flag(rec, ViolationKind::RexmitUnjustified, found);
            }
            _ => {}
        }
    }
}

/// The quota check, which needs no state: a `quota_drop` is earned when
/// the tenant's recorded occupancy is at or over a positive budget.
fn unearned_quota_drop(tenant: u64, in_use: u64, quota: u64) -> Option<String> {
    (quota == 0 || in_use < quota)
        .then(|| format!("tenant {tenant} quota drop with in_use={in_use} quota={quota}"))
}

impl Observer for Monitor {
    fn on_record(&mut self, rec: &Record) {
        if let Some(r) = self.recorder.as_mut() {
            r.on_record(rec);
        }
        self.last_time = rec.time;
        if self.demux.awaiting() {
            let found = self.demux.resolve((rec.host, rec.frame), &rec.event);
            self.flag(rec, ViolationKind::DemuxAttribution, found);
        }
        let checked = &mut self.checked;
        let (kind, found) = match rec.event {
            Event::TcpSegment {
                local_port,
                remote_port,
                remote_ip,
                ..
            }
            | Event::TcpState {
                local_port,
                remote_port,
                remote_ip,
                ..
            }
            | Event::TcpRexmit {
                local_port,
                remote_port,
                remote_ip,
                ..
            } => return self.on_tcp(rec, (rec.host, local_port, remote_port, remote_ip)),
            Event::RingEnqueue { channel, depth, .. } => {
                checked.ring_events += 1;
                let found = self.rings.enqueue((rec.host, channel), depth);
                (ViolationKind::RingConservation, found)
            }
            // The drop *is* the non-enqueue: residency unchanged.
            Event::RingDrop { .. } => {
                checked.ring_events += 1;
                return;
            }
            Event::WakeupBatch { channel, frames } => {
                checked.ring_events += 1;
                let found = self.rings.wakeup((rec.host, channel), frames);
                (ViolationKind::RingConservation, found)
            }
            Event::FrameAlloc { live } => {
                checked.pool_events += 1;
                (ViolationKind::PoolAccounting, self.pool.event(live, true))
            }
            Event::FrameFree { live } => {
                checked.pool_events += 1;
                (ViolationKind::PoolAccounting, self.pool.event(live, false))
            }
            Event::DemuxClassify { path, matched, .. } => {
                checked.demux_classifies += 1;
                let found = self.demux.classify((rec.host, rec.frame), path, matched);
                (ViolationKind::DemuxAttribution, found)
            }
            Event::QuotaDrop {
                tenant,
                in_use,
                quota,
                ..
            } => {
                checked.quota_drops += 1;
                let found = unearned_quota_drop(tenant, in_use, quota);
                (ViolationKind::QuotaConservation, found)
            }
            // Channel ids are never reused; drop its ring state.
            Event::ResourceReclaim {
                kind: ReclaimKind::Channel,
                id,
                ..
            } => return self.rings.reclaim((rec.host, id)),
            Event::FaultInject {
                kind: FaultKind::Crash,
                ..
            } => return self.freeze(),
            _ => return,
        };
        self.flag(rec, kind, found);
    }

    fn on_finish(&mut self) {
        if self.expect_pool_drained {
            if let Some(detail) = self.pool.undrained() {
                self.violate(self.last_time, None, ViolationKind::PoolAccounting, detail);
            }
        }
    }
}

#[cfg(test)]
mod tests;
