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

use crate::stream::{FlightRecorder, Observer};
use crate::{
    legal_transition, Dir, Event, FaultKind, Nanos, PathKind, ReclaimKind, Record, RexmitReason,
    TcpFsm,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// `a >= b` in sequence space (RFC 1982-style wraparound compare).
fn seq_ge(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 >= 0
}

/// `a > b` in sequence space.
fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

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

    fn index(self) -> usize {
        ViolationKind::ALL.iter().position(|k| *k == self).unwrap()
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

/// Streaming per-connection state (both checkers' halves share the key).
#[derive(Debug, Clone, Copy, Default)]
struct ConnState {
    /// Highest cumulative ACK this host transmitted.
    tx_ack: Option<u32>,
    /// Tracked FSM state (adopted from the first edge seen).
    fsm: Option<TcpFsm>,
    /// Highest cumulative ACK received from the peer on a segment the TCB
    /// reads: not an old duplicate, and of no more than `snd_max`.
    rx_acked: Option<u32>,
    /// Duplicate-ACK streak at the current `rx_acked` (a permissive
    /// superset of the TCB's RFC 5681 count).
    dup_acks: u32,
    /// Highest sequence bound transmitted (`seq + len`, a SYN or FIN
    /// counting one).
    snd_max: Option<u32>,
}

#[derive(Debug, Clone, Copy, Default)]
struct RingState {
    resident: u64,
    seeded: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct PoolState {
    /// Live count after the last pool event.
    count: u64,
    /// Inferred live count just before the first pool event seen.
    base: u64,
    seen: bool,
}

/// (host, local port, remote port, remote ip): one TCP connection
/// endpoint. The remote IP disambiguates clients on different hosts that
/// picked the same ephemeral port — with ports alone their FSM edges and
/// ACK streams would interleave under one key and false-flag.
type ConnKey = (Option<u16>, u16, u16, [u8; 4]);

/// The online conformance monitor. Attach with [`crate::attach`]; detach
/// with [`crate::detach_as::<Monitor>`] to harvest violations, checker
/// stats, and the frozen postmortem.
pub struct Monitor {
    conns: FxMap<ConnKey, ConnState>,
    rings: FxMap<(Option<u16>, u32), RingState>,
    pool: PoolState,
    /// Matched classifies awaiting their adjacent ring placement, one
    /// live entry per host at most — a vec so the per-record fast path
    /// is one emptiness check, not a hash probe.
    pending_demux: Vec<(Option<u16>, Option<u64>)>,
    checked: CheckStats,
    kind_counts: [u64; 7],
    violations: Vec<Violation>,
    total: u64,
    recorder: Option<FlightRecorder>,
    postmortem: Option<Vec<Record>>,
    expect_pool_drained: bool,
    last_time: Nanos,
}

impl Default for Monitor {
    fn default() -> Self {
        Monitor::new()
    }
}

impl Monitor {
    /// A monitor with no flight recorder (checkers only).
    pub fn new() -> Monitor {
        Monitor {
            conns: FxMap::default(),
            rings: FxMap::default(),
            pool: PoolState::default(),
            pending_demux: Vec::new(),
            checked: CheckStats::default(),
            kind_counts: [0; 7],
            violations: Vec::new(),
            total: 0,
            recorder: None,
            postmortem: None,
            expect_pool_drained: false,
            last_time: 0,
        }
    }

    /// A monitor feeding a [`FlightRecorder`] keeping the last `cap`
    /// records per host; the window freezes into [`Monitor::postmortem`]
    /// on the first violation or host crash.
    pub fn with_recorder(cap: usize) -> Monitor {
        let mut m = Monitor::new();
        m.recorder = Some(FlightRecorder::new(cap));
        m
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
        self.kind_counts[kind.index()]
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
            .map(|r| r.dump_all())
            .unwrap_or_default()
    }

    /// The recorder's current occupancy (0 without a recorder).
    pub fn recorder_occupancy(&self) -> usize {
        self.recorder.as_ref().map(|r| r.occupancy()).unwrap_or(0)
    }

    /// Approximate bytes of streaming state held — the O(ring +
    /// per-connection) bound the scale sweep reports.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let conns = self.conns.len() * (size_of::<ConnKey>() + size_of::<ConnState>());
        let rings = self.rings.len() * (size_of::<(Option<u16>, u32)>() + size_of::<RingState>());
        let demux =
            self.pending_demux.len() * (size_of::<Option<u16>>() + size_of::<Option<u64>>());
        let viols: usize = self
            .violations
            .iter()
            .map(|v| size_of::<Violation>() + v.detail.len())
            .sum();
        let recorder = self
            .recorder
            .as_ref()
            .map(|r| r.occupancy() * size_of::<(u64, Record)>())
            .unwrap_or(0);
        let post = self
            .postmortem
            .as_ref()
            .map(|p| p.len() * size_of::<Record>())
            .unwrap_or(0);
        (conns + rings + demux + viols + recorder + post) as u64
    }

    fn violate(&mut self, time: Nanos, host: Option<u16>, kind: ViolationKind, detail: String) {
        self.total += 1;
        self.kind_counts[kind.index()] += 1;
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

    fn freeze(&mut self) {
        if self.postmortem.is_none() {
            if let Some(r) = &self.recorder {
                self.postmortem = Some(r.dump_all());
            }
        }
    }

    /// A matched classify must be immediately followed by its ring
    /// placement: resolve any pending classify on this host against the
    /// current record *before* the checkers fold it in.
    fn resolve_pending_demux(&mut self, rec: &Record) {
        let Some(i) = self.pending_demux.iter().position(|(h, _)| *h == rec.host) else {
            return;
        };
        let (_, pending) = self.pending_demux.swap_remove(i);
        let Some(pending) = pending else { return };
        let placed = matches!(
            rec.event,
            Event::RingEnqueue { .. } | Event::RingDrop { .. } | Event::QuotaDrop { .. }
        ) && rec.frame == Some(pending);
        if !placed {
            self.violate(
                rec.time,
                rec.host,
                ViolationKind::DemuxAttribution,
                format!(
                    "matched classify of f{pending} not followed by ring placement (next: {})",
                    rec.event.name()
                ),
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_tcp_segment(
        &mut self,
        rec: &Record,
        dir: Dir,
        key: ConnKey,
        seq: u32,
        ack: u32,
        flags: crate::SegFlags,
        payload: u32,
    ) {
        match dir {
            Dir::Tx => {
                let mut regressed_below = None;
                let st = self.conns.entry(key).or_default();
                if flags.syn {
                    // New incarnation: adopt the handshake's ack (if any)
                    // and restart the send horizon at the SYN's.
                    st.tx_ack = if flags.ack { Some(ack) } else { None };
                    st.snd_max = Some(seq.wrapping_add(1));
                } else if flags.rst {
                    // RSTs for stray segments echo offender state; exempt.
                } else {
                    if flags.ack {
                        if let Some(p) = st.tx_ack {
                            if !seq_ge(ack, p) {
                                regressed_below = Some(p);
                            }
                        }
                        st.tx_ack = Some(match st.tx_ack {
                            Some(p) if seq_ge(p, ack) => p,
                            _ => ack,
                        });
                    }
                    let len = payload + u32::from(flags.fin);
                    if len > 0 {
                        let end = seq.wrapping_add(len);
                        st.snd_max = Some(match st.snd_max {
                            Some(m) if seq_ge(m, end) => m,
                            _ => end,
                        });
                    }
                }
                if flags.ack && !flags.syn && !flags.rst {
                    self.checked.tcp_acks += 1;
                }
                if let Some(p) = regressed_below {
                    self.violate(
                        rec.time,
                        rec.host,
                        ViolationKind::TcpAckRegression,
                        format!(
                            "tx ack {ack} regressed below {p} (lp={} rp={})",
                            key.1, key.2
                        ),
                    );
                }
            }
            Dir::Rx => {
                let st = self.conns.entry(key).or_default();
                // What the TCB drops unread (RFC 793), this view skips too:
                // an old duplicate, wholly behind what this host has
                // acknowledged, and the ACK field of an ACK of more than
                // this host sent.
                let last = seq.wrapping_add((payload + u32::from(flags.fin)).max(1) - 1);
                let stale = !flags.syn && st.tx_ack.is_some_and(|r| seq_gt(r, last));
                let unsent = flags.ack && st.snd_max.is_some_and(|m| seq_gt(ack, m));
                if flags.syn || (flags.rst && !stale) {
                    // Handshake or reset: restart the receive-side view.
                    st.rx_acked = (flags.syn && flags.ack && !unsent).then_some(ack);
                    st.dup_acks = 0;
                } else if flags.ack && !stale && !unsent {
                    match st.rx_acked {
                        None => st.rx_acked = Some(ack),
                        Some(a) if seq_gt(ack, a) => {
                            st.rx_acked = Some(ack);
                            st.dup_acks = 0;
                        }
                        Some(a) if ack == a && payload == 0 && !flags.fin => {
                            // Permissive dup count: no window-unchanged or
                            // in-window requirement, so it upper-bounds the
                            // TCB's RFC 5681 count.
                            st.dup_acks += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    fn on_tcp_state(&mut self, rec: &Record, key: ConnKey, from: TcpFsm, to: TcpFsm) {
        self.checked.transitions += 1;
        let tracked = self.conns.get(&key).and_then(|s| s.fsm);
        if let Some(cur) = tracked {
            if cur != from {
                self.violate(
                    rec.time,
                    rec.host,
                    ViolationKind::TcpFsmIllegal,
                    format!(
                        "state discontinuity: tracked {} but edge claims {} -> {}",
                        cur.label(),
                        from.label(),
                        to.label()
                    ),
                );
            }
        }
        if !legal_transition(from, to) {
            self.violate(
                rec.time,
                rec.host,
                ViolationKind::TcpFsmIllegal,
                format!("illegal transition {} -> {}", from.label(), to.label()),
            );
        }
        if to == TcpFsm::Closed {
            // Incarnation over: drop all per-connection state so a port
            // reuse starts clean.
            self.conns.remove(&key);
        } else {
            self.conns.entry(key).or_default().fsm = Some(to);
        }
    }

    fn on_rexmit(&mut self, rec: &Record, key: ConnKey, reason: RexmitReason) {
        self.checked.rexmits += 1;
        let st = self.conns.get(&key).copied().unwrap_or_default();
        match reason {
            RexmitReason::DupAck => {
                if st.dup_acks < 3 {
                    self.violate(
                        rec.time,
                        rec.host,
                        ViolationKind::RexmitUnjustified,
                        format!(
                            "fast retransmit after {} duplicate acks (lp={} rp={})",
                            st.dup_acks, key.1, key.2
                        ),
                    );
                }
            }
            RexmitReason::Rto => {
                let outstanding = match (st.snd_max, st.rx_acked) {
                    (Some(m), Some(a)) => seq_gt(m, a),
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if !outstanding {
                    self.violate(
                        rec.time,
                        rec.host,
                        ViolationKind::RexmitUnjustified,
                        format!(
                            "rto retransmit with no unacked data (lp={} rp={})",
                            key.1, key.2
                        ),
                    );
                }
            }
        }
    }

    fn on_ring_enqueue(&mut self, rec: &Record, channel: u32, depth: u32) {
        self.checked.ring_events += 1;
        let key = (rec.host, channel);
        let st = self.rings.entry(key).or_default();
        let seeded = st.seeded;
        let want = st.resident + 1;
        st.seeded = true;
        st.resident = u64::from(depth);
        if seeded && u64::from(depth) != want {
            self.violate(
                rec.time,
                rec.host,
                ViolationKind::RingConservation,
                format!("ch={channel} enqueue depth {depth}, expected {want} (resident+1)"),
            );
        }
    }

    fn on_wakeup(&mut self, rec: &Record, channel: u32, frames: u32) {
        self.checked.ring_events += 1;
        let key = (rec.host, channel);
        let st = self.rings.entry(key).or_default();
        let over = st.seeded && u64::from(frames) > st.resident;
        let resident = st.resident;
        st.seeded = true;
        st.resident = st.resident.saturating_sub(u64::from(frames));
        if over {
            self.violate(
                rec.time,
                rec.host,
                ViolationKind::RingConservation,
                format!(
                    "ch={channel} wakeup drained {frames} frames with only {resident} resident"
                ),
            );
        }
    }

    fn on_pool_event(&mut self, rec: &Record, live: u64, alloc: bool) {
        self.checked.pool_events += 1;
        if !self.pool.seen {
            self.pool.seen = true;
            self.pool.base = if alloc {
                live.saturating_sub(1)
            } else {
                live + 1
            };
            self.pool.count = live;
            return;
        }
        let want = if alloc {
            self.pool.count + 1
        } else {
            self.pool.count.saturating_sub(1)
        };
        self.pool.count = live;
        if live != want {
            self.violate(
                rec.time,
                rec.host,
                ViolationKind::PoolAccounting,
                format!(
                    "{} reported {live} live backings, chain expected {want}",
                    if alloc { "frame_alloc" } else { "frame_free" }
                ),
            );
        }
    }

    fn on_classify(&mut self, rec: &Record, path: PathKind, matched: bool) {
        self.checked.demux_classifies += 1;
        if matches!(path, PathKind::FlowTable | PathKind::ListenTable) && !matched {
            self.violate(
                rec.time,
                rec.host,
                ViolationKind::DemuxAttribution,
                format!("keyed-tier ({}) classify reported no match", path.label()),
            );
        }
        if matched {
            self.pending_demux.push((rec.host, rec.frame));
        }
    }

    fn on_quota_drop(&mut self, rec: &Record, tenant: u64, in_use: u64, quota: u64) {
        self.checked.quota_drops += 1;
        if quota == 0 || in_use < quota {
            self.violate(
                rec.time,
                rec.host,
                ViolationKind::QuotaConservation,
                format!("tenant {tenant} quota drop with in_use={in_use} quota={quota}"),
            );
        }
    }
}

impl Observer for Monitor {
    fn on_record(&mut self, rec: &Record) {
        if let Some(r) = self.recorder.as_mut() {
            r.on_record(rec);
        }
        self.last_time = rec.time;
        if !self.pending_demux.is_empty() {
            self.resolve_pending_demux(rec);
        }
        match &rec.event {
            Event::TcpSegment {
                dir,
                local_port,
                remote_port,
                remote_ip,
                seq,
                ack,
                flags,
                payload,
                ..
            } => {
                let key = (rec.host, *local_port, *remote_port, *remote_ip);
                self.on_tcp_segment(rec, *dir, key, *seq, *ack, *flags, *payload);
            }
            Event::TcpState {
                local_port,
                remote_port,
                remote_ip,
                from,
                to,
            } => {
                let key = (rec.host, *local_port, *remote_port, *remote_ip);
                self.on_tcp_state(rec, key, *from, *to);
            }
            Event::TcpRexmit {
                local_port,
                remote_port,
                remote_ip,
                reason,
                ..
            } => {
                let key = (rec.host, *local_port, *remote_port, *remote_ip);
                self.on_rexmit(rec, key, *reason);
            }
            Event::RingEnqueue { channel, depth, .. } => {
                self.on_ring_enqueue(rec, *channel, *depth);
            }
            Event::RingDrop { .. } => {
                // The drop *is* the non-enqueue: residency unchanged.
                self.checked.ring_events += 1;
            }
            Event::WakeupBatch { channel, frames } => {
                self.on_wakeup(rec, *channel, *frames);
            }
            Event::FrameAlloc { live } => self.on_pool_event(rec, *live, true),
            Event::FrameFree { live } => self.on_pool_event(rec, *live, false),
            Event::DemuxClassify { path, matched, .. } => {
                self.on_classify(rec, *path, *matched);
            }
            Event::QuotaDrop {
                tenant,
                in_use,
                quota,
                ..
            } => {
                self.on_quota_drop(rec, *tenant, *in_use, *quota);
            }
            Event::ResourceReclaim {
                kind: ReclaimKind::Channel,
                id,
                ..
            } => {
                // Channel ids are never reused; drop its ring state.
                self.rings.remove(&(rec.host, *id));
            }
            Event::FaultInject {
                kind: FaultKind::Crash,
                ..
            } => {
                self.freeze();
            }
            _ => {}
        }
    }

    fn on_finish(&mut self) {
        if self.expect_pool_drained && self.pool.seen && self.pool.count != self.pool.base {
            let (count, base) = (self.pool.count, self.pool.base);
            self.violate(
                self.last_time,
                None,
                ViolationKind::PoolAccounting,
                format!("pool finished with {count} live backings, baseline was {base}"),
            );
        }
    }
}

/// Seeded single-defect journal mutations: each injects exactly one bug
/// of a known class into a recorded journal, and the matching checker
/// must catch it. This is the soundness harness's "both ways" half —
/// clean journals replay violation-free, mutated ones do not.
pub mod mutations {
    use super::*;
    use crate::SegFlags;

    /// One injectable bug class.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BugClass {
        /// Rewind a transmitted cumulative ACK (a skipped ACK update).
        AckRegression,
        /// Turn a state edge into a self-loop outside the relation.
        IllegalTransition,
        /// Fast retransmit with zero duplicate ACKs observed.
        UnjustifiedDupAck,
        /// RTO retransmit after everything was acknowledged.
        UnjustifiedRto,
        /// A wakeup claiming one more frame than the ring held.
        RingLeak,
        /// Drop a frame-free record (a leaked backing).
        PoolLeak,
        /// A keyed-tier classify stripped of its match.
        DemuxMisattribution,
        /// A quota drop fabricated below the tenant's budget.
        QuotaFabrication,
    }

    impl BugClass {
        /// Every class the harness injects.
        pub const ALL: [BugClass; 8] = [
            BugClass::AckRegression,
            BugClass::IllegalTransition,
            BugClass::UnjustifiedDupAck,
            BugClass::UnjustifiedRto,
            BugClass::RingLeak,
            BugClass::PoolLeak,
            BugClass::DemuxMisattribution,
            BugClass::QuotaFabrication,
        ];

        /// Stable keyword for reports.
        pub fn label(self) -> &'static str {
            match self {
                BugClass::AckRegression => "ack_regression",
                BugClass::IllegalTransition => "illegal_transition",
                BugClass::UnjustifiedDupAck => "unjustified_dup_ack",
                BugClass::UnjustifiedRto => "unjustified_rto",
                BugClass::RingLeak => "ring_leak",
                BugClass::PoolLeak => "pool_leak",
                BugClass::DemuxMisattribution => "demux_misattribution",
                BugClass::QuotaFabrication => "quota_fabrication",
            }
        }

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

    /// Applies one seeded mutation of `class` to a copy of `records`.
    /// Returns `None` when the journal has no applicable site (the
    /// harness treats that as a workload-coverage failure).
    pub fn mutate(records: &[Record], class: BugClass, seed: u64) -> Option<Vec<Record>> {
        let mut out: Vec<Record> = records.to_vec();
        match class {
            BugClass::AckRegression => {
                // A non-first, non-SYN transmitted ACK, rewound by 1000.
                let mut seen: std::collections::HashSet<(Option<u16>, u16, u16)> =
                    std::collections::HashSet::new();
                let mut candidates = Vec::new();
                for (i, r) in records.iter().enumerate() {
                    if let Event::TcpSegment {
                        dir: Dir::Tx,
                        local_port,
                        remote_port,
                        flags,
                        ..
                    } = &r.event
                    {
                        let key = (r.host, *local_port, *remote_port);
                        if flags.ack && !flags.syn && !flags.rst {
                            if seen.contains(&key) {
                                candidates.push(i);
                            }
                            seen.insert(key);
                        }
                    }
                }
                let i = *candidates.get(pick(seed, candidates.len().max(1)))?;
                if let Event::TcpSegment { ack, .. } = &mut out[i].event {
                    *ack = ack.wrapping_sub(1000);
                }
                Some(out)
            }
            BugClass::IllegalTransition => {
                let candidates: Vec<usize> = records
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| matches!(r.event, Event::TcpState { .. }))
                    .map(|(i, _)| i)
                    .collect();
                let i = *candidates.get(pick(seed, candidates.len().max(1)))?;
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
                let candidates: Vec<usize> = records
                    .iter()
                    .enumerate()
                    .filter(
                        |(_, r)| matches!(r.event, Event::WakeupBatch { frames, .. } if frames > 0),
                    )
                    .map(|(i, _)| i)
                    .collect();
                let i = *candidates.get(pick(seed, candidates.len().max(1)))?;
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
                let candidates: Vec<usize> = records
                    .iter()
                    .enumerate()
                    .filter(|(i, r)| *i < last_pool && matches!(r.event, Event::FrameFree { .. }))
                    .map(|(i, _)| i)
                    .collect();
                let i = *candidates.get(pick(seed, candidates.len().max(1)))?;
                out.remove(i);
                Some(out)
            }
            BugClass::DemuxMisattribution => {
                let candidates: Vec<usize> = records
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| {
                        matches!(
                            r.event,
                            Event::DemuxClassify {
                                path: PathKind::FlowTable | PathKind::ListenTable,
                                matched: true,
                                ..
                            }
                        )
                    })
                    .map(|(i, _)| i)
                    .collect();
                let i = *candidates.get(pick(seed, candidates.len().max(1)))?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegFlags;

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
}
