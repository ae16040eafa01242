//! `unp-trace` — observability substrate for the user-level protocol stack.
//!
//! Two halves, both deterministic:
//!
//! * **The event journal**: span-style packet-lifecycle records
//!   (`ring_enqueue`, `demux_classify`, `wakeup_batch`, `tcp_segment`,
//!   `app_deliver`, `tx_template_check`, …) carrying the simulated-time
//!   timestamp, the emitting host, and the frame id, so one frame's journey
//!   from NIC staging to application delivery can be reconstructed by
//!   joining on its id. Emission points live in every layer (`netdev`,
//!   `kernel`, `tcp`, `core`); none of them charges simulated cost or
//!   schedules events, so journaling can never perturb reproduced results.
//! * **The typed metrics registry** ([`Metrics`]): counters, gauges, and
//!   nearest-rank histograms behind enum keys instead of strings, plus
//!   per-connection and per-channel scopes that absorb the stack's
//!   scattered stats structs at teardown.
//!
//! # The streaming-observer pipeline
//!
//! Emission fans out through [`stream`]: every record is dispatched, at
//! emit time, to whatever [`Observer`]s are attached to the thread. The
//! full journal is just one observer ([`Journal`], attached by
//! [`journal_start`] / [`journal_start_bounded`]); the online conformance
//! monitor ([`monitor::Monitor`]) and the bounded [`FlightRecorder`] are
//! others, so analyses can run online in bounded memory instead of
//! post-hoc over an unbounded `Vec<Record>`.
//!
//! # The quiescent gate
//!
//! The journal is always compiled in; what an idle emission point costs
//! is a runtime gate, a thread-local observer count: one flag read
//! (≈ 0.4 ns, the host-time ledger's `trace.emit_quiescent_ns`), and the
//! closure building the event runs only while at least one observer is
//! attached. `repro-tables` golden output is byte-identical with and
//! without observers because emission is observation-only.
//!
//! # Determinism
//!
//! The simulation is single-threaded and deterministic, so the journal is
//! too: [`journal_start`] zeroes the frame-id mint and the sim clock, and
//! two identical runs produce byte-identical journals (asserted by the
//! workspace's `tests/journal.rs`).

pub mod causal;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod profile;
pub mod stream;

use std::cell::Cell;

pub use causal::{Attribution, CausalGraph, Cause, Journey, JourneyFate, Loss};
pub use metrics::{
    push_kept, ClosedConns, ConnKey, ConnScope, Ctr, Gauge, Hist, Histogram, LinkScope, Metrics,
    Snapshot, Window, RETIRED_KEPT,
};
pub use monitor::{CheckStats, Monitor, Violation, ViolationKind};
pub use profile::{PathOutcome, PathTrace, Stage};
pub use stream::stats as stream_stats;
pub use stream::{
    attach, detach, detach_as, journal_dropped, reset_stats as reset_stream_stats, FlightRecorder,
    Journal, Observer, ObserverHandle, StreamStats,
};

/// Simulated time in nanoseconds (mirrors `unp_sim::Nanos`; this crate
/// sits below the engine and cannot import it).
pub type Nanos = u64;

/// Which demultiplexing machinery classified an incoming frame. The kernel
/// tags every delivery with the path taken so per-path costs can be
/// charged, fast-path hit rates reported and the decision journaled.
/// `unp_sim::DemuxPath` is this type, re-exported under the cost model's
/// name for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Exact-match flow-table lookup (O(1) in the number of bindings).
    FlowTable,
    /// Wildcard 3-tuple (protocol, local ip, local port) table lookup —
    /// listening and unconnected-UDP bindings, also O(1).
    ListenTable,
    /// Linear scan interpreting each binding's filter program — the
    /// paper-era software path, and the fallback for frames or bindings
    /// without any keyed identity (fragments, non-IP, half-wildcard
    /// bindings, mismatched link framing).
    FilterScan,
    /// The NIC classified the frame itself (AN1 BQI table).
    Hardware,
}

impl PathKind {
    fn label(self) -> &'static str {
        match self {
            PathKind::FlowTable => "flow",
            PathKind::ListenTable => "listen",
            PathKind::FilterScan => "scan",
            PathKind::Hardware => "hw",
        }
    }
}

/// Direction of a TCP segment relative to the emitting host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Segment received from the wire.
    Rx,
    /// Segment built for transmission.
    Tx,
}

impl Dir {
    fn label(self) -> &'static str {
        match self {
            Dir::Rx => "rx",
            Dir::Tx => "tx",
        }
    }
}

/// Why TCP retransmitted: which detection mechanism fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RexmitReason {
    /// The retransmission timer expired.
    Rto,
    /// Three duplicate ACKs triggered a fast retransmit.
    DupAck,
}

impl RexmitReason {
    /// Journal keyword for the reason (`rto` / `dup_ack`).
    pub fn label(self) -> &'static str {
        match self {
            RexmitReason::Rto => "rto",
            RexmitReason::DupAck => "dup_ack",
        }
    }
}

/// TCP control flags of a journaled segment, compacted to the four the
/// conformance checkers reason about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegFlags {
    /// SYN set.
    pub syn: bool,
    /// FIN set.
    pub fin: bool,
    /// RST set.
    pub rst: bool,
    /// ACK set.
    pub ack: bool,
}

impl SegFlags {
    /// Journal keyword: one letter per set flag in `s f r a` order, or
    /// `.` for none (e.g. `sa` = SYN|ACK).
    pub fn label(self) -> String {
        let mut s = String::new();
        if self.syn {
            s.push('s');
        }
        if self.fin {
            s.push('f');
        }
        if self.rst {
            s.push('r');
        }
        if self.ack {
            s.push('a');
        }
        if s.is_empty() {
            s.push('.');
        }
        s
    }
}

/// An RFC 793 connection state, as the TCB holds it and as journaled on
/// [`Event::TcpState`] edges. `unp_tcp::State` is this type, re-exported
/// under the protocol library's name for it. (`LISTEN` is a `ListenTcb`
/// there, not a state; `Closed` is both "no connection yet" and the
/// terminal state a live block reaches.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpFsm {
    /// No connection.
    Closed,
    /// Active open sent a SYN, awaiting SYN|ACK.
    SynSent,
    /// SYN received, SYN|ACK sent, awaiting ACK.
    SynReceived,
    /// Three-way handshake complete: data transfer.
    Established,
    /// We closed first; FIN sent, awaiting its ACK.
    FinWait1,
    /// Our FIN acked, awaiting the peer's FIN.
    FinWait2,
    /// Simultaneous close: FINs crossed, awaiting the final ACK.
    Closing,
    /// Peer closed first; we may still send.
    CloseWait,
    /// We closed after the peer; FIN sent, awaiting its ACK.
    LastAck,
    /// Quarantine for 2·MSL before the pair may be reused.
    TimeWait,
}

impl TcpFsm {
    /// The legal moves between TCP states that do not end in `Closed`:
    /// RFC 793's diagram as `unp_tcp::Tcb` implements it. With the rule
    /// that `Closed` is reachable from every live state (close, abort,
    /// reset, timeout) this is the whole relation — see
    /// [`legal_transition`], which the TCB asserts before it commits a
    /// move and the conformance monitor checks on every journaled edge.
    /// RFC 793's `FinWait1 → TimeWait` (the peer's FIN carrying the ACK of
    /// ours) is not here: the TCB processes the ACK, then the FIN, and so
    /// takes it as two moves through `FinWait2`. `unp-tcp`'s
    /// `tests/edge_coverage.rs` holds the table to what is driven.
    pub const EDGES: [(TcpFsm, TcpFsm); 13] = {
        use TcpFsm::*;
        [
            (Closed, SynSent),
            (Closed, SynReceived),
            (SynSent, Established),
            (SynSent, SynReceived),
            (SynReceived, Established),
            (SynReceived, FinWait1),
            (Established, FinWait1),
            (Established, CloseWait),
            (FinWait1, FinWait2),
            (FinWait1, Closing),
            (FinWait2, TimeWait),
            (CloseWait, LastAck),
            (Closing, TimeWait),
        ]
    };

    /// True once the three-way handshake has completed.
    pub fn is_synchronized(self) -> bool {
        !matches!(self, TcpFsm::SynSent | TcpFsm::SynReceived | TcpFsm::Closed)
    }

    /// Journal keyword for the state (`syn_sent`, `fin_wait_1`, …).
    pub fn label(self) -> &'static str {
        match self {
            TcpFsm::Closed => "closed",
            TcpFsm::SynSent => "syn_sent",
            TcpFsm::SynReceived => "syn_received",
            TcpFsm::Established => "established",
            TcpFsm::FinWait1 => "fin_wait_1",
            TcpFsm::FinWait2 => "fin_wait_2",
            TcpFsm::Closing => "closing",
            TcpFsm::CloseWait => "close_wait",
            TcpFsm::LastAck => "last_ack",
            TcpFsm::TimeWait => "time_wait",
        }
    }
}

/// The legal TCP state-transition relation: [`TcpFsm::EDGES`], plus
/// `Closed` from every live state.
pub fn legal_transition(from: TcpFsm, to: TcpFsm) -> bool {
    if to == TcpFsm::Closed {
        return from != TcpFsm::Closed;
    }
    TcpFsm::EDGES.contains(&(from, to))
}

/// What a fault-injection layer did to a frame (or host) in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame was silently dropped.
    Drop,
    /// The frame was delivered twice.
    Duplicate,
    /// The frame's arrival was delayed past later traffic.
    Reorder,
    /// A frame byte was flipped in flight.
    Corrupt,
    /// The frame fell inside a scheduled link outage window.
    Outage,
    /// A host's channel rings were capped to model a slow consumer.
    RingPressure,
    /// An application process was killed at a scheduled sim time.
    Crash,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "dup",
            FaultKind::Reorder => "reorder",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Outage => "outage",
            FaultKind::RingPressure => "pressure",
            FaultKind::Crash => "crash",
        }
    }
}

/// A trusted-layer resource released on behalf of a dead (or vanished)
/// application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimKind {
    /// A kernel channel (ring + template + flow-table entry) destroyed.
    Channel,
    /// An AN1 BQI slot freed.
    Bqi,
    /// A TCP port reservation released by the registry.
    Port,
    /// A listening socket removed by the registry.
    Listener,
    /// An in-flight handshake aborted by the registry.
    Handshake,
    /// An established connection aborted and inherited by the registry.
    Connection,
}

impl ReclaimKind {
    fn label(self) -> &'static str {
        match self {
            ReclaimKind::Channel => "channel",
            ReclaimKind::Bqi => "bqi",
            ReclaimKind::Port => "port",
            ReclaimKind::Listener => "listener",
            ReclaimKind::Handshake => "handshake",
            ReclaimKind::Connection => "connection",
        }
    }
}

/// One packet-lifecycle event. Every variant is observation-only: emitting
/// it charges no simulated cost and schedules nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A frame entered NIC receive staging (Lance) or was classified by
    /// the controller (AN1). `accepted == false` means staging overflowed
    /// and the frame was dropped on the floor.
    NicRx { len: u32, accepted: bool },
    /// A frame was put on the wire.
    NicTx { len: u32 },
    /// The wire hop of a transmitted frame, split into its two latency
    /// components: `queue` is the wait for link access (CSMA backoff /
    /// FDDI token rotation), `wire` is serialization plus propagation.
    /// Emitted at the sender; a fault-injected reorder delay is *not*
    /// included (it shows up as the gap to the receiver's `nic_rx`).
    LinkTx { queue: Nanos, wire: Nanos },
    /// The network I/O module classified a frame. `matched == false`
    /// means no channel binding claimed it (kernel-default path).
    /// `filter_instrs` is the scan-equivalent instruction count the cost
    /// model charges.
    DemuxClassify {
        path: PathKind,
        filter_instrs: u32,
        matched: bool,
    },
    /// A frame was placed into a channel's receive ring. `depth` is the
    /// ring occupancy after the push; `signal` is true when a semaphore
    /// was posted (false = batched behind a pending notification).
    RingEnqueue {
        channel: u32,
        depth: u32,
        signal: bool,
    },
    /// A frame was dropped at ring placement (oversize or ring full).
    /// `pressure == true` means the drop only happened because a fault
    /// plan's slow-consumer window clamped the ring below its real
    /// capacity — the proximate cause is injected pressure, not load.
    RingDrop { channel: u32, pressure: bool },
    /// A frame was dropped at ring placement because the owning tenant's
    /// aggregate ring-slot quota was exhausted (the channel itself still
    /// had room). Distinct from [`Event::RingDrop`] so quota enforcement
    /// is attributable to the tenant that overran its budget, and so
    /// clean runs — where no tenant ever exceeds its share — emit a
    /// byte-identical journal to the pre-quota stack. `in_use`/`quota`
    /// are the tenant's aggregate ring occupancy and budget at the drop,
    /// so the quota-conservation checker can verify the drop was earned.
    QuotaDrop {
        channel: u32,
        tenant: u64,
        in_use: u64,
        quota: u64,
    },
    /// A library wakeup consumed a batch of frames from a channel ring.
    WakeupBatch { channel: u32, frames: u32 },
    /// The protocol library processed (rx) or built (tx) one TCP segment.
    TcpSegment {
        dir: Dir,
        local_port: u16,
        remote_port: u16,
        /// Remote IPv4 address: ports alone are ambiguous once clients on
        /// different hosts pick the same ephemeral port, and the monitor
        /// must key each connection's streaming state unambiguously.
        remote_ip: [u8; 4],
        seq: u32,
        /// Acknowledgment number carried (meaningful when `flags` has
        /// `a`; the ack-monotonicity and dup-ACK checkers key on it).
        ack: u32,
        /// Advertised receive window.
        wnd: u32,
        /// Control flags ([`SegFlags::label`] in the journal line).
        flags: SegFlags,
        payload: u32,
        /// Bytes the segment occupies past the link header (IP + TCP +
        /// payload) — what the modeled per-segment cost is keyed on.
        wire: u32,
    },
    /// A TCP connection block moved between protocol states — the edges
    /// the conformance monitor checks against the legal transition
    /// relation. Constructor initialization is not an edge; `Closed` as a
    /// target covers aborts and resets from any state.
    TcpState {
        local_port: u16,
        remote_port: u16,
        /// See [`Event::TcpSegment::remote_ip`].
        remote_ip: [u8; 4],
        from: TcpFsm,
        to: TcpFsm,
    },
    /// The TCP RTT estimator took a sample.
    RttSample {
        local_port: u16,
        remote_port: u16,
        rtt: Nanos,
    },
    /// TCP retransmitted bytes (RTO fire or fast retransmit). `seq` is
    /// the first sequence number being resent (`snd_una` at the firing
    /// site); `reason` says which loss-detection mechanism fired.
    TcpRexmit {
        local_port: u16,
        remote_port: u16,
        /// See [`Event::TcpSegment::remote_ip`].
        remote_ip: [u8; 4],
        seq: u32,
        bytes: u32,
        reason: RexmitReason,
    },
    /// An out-of-order segment was held in the reassembly buffer.
    TcpOooHold {
        local_port: u16,
        remote_port: u16,
        seq: u32,
        len: u32,
    },
    /// Received bytes crossed the final boundary into the application.
    AppDeliver { conn: u64, bytes: u32 },
    /// The kernel ran the capability/template check on a transmit.
    TxTemplateCheck { channel: u32, ok: bool },
    /// The fault plan perturbed a frame (or host). `from`/`to` identify
    /// the link direction for frame faults; for `Crash`/`RingPressure`
    /// both carry the afflicted host.
    FaultInject { kind: FaultKind, from: u16, to: u16 },
    /// A corrupted frame was caught by a checksum and discarded instead
    /// of panicking or misdelivering.
    FrameCorruptDiscard { len: u32 },
    /// A frame backing buffer came alive in the thread's pool; `live` is
    /// the live-buffer count *after* the allocation. Emitted without a
    /// frame id (ids are minted after the backing exists), so the
    /// frame-join analyses ignore it; the pool-accounting checker chains
    /// consecutive `live` values to catch leaked or double-freed buffers.
    FrameAlloc { live: u64 },
    /// A frame backing buffer was released; `live` is the count after.
    FrameFree { live: u64 },
    /// A trusted layer (kernel or registry) reclaimed a resource on
    /// behalf of a dead application. `id` is the channel id, port number,
    /// BQI index, or handshake id, per `kind`.
    ResourceReclaim {
        kind: ReclaimKind,
        owner: u32,
        id: u32,
    },
}

impl Event {
    /// The event's journal keyword (first token of [`Record::line`]).
    pub fn name(&self) -> &'static str {
        match self {
            Event::NicRx { .. } => "nic_rx",
            Event::NicTx { .. } => "nic_tx",
            Event::LinkTx { .. } => "link_tx",
            Event::DemuxClassify { .. } => "demux_classify",
            Event::RingEnqueue { .. } => "ring_enqueue",
            Event::RingDrop { .. } => "ring_drop",
            Event::QuotaDrop { .. } => "quota_drop",
            Event::WakeupBatch { .. } => "wakeup_batch",
            Event::TcpSegment { .. } => "tcp_segment",
            Event::TcpState { .. } => "tcp_state",
            Event::RttSample { .. } => "rtt_sample",
            Event::TcpRexmit { .. } => "tcp_rexmit",
            Event::TcpOooHold { .. } => "tcp_ooo_hold",
            Event::AppDeliver { .. } => "app_deliver",
            Event::TxTemplateCheck { .. } => "tx_template_check",
            Event::FaultInject { .. } => "fault_inject",
            Event::FrameCorruptDiscard { .. } => "frame_corrupt_discard",
            Event::FrameAlloc { .. } => "frame_alloc",
            Event::FrameFree { .. } => "frame_free",
            Event::ResourceReclaim { .. } => "resource_reclaim",
        }
    }

    fn fields(&self) -> String {
        fn fmt_ip(ip: &[u8; 4]) -> String {
            format!("{}.{}.{}.{}", ip[0], ip[1], ip[2], ip[3])
        }
        match self {
            Event::NicRx { len, accepted } => format!("len={len} accepted={accepted}"),
            Event::NicTx { len } => format!("len={len}"),
            Event::LinkTx { queue, wire } => format!("queue={queue} wire={wire}"),
            Event::DemuxClassify {
                path,
                filter_instrs,
                matched,
            } => format!(
                "path={} instrs={filter_instrs} matched={matched}",
                path.label()
            ),
            Event::RingEnqueue {
                channel,
                depth,
                signal,
            } => format!("ch={channel} depth={depth} signal={signal}"),
            Event::RingDrop { channel, pressure } => format!("ch={channel} pressure={pressure}"),
            Event::QuotaDrop {
                channel,
                tenant,
                in_use,
                quota,
            } => format!("ch={channel} tenant={tenant} in_use={in_use} quota={quota}"),
            Event::WakeupBatch { channel, frames } => format!("ch={channel} frames={frames}"),
            Event::TcpSegment {
                dir,
                local_port,
                remote_port,
                remote_ip,
                seq,
                ack,
                wnd,
                flags,
                payload,
                wire,
            } => format!(
                "dir={} lp={local_port} rp={remote_port} rip={} seq={seq} ack={ack} wnd={wnd} \
                 flags={} payload={payload} wire={wire}",
                dir.label(),
                fmt_ip(remote_ip),
                flags.label()
            ),
            Event::TcpState {
                local_port,
                remote_port,
                remote_ip,
                from,
                to,
            } => format!(
                "lp={local_port} rp={remote_port} rip={} from={} to={}",
                fmt_ip(remote_ip),
                from.label(),
                to.label()
            ),
            Event::RttSample {
                local_port,
                remote_port,
                rtt,
            } => format!("lp={local_port} rp={remote_port} rtt={rtt}"),
            Event::TcpRexmit {
                local_port,
                remote_port,
                remote_ip,
                seq,
                bytes,
                reason,
            } => format!(
                "lp={local_port} rp={remote_port} rip={} seq={seq} bytes={bytes} reason={}",
                fmt_ip(remote_ip),
                reason.label()
            ),
            Event::TcpOooHold {
                local_port,
                remote_port,
                seq,
                len,
            } => format!("lp={local_port} rp={remote_port} seq={seq} len={len}"),
            Event::AppDeliver { conn, bytes } => format!("conn={conn} bytes={bytes}"),
            Event::TxTemplateCheck { channel, ok } => format!("ch={channel} ok={ok}"),
            Event::FaultInject { kind, from, to } => {
                format!("kind={} from={from} to={to}", kind.label())
            }
            Event::FrameCorruptDiscard { len } => format!("len={len}"),
            Event::FrameAlloc { live } => format!("live={live}"),
            Event::FrameFree { live } => format!("live={live}"),
            Event::ResourceReclaim { kind, owner, id } => {
                format!("kind={} owner={owner} id={id}", kind.label())
            }
        }
    }
}

/// One journal entry: an [`Event`] plus when, where, and (when known)
/// which frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Simulated time of emission (the engine clock, not wall time).
    pub time: Nanos,
    /// Emitting host index, when the emission site knows it.
    pub host: Option<u16>,
    /// Frame id ([`next_frame_id`] mint), when a single frame is in hand.
    pub frame: Option<u64>,
    /// What happened.
    pub event: Event,
}

impl Record {
    /// Canonical single-line text form. This is the byte-identity surface
    /// for determinism tests: `{time} h{host} f{frame} {name} {fields}`
    /// with `-` for absent host/frame.
    pub fn line(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str(&self.time.to_string());
        s.push_str(" h");
        match self.host {
            Some(h) => s.push_str(&h.to_string()),
            None => s.push('-'),
        }
        s.push_str(" f");
        match self.frame {
            Some(f) => s.push_str(&f.to_string()),
            None => s.push('-'),
        }
        s.push(' ');
        s.push_str(self.event.name());
        s.push(' ');
        s.push_str(&self.event.fields());
        s
    }
}

/// Renders a whole journal as newline-terminated canonical lines, sorted
/// by `(time, host, frame, name, fields)` so records sharing a timestamp
/// land in a stable order — journal goldens can't flake on same-tick
/// events. Full ties keep emission order (the sort is stable). Analysis
/// passes that join by frame id ([`profile`], the bench trace join) read
/// the records slice directly in emission order; `render` is the display
/// and golden-comparison surface.
pub fn render(records: &[Record]) -> String {
    let mut order: Vec<&Record> = records.iter().collect();
    order.sort_by(|a, b| {
        a.time
            .cmp(&b.time)
            .then_with(|| a.host.cmp(&b.host))
            .then_with(|| a.frame.cmp(&b.frame))
            .then_with(|| a.event.name().cmp(b.event.name()))
            .then_with(|| a.event.fields().cmp(&b.event.fields()))
    });
    let mut out = String::new();
    for r in order {
        out.push_str(&r.line());
        out.push('\n');
    }
    out
}

thread_local! {
    static CLOCK: Cell<Nanos> = const { Cell::new(0) };
    static HOST: Cell<Option<u16>> = const { Cell::new(None) };
    static NEXT_FRAME: Cell<u64> = const { Cell::new(0) };
    static JOURNAL_HANDLE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Zeroes the frame-id mint, the clock, and the host scope without
/// touching attached observers: arms a deterministic run for
/// observer-only (journal-off) monitoring. [`journal_start`] calls
/// this; monitor-only runs — the million-channel sweeps where a full
/// journal is impossible — call it directly before building the
/// world.
pub fn reset_run() {
    NEXT_FRAME.with(|c| c.set(0));
    CLOCK.with(|c| c.set(0));
    HOST.with(|c| c.set(None));
}

fn start_with(j: stream::Journal) {
    if let Some(id) = JOURNAL_HANDLE.with(|c| c.take()) {
        let _ = stream::detach(stream::ObserverHandle::from_id(id));
    }
    reset_run();
    stream::reset_journal_dropped();
    let h = stream::attach(Box::new(j));
    JOURNAL_HANDLE.with(|c| c.set(Some(h.id())));
}

/// Starts recording: attaches a fresh unbounded journal observer
/// (replacing any previous one) and zeroes the frame-id mint and the
/// clock. Build the world *after* calling this so two identical runs
/// mint identical frame ids. Other observers stay attached.
pub fn journal_start() {
    start_with(stream::Journal::unbounded());
}

/// [`journal_start`], but the journal keeps only the most recent
/// `cap` records (drop-oldest; evictions counted by
/// [`journal_dropped`]) — long soaks no longer carry
/// peak-journal memory.
pub fn journal_start_bounded(cap: usize) {
    start_with(stream::Journal::bounded(cap));
}

/// Stops recording and drains the journal, shrunk to its length.
pub fn journal_stop() -> Vec<Record> {
    let Some(id) = JOURNAL_HANDLE.with(|c| c.take()) else {
        return Vec::new();
    };
    match stream::detach_as::<stream::Journal>(stream::ObserverHandle::from_id(id)) {
        Some(j) => j.into_records(),
        None => Vec::new(),
    }
}

/// Whether a journal observer is currently recording on this thread.
#[inline]
pub fn journal_enabled() -> bool {
    JOURNAL_HANDLE.with(|c| c.get().is_some())
}

/// The shared record-push path behind [`emit`] and [`emit_at`]: gate
/// first, so neither the host resolver nor the event constructor runs
/// while quiescent (no observers attached).
#[inline]
fn push(host: impl FnOnce() -> Option<u16>, frame: Option<u64>, make: impl FnOnce() -> Event) {
    if !stream::any_attached() {
        return;
    }
    let rec = Record {
        time: CLOCK.with(|c| c.get()),
        host: host(),
        frame,
        event: make(),
    };
    stream::dispatch(&rec);
}

/// Emits an event attributed to the thread's current host scope. The
/// closure runs only while a journal is recording.
#[inline]
pub fn emit(frame: Option<u64>, make: impl FnOnce() -> Event) {
    push(|| HOST.with(|c| c.get()), frame, make);
}

/// Emits an event with an explicit host (world-level emission sites
/// know their host index directly).
#[inline]
pub fn emit_at(host: u16, frame: Option<u64>, make: impl FnOnce() -> Event) {
    push(move || Some(host), frame, make);
}

/// Sets the journal clock; called by the simulation engine as it
/// advances virtual time.
#[inline]
pub fn set_time(t: Nanos) {
    CLOCK.with(|c| c.set(t));
}

/// The journal clock's current reading.
#[inline]
pub fn time() -> Nanos {
    CLOCK.with(|c| c.get())
}

/// Mints a fresh frame id. Stamped on every `Frame` at creation;
/// clones and slices share their parent's id.
#[inline]
pub fn next_frame_id() -> u64 {
    NEXT_FRAME.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Scope guard attributing emissions from layers that don't know
/// their host (kernel, tcp) to host `h`. Restores the previous scope
/// on drop.
pub struct HostScope {
    prev: Option<u16>,
}

/// Enters a host attribution scope.
pub fn host_scope(h: u16) -> HostScope {
    let prev = HOST.with(|c| c.replace(Some(h)));
    HostScope { prev }
}

impl Drop for HostScope {
    fn drop(&mut self) {
        let prev = self.prev;
        HOST.with(|c| c.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_line_is_canonical() {
        let r = Record {
            time: 12345,
            host: Some(1),
            frame: Some(7),
            event: Event::RingEnqueue {
                channel: 3,
                depth: 2,
                signal: true,
            },
        };
        assert_eq!(
            r.line(),
            "12345 h1 f7 ring_enqueue ch=3 depth=2 signal=true"
        );
        let r = Record {
            time: 0,
            host: None,
            frame: None,
            event: Event::WakeupBatch {
                channel: 3,
                frames: 4,
            },
        };
        assert_eq!(r.line(), "0 h- f- wakeup_batch ch=3 frames=4");
    }

    #[test]
    fn journal_records_between_start_and_stop() {
        // Quiescent: emissions vanish and the closure never runs.
        let mut built = 0u32;
        emit(None, || {
            built += 1;
            Event::NicTx { len: 60 }
        });
        assert_eq!(built, 0);
        assert!(!journal_enabled());

        journal_start();
        assert!(journal_enabled());
        set_time(500);
        let f = next_frame_id();
        assert_eq!(f, 0);
        {
            let _g = host_scope(2);
            emit(Some(f), || Event::NicRx {
                len: 64,
                accepted: true,
            });
        }
        emit_at(0, None, || Event::NicTx { len: 64 });
        // Host scope restored after the guard dropped.
        emit(None, || Event::NicTx { len: 1 });
        let j = journal_stop();
        assert!(!journal_enabled());
        assert_eq!(j.len(), 3);
        assert_eq!(j[0].line(), "500 h2 f0 nic_rx len=64 accepted=true");
        assert_eq!(j[1].line(), "500 h0 f- nic_tx len=64");
        assert_eq!(j[2].line(), "500 h- f- nic_tx len=1");
        // Restarting zeroes the mint.
        journal_start();
        assert_eq!(next_frame_id(), 0);
        assert_eq!(next_frame_id(), 1);
        let _ = journal_stop();
    }

    #[test]
    fn host_scopes_nest() {
        journal_start();
        {
            let _a = host_scope(1);
            {
                let _b = host_scope(2);
                emit(None, || Event::NicTx { len: 1 });
            }
            emit(None, || Event::NicTx { len: 2 });
        }
        let j = journal_stop();
        assert_eq!(j[0].host, Some(2));
        assert_eq!(j[1].host, Some(1));
    }

    #[test]
    fn render_joins_lines() {
        let recs = vec![
            Record {
                time: 1,
                host: None,
                frame: None,
                event: Event::NicTx { len: 5 },
            },
            Record {
                time: 2,
                host: None,
                frame: None,
                event: Event::RingDrop {
                    channel: 9,
                    pressure: false,
                },
            },
        ];
        assert_eq!(
            render(&recs),
            "1 h- f- nic_tx len=5\n2 h- f- ring_drop ch=9 pressure=false\n"
        );
    }

    #[test]
    fn render_is_stable_on_timestamp_ties() {
        let a = Record {
            time: 5,
            host: Some(1),
            frame: Some(3),
            event: Event::NicTx { len: 9 },
        };
        let b = Record {
            time: 5,
            host: Some(0),
            frame: Some(7),
            event: Event::RingDrop {
                channel: 2,
                pressure: false,
            },
        };
        // Same tick, opposite emission orders: render must agree.
        let fwd = render(&[a.clone(), b.clone()]);
        let rev = render(&[b.clone(), a.clone()]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd, format!("{}\n{}\n", b.line(), a.line()));
        // The input slices themselves are untouched (joins need emission
        // order).
        let recs = [a.clone(), b.clone()];
        let _ = render(&recs);
        assert_eq!(recs[0], a);
        assert_eq!(recs[1], b);
    }
}
