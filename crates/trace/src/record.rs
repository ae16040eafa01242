//! The journal's vocabulary: the [`Event`] kinds and their small enums, a
//! [`Record`] of one, and its canonical text ([`Record::line`],
//! [`render`]).

use crate::Nanos;

keywords! {
    /// Which demultiplexing machinery classified an incoming frame. The kernel
    /// tags every delivery with the path taken so per-path costs can be
    /// charged, fast-path hit rates reported and the decision journaled.
    /// `unp_sim::DemuxPath` is this type, re-exported under the cost model's
    /// name for it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PathKind {
        /// Exact-match flow-table lookup (O(1) in the number of bindings).
        FlowTable => "flow",
        /// Wildcard 3-tuple (protocol, local ip, local port) table lookup —
        /// listening and unconnected-UDP bindings, also O(1).
        ListenTable => "listen",
        /// Linear scan interpreting each binding's filter program — the
        /// paper-era software path, and the fallback for frames or bindings
        /// without any keyed identity (fragments, non-IP, half-wildcard
        /// bindings, mismatched link framing).
        FilterScan => "scan",
        /// The NIC classified the frame itself (AN1 BQI table).
        Hardware => "hw",
    }

    /// Direction of a TCP segment relative to the emitting host.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Dir {
        /// Segment received from the wire.
        Rx => "rx",
        /// Segment built for transmission.
        Tx => "tx",
    }

    /// Why TCP retransmitted: which detection mechanism fired.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RexmitReason {
        /// The retransmission timer expired.
        Rto => "rto",
        /// Three duplicate ACKs triggered a fast retransmit.
        DupAck => "dup_ack",
    }

    /// An RFC 793 connection state, as the TCB holds it and as journaled on
    /// [`Event::TcpState`] edges. `unp_tcp::State` is this type, re-exported
    /// under the protocol library's name for it. (`LISTEN` is a `ListenTcb`
    /// there, not a state; `Closed` is both "no connection yet" and the
    /// terminal state a live block reaches.)
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum TcpFsm {
        /// No connection.
        Closed => "closed",
        /// Active open sent a SYN, awaiting SYN|ACK.
        SynSent => "syn_sent",
        /// SYN received, SYN|ACK sent, awaiting ACK.
        SynReceived => "syn_received",
        /// Three-way handshake complete: data transfer.
        Established => "established",
        /// We closed first; FIN sent, awaiting its ACK.
        FinWait1 => "fin_wait_1",
        /// Our FIN acked, awaiting the peer's FIN.
        FinWait2 => "fin_wait_2",
        /// Simultaneous close: FINs crossed, awaiting the final ACK.
        Closing => "closing",
        /// Peer closed first; we may still send.
        CloseWait => "close_wait",
        /// We closed after the peer; FIN sent, awaiting its ACK.
        LastAck => "last_ack",
        /// Quarantine for 2·MSL before the pair may be reused.
        TimeWait => "time_wait",
    }

    /// What a fault-injection layer did to a frame (or host) in flight.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// The frame was silently dropped.
        Drop => "drop",
        /// The frame was delivered twice.
        Duplicate => "dup",
        /// The frame's arrival was delayed past later traffic.
        Reorder => "reorder",
        /// A frame byte was flipped in flight.
        Corrupt => "corrupt",
        /// The frame fell inside a scheduled link outage window.
        Outage => "outage",
        /// A host's channel rings were capped to model a slow consumer.
        RingPressure => "pressure",
        /// An application process was killed at a scheduled sim time.
        Crash => "crash",
    }

    /// A trusted-layer resource released on behalf of a dead (or vanished)
    /// application.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ReclaimKind {
        /// A kernel channel (ring + template + flow-table entry) destroyed.
        Channel => "channel",
        /// An AN1 BQI slot freed.
        Bqi => "bqi",
        /// A TCP port reservation released by the registry.
        Port => "port",
        /// A listening socket removed by the registry.
        Listener => "listener",
        /// An in-flight handshake aborted by the registry.
        Handshake => "handshake",
        /// An established connection aborted and inherited by the registry.
        Connection => "connection",
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
}

/// The legal TCP state-transition relation: [`TcpFsm::EDGES`], plus
/// `Closed` from every live state.
pub fn legal_transition(from: TcpFsm, to: TcpFsm) -> bool {
    if to == TcpFsm::Closed {
        return from != TcpFsm::Closed;
    }
    TcpFsm::EDGES.contains(&(from, to))
}

/// Declares the journal's event enum once: each variant with its keyword
/// and each field with its journal key. Writes the enum, `name()` (the
/// keyword) and `fields()` (the ` key=value` text of [`Record::line`]).
macro_rules! events {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident => $label:literal {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty => $key:literal,)*
        })*
    }) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $ty,)* },)*
        }

        impl $name {
            /// The event's journal keyword (first token of [`Record::line`]).
            pub fn name(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $label,)*
                }
            }

            /// The event's fields as ` key=value` pairs, in declaration order.
            fn fields(&self) -> String {
                let mut s = String::new();
                match self {
                    $($name::$variant { $($field,)* } => {
                        $(s.push_str(concat!(" ", $key, "="));
                        $field.put(&mut s);)*
                    })*
                }
                s
            }
        }
    };
}

/// How a field's value is written in a journal line.
trait Value {
    fn put(&self, s: &mut String);
}

macro_rules! value_by_display {
    ($($ty:ty),*) => {$(
        impl Value for $ty {
            fn put(&self, s: &mut String) {
                use std::fmt::Write;
                let _ = write!(s, "{self}");
            }
        }
    )*};
}
value_by_display!(u16, u32, u64, bool);

macro_rules! value_by_label {
    ($($ty:ty),*) => {$(
        impl Value for $ty {
            fn put(&self, s: &mut String) {
                s.push_str(&self.label());
            }
        }
    )*};
}
value_by_label!(
    PathKind,
    Dir,
    RexmitReason,
    TcpFsm,
    FaultKind,
    ReclaimKind,
    SegFlags
);

/// An IPv4 address, dotted.
impl Value for [u8; 4] {
    fn put(&self, s: &mut String) {
        use std::fmt::Write;
        let _ = write!(s, "{}.{}.{}.{}", self[0], self[1], self[2], self[3]);
    }
}

events! {
    /// One packet-lifecycle event. Every variant is observation-only: emitting
    /// it charges no simulated cost and schedules nothing.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Event {
        /// A frame entered NIC receive staging (Lance) or was classified by
        /// the controller (AN1). `accepted == false` means staging overflowed
        /// and the frame was dropped on the floor.
        NicRx => "nic_rx" { len: u32 => "len", accepted: bool => "accepted", }
        /// A frame was put on the wire.
        NicTx => "nic_tx" { len: u32 => "len", }
        /// The wire hop of a transmitted frame, split into its two latency
        /// components: `queue` is the wait for link access (CSMA backoff /
        /// FDDI token rotation), `wire` is serialization plus propagation.
        /// Emitted at the sender; a fault-injected reorder delay is *not*
        /// included (it shows up as the gap to the receiver's `nic_rx`).
        LinkTx => "link_tx" { queue: Nanos => "queue", wire: Nanos => "wire", }
        /// The network I/O module classified a frame. `matched == false`
        /// means no channel binding claimed it (kernel-default path).
        /// `filter_instrs` is the scan-equivalent instruction count the cost
        /// model charges.
        DemuxClassify => "demux_classify" {
            path: PathKind => "path",
            filter_instrs: u32 => "instrs",
            matched: bool => "matched",
        }
        /// A frame was placed into a channel's receive ring. `depth` is the
        /// ring occupancy after the push; `signal` is true when a semaphore
        /// was posted (false = batched behind a pending notification).
        RingEnqueue => "ring_enqueue" {
            channel: u32 => "ch",
            depth: u32 => "depth",
            signal: bool => "signal",
        }
        /// A frame was dropped at ring placement (oversize or ring full).
        /// `pressure == true` means the drop only happened because a fault
        /// plan's slow-consumer window clamped the ring below its real
        /// capacity — the proximate cause is injected pressure, not load.
        RingDrop => "ring_drop" { channel: u32 => "ch", pressure: bool => "pressure", }
        /// A frame was dropped at ring placement because the owning tenant's
        /// aggregate ring-slot quota was exhausted (the channel itself still
        /// had room). Distinct from [`Event::RingDrop`] so quota enforcement
        /// is attributable to the tenant that overran its budget, and so
        /// clean runs — where no tenant ever exceeds its share — emit a
        /// byte-identical journal to the pre-quota stack. `in_use`/`quota`
        /// are the tenant's aggregate ring occupancy and budget at the drop,
        /// so the quota-conservation checker can verify the drop was earned.
        QuotaDrop => "quota_drop" {
            channel: u32 => "ch",
            tenant: u64 => "tenant",
            in_use: u64 => "in_use",
            quota: u64 => "quota",
        }
        /// A library wakeup consumed a batch of frames from a channel ring.
        WakeupBatch => "wakeup_batch" { channel: u32 => "ch", frames: u32 => "frames", }
        /// The protocol library processed (rx) or built (tx) one TCP segment.
        TcpSegment => "tcp_segment" {
            dir: Dir => "dir",
            local_port: u16 => "lp",
            remote_port: u16 => "rp",
            /// Remote IPv4 address: ports alone are ambiguous once clients on
            /// different hosts pick the same ephemeral port, and the monitor
            /// must key each connection's streaming state unambiguously.
            remote_ip: [u8; 4] => "rip",
            seq: u32 => "seq",
            /// Acknowledgment number carried (meaningful when `flags` has
            /// `a`; the ack-monotonicity and dup-ACK checkers key on it).
            ack: u32 => "ack",
            /// Advertised receive window.
            wnd: u32 => "wnd",
            /// Control flags ([`SegFlags::label`] in the journal line).
            flags: SegFlags => "flags",
            payload: u32 => "payload",
            /// Bytes the segment occupies past the link header (IP + TCP +
            /// payload) — what the modeled per-segment cost is keyed on.
            wire: u32 => "wire",
        }
        /// A TCP connection block moved between protocol states — the edges
        /// the conformance monitor checks against the legal transition
        /// relation. Constructor initialization is not an edge; `Closed` as a
        /// target covers aborts and resets from any state.
        TcpState => "tcp_state" {
            local_port: u16 => "lp",
            remote_port: u16 => "rp",
            /// See [`Event::TcpSegment::remote_ip`].
            remote_ip: [u8; 4] => "rip",
            from: TcpFsm => "from",
            to: TcpFsm => "to",
        }
        /// The TCP RTT estimator took a sample.
        RttSample => "rtt_sample" {
            local_port: u16 => "lp",
            remote_port: u16 => "rp",
            rtt: Nanos => "rtt",
        }
        /// TCP retransmitted bytes (RTO fire or fast retransmit). `seq` is
        /// the first sequence number being resent (`snd_una` at the firing
        /// site); `reason` says which loss-detection mechanism fired.
        TcpRexmit => "tcp_rexmit" {
            local_port: u16 => "lp",
            remote_port: u16 => "rp",
            /// See [`Event::TcpSegment::remote_ip`].
            remote_ip: [u8; 4] => "rip",
            seq: u32 => "seq",
            bytes: u32 => "bytes",
            reason: RexmitReason => "reason",
        }
        /// An out-of-order segment was held in the reassembly buffer.
        TcpOooHold => "tcp_ooo_hold" {
            local_port: u16 => "lp",
            remote_port: u16 => "rp",
            seq: u32 => "seq",
            len: u32 => "len",
        }
        /// Received bytes crossed the final boundary into the application.
        AppDeliver => "app_deliver" { conn: u64 => "conn", bytes: u32 => "bytes", }
        /// The kernel ran the capability/template check on a transmit.
        TxTemplateCheck => "tx_template_check" { channel: u32 => "ch", ok: bool => "ok", }
        /// The fault plan perturbed a frame (or host). `from`/`to` identify
        /// the link direction for frame faults; for `Crash`/`RingPressure`
        /// both carry the afflicted host.
        FaultInject => "fault_inject" {
            kind: FaultKind => "kind",
            from: u16 => "from",
            to: u16 => "to",
        }
        /// A corrupted frame was caught by a checksum and discarded instead
        /// of panicking or misdelivering.
        FrameCorruptDiscard => "frame_corrupt_discard" { len: u32 => "len", }
        /// A frame backing buffer came alive in the thread's pool; `live` is
        /// the live-buffer count *after* the allocation. Emitted without a
        /// frame id (ids are minted after the backing exists), so the
        /// frame-join analyses ignore it; the pool-accounting checker chains
        /// consecutive `live` values to catch leaked or double-freed buffers.
        FrameAlloc => "frame_alloc" { live: u64 => "live", }
        /// A frame backing buffer was released; `live` is the count after.
        FrameFree => "frame_free" { live: u64 => "live", }
        /// A trusted layer (kernel or registry) reclaimed a resource on
        /// behalf of a dead application. `id` is the channel id, port number,
        /// BQI index, or handshake id, per `kind`.
        ResourceReclaim => "resource_reclaim" {
            kind: ReclaimKind => "kind",
            owner: u32 => "owner",
            id: u32 => "id",
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
    /// Frame id ([`next_frame_id`](crate::next_frame_id) mint), when a single frame is in hand.
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
        s.push_str(&self.event.fields());
        s
    }
}

/// Renders a whole journal as newline-terminated canonical lines, sorted
/// by `(time, host, frame, name, fields)` so records sharing a timestamp
/// land in a stable order — journal goldens can't flake on same-tick
/// events. Full ties keep emission order (the sort is stable). Analysis
/// passes that join by frame id ([`crate::CausalGraph::build`], the bench
/// trace join) read the records slice in emission order; `render` is the
/// display and golden-comparison surface.
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
