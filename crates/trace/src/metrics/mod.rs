//! The typed metrics registry: event counters and bounded log-linear
//! histograms keyed by enums, plus per-connection and per-link scopes and
//! point-in-time [`Snapshot`]s for windowed rate telemetry. It records
//! only what it alone sees happen; a level some layer already keeps (open
//! channels, table sizes, tenant accounts, live connections) is read from
//! that layer, never copied here.
//!
//! Replaces the stringly `Trace` that `core::world` carried: a counter
//! bump is now an array index instead of a `BTreeMap<&str, _>` probe, a
//! typo is a compile error instead of a silently fresh counter, and the
//! scattered per-subsystem stats structs (`TcpStats`, the kernel's
//! per-channel counters) are absorbed into one [`ConnScope`] at connection
//! teardown, which [`Metrics::retire_conn`] folds into per-host
//! [`ClosedConns`] totals and a tail of the last [`RETIRED_KEPT`] closes:
//! the registry's size follows hosts, not connections ever made.

mod histogram;

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::Nanos;
pub use histogram::Histogram;

keywords! {
    /// Whole-world event counters (the former string keys, verbatim), in
    /// label order (the storage order).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Ctr {
        /// Application processes killed by the fault plan (or by tests).
        AppCrashes => "app_crashes",
        /// Deliveries batched behind a pending channel notification.
        ChBatched => "ch_batched",
        /// Frames delivered into connection channels.
        ChDeliveries => "ch_deliveries",
        /// Channel deliveries decided by the exact-match flow table.
        ChFlowHits => "ch_flow_hits",
        /// Channel deliveries decided by the wildcard 3-tuple listen table.
        ChListenHits => "ch_listen_hits",
        /// Frames dropped because a channel ring was full or slots too small
        /// (a tenant quota's drops are its kernel account's).
        ChRingDrops => "ch_ring_drops",
        /// Channel deliveries decided by the linear filter scan.
        ChScanFallbacks => "ch_scan_fallbacks",
        /// Connections that closed normally.
        ConnectionsClosed => "connections_closed",
        /// Connections that completed establishment.
        ConnectionsEstablished => "connections_established",
        /// Connections handed to the registry by an exiting application.
        ConnectionsInherited => "connections_inherited",
        /// Connections torn down by RST.
        ConnectionsReset => "connections_reset",
        /// Corrupted frames caught by a checksum and discarded.
        FrameCorruptDiscards => "frame_corrupt_discards",
        /// Frames parked while a channel finalization was in flight.
        FramesParked => "frames_parked",
        /// Frames received from the wire (pre-NIC-staging).
        FramesReceived => "frames_received",
        /// Frames put on the wire.
        FramesSent => "frames_sent",
        /// Handshakes that failed (timeout or RST).
        HandshakeFailures => "handshake_failures",
        /// ICMP parse failures.
        IcmpBad => "icmp_bad",
        /// ICMP destination-unreachable errors received.
        IcmpDestUnreachableReceived => "icmp_dest_unreachable_received",
        /// Echo replies we generated.
        IcmpEchoReplies => "icmp_echo_replies",
        /// Echo replies to our own pings.
        IcmpEchoReplyReceived => "icmp_echo_reply_received",
        /// Other ICMP traffic.
        IcmpOther => "icmp_other",
        /// IP datagrams that failed validation.
        IpBad => "ip_bad",
        /// Fragments held for reassembly.
        IpFragmentsHeld => "ip_fragments_held",
        /// IP datagrams addressed elsewhere.
        IpNotForUs => "ip_not_for_us",
        /// Complete datagrams for protocols we don't run.
        IpUnknownProto => "ip_unknown_proto",
        /// Non-TCP frames that reached the library input path.
        LibNonTcp => "lib_non_tcp",
        /// Handshake completions whose listener had already vanished;
        /// the channel is reclaimed and the peer reset.
        ListenerVanished => "listener_vanished",
        /// Resources (channels, ports, BQIs, handshakes) reclaimed by a
        /// trusted layer on behalf of a dead application.
        ResourceReclaims => "resource_reclaims",
        /// TCP segments too short to parse.
        TcpMalformed => "tcp_malformed",
        /// Data bytes TCP retransmitted (RTO fires and fast retransmits),
        /// harvested live from the connection blocks for rate windows.
        TcpRexmitBytes => "tcp_rexmit_bytes",
        /// Retransmitted segments (RTO fires and fast retransmits).
        TcpRexmitSegs => "tcp_rexmit_segs",
        /// RTT estimator samples taken across all connections.
        TcpRttSamples => "tcp_rtt_samples",
        /// Transmissions rejected by the template check.
        TxTemplateRejections => "tx_template_rejections",
        /// UDP datagrams that failed validation.
        UdpBad => "udp_bad",
        /// UDP datagrams delivered to a bound port.
        UdpDelivered => "udp_delivered",
        /// UDP datagrams to unbound ports (ICMP unreachable generated).
        UdpUnreachable => "udp_unreachable",
        /// Frames with an ethertype nobody handles.
        UnknownEthertype => "unknown_ethertype",
    }

    /// Sample distributions (values in the unit each variant documents),
    /// in label order (the storage order).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Hist {
        /// Bytes handed to an application per delivery upcall.
        AppDeliverBytes => "app_deliver_bytes",
        /// A connection's final smoothed RTT at teardown, nanoseconds.
        ConnSrtt => "conn_srtt_ns",
        /// Channel ring occupancy observed at each enqueue (after the
        /// push) — the live backlog a windowed sampler watches.
        RingDepth => "ring_depth",
        /// Frames consumed per library wakeup (the notification-batching
        /// win: >1 means one semaphore covered several packets).
        WakeupBatchFrames => "wakeup_batch_frames",
    }
}

/// Identity of a connection endpoint for scope keys and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConnKey {
    /// Host index.
    pub host: u16,
    /// Local TCP port.
    pub local_port: u16,
    /// Remote IPv4 address octets.
    pub remote_ip: [u8; 4],
    /// Remote TCP port.
    pub remote_port: u16,
}

impl fmt::Display for ConnKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.remote_ip;
        write!(
            f,
            "h{}:{} <-> {}.{}.{}.{}:{}",
            self.host, self.local_port, a, b, c, d, self.remote_port
        )
    }
}

/// How many of the most recent closes the registry keeps whole: enough
/// to read the end of a run the way the flight recorder reads the end of
/// a journal; everything older survives as totals.
pub const RETIRED_KEPT: usize = 64;

/// Pushes `v` onto a tail of the last [`RETIRED_KEPT`] values. The tail
/// starts empty and never holds more, so it costs what was closed, up to
/// the bound, and nothing up front.
fn push_kept<T>(tail: &mut VecDeque<T>, v: T) {
    if tail.len() == RETIRED_KEPT {
        tail.pop_front();
    }
    tail.push_back(v);
}

/// Per-connection roll-up: the TCP machine's counters plus the kernel
/// channel's delivery/demux counters, built once when the connection (or
/// its owning application) goes away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnScope {
    /// Segments sent (including retransmissions).
    pub segs_out: u64,
    /// Acceptable segments processed.
    pub segs_in: u64,
    /// Bytes retransmitted.
    pub bytes_rexmit: u64,
    /// Retransmission-timeout fires.
    pub rto_fires: u64,
    /// Fast retransmits triggered by duplicate ACKs.
    pub fast_rexmit: u64,
    /// Duplicate ACKs received.
    pub dup_acks_in: u64,
    /// Zero-window probes sent.
    pub probes: u64,
    /// Final smoothed RTT, when the estimator had samples.
    pub srtt: Option<Nanos>,
    /// Frames the kernel delivered into this connection's ring.
    pub rx_delivered: u64,
    /// Deliveries that batched behind a pending notification.
    pub rx_batched: u64,
    /// Software deliveries that hit the exact-match flow table.
    pub flow_hits: u64,
    /// Software deliveries that hit the wildcard listen table.
    pub listen_hits: u64,
    /// Software deliveries that fell back to the filter scan.
    pub scan_fallbacks: u64,
    /// Bytes delivered to the application.
    pub bytes_to_app: u64,
}

impl std::ops::AddAssign<&ConnScope> for ConnScope {
    /// Field-wise sum. `srtt` is a final estimate, not a count: the sum
    /// leaves it alone (the distribution is [`Hist::ConnSrtt`]).
    fn add_assign(&mut self, c: &ConnScope) {
        self.segs_out += c.segs_out;
        self.segs_in += c.segs_in;
        self.bytes_rexmit += c.bytes_rexmit;
        self.rto_fires += c.rto_fires;
        self.fast_rexmit += c.fast_rexmit;
        self.dup_acks_in += c.dup_acks_in;
        self.probes += c.probes;
        self.rx_delivered += c.rx_delivered;
        self.rx_batched += c.rx_batched;
        self.flow_hits += c.flow_hits;
        self.listen_hits += c.listen_hits;
        self.scan_fallbacks += c.scan_fallbacks;
        self.bytes_to_app += c.bytes_to_app;
    }
}

/// One host's closed connections, rolled up: how many, and the sum of
/// their scopes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClosedConns {
    /// Connection endpoints retired on this host.
    pub count: u64,
    /// Their scopes, summed field-wise (`srtt` stays `None`).
    pub sum: ConnScope,
}

/// A connection kept whole in the tail of recent closes, with the raw id
/// of the kernel channel it ran over (user-library org).
type Retired = (ConnKey, Option<u32>, ConnScope);

/// Per-link fault roll-up, keyed by `(from host, to host)`: what the
/// fault plan did to frames crossing that directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkScope {
    /// Frames silently dropped.
    pub drops: u64,
    /// Frames delivered twice.
    pub dups: u64,
    /// Frames delayed past later traffic.
    pub reorders: u64,
    /// Frames with a byte flipped in flight.
    pub corrupts: u64,
    /// Frames dropped inside a scheduled outage window.
    pub outage_drops: u64,
}

impl std::ops::AddAssign<&LinkScope> for LinkScope {
    /// Field-wise sum.
    fn add_assign(&mut self, l: &LinkScope) {
        self.drops += l.drops;
        self.dups += l.dups;
        self.reorders += l.reorders;
        self.corrupts += l.corrupts;
        self.outage_drops += l.outage_drops;
    }
}

/// The registry: typed counters and histograms plus scopes. Owned by
/// the world (one per simulation), not global — parallel test worlds
/// can't bleed into each other.
#[derive(Debug, Clone)]
pub struct Metrics {
    counters: Vec<u64>,
    hists: Vec<Histogram>,
    closed: BTreeMap<u16, ClosedConns>,
    retired: VecDeque<Retired>,
    links: BTreeMap<(u16, u16), LinkScope>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics {
            counters: vec![0; Ctr::ALL.len()],
            hists: vec![Histogram::new(); Hist::ALL.len()],
            closed: BTreeMap::new(),
            retired: VecDeque::new(),
            links: BTreeMap::new(),
        }
    }

    // ---- counters ----

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, c: Ctr, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn bump(&mut self, c: Ctr) {
        self.add(c, 1);
    }

    /// Reads a counter.
    #[inline]
    pub fn get(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// Iterates the counters that have been touched, in name order (the
    /// declaration order is alphabetical by label).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Ctr::ALL
            .iter()
            .map(|&c| (c.label(), self.get(c)))
            .filter(|&(_, v)| v != 0)
    }

    // ---- histograms ----

    /// Records a sample.
    #[inline]
    pub fn sample(&mut self, h: Hist, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// Exact mean of the samples under `h`, or `None` if there are none.
    pub fn mean(&self, h: Hist) -> Option<f64> {
        self.hists[h as usize].mean()
    }

    // ---- snapshots ----

    /// A point-in-time copy of the counters and histogram totals,
    /// stamped with the sim clock. Two snapshots delimit a [`Window`].
    pub fn snapshot(&self, now: Nanos) -> Snapshot {
        Snapshot {
            time: now,
            counters: self.counters.clone(),
            hist_counts: self.hists.iter().map(Histogram::count).collect(),
            hist_sums: self.hists.iter().map(Histogram::sum).collect(),
        }
    }

    // ---- scopes ----

    /// Records a closed connection — the one way a [`ConnScope`] enters
    /// the registry. It is added into its host's [`ClosedConns`] and kept
    /// whole among the last [`RETIRED_KEPT`] closes; `channel` is the raw
    /// id of the kernel channel it ran over, if it had one. A 4-tuple that
    /// closes twice counts twice.
    pub fn retire_conn(&mut self, key: ConnKey, channel: Option<u32>, scope: ConnScope) {
        let closed = self.closed.entry(key.host).or_default();
        closed.count += 1;
        closed.sum += &scope;
        push_kept(&mut self.retired, (key, channel, scope));
    }

    /// Iterates the per-host totals over every connection closed so far,
    /// in host order.
    pub fn closed(&self) -> impl Iterator<Item = (u16, &ClosedConns)> + '_ {
        self.closed.iter().map(|(&host, c)| (host, c))
    }

    /// Iterates the last [`RETIRED_KEPT`] closed connections, oldest
    /// first. Earlier ones survive only in [`Metrics::closed`].
    pub fn conns(&self) -> impl Iterator<Item = (&ConnKey, &ConnScope)> + '_ {
        self.retired.iter().map(|(key, _, scope)| (key, scope))
    }

    /// The kernel channels of [`Metrics::conns`], as `((host, raw channel
    /// id), scope)`: a channel's delivery and demux counters are its
    /// connection's `rx_*`, `*_hits` and `scan_fallbacks`.
    pub fn channels(&self) -> impl Iterator<Item = ((u16, u32), &ConnScope)> + '_ {
        self.retired
            .iter()
            .filter_map(|(key, channel, scope)| Some(((key.host, (*channel)?), scope)))
    }

    /// The fault scope for the directed link `from -> to`, created empty
    /// on first touch.
    pub fn link(&mut self, from: u16, to: u16) -> &mut LinkScope {
        self.links.entry((from, to)).or_default()
    }

    /// Iterates recorded per-link fault scopes in `(from, to)` order.
    pub fn links(&self) -> impl Iterator<Item = (&(u16, u16), &LinkScope)> + '_ {
        self.links.iter()
    }

    /// Every link's fault scope summed: what the fault plan did to the
    /// whole wire.
    pub fn link_totals(&self) -> LinkScope {
        let mut sum = LinkScope::default();
        for l in self.links.values() {
            sum += l;
        }
        sum
    }
}

// ---------------------------------------------------------------------
// Windowed telemetry
// ---------------------------------------------------------------------

/// A point-in-time copy of the registry's counters and histogram totals
/// (counts and sums — the full bucket arrays are not copied).
/// Taken with [`Metrics::snapshot`]; two snapshots bound a [`Window`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Sim time the snapshot was taken (caller-supplied engine clock).
    pub time: Nanos,
    counters: Vec<u64>,
    hist_counts: Vec<u64>,
    hist_sums: Vec<u128>,
}

impl Snapshot {
    /// Reads a counter as of this snapshot.
    pub fn get(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// The delta window from `earlier` to `self`. Counters are monotonic,
    /// so deltas saturate at zero if the snapshots are passed reversed.
    pub fn window_since(&self, earlier: &Snapshot) -> Window {
        Window {
            start: earlier.time,
            end: self.time,
            counters: deltas(&self.counters, &earlier.counters),
            hist_counts: deltas(&self.hist_counts, &earlier.hist_counts),
            hist_sums: deltas(&self.hist_sums, &earlier.hist_sums),
        }
    }
}

/// `later - earlier`, slot by slot, saturating at zero.
fn deltas<T: Copy + Ord + std::ops::Sub<Output = T>>(later: &[T], earlier: &[T]) -> Vec<T> {
    later
        .iter()
        .zip(earlier)
        .map(|(&a, &b)| a - a.min(b))
        .collect()
}

/// One sim-time telemetry window: counter/histogram deltas between two
/// [`Snapshot`]s, read as rates ([`Window::per_sec`]), sample means
/// ([`Window::hist_mean`]) and shares (retransmits, demux hits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Window start (earlier snapshot's sim time).
    pub start: Nanos,
    /// Window end (later snapshot's sim time).
    pub end: Nanos,
    counters: Vec<u64>,
    hist_counts: Vec<u64>,
    hist_sums: Vec<u128>,
}

impl Window {
    /// Window length in simulated nanoseconds.
    pub fn duration(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }

    /// Counter delta over the window.
    pub fn delta(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// Counter rate over the window, per second of sim time (0.0 for an
    /// empty window).
    pub fn per_sec(&self, c: Ctr) -> f64 {
        let d = self.duration();
        if d == 0 {
            0.0
        } else {
            self.delta(c) as f64 * 1e9 / d as f64
        }
    }

    /// Mean of the samples recorded under `h` during the window, or
    /// `None` if the window recorded none.
    pub fn hist_mean(&self, h: Hist) -> Option<f64> {
        let (n, sum) = (self.hist_counts[h as usize], self.hist_sums[h as usize]);
        (n > 0).then(|| sum as f64 / n as f64)
    }

    /// Retransmitted segments as a share of frames sent in the window
    /// (approximate: a frame usually carries one segment), or `None` if
    /// nothing was sent.
    pub fn rexmit_share(&self) -> Option<f64> {
        let sent = self.delta(Ctr::FramesSent);
        (sent > 0).then(|| self.delta(Ctr::TcpRexmitSegs) as f64 / sent as f64)
    }

    /// Software deliveries classified this window, across all tiers.
    fn demux_decisions(&self) -> u64 {
        self.delta(Ctr::ChFlowHits)
            + self.delta(Ctr::ChListenHits)
            + self.delta(Ctr::ChScanFallbacks)
    }

    /// Share of channel deliveries the flow table decided this window, or
    /// `None` if no software delivery was classified.
    pub fn flow_hit_rate(&self) -> Option<f64> {
        let all = self.demux_decisions();
        (all > 0).then(|| self.delta(Ctr::ChFlowHits) as f64 / all as f64)
    }

    /// Share of channel deliveries decided by either keyed table this
    /// window — the frames that skipped filter interpretation — or `None`
    /// if no software delivery was classified.
    pub fn keyed_hit_rate(&self) -> Option<f64> {
        let all = self.demux_decisions();
        let keyed = self.delta(Ctr::ChFlowHits) + self.delta(Ctr::ChListenHits);
        (all > 0).then(|| keyed as f64 / all as f64)
    }
}

#[cfg(test)]
mod tests;
