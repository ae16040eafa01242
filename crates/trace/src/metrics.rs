//! The typed metrics registry: counters, gauges, and bounded log-linear
//! histograms keyed by enums, plus per-connection and per-channel scopes
//! and point-in-time [`Snapshot`]s for windowed rate telemetry.
//!
//! Replaces the stringly `Trace` that `core::world` carried: a counter
//! bump is now an array index instead of a `BTreeMap<&str, _>` probe, a
//! typo is a compile error instead of a silently fresh counter, and the
//! scattered per-subsystem stats structs (`TcpStats`, the kernel's
//! per-channel counters) are absorbed into one [`ConnScope`] at connection
//! teardown, which [`Metrics::retire_conn`] folds into per-host
//! [`ClosedConns`] totals and a tail of the last [`RETIRED_KEPT`] closes:
//! the registry's size follows hosts, not connections ever made.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::Nanos;

macro_rules! metric_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident => $label:literal,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Every variant, in declaration order (the storage order).
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// The metric's stable report name.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }
        }
    };
}

metric_enum! {
    /// Whole-world event counters (the former string keys, verbatim).
    Ctr {
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
        /// Frames dropped because the owning tenant's aggregate ring-slot
        /// quota was exhausted (the channel itself still had room).
        ChQuotaDrops => "ch_quota_drops",
        /// Frames dropped because a channel ring was full or slots too small.
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
        /// Frames whose bytes the fault plan flipped in flight.
        FaultCorrupts => "fault_corrupts",
        /// Frames the fault plan silently dropped.
        FaultDrops => "fault_drops",
        /// Frames the fault plan delivered twice.
        FaultDups => "fault_dups",
        /// Frames dropped inside a scheduled link outage window.
        FaultOutageDrops => "fault_outage_drops",
        /// Frames the fault plan delayed past later traffic.
        FaultReorders => "fault_reorders",
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
        /// Violations flagged by the attached conformance monitor
        /// (mirrored from [`crate::stream_stats`] by the world's sync).
        MonitorViolations => "monitor_violations",
        /// Frames dropped at NIC staging overflow.
        NicDrops => "nic_drops",
        /// Resources (channels, ports, BQIs, handshakes) reclaimed by a
        /// trusted layer on behalf of a dead application.
        ResourceReclaims => "resource_reclaims",
        /// TCP segments discarded for bad checksums.
        TcpBadChecksum => "tcp_bad_checksum",
        /// TCP segments too short to parse.
        TcpMalformed => "tcp_malformed",
        /// Data bytes TCP retransmitted (RTO fires and fast retransmits),
        /// harvested live from the connection blocks for rate windows.
        TcpRexmitBytes => "tcp_rexmit_bytes",
        /// Retransmitted segments (RTO fires and fast retransmits).
        TcpRexmitSegs => "tcp_rexmit_segs",
        /// RTT estimator samples taken across all connections.
        TcpRttSamples => "tcp_rtt_samples",
        /// Transmissions rejected because the tenant's per-window transmit
        /// credit was exhausted.
        TxQuotaRejections => "tx_quota_rejections",
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
}

metric_enum! {
    /// Instantaneous levels.
    Gauge {
        /// Established connections currently alive.
        ActiveConnections => "active_connections",
        /// Live exact-match flow-table entries across all hosts.
        DemuxFlowEntries => "demux_flow_entries",
        /// Live wildcard listen-table entries across all hosts.
        DemuxListenEntries => "demux_listen_entries",
        /// Kernel channels currently created (handshake + established).
        OpenChannels => "open_channels",
        /// Records currently held across the attached flight recorder's
        /// per-host rings (mirrored from [`crate::stream_stats`]).
        RecorderOccupancy => "recorder_occupancy",
    }
}

metric_enum! {
    /// Sample distributions (values in the unit each variant documents).
    Hist {
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

// ---------------------------------------------------------------------
// Bounded log-linear histogram
// ---------------------------------------------------------------------

/// Values below this are binned exactly (one bucket per value).
const EXACT: u64 = 256;
/// Sub-buckets per power of two above the exact range (2^5 = 32).
const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: 256 exact + 32 per octave for octaves 8..=63.
const NBUCKETS: usize = EXACT as usize + (64 - 8) * SUBS;

/// A bounded log-linear histogram: fixed worst-case footprint (2048
/// `u64` buckets, allocated lazily on the first sample) no matter how
/// many samples are recorded, with rank queries answered by a cumulative
/// scan — no per-query sort, no retained sample vector.
///
/// # Error bounds
///
/// Values below 256 are binned exactly. Above that, each power of two is
/// split into 32 sub-buckets, so a quantile's reported value is the lower
/// bound of its bucket: at most 1/32 (~3.1%) below the true sample.
/// `min`, `max`, the 0.0- and 1.0-quantiles, and the mean are always
/// exact (`sum`/`count` are kept at full precision).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Empty until the first sample, then exactly `NBUCKETS` long.
    buckets: Vec<u64>,
}

fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // 8..=63 here
        let sub = ((v >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        EXACT as usize + (exp as usize - 8) * SUBS + sub
    }
}

fn bucket_floor(idx: usize) -> u64 {
    if idx < EXACT as usize {
        idx as u64
    } else {
        let rel = idx - EXACT as usize;
        let exp = 8 + (rel / SUBS) as u32;
        let sub = (rel % SUBS) as u64;
        (1u64 << exp) + (sub << (exp - SUB_BITS))
    }
}

impl Histogram {
    /// Creates an empty histogram (no bucket storage until a sample).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        self.max = self.max.max(v);
        self.sum += v as u128;
        self.count += 1;
        if self.buckets.is_empty() {
            self.buckets = vec![0; NBUCKETS];
        }
        self.buckets[bucket_index(v)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (exact), or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (exact), or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `p`-quantile (0.0..=1.0) by nearest rank, or `None` if empty.
    /// The extremes are exact (`min`/`max`, returned for `p <= 0.0` and
    /// `p >= 1.0` without touching float rank math; NaN reads as 0.0);
    /// interior quantiles report their bucket's lower bound (≤ 3.1% below
    /// the true sample — see the type docs).
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if p.is_nan() || p <= 0.0 {
            return Some(self.min);
        }
        if p >= 1.0 {
            return Some(self.max);
        }
        // Nearest rank, with the product nudged down a hair before the
        // ceiling: `p * count` can round a whisker above an exact integer
        // boundary (0.001 * 7000 = 7.0000000000000001 in f64) and a bare
        // `ceil` would then overshoot by a whole rank.
        let product = p * self.count as f64;
        let rank = ((product * (1.0 - 1e-12)).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Some(bucket_floor(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable: cum reaches count
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

/// How many of the most recent closes a bounded record keeps whole (the
/// metrics registry's retired connections, the TCP registry's binding
/// reports): enough to read the end of a run the way the flight recorder
/// reads the end of a journal; everything older survives as totals.
pub const RETIRED_KEPT: usize = 64;

/// Pushes `v` onto a tail of the last [`RETIRED_KEPT`] values. The tail
/// starts empty and never holds more, so it costs what was closed, up to
/// the bound, and nothing up front.
pub fn push_kept<T>(tail: &mut VecDeque<T>, v: T) {
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

/// Per-tenant resource roll-up, keyed by `(host, raw tenant id)`: the
/// kernel's per-tenant budget accounting mirrored into the registry so
/// dashboards and the isolation oracle see one report. Cumulative
/// counters plus the instantaneous budget levels at the last sync.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantScope {
    /// Frames delivered into this tenant's rings.
    pub rx_delivered: u64,
    /// Frames this tenant transmitted (accepted by the kernel).
    pub tx_frames: u64,
    /// Receive drops charged to this tenant's exhausted ring quota.
    pub quota_drops: u64,
    /// Transmits rejected for exhausted per-window credit.
    pub tx_rejections: u64,
    /// Ring slots the tenant currently occupies across all its channels.
    pub ring_slots: u64,
    /// The tenant's aggregate ring-slot quota (0 = unlimited).
    pub ring_quota: u64,
    /// Channels the tenant currently holds open.
    pub open_channels: u64,
}

impl TenantScope {
    /// The tenant's share of its own ring quota, 0.0..=1.0, or `None`
    /// when the tenant is unbudgeted.
    pub fn ring_share(&self) -> Option<f64> {
        (self.ring_quota > 0).then(|| self.ring_slots as f64 / self.ring_quota as f64)
    }
}

/// The registry: typed counters/gauges/histograms plus scopes. Owned by
/// the world (one per simulation), not global — parallel test worlds
/// can't bleed into each other.
#[derive(Debug, Clone)]
pub struct Metrics {
    counters: Vec<u64>,
    gauges: Vec<u64>,
    hists: Vec<Histogram>,
    closed: BTreeMap<u16, ClosedConns>,
    retired: VecDeque<Retired>,
    links: BTreeMap<(u16, u16), LinkScope>,
    tenants: BTreeMap<(u16, u64), TenantScope>,
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
            gauges: vec![0; Gauge::ALL.len()],
            hists: vec![Histogram::new(); Hist::ALL.len()],
            closed: BTreeMap::new(),
            retired: VecDeque::new(),
            links: BTreeMap::new(),
            tenants: BTreeMap::new(),
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
            .map(|&c| (c.name(), self.get(c)))
            .filter(|&(_, v)| v != 0)
    }

    // ---- gauges ----

    /// Raises a gauge.
    #[inline]
    pub fn gauge_inc(&mut self, g: Gauge) {
        self.gauges[g as usize] += 1;
    }

    /// Lowers a gauge (saturating at zero).
    #[inline]
    pub fn gauge_dec(&mut self, g: Gauge) {
        let v = &mut self.gauges[g as usize];
        *v = v.saturating_sub(1);
    }

    /// Sets a gauge to an absolute level — for gauges that mirror an
    /// externally-maintained size (table populations) rather than count
    /// inc/dec events.
    #[inline]
    pub fn gauge_set(&mut self, g: Gauge, v: u64) {
        self.gauges[g as usize] = v;
    }

    /// Reads a gauge.
    #[inline]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    // ---- histograms ----

    /// Records a sample.
    #[inline]
    pub fn sample(&mut self, h: Hist, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// The full histogram recorded under `h`.
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h as usize]
    }

    /// Exact mean of the samples under `h`, or `None` if there are none.
    pub fn mean(&self, h: Hist) -> Option<f64> {
        self.hists[h as usize].mean()
    }

    /// The `p`-quantile (0.0..=1.0) of samples under `h` by nearest rank,
    /// or `None` if there are none. See [`Histogram::quantile`] for the
    /// documented error bound.
    pub fn quantile(&self, h: Hist, p: f64) -> Option<u64> {
        self.hists[h as usize].quantile(p)
    }

    // ---- snapshots ----

    /// A point-in-time copy of the counters, gauges, and histogram totals,
    /// stamped with the sim clock. Two snapshots delimit a [`Window`].
    pub fn snapshot(&self, now: Nanos) -> Snapshot {
        Snapshot {
            time: now,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
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

    /// The scope for tenant `tenant` on `host`, created empty on first
    /// touch.
    pub fn tenant(&mut self, host: u16, tenant: u64) -> &mut TenantScope {
        self.tenants.entry((host, tenant)).or_default()
    }

    /// Iterates recorded tenant scopes in `(host, tenant)` order.
    pub fn tenants(&self) -> impl Iterator<Item = (&(u16, u64), &TenantScope)> + '_ {
        self.tenants.iter()
    }
}

// ---------------------------------------------------------------------
// Windowed telemetry
// ---------------------------------------------------------------------

/// A point-in-time copy of the registry's counters, gauges, and histogram
/// totals (counts and sums — the full bucket arrays are not copied).
/// Taken with [`Metrics::snapshot`]; two snapshots bound a [`Window`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Sim time the snapshot was taken (caller-supplied engine clock).
    pub time: Nanos,
    counters: Vec<u64>,
    gauges: Vec<u64>,
    hist_counts: Vec<u64>,
    hist_sums: Vec<u128>,
}

impl Snapshot {
    /// Reads a counter as of this snapshot.
    pub fn get(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// Reads a gauge as of this snapshot.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// The delta window from `earlier` to `self`. Counters are monotonic,
    /// so deltas saturate at zero if the snapshots are passed reversed.
    pub fn window_since(&self, earlier: &Snapshot) -> Window {
        Window {
            start: earlier.time,
            end: self.time,
            counters: self
                .counters
                .iter()
                .zip(&earlier.counters)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            gauges: self.gauges.clone(),
            hist_counts: self
                .hist_counts
                .iter()
                .zip(&earlier.hist_counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            hist_sums: self
                .hist_sums
                .iter()
                .zip(&earlier.hist_sums)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

/// One sim-time telemetry window: counter/histogram deltas between two
/// [`Snapshot`]s plus the gauge levels at the window's end, with derived
/// rates (pps, retransmit rate, flow-hit rate, ring occupancy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Window start (earlier snapshot's sim time).
    pub start: Nanos,
    /// Window end (later snapshot's sim time).
    pub end: Nanos,
    counters: Vec<u64>,
    gauges: Vec<u64>,
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

    /// Gauge level at the window's end.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Samples recorded under `h` during the window, and their sum.
    pub fn hist_delta(&self, h: Hist) -> (u64, u128) {
        (self.hist_counts[h as usize], self.hist_sums[h as usize])
    }

    /// Mean of the samples recorded under `h` during the window, or
    /// `None` if the window recorded none.
    pub fn hist_mean(&self, h: Hist) -> Option<f64> {
        let (n, sum) = self.hist_delta(h);
        (n > 0).then(|| sum as f64 / n as f64)
    }

    /// Frames received per second of sim time.
    pub fn rx_pps(&self) -> f64 {
        self.per_sec(Ctr::FramesReceived)
    }

    /// Frames sent per second of sim time.
    pub fn tx_pps(&self) -> f64 {
        self.per_sec(Ctr::FramesSent)
    }

    /// Retransmitted segments per second of sim time.
    pub fn rexmit_per_sec(&self) -> f64 {
        self.per_sec(Ctr::TcpRexmitSegs)
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

    /// Live keyed-table populations (flow entries, listen entries) at the
    /// window's end, summed across hosts — the dashboard's table-size
    /// columns.
    pub fn demux_table_sizes(&self) -> (u64, u64) {
        (
            self.gauge(Gauge::DemuxFlowEntries),
            self.gauge(Gauge::DemuxListenEntries),
        )
    }

    /// Mean ring occupancy observed at enqueue during the window, or
    /// `None` if nothing was enqueued.
    pub fn mean_ring_depth(&self) -> Option<f64> {
        self.hist_mean(Hist::RingDepth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_typed_and_cheap() {
        let mut m = Metrics::new();
        m.bump(Ctr::FramesSent);
        m.add(Ctr::FramesSent, 4);
        assert_eq!(m.get(Ctr::FramesSent), 5);
        assert_eq!(m.get(Ctr::FramesReceived), 0);
        let touched: Vec<_> = m.counters().collect();
        assert_eq!(touched, vec![("frames_sent", 5)]);
    }

    #[test]
    fn counter_labels_are_sorted_and_unique() {
        // `counters()` reports in declaration order; keep that order
        // alphabetical so reports read like the old BTreeMap output.
        let names: Vec<_> = Ctr::ALL.iter().map(|c| c.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "declare Ctr variants in label order");
    }

    #[test]
    fn hist_labels_are_sorted_and_unique() {
        let names: Vec<_> = Hist::ALL.iter().map(|h| h.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "declare Hist variants in label order");
    }

    #[test]
    fn gauges_saturate() {
        let mut m = Metrics::new();
        m.gauge_dec(Gauge::ActiveConnections);
        assert_eq!(m.gauge(Gauge::ActiveConnections), 0);
        m.gauge_inc(Gauge::ActiveConnections);
        m.gauge_inc(Gauge::ActiveConnections);
        m.gauge_dec(Gauge::ActiveConnections);
        assert_eq!(m.gauge(Gauge::ActiveConnections), 1);
    }

    #[test]
    fn nearest_rank_quantiles() {
        // Values below 256 are binned exactly, so the pre-rework answers
        // still hold to the digit.
        let mut m = Metrics::new();
        for v in [10, 20, 30, 40] {
            m.sample(Hist::ConnSrtt, v);
        }
        assert_eq!(m.mean(Hist::ConnSrtt), Some(25.0));
        assert_eq!(m.quantile(Hist::ConnSrtt, 0.5), Some(20));
        assert_eq!(m.quantile(Hist::ConnSrtt, 1.0), Some(40));
        assert_eq!(m.quantile(Hist::ConnSrtt, 0.0), Some(10));
        assert_eq!(m.mean(Hist::WakeupBatchFrames), None);
        assert_eq!(m.quantile(Hist::WakeupBatchFrames, 0.5), None);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty.
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);

        // Single sample: every quantile is that sample, exactly, even in
        // the log-bucketed range.
        let mut h = Histogram::new();
        h.record(1_000_003);
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), Some(1_000_003));
        }
        assert_eq!(h.mean(), Some(1_000_003.0));

        // p = 0.0 and 1.0 are exact min/max regardless of bucketing.
        let mut h = Histogram::new();
        for v in [977, 35_001, 12_345_679] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(977));
        assert_eq!(h.quantile(1.0), Some(12_345_679));

        // Heavy duplicates: the repeated value dominates every interior
        // rank; 300 falls in a log bucket whose floor is within the
        // documented 1/32 bound.
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(300);
        }
        h.record(1);
        h.record(100_000);
        let q = h.quantile(0.5).unwrap();
        assert!(
            q <= 300 && 300 - q <= 300 / 32 + 1,
            "p50 {q} outside the 1/32 error band around 300"
        );
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(100_000));
    }

    #[test]
    fn quantile_ranks_survive_float_boundary_products() {
        // 0.001 * 7000 rounds to 7.0000000000000001 in f64, so a bare
        // ceil lands on rank 8. With values 1..=7000 (rank k holds value
        // k, all in the exact bucket range below the log-linear split for
        // the first 255) the 0.001-quantile must be rank 7's value.
        let mut h = Histogram::new();
        for v in 1..=7000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.001), Some(7));
        // Exact-boundary and out-of-range p clamp to the observed
        // extremes without touching the rank math.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(-0.5), Some(1));
        assert_eq!(h.quantile(1.0), Some(7000));
        assert_eq!(h.quantile(1.5), Some(7000));
        assert_eq!(h.quantile(f64::NAN), Some(1), "NaN reads as p=0");
        // An exactly-representable product must not slip a rank down:
        // 3500 is log-bucketed, so the answer is its bucket floor, within
        // the documented 1/32 band and never above the true rank value.
        let q = h.quantile(0.5).unwrap();
        assert!(
            q <= 3500 && 3500 - q <= 3500 / 32 + 1,
            "p50 {q} outside the 1/32 band around 3500"
        );
    }

    #[test]
    fn histogram_memory_is_bounded_and_error_banded() {
        // A million spread-out samples must not grow storage past the
        // fixed bucket array, and every quantile must respect the 1/32
        // relative error bound against a sorted reference.
        let mut h = Histogram::new();
        let mut reference = Vec::new();
        let mut x = 1u64;
        for _ in 0..1_000_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x % 50_000_000;
            h.record(v);
            reference.push(v);
        }
        assert_eq!(h.count(), 1_000_000);
        assert!(h.buckets.len() == NBUCKETS, "storage must stay fixed");
        reference.sort_unstable();
        for p in [0.1, 0.5, 0.9, 0.99] {
            let approx = h.quantile(p).unwrap() as f64;
            let idx = ((p * reference.len() as f64).ceil() as usize).clamp(1, reference.len()) - 1;
            let exact = reference[idx] as f64;
            // The reported value is the exact quantile's bucket floor: at
            // most 1/32 below it, never above.
            assert!(
                approx <= exact && (exact - approx) / exact.max(1.0) <= 1.0 / 32.0,
                "quantile p={p}: {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn bucket_round_trip_preserves_order_and_bound() {
        for v in [0, 1, 255, 256, 257, 1000, 65_535, 1 << 20, u64::MAX / 3] {
            let idx = bucket_index(v);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            if v >= EXACT {
                assert!(
                    (v - floor) as f64 / v as f64 <= 1.0 / 32.0,
                    "bucket floor {floor} more than 1/32 below {v}"
                );
            } else {
                assert_eq!(floor, v);
            }
        }
    }

    #[test]
    fn snapshot_windows_do_delta_arithmetic() {
        let mut m = Metrics::new();
        let s0 = m.snapshot(0);
        m.add(Ctr::FramesReceived, 100);
        m.add(Ctr::FramesSent, 50);
        m.add(Ctr::TcpRexmitSegs, 5);
        m.add(Ctr::ChFlowHits, 90);
        m.add(Ctr::ChScanFallbacks, 10);
        m.gauge_inc(Gauge::ActiveConnections);
        m.sample(Hist::RingDepth, 2);
        m.sample(Hist::RingDepth, 4);
        let s1 = m.snapshot(1_000_000_000); // 1 s of sim time
        let w = s1.window_since(&s0);
        assert_eq!(w.duration(), 1_000_000_000);
        assert_eq!(w.delta(Ctr::FramesReceived), 100);
        assert_eq!(w.rx_pps(), 100.0);
        assert_eq!(w.tx_pps(), 50.0);
        assert_eq!(w.rexmit_per_sec(), 5.0);
        assert_eq!(w.rexmit_share(), Some(0.1));
        assert_eq!(w.flow_hit_rate(), Some(0.9));
        assert_eq!(w.mean_ring_depth(), Some(3.0));
        assert_eq!(w.gauge(Gauge::ActiveConnections), 1);

        // The second window sees only the second slice's activity.
        m.add(Ctr::FramesReceived, 20);
        let s2 = m.snapshot(3_000_000_000);
        let w2 = s2.window_since(&s1);
        assert_eq!(w2.duration(), 2_000_000_000);
        assert_eq!(w2.delta(Ctr::FramesReceived), 20);
        assert_eq!(w2.rx_pps(), 10.0);
        assert_eq!(w2.rexmit_share(), None, "nothing sent this window");
        assert_eq!(w2.flow_hit_rate(), None);
        assert_eq!(w2.mean_ring_depth(), None);
        // Windows compose: (s0 -> s2) equals the sum of the two slices.
        let total = s2.window_since(&s0);
        assert_eq!(
            total.delta(Ctr::FramesReceived),
            w.delta(Ctr::FramesReceived) + w2.delta(Ctr::FramesReceived)
        );

        // Reversed snapshots saturate rather than wrap.
        let rev = s0.window_since(&s2);
        assert_eq!(rev.delta(Ctr::FramesReceived), 0);
    }

    #[test]
    fn zero_length_window_has_zero_rates() {
        let m = Metrics::new();
        let s = m.snapshot(500);
        let w = s.window_since(&s);
        assert_eq!(w.duration(), 0);
        assert_eq!(w.rx_pps(), 0.0);
        assert_eq!(w.per_sec(Ctr::FramesSent), 0.0);
    }

    fn key(host: u16, local_port: u16) -> ConnKey {
        ConnKey {
            host,
            local_port,
            remote_ip: [10, 0, 0, 2],
            remote_port: 80,
        }
    }

    #[test]
    fn closed_connections_sum_per_host_and_stay_whole_in_the_tail() {
        let mut m = Metrics::new();
        assert_eq!(key(0, 2000).to_string(), "h0:2000 <-> 10.0.0.2:80");
        // Every summable field distinct, so a dropped one shows.
        let scope = |n: u64| ConnScope {
            segs_out: n,
            segs_in: 2 * n,
            bytes_rexmit: 3 * n,
            rto_fires: 4 * n,
            fast_rexmit: 5 * n,
            dup_acks_in: 6 * n,
            probes: 7 * n,
            srtt: Some(n),
            rx_delivered: 8 * n,
            rx_batched: 9 * n,
            flow_hits: 10 * n,
            listen_hits: 11 * n,
            scan_fallbacks: 12 * n,
            bytes_to_app: 13 * n,
        };
        let sum = |n| ConnScope {
            srtt: None,
            ..scope(n)
        };
        // A client whose ephemeral allocator wrapped closes the same
        // 4-tuple again: two connections, not one overwritten scope.
        m.retire_conn(key(0, 2000), Some(7), scope(1));
        m.retire_conn(key(0, 2000), None, scope(100));
        m.retire_conn(key(1, 80), Some(9), scope(5));
        let closed: Vec<_> = m.closed().map(|(h, c)| (h, c.count, c.sum)).collect();
        assert_eq!(closed, [(0, 2, sum(101)), (1, 1, sum(5))]);
        // Both incarnations are in the tail, in close order.
        let kept: Vec<_> = m.conns().map(|(k, c)| (k.local_port, *c)).collect();
        assert_eq!(kept, [(2000, scope(1)), (2000, scope(100)), (80, scope(5))]);
        // Channels are the tail's connections that ran over one.
        let chans: Vec<_> = m.channels().map(|(id, c)| (id, c.rx_delivered)).collect();
        assert_eq!(chans, [((0, 7), 8), ((1, 9), 40)]);
    }
}
