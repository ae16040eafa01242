//! TCP configuration knobs.
//!
//! These are also the hooks for the paper's "application-specific
//! knowledge" theme: "Simple approaches include providing a set of canned
//! options that determine certain characteristics of a protocol" (§5).
//! [`TcpConfig::bulk_transfer`] and [`TcpConfig::low_latency`] are two such
//! canned variants, exercised by the `app_specific_tuning` example and the
//! ablation benchmarks.

use crate::Nanos;

const MILLIS: Nanos = 1_000_000;
const SECONDS: Nanos = 1_000_000_000;

// What no application, experiment or benchmark sets differently is a
// constant, not a tunable.

/// MSS assumed for the peer when no option is received (RFC 1122: 536).
pub(crate) const MSS_DEFAULT: usize = 536;
/// Retransmission timeout before any RTT sample.
pub(crate) const RTO_INITIAL: Nanos = SECONDS;
/// Minimum retransmission timeout.
pub(crate) const RTO_MIN: Nanos = 200 * MILLIS;
/// Maximum retransmission timeout, backoff included.
pub(crate) const RTO_MAX: Nanos = 64 * SECONDS;
/// Acknowledge every `ACK_EVERY` data segments even when delaying.
pub(crate) const ACK_EVERY: u32 = 2;
/// Delayed-ACK flush interval.
pub(crate) const DELAYED_ACK_TIMEOUT: Nanos = 200 * MILLIS;
/// The largest ring capacity a closed connection's storage keeps for the
/// next connection (`Rings`): the default 16 KiB window. A ring grown
/// past it by a larger window is freed instead.
pub(crate) const RING_KEEP_MAX: usize = 16 * 1024;

const _: () = assert!(RTO_MIN < RTO_INITIAL && RTO_INITIAL < RTO_MAX);

/// Congestion-control algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionControl {
    /// No congestion window (the pre-Tahoe stack shape the paper's LAN
    /// numbers reflect; flow control only).
    Off,
    /// Slow start + congestion avoidance, retransmit collapses cwnd to
    /// one MSS (Tahoe shape).
    Tahoe,
    /// Tahoe plus fast recovery: three duplicate ACKs halve the window
    /// instead of collapsing it (Reno shape).
    Reno,
}

/// Tunables for one connection.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// MSS we advertise (per-link: 1460 for a 1500-byte MTU).
    pub mss_local: usize,
    /// Send buffer capacity in bytes.
    pub send_buf: usize,
    /// Receive buffer capacity in bytes (advertised window ceiling).
    pub recv_buf: usize,
    /// Nagle's algorithm (coalesce sub-MSS writes while data is in flight).
    pub nagle: bool,
    /// Delayed acknowledgments.
    pub delayed_ack: bool,
    /// 2·MSL: how long `TIME_WAIT` quarantines the connection pair.
    pub time_wait: Nanos,
    /// Give up and reset after this many consecutive retransmissions.
    pub max_retransmits: u32,
    /// Congestion control algorithm.
    pub congestion: CongestionControl,
    /// Keepalive probe interval for idle connections (`None` disables,
    /// the 4.3BSD default).
    pub keepalive: Option<Nanos>,
    /// Unanswered keepalive probes tolerated before resetting.
    pub max_keepalive_probes: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss_local: 1460,
            send_buf: 16 * 1024,
            recv_buf: 16 * 1024,
            nagle: true,
            delayed_ack: true,
            time_wait: 60 * SECONDS,
            max_retransmits: 12,
            congestion: CongestionControl::Off,
            keepalive: None,
            max_keepalive_probes: 5,
        }
    }
}

impl TcpConfig {
    /// Canned variant for throughput-intensive applications: big buffers,
    /// Nagle on, standard delayed ACKs.
    pub fn bulk_transfer() -> TcpConfig {
        TcpConfig {
            send_buf: 64 * 1024,
            recv_buf: 64 * 1024,
            ..TcpConfig::default()
        }
    }

    /// Canned variant for latency-critical request/response traffic:
    /// Nagle off (no coalescing delay), immediate ACKs.
    pub fn low_latency() -> TcpConfig {
        TcpConfig {
            nagle: false,
            delayed_ack: false,
            ..TcpConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_variants_differ_where_it_matters() {
        let bulk = TcpConfig::bulk_transfer();
        let lat = TcpConfig::low_latency();
        assert!(bulk.send_buf > lat.send_buf);
        assert!(bulk.nagle && !lat.nagle);
        assert!(bulk.delayed_ack && !lat.delayed_ack);
    }

    #[test]
    fn defaults_sane() {
        let c = TcpConfig::default();
        assert!(c.mss_local >= MSS_DEFAULT);
    }
}
