//! `unp-tcp` — the TCP protocol library.
//!
//! "The protocol library is the heart of the overall protocol
//! implementation" (paper §3.2). The paper chose TCP deliberately: "it is a
//! real protocol whose level of detail and functionality match that of
//! other communication protocols; choosing a simpler protocol like UDP
//! would be less convincing."
//!
//! This crate is a from-scratch 4.3BSD-class TCP:
//!
//! * the full RFC 793 state machine (including simultaneous open, both
//!   close orders, `TIME_WAIT`/2MSL);
//! * sliding-window flow control with receiver window advertisement and
//!   silly-window avoidance, MSS negotiation, Nagle's algorithm,
//!   delayed acknowledgments, zero-window probing (persist timer);
//! * Jacobson SRTT/RTTVAR retransmission timing with Karn's rule and
//!   exponential backoff; fast retransmit on three duplicate ACKs;
//! * out-of-order segment reassembly;
//! * optional slow-start/congestion-avoidance (Tahoe or Reno shape) — off
//!   by default, matching the stock protocol stack the paper benchmarks on
//!   unloaded LANs.
//!
//! Like every protocol component in this reproduction, [`Tcb`] is a pure
//! state machine: inputs are parsed segments, user calls, timer firings and
//! the current time; outputs are [`TcpAction`]s that the hosting
//! organization routes and charges costs for. The same code runs inside
//! the simulated Ultrix kernel, the Mach single server, and the user-level
//! library — mirroring the paper's "apples to apples" methodology.

pub mod config;
mod congestion;
mod conn;
mod delivery;
mod flow;
pub mod loopback;
mod reasm;
pub mod rtt;
pub mod tcb;
mod time_wait;

pub use config::{CongestionControl, TcpConfig};
pub use delivery::Rings;
pub use rtt::RttEstimator;
pub use tcb::{ListenTcb, State, Tcb, TcpAction, TcpSink, TcpTimer};
pub use time_wait::TimeWait;

/// Time in nanoseconds (shared convention with `unp-sim`).
pub type Nanos = u64;

/// Bytes `[start, start + len)` of a stream ring buffer, borrowed as the
/// two slices on either side of the ring's seam (the second is empty when
/// the range does not straddle it). Every stream-byte move out of a
/// `VecDeque<u8>` in the stack starts here.
///
/// # Panics
/// Unless `start + len <= buf.len()` — an empty range past the end
/// included.
pub fn ring_slices(buf: &std::collections::VecDeque<u8>, start: usize, len: usize) -> [&[u8]; 2] {
    debug_assert!(start + len <= buf.len(), "range past the stream's end");
    let (front, back) = buf.as_slices();
    if start < front.len() {
        let n = len.min(front.len() - start);
        [&front[start..start + n], &back[..len - n]]
    } else {
        let start = start - front.len();
        [&back[start..start + len], &[]]
    }
}

/// Copies bytes `[start, start + len)` out of a stream ring buffer: the
/// [`ring_slices`] range as one owned `Vec`, in one allocation.
///
/// # Panics
/// As [`ring_slices`].
pub fn copy_range(buf: &std::collections::VecDeque<u8>, start: usize, len: usize) -> Vec<u8> {
    let mut out = Vec::new();
    append_range(buf, start, len, &mut out);
    out
}

/// [`copy_range`], appended to `out` (never cleared): a buffer the caller
/// reuses grows only when `len` outruns its spare capacity, and then to
/// exactly what it holds.
///
/// # Panics
/// As [`ring_slices`].
pub(crate) fn append_range(
    buf: &std::collections::VecDeque<u8>,
    start: usize,
    len: usize,
    out: &mut Vec<u8>,
) {
    let [front, back] = ring_slices(buf, start, len);
    out.reserve_exact(len);
    out.extend_from_slice(front);
    out.extend_from_slice(back);
}

/// Errors surfaced to the socket layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// Operation invalid in the current state.
    InvalidState,
    /// The connection was reset by the peer.
    ConnectionReset,
    /// The send buffer cannot accept more data right now.
    WouldBlock,
    /// The connection is closing; no more data may be sent.
    Closing,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::InvalidState => write!(f, "invalid state"),
            TcpError::ConnectionReset => write!(f, "connection reset"),
            TcpError::WouldBlock => write!(f, "would block"),
            TcpError::Closing => write!(f, "closing"),
        }
    }
}

impl std::error::Error for TcpError {}
