//! The attribution step of [`CausalGraph::build`]: each retransmit's root
//! [`Cause`], read off the fates of the transmissions it repeats.

use std::collections::HashMap;

use super::{CausalGraph, Journey, JourneyFate, Loss, SegTx};
use crate::{FaultKind, Nanos, RexmitReason};

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
pub(super) fn seq_contains(lo: u32, len: u32, x: u32) -> bool {
    len > 0 && x.wrapping_sub(lo) < len
}

/// Attributes one retransmit: walk every prior transmission of the
/// resent range on the same connection, latest first, and let the first
/// fate that explains the retransmit name the cause. A transmission
/// that *arrived* but whose delivery (or the ACK carrying the news)
/// post-dates the retransmit is merely late — the walk keeps going, and
/// if no older transmission was genuinely lost the retransmit is
/// attributed to that delay ([`Cause::LateDelivery`]): queueing can
/// hold a frame past the dup-ACK threshold without any fault injected.
pub(super) fn attribute(journeys: &[Journey], crashes: &[(Nanos, u16)], a: &Attribution) -> Cause {
    let Attribution { t, host, seq, .. } = *a;
    let conn = (a.local_port, a.remote_port);
    let matches_conn = |s: &SegTx| (s.local_port, s.remote_port) == conn;
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
                    if (s.remote_port, s.local_port) != conn {
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

impl CausalGraph {
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
}
