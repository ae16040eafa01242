//! The fate step of [`CausalGraph::build`]: each journey's cross-host
//! verdict, and the [`Loss`] that names a lost one's proximate cause.

use super::{CausalGraph, Journey, PathOutcome};
use crate::FaultKind;

/// Where and why a frame was lost in flight or at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Random injected drop on the link `from → to`.
    WireDrop {
        /// Sending host.
        from: u16,
        /// Receiving host.
        to: u16,
    },
    /// The frame fell inside a scheduled outage window on `from → to`.
    Outage {
        /// Sending host.
        from: u16,
        /// Receiving host.
        to: u16,
    },
    /// Injected corruption on `from → to`, caught by the receiver's
    /// checksum and discarded.
    Corrupt {
        /// Sending host.
        from: u16,
        /// Receiving host.
        to: u16,
    },
    /// Dropped at ring placement. `pressure == true` means a fault
    /// plan's slow-consumer window clamped the ring below its real
    /// capacity — injected pressure, not genuine load.
    RingOverflow {
        /// The overflowed channel.
        channel: u32,
        /// Whether an injected pressure clamp caused the drop.
        pressure: bool,
    },
    /// Dropped at ring placement because the owning tenant had exhausted
    /// its aggregate ring-slot quota — the channel itself still had room,
    /// so the root cause is the tenant overrunning its budget, not load
    /// on this channel.
    QuotaExceeded {
        /// The channel the frame was bound for.
        channel: u32,
        /// The tenant whose exhausted quota caused the drop.
        tenant: u64,
    },
    /// Dropped at NIC receive staging overflow.
    NicOverflow,
}

impl Loss {
    /// Stable report keyword for the loss kind.
    pub fn label(self) -> &'static str {
        match self {
            Loss::WireDrop { .. } => "wire_drop",
            Loss::Outage { .. } => "outage",
            Loss::Corrupt { .. } => "corrupt",
            Loss::RingOverflow { pressure: true, .. } => "ring_pressure",
            Loss::RingOverflow { .. } => "ring_overflow",
            Loss::QuotaExceeded { .. } => "quota_exceeded",
            Loss::NicOverflow => "nic_overflow",
        }
    }

    /// Human-readable description.
    pub fn describe(self) -> String {
        match self {
            Loss::WireDrop { from, to } => format!("injected drop on link {from}\u{2192}{to}"),
            Loss::Outage { from, to } => format!("outage window on link {from}\u{2192}{to}"),
            Loss::Corrupt { from, to } => {
                format!("injected corruption on link {from}\u{2192}{to} (discarded on receive)")
            }
            Loss::RingOverflow { channel, pressure } => {
                if pressure {
                    format!("ring overflow on ch{channel} (injected slow-consumer pressure)")
                } else {
                    format!("ring overflow on ch{channel}")
                }
            }
            Loss::QuotaExceeded { channel, tenant } => {
                format!("ring quota exhausted by tenant {tenant} (drop on ch{channel})")
            }
            Loss::NicOverflow => "NIC staging overflow".into(),
        }
    }
}

/// How a journey ended, cross-host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JourneyFate {
    /// Reached the peer's TCP (payload delivered or pure ACK processed).
    Arrived,
    /// Lost in flight or at the receiver.
    Lost(Loss),
    /// The journal stopped (or the run ended) with the frame still
    /// pending — no verdict.
    #[default]
    InFlight,
}

/// Computes a journey's cross-host verdict from its fault records and
/// receive-side outcomes.
pub(super) fn fate_of(
    j: &Journey,
    ring_pressure: Option<&Vec<bool>>,
    quota_tenant: Option<u64>,
) -> JourneyFate {
    for &(_, kind, from, to) in &j.faults {
        match kind {
            FaultKind::Outage => return JourneyFate::Lost(Loss::Outage { from, to }),
            FaultKind::Drop => return JourneyFate::Lost(Loss::WireDrop { from, to }),
            _ => {}
        }
    }
    if j.primary_rx().is_some() {
        return JourneyFate::Arrived;
    }
    let corrupt_link = j
        .faults
        .iter()
        .find(|&&(_, k, _, _)| k == FaultKind::Corrupt)
        .map(|&(_, _, from, to)| (from, to));
    for tr in &j.rx {
        match tr.outcome {
            // A corrupted frame dies at the receiver either way: a
            // flipped payload byte fails the checksum, a flipped length
            // byte truncates the parse.
            PathOutcome::CorruptDiscarded | PathOutcome::Truncated => {
                let (from, to) =
                    corrupt_link.unwrap_or((j.tx_host.unwrap_or(0), tr.host.unwrap_or(0)));
                return JourneyFate::Lost(Loss::Corrupt { from, to });
            }
            PathOutcome::RingDropped => {
                // A quota record outranks the generic ring verdict: the
                // channel had room, the tenant's budget did not.
                if let Some(tenant) = quota_tenant {
                    return JourneyFate::Lost(Loss::QuotaExceeded {
                        channel: tr.channel.unwrap_or(0),
                        tenant,
                    });
                }
                // No copy arrived (checked above), so the first
                // ring-dropped copy pairs with the first recorded flag.
                let pressure = ring_pressure
                    .and_then(|v| v.first())
                    .copied()
                    .unwrap_or(false);
                return JourneyFate::Lost(Loss::RingOverflow {
                    channel: tr.channel.unwrap_or(0),
                    pressure,
                });
            }
            PathOutcome::NicDropped => return JourneyFate::Lost(Loss::NicOverflow),
            _ => {}
        }
    }
    JourneyFate::InFlight
}

impl CausalGraph {
    /// Every lost journey with its loss cause (losses are self-
    /// attributing: the fate *is* the cause).
    pub fn losses(&self) -> impl Iterator<Item = (&Journey, Loss)> {
        self.journeys.iter().filter_map(|j| match j.fate {
            JourneyFate::Lost(loss) => Some((j, loss)),
            _ => None,
        })
    }
}
