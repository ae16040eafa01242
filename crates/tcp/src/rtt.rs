//! Round-trip time estimation: Jacobson/Karels SRTT + RTTVAR with Karn's
//! rule, the algorithm 4.3BSD(-Tahoe) shipped and the paper's stacks use.

use crate::config::{RTO_INITIAL, RTO_MAX, RTO_MIN};
use crate::Nanos;

/// Smoothed RTT estimator producing retransmission timeouts.
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    /// Smoothed RTT, ns (None until the first sample).
    srtt: Option<Nanos>,
    /// Mean deviation, ns.
    rttvar: Nanos,
    /// Exponential backoff multiplier (log2), reset on new samples.
    backoff: u32,
}

impl RttEstimator {
    /// Creates an estimator with no samples.
    pub fn new() -> RttEstimator {
        RttEstimator::default()
    }

    /// Feeds one RTT measurement (Karn's rule: callers must not sample
    /// retransmitted segments). Resets backoff.
    pub fn sample(&mut self, rtt: Nanos) {
        match self.srtt {
            None => {
                // RFC 6298 initialization (same shape as Jacobson '88).
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let delta = srtt.abs_diff(rtt);
                // rttvar = 3/4 rttvar + 1/4 |delta|
                self.rttvar = (3 * self.rttvar + delta) / 4;
                // srtt = 7/8 srtt + 1/8 rtt
                self.srtt = Some((7 * srtt + rtt) / 8);
            }
        }
        self.backoff = 0;
    }

    /// Current RTO: `srtt + 4·rttvar`, clamped, with backoff applied.
    pub fn rto(&self) -> Nanos {
        let base = match self.srtt {
            Some(srtt) => (srtt + 4 * self.rttvar).clamp(RTO_MIN, RTO_MAX),
            None => RTO_INITIAL,
        };
        base.saturating_mul(1 << self.backoff.min(16)).min(RTO_MAX)
    }

    /// Doubles the RTO after a retransmission timeout.
    pub fn on_retransmit(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }

    /// Current backoff exponent (for stats/tests).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// True if at least one sample was taken.
    pub fn has_sample(&self) -> bool {
        self.srtt.is_some()
    }

    /// Smoothed RTT, if sampled.
    pub fn srtt(&self) -> Option<Nanos> {
        self.srtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;

    #[test]
    fn initial_rto_used_before_samples() {
        let e = RttEstimator::new();
        assert!(!e.has_sample());
        assert_eq!(e.rto(), 1000 * MS);
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new();
        e.sample(100 * MS);
        assert_eq!(e.srtt(), Some(100 * MS));
        // rto = srtt + 4*(srtt/2) = 300ms.
        assert_eq!(e.rto(), 300 * MS);
    }

    #[test]
    fn stable_rtt_converges_and_clamps_to_min() {
        let mut e = RttEstimator::new();
        for _ in 0..50 {
            e.sample(10 * MS);
        }
        // Variance decays toward 0; RTO floors at rto_min.
        assert_eq!(e.rto(), 200 * MS);
        let srtt = e.srtt().unwrap();
        assert!((9 * MS..=11 * MS).contains(&srtt), "srtt={srtt}");
    }

    #[test]
    fn variance_raises_rto() {
        let mut stable = RttEstimator::new();
        let mut jittery = RttEstimator::new();
        for i in 0..50u64 {
            stable.sample(50 * MS);
            jittery.sample(if i % 2 == 0 { 10 * MS } else { 90 * MS });
        }
        assert!(jittery.rto() > stable.rto());
    }

    #[test]
    fn backoff_doubles_and_new_sample_resets() {
        let mut e = RttEstimator::new();
        e.sample(100 * MS); // rto 300ms
        e.on_retransmit();
        assert_eq!(e.rto(), 600 * MS);
        e.on_retransmit();
        assert_eq!(e.rto(), 1200 * MS);
        e.sample(100 * MS);
        assert_eq!(e.backoff(), 0);
        assert!(e.rto() <= 300 * MS);
    }

    #[test]
    fn rto_capped_at_max() {
        let mut e = RttEstimator::new();
        e.sample(100 * MS);
        for _ in 0..30 {
            e.on_retransmit();
        }
        assert_eq!(e.rto(), 64_000 * MS);
    }
}
