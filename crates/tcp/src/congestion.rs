//! Congestion control: the congestion window, the slow-start threshold
//! and the duplicate-ACK count, and the one place the stack decides what
//! [`CongestionControl`] means.
//!
//! The TCB tells this component what happened to the flight — an ACK
//! advanced it, an ACK repeated, the retransmission timer expired — and
//! reads back [`Congestion::window`]. Every argument is a plain number
//! (bytes in flight, the negotiated MSS), so nothing here can reach the
//! sequence space, the buffers or the connection state.

use std::cmp::Ordering;

use crate::config::CongestionControl;

/// Duplicate ACKs that trigger a fast retransmit.
const DUP_ACK_THRESHOLD: u32 = 3;

/// One connection's congestion state.
#[derive(Debug)]
pub(crate) struct Congestion {
    algo: CongestionControl,
    cwnd: usize,
    ssthresh: usize,
    /// Consecutive ACKs that repeated `snd_una` with data outstanding.
    dup_acks: u32,
}

impl Congestion {
    /// `Off` never limits; the others slow-start from one segment of
    /// `mss`.
    pub(crate) fn new(algo: CongestionControl, mss: usize) -> Congestion {
        let (cwnd, ssthresh) = match algo {
            CongestionControl::Off => (usize::MAX, usize::MAX),
            CongestionControl::Tahoe | CongestionControl::Reno => (mss, 64 * 1024),
        };
        Congestion {
            algo,
            cwnd,
            ssthresh,
            dup_acks: 0,
        }
    }

    /// Bytes the sender may have in flight as far as congestion goes.
    pub(crate) fn window(&self) -> usize {
        self.cwnd
    }

    /// An ACK advanced `snd_una`: slow start below `ssthresh`, congestion
    /// avoidance (about one `mss` per round trip) above it.
    pub(crate) fn on_new_ack(&mut self, mss: usize) {
        self.dup_acks = 0;
        match self.algo {
            CongestionControl::Off => {}
            CongestionControl::Tahoe | CongestionControl::Reno => {
                self.cwnd += if self.cwnd < self.ssthresh {
                    mss
                } else {
                    (mss * mss / self.cwnd).max(1)
                };
            }
        }
    }

    /// An ACK repeated `snd_una` with `flight` bytes outstanding. True on
    /// the third in a row: the caller retransmits the head of the flight
    /// now, whatever the algorithm.
    pub(crate) fn on_dup_ack(&mut self, flight: usize, mss: usize) -> bool {
        self.dup_acks += 1;
        let count = self.dup_acks.cmp(&DUP_ACK_THRESHOLD);
        match (self.algo, count) {
            (CongestionControl::Off, _) | (_, Ordering::Less) => {}
            (CongestionControl::Tahoe, Ordering::Equal) => {
                self.halve_threshold(flight, mss);
                self.cwnd = mss;
            }
            (CongestionControl::Reno, Ordering::Equal) => {
                self.halve_threshold(flight, mss);
                self.cwnd = self.ssthresh + 3 * mss;
            }
            (CongestionControl::Tahoe, Ordering::Greater) => {}
            // Window inflation during recovery: each further duplicate
            // means another segment has left the network.
            (CongestionControl::Reno, Ordering::Greater) => self.cwnd += mss,
        }
        count == Ordering::Equal
    }

    /// The retransmission timer expired with `flight` bytes outstanding:
    /// collapse to slow start (Tahoe and Reno alike).
    pub(crate) fn on_rto(&mut self, flight: usize, mss: usize) {
        self.dup_acks = 0;
        match self.algo {
            CongestionControl::Off => {}
            CongestionControl::Tahoe | CongestionControl::Reno => {
                self.halve_threshold(flight, mss);
                self.cwnd = mss;
            }
        }
    }

    fn halve_threshold(&mut self, flight: usize, mss: usize) {
        self.ssthresh = (flight / 2).max(2 * mss);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1000;

    /// A controller grown by `acks` new ACKs from its initial window.
    fn grown(algo: CongestionControl, acks: usize) -> Congestion {
        let mut cc = Congestion::new(algo, MSS);
        for _ in 0..acks {
            cc.on_new_ack(MSS);
        }
        cc
    }

    #[test]
    fn slow_start_adds_a_segment_per_ack() {
        let cc = grown(CongestionControl::Tahoe, 10);
        assert_eq!(cc.window(), 11 * MSS);
    }

    #[test]
    fn avoidance_adds_about_a_segment_per_window() {
        // 64 ACKs reach the initial 64 KB threshold (65 segments > 65,536).
        let mut cc = grown(CongestionControl::Reno, 65);
        let at_threshold = cc.window();
        assert!(at_threshold >= 64 * 1024);
        let per_round_trip = at_threshold / MSS;
        for _ in 0..per_round_trip {
            cc.on_new_ack(MSS);
        }
        let grew = cc.window() - at_threshold;
        assert!((MSS - 100..=MSS).contains(&grew), "grew {grew}");
    }

    #[test]
    fn tahoe_fast_retransmit_collapses_to_one_segment() {
        let mut cc = grown(CongestionControl::Tahoe, 19);
        let flight = 20 * MSS;
        assert!(!cc.on_dup_ack(flight, MSS));
        assert!(!cc.on_dup_ack(flight, MSS));
        assert_eq!(cc.window(), 20 * MSS, "two duplicates change nothing");
        assert!(cc.on_dup_ack(flight, MSS));
        assert_eq!(cc.window(), MSS);
        // Slow start back up to half the flight, then avoidance.
        for _ in 0..9 {
            cc.on_new_ack(MSS);
        }
        assert_eq!(cc.window(), 10 * MSS);
        cc.on_new_ack(MSS);
        assert_eq!(cc.window(), 10 * MSS + MSS / 10);
    }

    #[test]
    fn reno_fast_retransmit_halves_and_inflates() {
        let mut cc = grown(CongestionControl::Reno, 19);
        let flight = 20 * MSS;
        let fired: Vec<bool> = (0..5).map(|_| cc.on_dup_ack(flight, MSS)).collect();
        assert_eq!(fired, [false, false, true, false, false]);
        // Half the flight, three segments for the three duplicates, one
        // more for each duplicate since.
        assert_eq!(cc.window(), 10 * MSS + 3 * MSS + 2 * MSS);
        // A duplicate after the recovery ACK starts a new count.
        cc.on_new_ack(MSS);
        let before = cc.window();
        assert!(!cc.on_dup_ack(flight, MSS));
        assert_eq!(cc.window(), before);
    }

    #[test]
    fn tahoe_ignores_duplicates_past_the_third() {
        let mut cc = grown(CongestionControl::Tahoe, 19);
        for _ in 0..6 {
            cc.on_dup_ack(20 * MSS, MSS);
        }
        assert_eq!(cc.window(), MSS);
    }

    #[test]
    fn rto_collapses_both_and_floors_the_threshold_at_two_segments() {
        for algo in [CongestionControl::Tahoe, CongestionControl::Reno] {
            let mut cc = grown(algo, 19);
            cc.on_dup_ack(20 * MSS, MSS);
            cc.on_rto(3 * MSS, MSS);
            assert_eq!(cc.window(), MSS, "{algo:?}");
            // Threshold is max(flight / 2, 2 MSS) = 2 MSS: one slow-start
            // step, then avoidance.
            cc.on_new_ack(MSS);
            cc.on_new_ack(MSS);
            assert_eq!(cc.window(), 2 * MSS + MSS / 2, "{algo:?}");
            // The timeout cleared the duplicate count.
            assert!(!cc.on_dup_ack(3 * MSS, MSS), "{algo:?}");
        }
    }

    #[test]
    fn off_never_limits_and_still_asks_for_the_fast_retransmit() {
        let mut cc = Congestion::new(CongestionControl::Off, MSS);
        cc.on_new_ack(MSS);
        cc.on_rto(8 * MSS, MSS);
        let fired: Vec<bool> = (0..4).map(|_| cc.on_dup_ack(8 * MSS, MSS)).collect();
        assert_eq!(fired, [false, false, true, false]);
        assert_eq!(cc.window(), usize::MAX);
    }
}
