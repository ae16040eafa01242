//! The three TCP checkers and the per-connection state they share: ACK
//! monotonicity on what a host transmits, the state machine's legal and
//! continuous edges, and the RFC 5681 / RTO preconditions of a
//! retransmit.

use super::FxMap;
use crate::{legal_transition, RexmitReason, SegFlags, TcpFsm};

/// (host, local port, remote port, remote ip): one TCP connection
/// endpoint. The remote IP disambiguates clients on different hosts that
/// picked the same ephemeral port — with ports alone their FSM edges and
/// ACK streams would interleave under one key and false-flag.
pub(super) type ConnKey = (Option<u16>, u16, u16, [u8; 4]);

/// `a >= b` in sequence space (RFC 1982-style wraparound compare).
fn seq_ge(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 >= 0
}

/// `a > b` in sequence space.
fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

/// Streaming per-connection state (every checker's half shares the key).
#[derive(Debug, Clone, Copy, Default)]
struct ConnState {
    /// Highest cumulative ACK this host transmitted.
    tx_ack: Option<u32>,
    /// Tracked FSM state (adopted from the first edge seen).
    fsm: Option<TcpFsm>,
    /// Highest cumulative ACK received from the peer on a segment the TCB
    /// reads: not an old duplicate, and of no more than `snd_max`.
    rx_acked: Option<u32>,
    /// Duplicate-ACK streak at the current `rx_acked` (a permissive
    /// superset of the TCB's RFC 5681 count).
    dup_acks: u32,
    /// Highest sequence bound transmitted (`seq + len`, a SYN or FIN
    /// counting one).
    snd_max: Option<u32>,
}

/// Every live connection's state.
#[derive(Default)]
pub(super) struct Conns {
    conns: FxMap<ConnKey, ConnState>,
}

impl Conns {
    /// A segment `key`'s host transmitted: its ACK must not regress.
    #[inline]
    pub(super) fn tx(
        &mut self,
        key: ConnKey,
        seq: u32,
        ack: u32,
        flags: SegFlags,
        payload: u32,
    ) -> Option<String> {
        let mut regressed_below = None;
        let st = self.conns.entry(key).or_default();
        if flags.syn {
            // New incarnation: adopt the handshake's ack (if any) and
            // restart the send horizon at the SYN's.
            st.tx_ack = if flags.ack { Some(ack) } else { None };
            st.snd_max = Some(seq.wrapping_add(1));
        } else if flags.rst {
            // RSTs for stray segments echo offender state; exempt.
        } else {
            if flags.ack {
                if let Some(p) = st.tx_ack {
                    if !seq_ge(ack, p) {
                        regressed_below = Some(p);
                    }
                }
                st.tx_ack = Some(match st.tx_ack {
                    Some(p) if seq_ge(p, ack) => p,
                    _ => ack,
                });
            }
            let len = payload + u32::from(flags.fin);
            if len > 0 {
                let end = seq.wrapping_add(len);
                st.snd_max = Some(match st.snd_max {
                    Some(m) if seq_ge(m, end) => m,
                    _ => end,
                });
            }
        }
        regressed_below.map(|p| {
            format!(
                "tx ack {ack} regressed below {p} (lp={} rp={})",
                key.1, key.2
            )
        })
    }

    /// A segment `key`'s host received: the peer's ACK and duplicate-ACK
    /// streak, as the retransmit check reads them.
    #[inline]
    pub(super) fn rx(&mut self, key: ConnKey, seq: u32, ack: u32, flags: SegFlags, payload: u32) {
        let st = self.conns.entry(key).or_default();
        // What the TCB drops unread (RFC 793), this view skips too: an old
        // duplicate, wholly behind what this host has acknowledged, and
        // the ACK field of an ACK of more than this host sent.
        let last = seq.wrapping_add((payload + u32::from(flags.fin)).max(1) - 1);
        let stale = !flags.syn && st.tx_ack.is_some_and(|r| seq_gt(r, last));
        let unsent = flags.ack && st.snd_max.is_some_and(|m| seq_gt(ack, m));
        if flags.syn || (flags.rst && !stale) {
            // Handshake or reset: restart the receive-side view.
            st.rx_acked = (flags.syn && flags.ack && !unsent).then_some(ack);
            st.dup_acks = 0;
        } else if flags.ack && !stale && !unsent {
            match st.rx_acked {
                None => st.rx_acked = Some(ack),
                Some(a) if seq_gt(ack, a) => {
                    st.rx_acked = Some(ack);
                    st.dup_acks = 0;
                }
                Some(a) if ack == a && payload == 0 && !flags.fin => {
                    // Permissive dup count: no window-unchanged or
                    // in-window requirement, so it upper-bounds the TCB's
                    // RFC 5681 count.
                    st.dup_acks += 1;
                }
                _ => {}
            }
        }
    }

    /// A state edge of `key`: continuous with the tracked state, and in
    /// the legal relation — two checks, so up to two breaches.
    pub(super) fn state(&mut self, key: ConnKey, from: TcpFsm, to: TcpFsm) -> [Option<String>; 2] {
        let tracked = self.conns.get(&key).and_then(|s| s.fsm);
        let discontinuous = tracked.filter(|&cur| cur != from).map(|cur| {
            format!(
                "state discontinuity: tracked {} but edge claims {} -> {}",
                cur.label(),
                from.label(),
                to.label()
            )
        });
        let illegal = (!legal_transition(from, to))
            .then(|| format!("illegal transition {} -> {}", from.label(), to.label()));
        if to == TcpFsm::Closed {
            // Incarnation over: drop all per-connection state so a port
            // reuse starts clean.
            self.conns.remove(&key);
        } else {
            self.conns.entry(key).or_default().fsm = Some(to);
        }
        [discontinuous, illegal]
    }

    /// A retransmit of `key`: a fast one needs three duplicate ACKs, an
    /// RTO one unacknowledged data outstanding.
    pub(super) fn rexmit(&mut self, key: ConnKey, reason: RexmitReason) -> Option<String> {
        let st = self.conns.get(&key).copied().unwrap_or_default();
        let (lp, rp) = (key.1, key.2);
        match reason {
            RexmitReason::DupAck => (st.dup_acks < 3).then(|| {
                format!(
                    "fast retransmit after {} duplicate acks (lp={lp} rp={rp})",
                    st.dup_acks
                )
            }),
            RexmitReason::Rto => {
                let outstanding = match (st.snd_max, st.rx_acked) {
                    (Some(m), Some(a)) => seq_gt(m, a),
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                (!outstanding)
                    .then(|| format!("rto retransmit with no unacked data (lp={lp} rp={rp})"))
            }
        }
    }

    /// Bytes of tracked state.
    pub(super) fn bytes(&self) -> usize {
        self.conns.len() * (size_of::<ConnKey>() + size_of::<ConnState>())
    }
}
