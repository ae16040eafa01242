//! The output engine: what the windows, Nagle and the FIN bookkeeping
//! let the block transmit now, and what a retransmission resends.

use unp_wire::{SeqNum, TcpFlags};

use super::{State, Tcb, TcpSink, TcpTimer, NO_DATA};
use crate::delivery::Rexmit;
use crate::Nanos;

impl Tcb {
    /// Transmits whatever the windows and Nagle permit, then the FIN if
    /// queued and fully drained, then manages the retransmit/persist
    /// timers.
    pub(super) fn output(&mut self, now: Nanos, out: &mut dyn TcpSink) {
        if !matches!(
            self.conn.state(),
            State::Established
                | State::CloseWait
                | State::FinWait1
                | State::LastAck
                | State::Closing
        ) {
            return;
        }
        // Data sending only before the FIN goes out.
        let peer_wnd = self.flow.send_window() as usize;
        let wnd = peer_wnd.min(self.cc.window());
        if !self.rod.fin_sent() {
            while let Some(len) = self.rod.next_segment_len(wnd, self.cfg.nagle) {
                if len == 0 {
                    // Window closed: the persist timer takes over.
                    if peer_wnd == 0
                        && !self.conn.timer_armed(TcpTimer::Persist)
                        && !self.conn.timer_armed(TcpTimer::Retransmit)
                    {
                        self.flow.reset_persist();
                        self.conn
                            .arm_timer(TcpTimer::Persist, now + self.rod.rto(), out);
                    }
                    break;
                }
                let (seq, payload, psh) = self.rod.take_segment(len, now);
                let flags = TcpFlags {
                    ack: true,
                    psh,
                    ..TcpFlags::default()
                };
                self.flow.ack_sent();
                self.conn.cancel_timer(TcpTimer::DelayedAck, out);
                self.emit_segment(flags, seq, payload, None, out);
            }
        }
        // FIN transmission once the buffer is drained.
        if let Some(seq) = self.rod.take_fin() {
            self.emit_fin(seq, out);
        }
        // Retransmit timer covers any outstanding sequence space.
        if self.rod.outstanding() && !self.conn.timer_armed(TcpTimer::Retransmit) {
            self.conn
                .arm_timer(TcpTimer::Retransmit, now + self.rod.rto(), out);
        }
    }

    fn emit_fin(&mut self, seq: SeqNum, out: &mut dyn TcpSink) {
        let flags = TcpFlags {
            fin: true,
            ack: true,
            ..TcpFlags::default()
        };
        self.emit_segment(flags, seq, NO_DATA, None, out);
    }

    /// Rebuilds and resends the segment at `snd_una`. `reason` names the
    /// loss-detection mechanism that fired (RTO expiry or third dup-ACK)
    /// and rides into the journal for root-cause attribution.
    pub(super) fn retransmit_head(
        &mut self,
        out: &mut dyn TcpSink,
        reason: unp_trace::RexmitReason,
    ) {
        match self.conn.state() {
            State::SynSent => return self.emit_syn(TcpFlags::SYN, out),
            State::SynReceived => return self.emit_syn(TcpFlags::syn_ack(), out),
            _ => {}
        }
        match self.rod.retransmit_head() {
            Some(Rexmit::Data { seq, payload, push }) => {
                self.stats.bytes_rexmit += payload.len() as u64;
                self.stats.rexmits += 1;
                unp_trace::emit(None, || unp_trace::Event::TcpRexmit {
                    local_port: self.conn.local().1,
                    remote_port: self.conn.remote().1,
                    remote_ip: self.conn.remote().0 .0,
                    seq: seq.0,
                    bytes: payload.len() as u32,
                    reason,
                });
                let flags = TcpFlags {
                    ack: true,
                    psh: push,
                    ..TcpFlags::default()
                };
                self.emit_segment(flags, seq, payload, None, out);
            }
            Some(Rexmit::Fin(seq)) => self.emit_fin(seq, out),
            None => {}
        }
    }
}
