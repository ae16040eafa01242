//! Segment arrival: RFC 793's "SEGMENT ARRIVES" steps as orchestrations
//! over the TCB's components.

use unp_wire::{SeqNum, TcpFlags, TcpRepr};

use super::{State, Tcb, TcpAction, TcpSink, TcpTimer};
use crate::config::DELAYED_ACK_TIMEOUT;
use crate::delivery::{FinSeen, Payload};
use crate::Nanos;

impl Tcb {
    /// Processes a received segment addressed to this connection. The
    /// caller has already verified the checksum and demultiplexed.
    pub fn on_segment(&mut self, repr: &TcpRepr, payload: &[u8], now: Nanos) -> Vec<TcpAction> {
        let mut out = Vec::new();
        self.on_segment_into(repr, payload, now, &mut out);
        out
    }

    /// [`Tcb::on_segment`], appending the segment's effects to `out`.
    pub fn on_segment_into(
        &mut self,
        repr: &TcpRepr,
        payload: &[u8],
        now: Nanos,
        out: &mut dyn TcpSink,
    ) {
        if self.conn.state() == State::TimeWait {
            return self
                .answer_time_wait(out, |tw, out| tw.on_segment_into(repr, payload, now, out));
        }
        self.stats.segs_in += 1;
        match self.conn.state() {
            State::Closed => {}
            State::SynSent => self.on_segment_syn_sent(repr, payload, now, out),
            _ => self.on_segment_sync(repr, payload, now, out),
        }
    }

    fn on_segment_syn_sent(
        &mut self,
        repr: &TcpRepr,
        payload: &[u8],
        now: Nanos,
        out: &mut dyn TcpSink,
    ) {
        // RFC 793 SYN-SENT processing.
        if repr.flags.ack {
            let ack = repr.ack_num;
            if ack.le(self.rod.iss()) || ack.gt(self.rod.snd_nxt()) {
                if !repr.flags.rst {
                    self.emit_rst_for(repr, payload.len(), out);
                }
                return;
            }
        }
        if repr.flags.rst {
            if repr.flags.ack {
                out.push(TcpAction::Reset);
                self.enter_closed(out);
            }
            return;
        }
        if repr.flags.syn {
            self.rod.accept_syn(repr.seq, repr.mss, self.cfg.mss_local);
            if repr.flags.ack {
                self.rod.syn_acked(repr.ack_num);
                self.flow.update_send_window(repr);
                self.conn.transition(State::Established);
                self.conn.cancel_timer(TcpTimer::Retransmit, out);
                if let Some(interval) = self.cfg.keepalive {
                    self.conn
                        .arm_timer(TcpTimer::Keepalive, now + interval, out);
                }
                out.push(TcpAction::Connected);
                self.emit_ack(out);
                self.output(now, out);
            } else {
                // Simultaneous open.
                self.conn.transition(State::SynReceived);
                self.emit_syn(TcpFlags::syn_ack(), out);
            }
        }
    }

    fn on_segment_sync(
        &mut self,
        repr: &TcpRepr,
        payload: &[u8],
        now: Nanos,
        out: &mut dyn TcpSink,
    ) {
        // Any traffic from the peer proves liveness: restart the
        // keepalive clock.
        if let Some(interval) = self.cfg.keepalive {
            if self.conn.is_live() {
                self.conn.peer_heard();
                self.conn
                    .arm_timer(TcpTimer::Keepalive, now + interval, out);
            }
        }
        let seg_len = payload.len() as u32 + u32::from(repr.flags.syn) + u32::from(repr.flags.fin);

        // Step 1: sequence acceptability.
        if !self
            .rod
            .seq_acceptable(repr.seq, seg_len, self.cfg.recv_buf)
        {
            if !repr.flags.rst {
                self.emit_ack(out);
            }
            return;
        }
        // Step 2: RST.
        if repr.flags.rst {
            out.push(TcpAction::Reset);
            self.enter_closed(out);
            return;
        }
        // Step 3: SYN in the window is an error in synchronized states.
        if repr.flags.syn && repr.seq.ge(self.rod.rcv_nxt()) {
            self.emit_rst_for(repr, payload.len(), out);
            out.push(TcpAction::Reset);
            self.enter_closed(out);
            return;
        }
        // Step 4: ACK processing.
        if !repr.flags.ack {
            return;
        }
        let ack = repr.ack_num;
        if self.conn.state() == State::SynReceived {
            if ack.gt(self.rod.snd_una()) && ack.le(self.rod.snd_nxt()) {
                self.conn.transition(State::Established);
                self.rod.syn_acked(ack);
                self.flow.update_send_window(repr);
                self.conn.cancel_timer(TcpTimer::Retransmit, out);
                out.push(TcpAction::Connected);
            } else {
                self.emit_rst_for(repr, payload.len(), out);
                return;
            }
        }
        if ack.gt(self.rod.snd_nxt()) {
            // Acks something not yet sent.
            self.emit_ack(out);
            return;
        }
        let prev_wnd = self.flow.send_window();
        let window_opened = self.flow.update_send_window(repr);
        if ack.gt(self.rod.snd_una()) {
            self.process_new_ack(ack, now, out);
        } else if ack == self.rod.snd_una()
            && payload.is_empty()
            && !repr.flags.fin
            && self.rod.outstanding()
            && self.flow.send_window() == prev_wnd
        {
            // RFC 5681 duplicate-ACK test: the advertised window must be
            // unchanged. A receiver draining its buffer sends pure window
            // updates that repeat the ack number; counting those as dup
            // ACKs fires spurious fast retransmits.
            self.process_dup_ack(now, out);
        }
        if window_opened {
            self.conn.cancel_timer(TcpTimer::Persist, out);
            self.flow.reset_persist();
        }

        // Step 5: payload.
        if !payload.is_empty() {
            self.process_payload(repr.seq, payload, out);
        }
        // Step 6: FIN.
        if repr.flags.fin {
            self.process_fin(repr.seq + payload.len() as u32, now, out);
        }
        // ACK strategy for received data.
        if self.flow.ack_pending() {
            if self.flow.ack_now(self.cfg.delayed_ack) {
                self.emit_ack(out);
            } else if !self.conn.timer_armed(TcpTimer::DelayedAck) {
                self.conn
                    .arm_timer(TcpTimer::DelayedAck, now + DELAYED_ACK_TIMEOUT, out);
            }
        }
        // Send anything newly permitted (freed buffer, opened window).
        self.output(now, out);
    }

    fn restart_time_wait(&mut self, now: Nanos, out: &mut dyn TcpSink) {
        self.conn
            .arm_timer(TcpTimer::TimeWait, now + self.cfg.time_wait, out);
    }

    fn process_new_ack(&mut self, ack: SeqNum, now: Nanos, out: &mut dyn TcpSink) {
        let acked = self.rod.on_ack(ack, now);
        if let Some(rtt) = acked.rtt {
            self.stats.rtt_samples += 1;
            unp_trace::emit(None, || unp_trace::Event::RttSample {
                local_port: self.conn.local().1,
                remote_port: self.conn.remote().1,
                rtt,
            });
        }
        self.cc.on_new_ack(self.rod.mss());
        // Retransmit timer: restart if data remains outstanding.
        self.conn.cancel_timer(TcpTimer::Retransmit, out);
        if self.rod.outstanding() {
            self.conn
                .arm_timer(TcpTimer::Retransmit, now + self.rod.rto(), out);
        }
        if acked.freed > 0 {
            out.push(TcpAction::SendSpace);
        }

        // Close-sequence state transitions on FIN acknowledgment.
        if acked.fin_acked {
            match self.conn.state() {
                State::FinWait1 => self.conn.transition(State::FinWait2),
                State::Closing => {
                    self.conn.transition(State::TimeWait);
                    self.restart_time_wait(now, out);
                }
                State::LastAck => self.enter_closed(out),
                _ => {}
            }
        }
    }

    fn process_dup_ack(&mut self, now: Nanos, out: &mut dyn TcpSink) {
        self.stats.dup_acks_in += 1;
        if self.cc.on_dup_ack(self.rod.in_flight(), self.rod.mss()) {
            self.stats.fast_rexmit += 1;
            self.retransmit_head(out, unp_trace::RexmitReason::DupAck);
            // Restart the RTO for the retransmission.
            self.conn
                .arm_timer(TcpTimer::Retransmit, now + self.rod.rto(), out);
        }
    }

    fn process_payload(&mut self, seq: SeqNum, payload: &[u8], out: &mut dyn TcpSink) {
        match self.rod.accept_payload(seq, payload, self.cfg.recv_buf) {
            Payload::PastFin | Payload::InOrder(0) => {}
            Payload::Held(held) => {
                if held > 0 {
                    unp_trace::emit(None, || unp_trace::Event::TcpOooHold {
                        local_port: self.conn.local().1,
                        remote_port: self.conn.remote().1,
                        seq: seq.0,
                        len: held as u32,
                    });
                }
                // Out of order: an immediate duplicate ACK.
                self.emit_ack(out);
            }
            // Entirely old data: ack it again.
            Payload::Old => self.flow.ack_owed(),
            Payload::InOrder(_) => {
                self.flow.ack_owed();
                out.push(TcpAction::DataAvailable);
            }
        }
    }

    fn process_fin(&mut self, fin_seq: SeqNum, now: Nanos, out: &mut dyn TcpSink) {
        match self.rod.accept_fin(fin_seq) {
            FinSeen::Consumed => {
                out.push(TcpAction::PeerClosed);
                match self.conn.state() {
                    State::Established => self.conn.transition(State::CloseWait),
                    // If our FIN were already acked we'd be in FinWait2.
                    State::FinWait1 => self.conn.transition(State::Closing),
                    State::FinWait2 => {
                        self.conn.transition(State::TimeWait);
                        self.restart_time_wait(now, out);
                    }
                    _ => {}
                }
                self.emit_ack(out);
            }
            FinSeen::Repeated => self.emit_ack(out),
            FinSeen::Early => {}
        }
    }
}
