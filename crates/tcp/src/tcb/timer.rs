//! Timer expiry: what each of the connection's timers does when the
//! host's wheel delivers it.

use unp_wire::TcpFlags;

use super::{State, Tcb, TcpAction, TcpSink, TcpTimer, NO_DATA};
use crate::config::DELAYED_ACK_TIMEOUT;
use crate::Nanos;

impl Tcb {
    /// Arms again, a full period from `now`, every timer the block has
    /// pending, for a host that took the block over without the timers
    /// its last host held (a registry inheriting an exited application's
    /// connection): nothing the block waits on — its 2·MSL, a
    /// retransmission — is left unarmed.
    pub fn rearm_into(&mut self, now: Nanos, out: &mut dyn TcpSink) {
        if self.conn.state() == State::TimeWait {
            return self.answer_time_wait(out, |tw, out| tw.rearm_into(now, out));
        }
        let period = |t| match t {
            TcpTimer::Retransmit | TcpTimer::Persist => self.rod.rto(),
            TcpTimer::DelayedAck => DELAYED_ACK_TIMEOUT,
            TcpTimer::TimeWait => self.cfg.time_wait,
            TcpTimer::Keepalive => self.cfg.keepalive.unwrap_or_default(),
        };
        self.conn.armed().rearm(|t| now + period(t), out);
    }

    /// Handles a timer firing. The host calls this when a wheel token for
    /// this connection expires.
    pub fn on_timer(&mut self, t: TcpTimer, now: Nanos) -> Vec<TcpAction> {
        let mut out = Vec::new();
        self.on_timer_into(t, now, &mut out);
        out
    }

    /// [`Tcb::on_timer`], appending what the expiry triggers to `out`.
    pub fn on_timer_into(&mut self, t: TcpTimer, now: Nanos, out: &mut dyn TcpSink) {
        if self.conn.state() == State::TimeWait {
            return self.answer_time_wait(out, |tw, out| tw.on_timer_into(t, now, out));
        }
        self.conn.timer_fired(t);
        match t {
            TcpTimer::Keepalive => {
                let Some(interval) = self.cfg.keepalive else {
                    return;
                };
                if !self.conn.is_live() {
                    return;
                }
                if self.conn.keepalive_unanswered() > self.cfg.max_keepalive_probes {
                    // The peer is gone: reset the connection.
                    out.push(TcpAction::Reset);
                    self.abort_into(out);
                    return;
                }
                // A keepalive probe: an ACK with seq = snd_nxt - 1
                // (provokes a window/ack reply, per 4.3BSD).
                self.stats.probes += 1;
                let seq = self.rod.snd_nxt() + u32::MAX; // snd_nxt - 1
                self.emit_segment(TcpFlags::ack(), seq, NO_DATA, None, out);
                self.conn
                    .arm_timer(TcpTimer::Keepalive, now + interval, out);
            }
            TcpTimer::Retransmit => {
                if !self.rod.outstanding() {
                    return;
                }
                self.stats.rto_fires += 1;
                if !self.rod.on_rto(self.cfg.max_retransmits) {
                    out.push(TcpAction::Reset);
                    self.abort_into(out);
                    return;
                }
                self.cc.on_rto(self.rod.in_flight(), self.rod.mss());
                self.retransmit_head(out, unp_trace::RexmitReason::Rto);
                self.conn
                    .arm_timer(TcpTimer::Retransmit, now + self.rod.rto(), out);
            }
            TcpTimer::Persist => {
                if self.flow.send_window() != 0 || !self.conn.state().is_synchronized() {
                    return;
                }
                // Probe with one byte beyond the window.
                if let Some((seq, payload)) = self.rod.take_probe() {
                    self.stats.probes += 1;
                    self.emit_segment(TcpFlags::ack(), seq, payload, None, out);
                }
                let delay = self.flow.next_persist_delay(self.rod.rto());
                self.conn.arm_timer(TcpTimer::Persist, now + delay, out);
            }
            TcpTimer::DelayedAck => {
                if self.flow.ack_pending() {
                    self.emit_ack(out);
                }
            }
            TcpTimer::TimeWait => self.enter_closed(out),
        }
    }
}
