//! The transmission control block and TCP state machine.
//!
//! One [`Tcb`] is one connection. It is a pure state machine: all methods
//! take `now` and produce [`TcpAction`]s for the hosting organization to
//! route (segments to transmit via IP, timers to arm on the timing wheel,
//! notifications to deliver to the application). Every entry point has a
//! sink form (`*_into`) that appends to a buffer the caller owns and
//! reuses — the callee never clears it — and a form returning a fresh
//! `Vec`, a one-line wrapper over the sink form. The same `Tcb` code runs
//! in every simulated protocol organization, and the registry server uses
//! it to execute the three-way handshake before transferring the block to
//! the application's library (paper §3.4).
//!
//! The block's state lives in four components with non-overlapping write
//! scopes — connection management, reliable ordered delivery, flow control
//! and congestion control, each a module of this crate with private
//! fields. The methods here and in the child modules (`input`: segment
//! arrival, `output`: the output engine, `timer`: timer expiry) are
//! orchestrations: they read across the components and write each
//! one only through its own methods, so a congestion-control change
//! cannot touch a sequence number and still compile.

mod input;
mod output;
mod timer;

use unp_wire::{Ipv4Addr, SeqNum, TcpFlags, TcpRepr};

use crate::config::TcpConfig;
use crate::congestion::Congestion;
use crate::conn::ConnMgmt;
use crate::delivery::Delivery;
use crate::flow::FlowControl;
use crate::{Nanos, TcpError};

pub use crate::conn::TcpTimer;
/// RFC 793 connection states: the journal's [`unp_trace::TcpFsm`], under
/// the protocol's name for it. `LISTEN` is a [`ListenTcb`]; `Closed` is
/// where a block starts and the terminal state a live one can reach.
pub use unp_trace::TcpFsm as State;

/// Outputs of the state machine, routed and cost-charged by the host
/// organization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpAction {
    /// Transmit a segment (header representation + payload); the host
    /// wraps it in IP using the connection's address pair.
    Send(TcpRepr, Vec<u8>),
    /// Arm (or re-arm) a timer for an absolute deadline.
    SetTimer(TcpTimer, Nanos),
    /// Disarm a timer.
    CancelTimer(TcpTimer),
    /// The handshake completed; the connection is established.
    Connected,
    /// New in-order data is available to read.
    DataAvailable,
    /// Send-buffer space was freed; a blocked writer may continue.
    SendSpace,
    /// The peer closed its direction (EOF after buffered data drains).
    PeerClosed,
    /// The connection was reset (by the peer, or after too many
    /// retransmissions).
    Reset,
    /// The block reached `Closed` and can be reaped.
    ConnClosed,
}

/// Running counters for one connection.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpStats {
    /// Segments transmitted (including retransmissions).
    pub segs_out: u64,
    /// Segments received and processed.
    pub segs_in: u64,
    /// Data bytes retransmitted.
    pub bytes_rexmit: u64,
    /// Data segments retransmitted (both RTO fires and fast
    /// retransmits emit through the same head-of-buffer path).
    pub rexmits: u64,
    /// RTT estimator samples taken.
    pub rtt_samples: u64,
    /// Retransmission timeouts fired.
    pub rto_fires: u64,
    /// Fast retransmits triggered.
    pub fast_rexmit: u64,
    /// Duplicate ACKs received.
    pub dup_acks_in: u64,
    /// Zero-window probes sent.
    pub probes: u64,
}

/// A listening endpoint: produces a new [`Tcb`] per SYN.
#[derive(Debug, Clone)]
pub struct ListenTcb {
    local: (Ipv4Addr, u16),
    cfg: TcpConfig,
}

impl ListenTcb {
    /// Creates a listener on `local`.
    pub fn new(local: (Ipv4Addr, u16), cfg: TcpConfig) -> ListenTcb {
        ListenTcb { local, cfg }
    }

    /// The listening address.
    pub fn local(&self) -> (Ipv4Addr, u16) {
        self.local
    }

    /// Handles an incoming SYN addressed to this listener, creating a
    /// half-open connection in `SynReceived` with its SYN|ACK queued.
    /// `iss` is the initial send sequence number to use. Non-SYN segments
    /// return `None` (the caller answers unknown traffic with RST).
    pub fn on_syn(
        &self,
        remote: (Ipv4Addr, u16),
        repr: &TcpRepr,
        iss: u32,
        now: Nanos,
    ) -> Option<(Tcb, Vec<TcpAction>)> {
        let mut out = Vec::new();
        let tcb = self.on_syn_into(remote, repr, iss, now, &mut out)?;
        Some((tcb, out))
    }

    /// [`ListenTcb::on_syn`], appending the new block's actions to `out`.
    pub fn on_syn_into(
        &self,
        remote: (Ipv4Addr, u16),
        repr: &TcpRepr,
        iss: u32,
        now: Nanos,
        out: &mut Vec<TcpAction>,
    ) -> Option<Tcb> {
        if !repr.flags.syn || repr.flags.ack || repr.flags.rst {
            return None;
        }
        let mut tcb = Tcb::new(self.local, remote, self.cfg.clone(), SeqNum(iss));
        tcb.conn.transition(State::SynReceived);
        tcb.rod.accept_syn(repr.seq, repr.mss, tcb.cfg.mss_local);
        tcb.flow.update_send_window(repr);
        tcb.emit_syn(TcpFlags::syn_ack(), out);
        tcb.conn
            .arm_timer(TcpTimer::Retransmit, now + tcb.rod.rto(), out);
        Some(tcb)
    }
}

/// The transmission control block. See module docs.
#[derive(Debug)]
pub struct Tcb {
    cfg: TcpConfig,
    conn: ConnMgmt,
    rod: Delivery,
    flow: FlowControl,
    cc: Congestion,
    stats: TcpStats,
    /// Counter values as of the last [`take_stats_delta`](Tcb::take_stats_delta)
    /// harvest, so live samplers can read increments without resetting
    /// the cumulative [`stats`](Tcb::stats).
    harvested: TcpStats,
}

impl Tcb {
    fn new(local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16), cfg: TcpConfig, iss: SeqNum) -> Tcb {
        Tcb {
            conn: ConnMgmt::new(local, remote),
            rod: Delivery::new(iss),
            flow: FlowControl::new(),
            cc: Congestion::new(cfg.congestion, cfg.mss_local),
            cfg,
            stats: TcpStats::default(),
            harvested: TcpStats::default(),
        }
    }

    /// Opens a connection actively: returns the block in `SynSent` with the
    /// SYN emitted.
    pub fn connect(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        iss: u32,
        now: Nanos,
    ) -> (Tcb, Vec<TcpAction>) {
        let mut out = Vec::new();
        let tcb = Tcb::connect_into(local, remote, cfg, iss, now, &mut out);
        (tcb, out)
    }

    /// [`Tcb::connect`], appending the SYN and its timer to `out`.
    pub fn connect_into(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        iss: u32,
        now: Nanos,
        out: &mut Vec<TcpAction>,
    ) -> Tcb {
        let mut tcb = Tcb::new(local, remote, cfg, SeqNum(iss));
        tcb.conn.transition(State::SynSent);
        tcb.emit_syn(TcpFlags::SYN, out);
        tcb.conn
            .arm_timer(TcpTimer::Retransmit, now + tcb.rod.rto(), out);
        tcb
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current state.
    pub fn state(&self) -> State {
        self.conn.state()
    }

    /// Local (address, port).
    pub fn local(&self) -> (Ipv4Addr, u16) {
        self.conn.local()
    }

    /// Remote (address, port).
    pub fn remote(&self) -> (Ipv4Addr, u16) {
        self.conn.remote()
    }

    /// Bytes available to read.
    pub fn recv_available(&self) -> usize {
        self.rod.recv_available()
    }

    /// Free space in the send buffer.
    pub fn send_space(&self) -> usize {
        self.cfg.send_buf - self.rod.send_queued()
    }

    /// True once the peer's FIN has been received *and* all data before it
    /// has been read: the stream is at EOF.
    pub fn at_eof(&self) -> bool {
        self.rod.at_eof()
    }

    /// The negotiated maximum segment size.
    pub fn mss(&self) -> usize {
        self.rod.mss()
    }

    /// The send sequence space as `(snd_una, snd_nxt)`: the oldest
    /// unacknowledged sequence number and the next one to be sent.
    pub fn send_sequence(&self) -> (SeqNum, SeqNum) {
        (self.rod.snd_una(), self.rod.snd_nxt())
    }

    /// Connection statistics.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// Counter increments since the previous harvest (or since creation,
    /// the first time). Leaves the cumulative [`stats`](Tcb::stats)
    /// untouched; the world calls this after every segment batch to feed
    /// retransmit/RTT activity into the live metrics registry.
    pub fn take_stats_delta(&mut self) -> TcpStats {
        let cur = self.stats;
        let prev = std::mem::replace(&mut self.harvested, cur);
        TcpStats {
            segs_out: cur.segs_out - prev.segs_out,
            segs_in: cur.segs_in - prev.segs_in,
            bytes_rexmit: cur.bytes_rexmit - prev.bytes_rexmit,
            rexmits: cur.rexmits - prev.rexmits,
            rtt_samples: cur.rtt_samples - prev.rtt_samples,
            rto_fires: cur.rto_fires - prev.rto_fires,
            fast_rexmit: cur.fast_rexmit - prev.fast_rexmit,
            dup_acks_in: cur.dup_acks_in - prev.dup_acks_in,
            probes: cur.probes - prev.probes,
        }
    }

    /// The smoothed RTT estimate, if any samples have been taken.
    pub fn srtt(&self) -> Option<Nanos> {
        self.rod.srtt()
    }

    // ------------------------------------------------------------------
    // Segment construction
    // ------------------------------------------------------------------

    fn emit_segment(
        &mut self,
        flags: TcpFlags,
        seq: SeqNum,
        payload: Vec<u8>,
        mss: Option<u16>,
        out: &mut Vec<TcpAction>,
    ) {
        let window = self.rod.recv_window(self.cfg.recv_buf) as u16;
        self.flow.advertised(self.rod.rcv_nxt() + u32::from(window));
        let repr = TcpRepr {
            src_port: self.conn.local().1,
            dst_port: self.conn.remote().1,
            seq,
            ack_num: if flags.ack {
                self.rod.rcv_nxt()
            } else {
                SeqNum(0)
            },
            flags,
            window,
            mss,
        };
        self.stats.segs_out += 1;
        out.push(TcpAction::Send(repr, payload));
    }

    /// Our SYN (or SYN|ACK), first time or again: at `iss`, announcing
    /// our MSS.
    fn emit_syn(&mut self, flags: TcpFlags, out: &mut Vec<TcpAction>) {
        let mss = Some(self.cfg.mss_local as u16);
        self.emit_segment(flags, self.rod.iss(), Vec::new(), mss, out);
    }

    fn emit_ack(&mut self, out: &mut Vec<TcpAction>) {
        self.flow.ack_sent();
        self.conn.cancel_timer(TcpTimer::DelayedAck, out);
        self.emit_segment(TcpFlags::ack(), self.rod.snd_nxt(), Vec::new(), None, out);
    }

    /// Answers `offending` with the RST [`Tcb::rst_for`] builds, leaving
    /// the block as it is.
    fn emit_rst_for(&mut self, offending: &TcpRepr, payload_len: usize, out: &mut Vec<TcpAction>) {
        let rst = Self::rst_for(self.conn.local(), offending, payload_len);
        self.stats.segs_out += 1;
        out.push(TcpAction::Send(rst, Vec::new()));
    }

    /// Builds an RST in response to a segment that arrived for a dead or
    /// mismatched connection (static: no block state needed).
    pub fn rst_for(local: (Ipv4Addr, u16), offending: &TcpRepr, payload_len: usize) -> TcpRepr {
        // RFC 793: if the offender has an ACK, seq = its ack; else seq 0 and
        // ack = seq + len (+1 for SYN).
        if offending.flags.ack {
            TcpRepr {
                src_port: local.1,
                dst_port: offending.src_port,
                seq: offending.ack_num,
                ack_num: SeqNum(0),
                flags: TcpFlags {
                    rst: true,
                    ..TcpFlags::default()
                },
                window: 0,
                mss: None,
            }
        } else {
            let advance = payload_len as u32
                + u32::from(offending.flags.syn)
                + u32::from(offending.flags.fin);
            TcpRepr {
                src_port: local.1,
                dst_port: offending.src_port,
                seq: SeqNum(0),
                ack_num: offending.seq + advance,
                flags: TcpFlags {
                    rst: true,
                    ack: true,
                    ..TcpFlags::default()
                },
                window: 0,
                mss: None,
            }
        }
    }

    // ------------------------------------------------------------------
    // User calls
    // ------------------------------------------------------------------

    /// Queues application data for transmission. Returns the number of
    /// bytes accepted (may be less than `data.len()` when the send buffer
    /// fills; the caller waits for [`TcpAction::SendSpace`]).
    pub fn send(&mut self, data: &[u8], now: Nanos) -> Result<(usize, Vec<TcpAction>), TcpError> {
        let mut out = Vec::new();
        let take = self.send_into(data, now, &mut out)?;
        Ok((take, out))
    }

    /// [`Tcb::send`], appending what the write triggers to `out`.
    pub fn send_into(
        &mut self,
        data: &[u8],
        now: Nanos,
        out: &mut Vec<TcpAction>,
    ) -> Result<usize, TcpError> {
        match self.conn.state() {
            State::Established | State::CloseWait | State::SynSent | State::SynReceived => {}
            State::Closed => return Err(TcpError::InvalidState),
            _ => return Err(TcpError::Closing),
        }
        if self.rod.fin_queued() {
            return Err(TcpError::Closing);
        }
        let take = self.rod.queue(data, self.cfg.send_buf);
        self.output(now, out);
        Ok(take)
    }

    /// Reads up to `max` bytes of in-order data. May emit a window-update
    /// ACK when the read opens the advertised window significantly
    /// (receiver-side silly-window avoidance).
    pub fn recv(&mut self, max: usize, now: Nanos) -> (Vec<u8>, Vec<TcpAction>) {
        let (mut data, mut out) = (Vec::new(), Vec::new());
        self.recv_into(max, now, &mut data, &mut out);
        (data, out)
    }

    /// [`Tcb::recv`], appending the bytes read to `data` and any window
    /// update to `out`; how many bytes.
    pub fn recv_into(
        &mut self,
        max: usize,
        _now: Nanos,
        data: &mut Vec<u8>,
        out: &mut Vec<TcpAction>,
    ) -> usize {
        let n = self.rod.read(max, data);
        if n > 0 && self.conn.is_live() {
            let cap = self.cfg.recv_buf;
            let edge = self.rod.rcv_nxt() + self.rod.recv_window(cap);
            if self.flow.window_update_due(edge, self.rod.mss(), cap) {
                self.emit_ack(out);
            }
        }
        n
    }

    /// Closes the send direction (queues a FIN after any buffered data).
    pub fn close(&mut self, now: Nanos) -> Result<Vec<TcpAction>, TcpError> {
        let mut out = Vec::new();
        self.close_into(now, &mut out)?;
        Ok(out)
    }

    /// [`Tcb::close`], appending the FIN (or the teardown) to `out`.
    pub fn close_into(&mut self, now: Nanos, out: &mut Vec<TcpAction>) -> Result<(), TcpError> {
        let next = match self.conn.state() {
            State::SynSent => {
                self.enter_closed(out);
                return Ok(());
            }
            State::SynReceived | State::Established => State::FinWait1,
            State::CloseWait => State::LastAck,
            State::FinWait1
            | State::FinWait2
            | State::Closing
            | State::LastAck
            | State::TimeWait => return Err(TcpError::Closing),
            State::Closed => return Err(TcpError::InvalidState),
        };
        self.rod.queue_fin();
        self.conn.transition(next);
        self.output(now, out);
        Ok(())
    }

    /// Aborts the connection: sends RST (in synchronized states and, as
    /// RFC 793's ABORT does, in SYN-RECEIVED, whose peer may already hold
    /// our SYN-ACK) and closes immediately. Used by the registry when an
    /// application terminates abnormally ("the protocol server issues a
    /// reset message to the remote peer").
    pub fn abort(&mut self) -> Vec<TcpAction> {
        let mut out = Vec::new();
        self.abort_into(&mut out);
        out
    }

    /// [`Tcb::abort`], appending the RST and the teardown to `out`.
    pub fn abort_into(&mut self, out: &mut Vec<TcpAction>) {
        if self.conn.is_live() || self.conn.state() == State::SynReceived {
            let flags = TcpFlags {
                rst: true,
                ack: true,
                ..TcpFlags::default()
            };
            self.emit_segment(flags, self.rod.snd_nxt(), Vec::new(), None, out);
        }
        self.enter_closed(out);
    }

    fn enter_closed(&mut self, out: &mut Vec<TcpAction>) {
        for t in [
            TcpTimer::Retransmit,
            TcpTimer::Persist,
            TcpTimer::DelayedAck,
            TcpTimer::TimeWait,
        ] {
            self.conn.cancel_timer(t, out);
        }
        self.conn.transition(State::Closed);
        out.push(TcpAction::ConnClosed);
    }
}
