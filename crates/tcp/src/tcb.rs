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

use std::collections::VecDeque;

use unp_wire::{Ipv4Addr, SeqNum, TcpFlags, TcpRepr};

use crate::config::{CongestionControl, TcpConfig};
use crate::reasm::OooBuffer;
use crate::rtt::RttEstimator;
use crate::{copy_range, Nanos, TcpError};

/// RFC 793 connection states (`CLOSED` and `LISTEN` are represented by the
/// absence of a `Tcb` and by [`ListenTcb`] respectively; `Closed` remains
/// as the terminal state a live block can reach).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// SYN sent, awaiting SYN|ACK.
    SynSent,
    /// SYN received, SYN|ACK sent, awaiting ACK.
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, awaiting its ACK.
    FinWait1,
    /// Our FIN acked; awaiting the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Both FINs crossed; awaiting final ACK.
    Closing,
    /// We closed after the peer; FIN sent, awaiting its ACK.
    LastAck,
    /// Quarantine for 2·MSL before the pair may be reused.
    TimeWait,
    /// Terminal.
    Closed,
}

impl State {
    /// True once the three-way handshake has completed.
    pub fn is_synchronized(self) -> bool {
        !matches!(self, State::SynSent | State::SynReceived | State::Closed)
    }
}

/// The journal's mirror of [`State`] (`unp-trace` sits below this crate).
fn fsm_of(s: State) -> unp_trace::TcpFsm {
    match s {
        State::SynSent => unp_trace::TcpFsm::SynSent,
        State::SynReceived => unp_trace::TcpFsm::SynReceived,
        State::Established => unp_trace::TcpFsm::Established,
        State::FinWait1 => unp_trace::TcpFsm::FinWait1,
        State::FinWait2 => unp_trace::TcpFsm::FinWait2,
        State::CloseWait => unp_trace::TcpFsm::CloseWait,
        State::Closing => unp_trace::TcpFsm::Closing,
        State::LastAck => unp_trace::TcpFsm::LastAck,
        State::TimeWait => unp_trace::TcpFsm::TimeWait,
        State::Closed => unp_trace::TcpFsm::Closed,
    }
}

/// The timers a connection uses. Each kind has at most one pending
/// instance; re-arming replaces the previous deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpTimer {
    /// Retransmission timeout.
    Retransmit,
    /// Zero-window probe (persist) timer.
    Persist,
    /// Delayed-ACK flush.
    DelayedAck,
    /// 2·MSL quarantine.
    TimeWait,
    /// Idle-connection keepalive probe.
    Keepalive,
}

const TIMER_KINDS: usize = 5;

impl TcpTimer {
    fn idx(self) -> usize {
        match self {
            TcpTimer::Retransmit => 0,
            TcpTimer::Persist => 1,
            TcpTimer::DelayedAck => 2,
            TcpTimer::TimeWait => 3,
            TcpTimer::Keepalive => 4,
        }
    }
}

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
        tcb.transition(State::SynReceived);
        tcb.irs = repr.seq;
        tcb.rcv_nxt = repr.seq + 1;
        tcb.snd_nxt = tcb.iss + 1;
        tcb.apply_peer_mss(repr.mss);
        tcb.update_send_window(repr);
        tcb.emit_segment(
            TcpFlags::syn_ack(),
            tcb.iss,
            Vec::new(),
            Some(tcb.cfg.mss_local as u16),
            out,
        );
        tcb.arm_timer(TcpTimer::Retransmit, now + tcb.rtt.rto(), out);
        Some(tcb)
    }
}

/// The transmission control block. See module docs.
#[derive(Debug)]
pub struct Tcb {
    cfg: TcpConfig,
    state: State,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),

    // --- send sequence space ---
    iss: SeqNum,
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    snd_wnd: u32,
    snd_wl1: SeqNum,
    snd_wl2: SeqNum,
    snd_mss: usize,
    /// Stream bytes from `snd_una` onward (unacked then unsent).
    send_buf: VecDeque<u8>,
    /// Set once `close` queues a FIN; cleared never.
    fin_queued: bool,
    /// Sequence number of our FIN once transmitted.
    snd_fin: Option<SeqNum>,

    // --- receive sequence space ---
    irs: SeqNum,
    rcv_nxt: SeqNum,
    recv_buf: VecDeque<u8>,
    ooo: OooBuffer,
    /// Sequence number of the peer's FIN, once seen.
    peer_fin: Option<SeqNum>,
    /// Edge (rcv_nxt + window) advertised in our last ACK; for receiver-
    /// side silly-window avoidance on reads.
    adv_edge: SeqNum,

    // --- ACK policy ---
    ack_pending: u32,

    // --- retransmission ---
    rtt: RttEstimator,
    rtt_probe: Option<(SeqNum, Nanos)>,
    retransmit_count: u32,
    persist_backoff: u32,
    /// Consecutive unanswered keepalive probes.
    keepalive_fails: u32,

    // --- congestion (optional) ---
    cwnd: usize,
    ssthresh: usize,
    dup_acks: u32,

    // --- timers (deadline bookkeeping so re-arms replace) ---
    timer_set: [Option<Nanos>; TIMER_KINDS],

    stats: TcpStats,
    /// Counter values as of the last [`take_stats_delta`](Tcb::take_stats_delta)
    /// harvest, so live samplers can read increments without resetting
    /// the cumulative [`stats`](Tcb::stats).
    harvested: TcpStats,
}

impl Tcb {
    fn new(local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16), cfg: TcpConfig, iss: SeqNum) -> Tcb {
        let rtt = RttEstimator::new(cfg.rto_initial, cfg.rto_min, cfg.rto_max);
        let mss_default = cfg.mss_default;
        let (cwnd, ssthresh) = if cfg.congestion == CongestionControl::Off {
            (usize::MAX, usize::MAX)
        } else {
            (cfg.mss_local, 64 * 1024) // slow start from one segment
        };
        Tcb {
            cfg,
            state: State::Closed,
            local,
            remote,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            snd_wl1: SeqNum(0),
            snd_wl2: SeqNum(0),
            snd_mss: mss_default,
            send_buf: VecDeque::new(),
            fin_queued: false,
            snd_fin: None,
            irs: SeqNum(0),
            rcv_nxt: SeqNum(0),
            recv_buf: VecDeque::new(),
            ooo: OooBuffer::new(),
            peer_fin: None,
            adv_edge: SeqNum(0),
            ack_pending: 0,
            rtt,
            rtt_probe: None,
            retransmit_count: 0,
            persist_backoff: 0,
            keepalive_fails: 0,
            cwnd,
            ssthresh,
            dup_acks: 0,
            timer_set: [None; TIMER_KINDS],
            stats: TcpStats::default(),
            harvested: TcpStats::default(),
        }
    }

    /// Commits a protocol-state move — the only writer of `state` — and
    /// journals the edge. The move must be in the legal transition
    /// relation, the same table the online conformance monitor checks the
    /// journaled edge against. Re-entering the current state is a no-op
    /// (teardown paths reach `enter_closed` more than once); constructor
    /// initialization is not an edge.
    fn transition(&mut self, to: State) {
        let from = self.state;
        if from == to {
            return;
        }
        debug_assert!(
            unp_trace::legal_transition(fsm_of(from), fsm_of(to)),
            "illegal TCP transition {from:?} -> {to:?}"
        );
        self.state = to;
        unp_trace::emit(None, || unp_trace::Event::TcpState {
            local_port: self.local.1,
            remote_port: self.remote.1,
            remote_ip: self.remote.0 .0,
            from: fsm_of(from),
            to: fsm_of(to),
        });
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
        tcb.transition(State::SynSent);
        tcb.snd_nxt = tcb.iss + 1;
        let mss = Some(tcb.cfg.mss_local as u16);
        tcb.emit_segment(TcpFlags::SYN, tcb.iss, Vec::new(), mss, out);
        tcb.arm_timer(TcpTimer::Retransmit, now + tcb.rtt.rto(), out);
        tcb
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Local (address, port).
    pub fn local(&self) -> (Ipv4Addr, u16) {
        self.local
    }

    /// Remote (address, port).
    pub fn remote(&self) -> (Ipv4Addr, u16) {
        self.remote
    }

    /// Bytes available to read.
    pub fn recv_available(&self) -> usize {
        self.recv_buf.len()
    }

    /// Free space in the send buffer.
    pub fn send_space(&self) -> usize {
        self.cfg.send_buf - self.send_buf.len()
    }

    /// True once the peer's FIN has been received *and* all data before it
    /// has been read: the stream is at EOF.
    pub fn at_eof(&self) -> bool {
        self.peer_fin.is_some() && self.recv_buf.is_empty() && self.ooo.is_empty()
    }

    /// The negotiated maximum segment size.
    pub fn mss(&self) -> usize {
        self.snd_mss
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
        self.rtt.srtt()
    }

    fn recv_window(&self) -> u32 {
        let free = self.cfg.recv_buf.saturating_sub(self.recv_buf.len());
        free.min(u16::MAX as usize) as u32
    }

    fn effective_send_window(&self) -> usize {
        (self.snd_wnd as usize).min(self.cwnd)
    }

    fn apply_peer_mss(&mut self, opt: Option<u16>) {
        let peer = opt.map_or(self.cfg.mss_default, |m| m as usize);
        self.snd_mss = peer.min(self.cfg.mss_local);
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
        let window = self.recv_window() as u16;
        self.adv_edge = self.rcv_nxt + u32::from(window);
        let repr = TcpRepr {
            src_port: self.local.1,
            dst_port: self.remote.1,
            seq,
            ack_num: if flags.ack { self.rcv_nxt } else { SeqNum(0) },
            flags,
            window,
            mss,
        };
        self.stats.segs_out += 1;
        out.push(TcpAction::Send(repr, payload));
    }

    fn emit_ack(&mut self, out: &mut Vec<TcpAction>) {
        self.ack_pending = 0;
        self.cancel_timer(TcpTimer::DelayedAck, out);
        let seq = self.snd_nxt;
        self.emit_segment(TcpFlags::ack(), seq, Vec::new(), None, out);
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
    // Timer bookkeeping
    // ------------------------------------------------------------------

    fn arm_timer(&mut self, t: TcpTimer, deadline: Nanos, out: &mut Vec<TcpAction>) {
        if self.timer_set[t.idx()].is_some() {
            out.push(TcpAction::CancelTimer(t));
        }
        self.timer_set[t.idx()] = Some(deadline);
        out.push(TcpAction::SetTimer(t, deadline));
    }

    fn cancel_timer(&mut self, t: TcpTimer, out: &mut Vec<TcpAction>) {
        if self.timer_set[t.idx()].take().is_some() {
            out.push(TcpAction::CancelTimer(t));
        }
    }

    fn timer_armed(&self, t: TcpTimer) -> bool {
        self.timer_set[t.idx()].is_some()
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
        match self.state {
            State::Established | State::CloseWait | State::SynSent | State::SynReceived => {}
            State::Closed => return Err(TcpError::InvalidState),
            _ => return Err(TcpError::Closing),
        }
        if self.fin_queued {
            return Err(TcpError::Closing);
        }
        let space = self.send_space();
        let take = space.min(data.len());
        self.send_buf.extend(&data[..take]);
        self.output(now, out);
        Ok(take)
    }

    /// Reads up to `max` bytes of in-order data. May emit a window-update
    /// ACK when the read opens the advertised window significantly
    /// (receiver-side silly-window avoidance).
    pub fn recv(&mut self, max: usize, now: Nanos) -> (Vec<u8>, Vec<TcpAction>) {
        let mut out = Vec::new();
        let data = self.recv_into(max, now, &mut out);
        (data, out)
    }

    /// [`Tcb::recv`], appending any window update to `out`.
    pub fn recv_into(&mut self, max: usize, _now: Nanos, out: &mut Vec<TcpAction>) -> Vec<u8> {
        let take = max.min(self.recv_buf.len());
        let data = copy_range(&self.recv_buf, 0, take);
        self.recv_buf.drain(..take);
        if !data.is_empty() && self.state.is_synchronized() && self.state != State::TimeWait {
            let new_edge = self.rcv_nxt + self.recv_window();
            let opened = new_edge.dist(self.adv_edge);
            let threshold = self.snd_mss.min(self.cfg.recv_buf / 2) as i32;
            if opened >= threshold {
                self.emit_ack(out);
            }
        }
        data
    }

    /// Closes the send direction (queues a FIN after any buffered data).
    pub fn close(&mut self, now: Nanos) -> Result<Vec<TcpAction>, TcpError> {
        let mut out = Vec::new();
        self.close_into(now, &mut out)?;
        Ok(out)
    }

    /// [`Tcb::close`], appending the FIN (or the teardown) to `out`.
    pub fn close_into(&mut self, now: Nanos, out: &mut Vec<TcpAction>) -> Result<(), TcpError> {
        match self.state {
            State::SynSent => {
                self.enter_closed(out);
                Ok(())
            }
            State::SynReceived | State::Established => {
                self.fin_queued = true;
                self.transition(State::FinWait1);
                self.output(now, out);
                Ok(())
            }
            State::CloseWait => {
                self.fin_queued = true;
                self.transition(State::LastAck);
                self.output(now, out);
                Ok(())
            }
            State::FinWait1
            | State::FinWait2
            | State::Closing
            | State::LastAck
            | State::TimeWait => Err(TcpError::Closing),
            State::Closed => Err(TcpError::InvalidState),
        }
    }

    /// Aborts the connection: sends RST (in synchronized states) and closes
    /// immediately. Used by the registry when an application terminates
    /// abnormally ("the protocol server issues a reset message to the
    /// remote peer").
    pub fn abort(&mut self) -> Vec<TcpAction> {
        let mut out = Vec::new();
        self.abort_into(&mut out);
        out
    }

    /// [`Tcb::abort`], appending the RST and the teardown to `out`.
    pub fn abort_into(&mut self, out: &mut Vec<TcpAction>) {
        if self.state.is_synchronized() && self.state != State::TimeWait {
            let seq = self.snd_nxt;
            self.emit_segment(
                TcpFlags {
                    rst: true,
                    ack: true,
                    ..TcpFlags::default()
                },
                seq,
                Vec::new(),
                None,
                out,
            );
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
            self.cancel_timer(t, out);
        }
        self.transition(State::Closed);
        out.push(TcpAction::ConnClosed);
    }

    // ------------------------------------------------------------------
    // Output engine
    // ------------------------------------------------------------------

    /// Transmits whatever the windows and Nagle permit, then the FIN if
    /// queued and fully drained, then manages the retransmit/persist
    /// timers.
    fn output(&mut self, now: Nanos, out: &mut Vec<TcpAction>) {
        if !matches!(
            self.state,
            State::Established
                | State::CloseWait
                | State::FinWait1
                | State::LastAck
                | State::Closing
        ) {
            return;
        }
        // Data sending only before the FIN goes out.
        if self.snd_fin.is_none() {
            loop {
                let in_flight = self.snd_nxt.dist(self.snd_una).max(0) as usize;
                let unsent = self.send_buf.len().saturating_sub(in_flight);
                if unsent == 0 {
                    break;
                }
                let wnd = self.effective_send_window();
                let usable = wnd.saturating_sub(in_flight);
                let mut len = unsent.min(usable).min(self.snd_mss);
                if len == 0 {
                    // Window closed: the persist timer takes over.
                    if self.snd_wnd == 0
                        && !self.timer_armed(TcpTimer::Persist)
                        && !self.timer_armed(TcpTimer::Retransmit)
                    {
                        self.persist_backoff = 0;
                        let delay = self.rtt.rto();
                        self.arm_timer(TcpTimer::Persist, now + delay, out);
                    }
                    break;
                }
                // Nagle: while data is in flight, don't send sub-MSS
                // segments unless this flushes the last of the buffer and a
                // FIN will follow.
                if self.cfg.nagle && len < self.snd_mss && in_flight > 0 && !self.fin_queued {
                    break;
                }
                // Sender silly-window: without Nagle, still avoid dribbling
                // tiny segments when more is queued than the window lets us
                // send.
                if len < self.snd_mss && len < unsent {
                    // Window-limited partial segment: send only if nothing
                    // is in flight (keeps progress without SWS).
                    if in_flight > 0 {
                        break;
                    }
                    len = len.min(usable);
                }
                let seq = self.snd_nxt;
                let payload = copy_range(&self.send_buf, in_flight, len);
                self.snd_nxt += len as u32;
                let push = in_flight + len == self.send_buf.len();
                let flags = TcpFlags {
                    ack: true,
                    psh: push,
                    ..TcpFlags::default()
                };
                // Time one segment per RTT for the estimator (Karn-safe:
                // only fresh transmissions are timed).
                if self.rtt_probe.is_none() {
                    self.rtt_probe = Some((seq + len as u32, now));
                }
                self.ack_pending = 0;
                self.cancel_timer(TcpTimer::DelayedAck, out);
                self.emit_segment(flags, seq, payload, None, out);
            }
        }
        // FIN transmission once the buffer is drained.
        if self.fin_queued && self.snd_fin.is_none() {
            let in_flight = self.snd_nxt.dist(self.snd_una).max(0) as usize;
            if in_flight == self.send_buf.len() {
                let seq = self.snd_nxt;
                self.snd_fin = Some(seq);
                self.snd_nxt += 1;
                self.emit_segment(
                    TcpFlags {
                        fin: true,
                        ack: true,
                        ..TcpFlags::default()
                    },
                    seq,
                    Vec::new(),
                    None,
                    out,
                );
            }
        }
        // Retransmit timer covers any outstanding sequence space.
        if self.snd_nxt != self.snd_una && !self.timer_armed(TcpTimer::Retransmit) {
            let rto = self.rtt.rto();
            self.arm_timer(TcpTimer::Retransmit, now + rto, out);
        }
    }

    /// Rebuilds and resends the segment at `snd_una`. `reason` names the
    /// loss-detection mechanism that fired (RTO expiry or third dup-ACK)
    /// and rides into the journal for root-cause attribution.
    fn retransmit_head(
        &mut self,
        now: Nanos,
        out: &mut Vec<TcpAction>,
        reason: unp_trace::RexmitReason,
    ) {
        match self.state {
            State::SynSent => {
                let mss = Some(self.cfg.mss_local as u16);
                let seq = self.iss;
                self.emit_segment(TcpFlags::SYN, seq, Vec::new(), mss, out);
                return;
            }
            State::SynReceived => {
                let mss = Some(self.cfg.mss_local as u16);
                let seq = self.iss;
                self.emit_segment(TcpFlags::syn_ack(), seq, Vec::new(), mss, out);
                return;
            }
            _ => {}
        }
        // Karn's rule: never time a retransmitted segment.
        self.rtt_probe = None;
        if !self.send_buf.is_empty() {
            let len = self.send_buf.len().min(self.snd_mss);
            let payload = copy_range(&self.send_buf, 0, len);
            self.stats.bytes_rexmit += len as u64;
            self.stats.rexmits += 1;
            unp_trace::emit(None, || unp_trace::Event::TcpRexmit {
                local_port: self.local.1,
                remote_port: self.remote.1,
                remote_ip: self.remote.0 .0,
                seq: self.snd_una.0,
                bytes: len as u32,
                reason,
            });
            let seq = self.snd_una;
            // The buffer may hold not-yet-sent bytes (e.g. a window- or
            // cwnd-limited tail); if this retransmission carries them,
            // account for them as sent or later ACKs would appear to cover
            // unsent data and be discarded.
            let end = seq + len as u32;
            if end.gt(self.snd_nxt) {
                self.snd_nxt = end;
            }
            let push = len == self.send_buf.len();
            self.emit_segment(
                TcpFlags {
                    ack: true,
                    psh: push,
                    ..TcpFlags::default()
                },
                seq,
                payload,
                None,
                out,
            );
        } else if let Some(fin_seq) = self.snd_fin {
            if self.snd_una.le(fin_seq) {
                self.emit_segment(
                    TcpFlags {
                        fin: true,
                        ack: true,
                        ..TcpFlags::default()
                    },
                    fin_seq,
                    Vec::new(),
                    None,
                    out,
                );
            }
        }
        let _ = now;
    }

    // ------------------------------------------------------------------
    // Timer expiry
    // ------------------------------------------------------------------

    /// Handles a timer firing. The host calls this when a wheel token for
    /// this connection expires.
    pub fn on_timer(&mut self, t: TcpTimer, now: Nanos) -> Vec<TcpAction> {
        let mut out = Vec::new();
        self.on_timer_into(t, now, &mut out);
        out
    }

    /// [`Tcb::on_timer`], appending what the expiry triggers to `out`.
    pub fn on_timer_into(&mut self, t: TcpTimer, now: Nanos, out: &mut Vec<TcpAction>) {
        // The wheel delivered it: it is no longer armed.
        self.timer_set[t.idx()] = None;
        match t {
            TcpTimer::Keepalive => {
                if let Some(interval) = self.cfg.keepalive {
                    if self.state.is_synchronized() && self.state != State::TimeWait {
                        self.keepalive_fails += 1;
                        if self.keepalive_fails > self.cfg.max_keepalive_probes {
                            // The peer is gone: reset the connection.
                            out.push(TcpAction::Reset);
                            self.abort_into(out);
                            return;
                        }
                        // A keepalive probe: an ACK with seq = snd_nxt - 1
                        // (provokes a window/ack reply, per 4.3BSD).
                        self.stats.probes += 1;
                        let seq = self.snd_nxt + u32::MAX; // snd_nxt - 1
                        self.emit_segment(
                            TcpFlags {
                                ack: true,
                                ..TcpFlags::default()
                            },
                            seq,
                            Vec::new(),
                            None,
                            out,
                        );
                        self.arm_timer(TcpTimer::Keepalive, now + interval, out);
                    }
                }
            }
            TcpTimer::Retransmit => {
                if self.snd_nxt == self.snd_una {
                    return; // nothing outstanding
                }
                self.stats.rto_fires += 1;
                self.retransmit_count += 1;
                if self.retransmit_count > self.cfg.max_retransmits {
                    out.push(TcpAction::Reset);
                    self.abort_into(out);
                    return;
                }
                self.rtt.on_retransmit();
                if self.cfg.congestion != CongestionControl::Off {
                    // Timeout: collapse to slow start (both Tahoe and Reno).
                    let flight = self.snd_nxt.dist(self.snd_una).max(0) as usize;
                    self.ssthresh = (flight / 2).max(2 * self.snd_mss);
                    self.cwnd = self.snd_mss;
                }
                self.dup_acks = 0;
                self.retransmit_head(now, out, unp_trace::RexmitReason::Rto);
                let rto = self.rtt.rto();
                self.arm_timer(TcpTimer::Retransmit, now + rto, out);
            }
            TcpTimer::Persist => {
                if self.snd_wnd == 0 && self.state.is_synchronized() {
                    let in_flight = self.snd_nxt.dist(self.snd_una).max(0) as usize;
                    let unsent = self.send_buf.len().saturating_sub(in_flight);
                    if unsent > 0 {
                        // Probe with one byte beyond the window.
                        self.stats.probes += 1;
                        let payload = copy_range(&self.send_buf, in_flight, 1);
                        let seq = self.snd_nxt;
                        self.snd_nxt += 1;
                        self.emit_segment(
                            TcpFlags {
                                ack: true,
                                ..TcpFlags::default()
                            },
                            seq,
                            payload,
                            None,
                            out,
                        );
                    }
                    self.persist_backoff = (self.persist_backoff + 1).min(10);
                    let delay = (self.rtt.rto() << self.persist_backoff).min(self.cfg.rto_max);
                    self.arm_timer(TcpTimer::Persist, now + delay, out);
                }
            }
            TcpTimer::DelayedAck => {
                if self.ack_pending > 0 {
                    self.emit_ack(out);
                }
            }
            TcpTimer::TimeWait => {
                self.enter_closed(out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Segment input
    // ------------------------------------------------------------------

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
        out: &mut Vec<TcpAction>,
    ) {
        self.stats.segs_in += 1;
        match self.state {
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
        out: &mut Vec<TcpAction>,
    ) {
        // RFC 793 SYN-SENT processing.
        if repr.flags.ack {
            let ack = repr.ack_num;
            if ack.le(self.iss) || ack.gt(self.snd_nxt) {
                if !repr.flags.rst {
                    let rst = Self::rst_for(self.local, repr, payload.len());
                    self.stats.segs_out += 1;
                    out.push(TcpAction::Send(rst, Vec::new()));
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
            self.irs = repr.seq;
            self.rcv_nxt = repr.seq + 1;
            self.apply_peer_mss(repr.mss);
            if repr.flags.ack {
                self.snd_una = repr.ack_num;
                self.update_send_window(repr);
                self.transition(State::Established);
                self.retransmit_count = 0;
                self.cancel_timer(TcpTimer::Retransmit, out);
                if let Some(interval) = self.cfg.keepalive {
                    self.arm_timer(TcpTimer::Keepalive, now + interval, out);
                }
                out.push(TcpAction::Connected);
                self.emit_ack(out);
                self.output(now, out);
            } else {
                // Simultaneous open.
                self.transition(State::SynReceived);
                self.snd_una = self.iss;
                let mss = Some(self.cfg.mss_local as u16);
                let seq = self.iss;
                self.emit_segment(TcpFlags::syn_ack(), seq, Vec::new(), mss, out);
            }
        }
    }

    fn seq_acceptable(&self, repr: &TcpRepr, seg_len: u32) -> bool {
        let wnd = self.recv_window();
        let seq = repr.seq;
        match (seg_len, wnd) {
            (0, 0) => seq == self.rcv_nxt,
            (0, w) => seq.in_window(self.rcv_nxt, w),
            (_, 0) => false,
            (l, w) => seq.in_window(self.rcv_nxt, w) || (seq + (l - 1)).in_window(self.rcv_nxt, w),
        }
    }

    fn update_send_window(&mut self, repr: &TcpRepr) -> bool {
        // RFC 793 window-update gating on (wl1, wl2).
        if repr.flags.syn
            || self.snd_wl1.lt(repr.seq)
            || (self.snd_wl1 == repr.seq && self.snd_wl2.le(repr.ack_num))
        {
            let was_zero = self.snd_wnd == 0;
            self.snd_wnd = u32::from(repr.window);
            self.snd_wl1 = repr.seq;
            self.snd_wl2 = repr.ack_num;
            return was_zero && self.snd_wnd > 0;
        }
        false
    }

    fn on_segment_sync(
        &mut self,
        repr: &TcpRepr,
        payload: &[u8],
        now: Nanos,
        out: &mut Vec<TcpAction>,
    ) {
        // Any traffic from the peer proves liveness: restart the
        // keepalive clock.
        if let Some(interval) = self.cfg.keepalive {
            if self.state.is_synchronized() && self.state != State::TimeWait {
                self.keepalive_fails = 0;
                self.arm_timer(TcpTimer::Keepalive, now + interval, out);
            }
        }
        let seg_len = payload.len() as u32 + u32::from(repr.flags.syn) + u32::from(repr.flags.fin);

        // Step 1: sequence acceptability.
        if !self.seq_acceptable(repr, seg_len) {
            if !repr.flags.rst {
                // Includes the TIME_WAIT re-ACK of a retransmitted FIN.
                if self.state == State::TimeWait {
                    self.arm_timer(TcpTimer::TimeWait, now + self.cfg.time_wait, out);
                }
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
        if repr.flags.syn && repr.seq.ge(self.rcv_nxt) {
            let rst = Self::rst_for(self.local, repr, payload.len());
            self.stats.segs_out += 1;
            out.push(TcpAction::Send(rst, Vec::new()));
            out.push(TcpAction::Reset);
            self.enter_closed(out);
            return;
        }
        // Step 4: ACK processing.
        if !repr.flags.ack {
            return;
        }
        let ack = repr.ack_num;
        if self.state == State::SynReceived {
            if ack.gt(self.snd_una) && ack.le(self.snd_nxt) {
                self.transition(State::Established);
                self.snd_una = ack;
                self.retransmit_count = 0;
                self.update_send_window(repr);
                self.cancel_timer(TcpTimer::Retransmit, out);
                out.push(TcpAction::Connected);
            } else {
                let rst = Self::rst_for(self.local, repr, payload.len());
                self.stats.segs_out += 1;
                out.push(TcpAction::Send(rst, Vec::new()));
                return;
            }
        }
        if ack.gt(self.snd_nxt) {
            // Acks something not yet sent.
            self.emit_ack(out);
            return;
        }
        let prev_wnd = self.snd_wnd;
        let window_opened = self.update_send_window(repr);
        if ack.gt(self.snd_una) {
            self.process_new_ack(ack, now, out);
        } else if ack == self.snd_una
            && payload.is_empty()
            && !repr.flags.fin
            && self.snd_nxt != self.snd_una
            && self.snd_wnd == prev_wnd
        {
            // RFC 5681 duplicate-ACK test: the advertised window must be
            // unchanged. A receiver draining its buffer sends pure window
            // updates that repeat the ack number; counting those as dup
            // ACKs fires spurious fast retransmits.
            self.process_dup_ack(now, out);
        }
        if window_opened {
            self.cancel_timer(TcpTimer::Persist, out);
            self.persist_backoff = 0;
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
        if self.ack_pending > 0 {
            if !self.cfg.delayed_ack || self.ack_pending >= self.cfg.ack_every {
                self.emit_ack(out);
            } else if !self.timer_armed(TcpTimer::DelayedAck) {
                let deadline = now + self.cfg.delayed_ack_timeout;
                self.arm_timer(TcpTimer::DelayedAck, deadline, out);
            }
        }
        // Send anything newly permitted (freed buffer, opened window).
        self.output(now, out);
    }

    fn process_new_ack(&mut self, ack: SeqNum, now: Nanos, out: &mut Vec<TcpAction>) {
        let fin_acked = self.snd_fin.is_some_and(|f| ack.gt(f));
        let acked_total = ack.dist(self.snd_una).max(0) as usize;
        let data_acked = acked_total - usize::from(fin_acked);
        let drain = data_acked.min(self.send_buf.len());
        self.send_buf.drain(..drain);
        self.snd_una = ack;
        self.retransmit_count = 0;
        self.dup_acks = 0;

        // RTT sample if our probe segment is covered.
        if let Some((probe_seq, sent_at)) = self.rtt_probe {
            if ack.ge(probe_seq) {
                let rtt = now.saturating_sub(sent_at);
                self.rtt.sample(rtt);
                self.stats.rtt_samples += 1;
                self.rtt_probe = None;
                unp_trace::emit(None, || unp_trace::Event::RttSample {
                    local_port: self.local.1,
                    remote_port: self.remote.1,
                    rtt,
                });
            }
        }
        // Congestion window growth.
        if self.cfg.congestion != CongestionControl::Off {
            if self.cwnd < self.ssthresh {
                self.cwnd += self.snd_mss; // slow start
            } else {
                self.cwnd += (self.snd_mss * self.snd_mss / self.cwnd).max(1);
            }
        }
        // Retransmit timer: restart if data remains outstanding.
        self.cancel_timer(TcpTimer::Retransmit, out);
        if self.snd_nxt != self.snd_una {
            let rto = self.rtt.rto();
            self.arm_timer(TcpTimer::Retransmit, now + rto, out);
        }
        if drain > 0 {
            out.push(TcpAction::SendSpace);
        }

        // Close-sequence state transitions on FIN acknowledgment.
        if fin_acked {
            match self.state {
                State::FinWait1 => {
                    self.transition(State::FinWait2);
                }
                State::Closing => {
                    self.transition(State::TimeWait);
                    self.arm_timer(TcpTimer::TimeWait, now + self.cfg.time_wait, out);
                }
                State::LastAck => {
                    self.enter_closed(out);
                }
                _ => {}
            }
        }
    }

    fn process_dup_ack(&mut self, now: Nanos, out: &mut Vec<TcpAction>) {
        self.dup_acks += 1;
        self.stats.dup_acks_in += 1;
        if self.dup_acks == 3 {
            // Fast retransmit.
            self.stats.fast_rexmit += 1;
            if self.cfg.congestion != CongestionControl::Off {
                let flight = self.snd_nxt.dist(self.snd_una).max(0) as usize;
                self.ssthresh = (flight / 2).max(2 * self.snd_mss);
                self.cwnd = match self.cfg.congestion {
                    CongestionControl::Tahoe => self.snd_mss,
                    CongestionControl::Reno => self.ssthresh + 3 * self.snd_mss,
                    CongestionControl::Off => unreachable!(),
                };
            }
            self.retransmit_head(now, out, unp_trace::RexmitReason::DupAck);
            // Restart the RTO for the retransmission.
            let rto = self.rtt.rto();
            self.arm_timer(TcpTimer::Retransmit, now + rto, out);
        } else if self.dup_acks > 3 && self.cfg.congestion == CongestionControl::Reno {
            self.cwnd += self.snd_mss; // window inflation during recovery
        }
    }

    fn process_payload(&mut self, seq: SeqNum, payload: &[u8], out: &mut Vec<TcpAction>) {
        // No new data is accepted once the peer's FIN sequence is known.
        if let Some(fin) = self.peer_fin {
            if seq.ge(fin) {
                return;
            }
        }
        if seq.gt(self.rcv_nxt) {
            // Out of order: hold and send an immediate duplicate ACK.
            let window_edge = self.rcv_nxt + self.recv_window();
            let room = window_edge.dist(seq).max(0) as usize;
            let take = payload.len().min(room);
            if take > 0 {
                self.ooo.insert(self.rcv_nxt, seq, &payload[..take]);
                unp_trace::emit(None, || unp_trace::Event::TcpOooHold {
                    local_port: self.local.1,
                    remote_port: self.remote.1,
                    seq: seq.0,
                    len: take as u32,
                });
            }
            self.emit_ack(out);
            return;
        }
        // Trim the duplicate prefix.
        let skip = self.rcv_nxt.dist(seq).max(0) as usize;
        if skip >= payload.len() {
            // Entirely old data: ack it again.
            self.ack_pending += 1;
            return;
        }
        let fresh = &payload[skip..];
        let room = self.cfg.recv_buf - self.recv_buf.len();
        let take = fresh.len().min(room);
        self.recv_buf.extend(&fresh[..take]);
        self.rcv_nxt += take as u32;
        // Drain any now-contiguous held segments.
        let drained = self.ooo.take_contiguous(self.rcv_nxt);
        if !drained.is_empty() {
            let room = self.cfg.recv_buf - self.recv_buf.len();
            let take2 = drained.len().min(room);
            self.recv_buf.extend(&drained[..take2]);
            self.rcv_nxt += take2 as u32;
        }
        if take > 0 {
            self.ack_pending += 1;
            out.push(TcpAction::DataAvailable);
        }
    }

    fn process_fin(&mut self, fin_seq: SeqNum, now: Nanos, out: &mut Vec<TcpAction>) {
        if self.peer_fin.is_none() {
            self.peer_fin = Some(fin_seq);
        }
        if self.rcv_nxt == fin_seq {
            // FIN is in order: consume it.
            self.rcv_nxt += 1;
            out.push(TcpAction::PeerClosed);
            match self.state {
                State::Established => self.transition(State::CloseWait),
                State::FinWait1 => {
                    // If our FIN were already acked we'd be in FinWait2.
                    self.transition(State::Closing);
                }
                State::FinWait2 => {
                    self.transition(State::TimeWait);
                    self.arm_timer(TcpTimer::TimeWait, now + self.cfg.time_wait, out);
                }
                _ => {}
            }
            self.emit_ack(out);
        } else if self.rcv_nxt.gt(fin_seq) {
            // Retransmitted FIN we already consumed: re-ack.
            self.emit_ack(out);
            if self.state == State::TimeWait {
                self.arm_timer(TcpTimer::TimeWait, now + self.cfg.time_wait, out);
            }
        }
        // else: FIN beyond a data gap; it will be consumed when the gap
        // fills (the peer will retransmit).
    }
}
