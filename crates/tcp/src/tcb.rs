//! The transmission control block and TCP state machine.
//!
//! One [`Tcb`] is one connection. It is a pure state machine: all methods
//! take `now` and produce [`TcpAction`]s for the hosting organization to
//! route (segments to transmit via IP, timers to arm on the timing wheel,
//! notifications to deliver to the application). Every entry point has a
//! sink form (`*_into`) that hands what it produces to a [`TcpSink`] the
//! caller owns — a segment's payload as borrowed slices of the send
//! buffer, which the sink copies once into whatever it transmits from —
//! and a form returning a fresh `Vec`, a one-line wrapper over the sink
//! form through `Vec<TcpAction>`'s sink, which appends and never clears.
//! The same `Tcb` code runs in every simulated protocol organization, and
//! the registry server uses it to execute the three-way handshake before
//! transferring the block to the application's library (paper §3.4).
//!
//! The block's state lives in four components with non-overlapping write
//! scopes — connection management, reliable ordered delivery, flow control
//! and congestion control, each a module of this crate with private
//! fields. The methods here and in the child modules (`input`: segment
//! arrival, `output`: the output engine, `timer`: timer expiry, `listen`:
//! the listener, `time_wait`: TIME_WAIT through its record) are
//! orchestrations: they read across the components and write each
//! one only through its own methods, so a congestion-control change
//! cannot touch a sequence number and still compile.

mod input;
mod listen;
mod output;
mod time_wait;
mod timer;

use std::ops::Range;

use unp_wire::{Ipv4Addr, SeqNum, TcpFlags, TcpRepr};

use crate::config::TcpConfig;
use crate::congestion::Congestion;
use crate::conn::ConnMgmt;
use crate::delivery::{Delivery, Rings};
use crate::flow::FlowControl;
use crate::{Nanos, TcpError};

pub use crate::conn::TcpTimer;
pub use listen::ListenTcb;
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

/// Where a [`Tcb`]'s sink forms put what the block produces, in order.
///
/// The forms take `&mut dyn TcpSink`: one compiled state machine serves
/// every sink, a sink is called a handful of times per segment, and a
/// `&mut Vec<TcpAction>` coerces to it at the call site.
pub trait TcpSink {
    /// Appends one action. The block emits no [`TcpAction::Send`] through
    /// here: its segments come through [`TcpSink::segment`].
    fn push(&mut self, action: TcpAction);

    /// Appends a segment to transmit: its header and its payload, borrowed
    /// from the block's send buffer as the two slices on either side of
    /// the ring's seam (either or both may be empty). The sink copies what
    /// it keeps; the slices do not outlive the call.
    fn segment(&mut self, repr: TcpRepr, payload: [&[u8]; 2]);
}

/// The `Vec` forms' sink: a segment becomes a [`TcpAction::Send`] owning
/// its payload, concatenated in one allocation.
impl TcpSink for Vec<TcpAction> {
    fn push(&mut self, action: TcpAction) {
        Vec::push(self, action);
    }

    fn segment(&mut self, repr: TcpRepr, payload: [&[u8]; 2]) {
        Vec::push(self, TcpAction::Send(repr, payload.concat()));
    }
}

/// A segment that carries no data.
const NO_DATA: Range<usize> = 0..0;

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
    /// The one constructor: a block in `Closed` for the pair, its streams
    /// stored in `rings`.
    fn new(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        iss: SeqNum,
        rings: Rings,
    ) -> Tcb {
        Tcb {
            conn: ConnMgmt::new(local, remote),
            rod: Delivery::new(iss, rings),
            flow: FlowControl::new(),
            cc: Congestion::new(cfg.congestion, cfg.mss_local),
            cfg,
            stats: TcpStats::default(),
            harvested: TcpStats::default(),
        }
    }

    /// Makes this block, whatever connection it served, the one
    /// [`Tcb::new`] builds for the pair, in the storage it has.
    ///
    /// Protection: a recycled ring exposes only what `readable` covers.
    /// [`Delivery::rings`] `clear`s both rings and the held list, so the
    /// last connection's bytes stay only in capacity no read can reach —
    /// a read takes the `readable` in-order bytes at the front, a send
    /// the bytes the application queued, and the reassembly area grows by
    /// `resize`, which zero-fills every hole it opens.
    fn reopen(
        &mut self,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        iss: SeqNum,
    ) {
        let rings = self.rod.rings();
        *self = Tcb::new(local, remote, cfg, iss, rings);
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
        out: &mut dyn TcpSink,
    ) -> Tcb {
        let mut tcb = Tcb::new(local, remote, cfg, SeqNum(iss), Rings::default());
        tcb.open_active(now, out);
        tcb
    }

    /// [`Tcb::connect_into`] in this block, a closed connection's: it keeps
    /// the capacity of its send ring, receive ring and held list, emptied,
    /// and every other field is reset as `connect_into` sets it, by the
    /// same constructor, so what it emits and reads is a fresh block's.
    pub fn connect_in_place(
        &mut self,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        iss: u32,
        now: Nanos,
        out: &mut dyn TcpSink,
    ) {
        self.reopen(local, remote, cfg, SeqNum(iss));
        self.open_active(now, out);
    }

    /// An active open from `Closed`: the SYN and its timer.
    fn open_active(&mut self, now: Nanos, out: &mut dyn TcpSink) {
        self.conn.transition(State::SynSent);
        self.emit_syn(TcpFlags::SYN, out);
        self.conn
            .arm_timer(TcpTimer::Retransmit, now + self.rod.rto(), out);
    }

    /// A passive open from `Closed` by the SYN `repr`: the SYN|ACK and
    /// its timer.
    fn open_passive(&mut self, repr: &TcpRepr, now: Nanos, out: &mut dyn TcpSink) {
        self.conn.transition(State::SynReceived);
        self.rod.accept_syn(repr.seq, repr.mss, self.cfg.mss_local);
        self.flow.update_send_window(repr);
        self.emit_syn(TcpFlags::syn_ack(), out);
        self.conn
            .arm_timer(TcpTimer::Retransmit, now + self.rod.rto(), out);
    }

    /// The block's stream storage, emptied, for the next connection
    /// ([`Tcb::put_rings`]): once the block is `TimeWait` with both rings
    /// drained — it has nothing left to resend or to be read, and the
    /// 2·MSL wait needs neither ([`Tcb::time_wait`]) — or `Closed`. A ring
    /// grown past the default 16 KiB window (`config::RING_KEEP_MAX`) is
    /// freed, not kept. `None` in any other state, or when nothing has any capacity;
    /// the block keeps working either way, with empty rings.
    pub fn take_rings(&mut self) -> Option<Rings> {
        let done = match self.conn.state() {
            State::Closed => true,
            State::TimeWait => self.rod.drained(),
            _ => false,
        };
        if !done {
            return None;
        }
        self.rod.rings().kept()
    }

    /// Stores this block's streams in `rings`, storage another block gave
    /// up ([`Tcb::take_rings`]), in place of its own, which must hold
    /// nothing — as a block just opened holds nothing.
    pub fn put_rings(&mut self, rings: Rings) {
        self.rod.put_rings(rings);
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

    /// Emits a segment at `seq` whose payload is `payload`, a range of
    /// the send buffer counted from `snd_una`, handed to `out` as borrowed
    /// slices.
    fn emit_segment(
        &mut self,
        flags: TcpFlags,
        seq: SeqNum,
        payload: Range<usize>,
        mss: Option<u16>,
        out: &mut dyn TcpSink,
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
        out.segment(repr, self.rod.send_slices(payload));
    }

    /// Our SYN (or SYN|ACK), first time or again: at `iss`, announcing
    /// our MSS.
    fn emit_syn(&mut self, flags: TcpFlags, out: &mut dyn TcpSink) {
        let mss = Some(self.cfg.mss_local as u16);
        self.emit_segment(flags, self.rod.iss(), NO_DATA, mss, out);
    }

    fn emit_ack(&mut self, out: &mut dyn TcpSink) {
        self.flow.ack_sent();
        self.conn.cancel_timer(TcpTimer::DelayedAck, out);
        self.emit_segment(TcpFlags::ack(), self.rod.snd_nxt(), NO_DATA, None, out);
    }

    /// Answers `offending` with the RST [`Tcb::rst_for`] builds, leaving
    /// the block as it is.
    fn emit_rst_for(&mut self, offending: &TcpRepr, payload_len: usize, out: &mut dyn TcpSink) {
        let rst = Self::rst_for(self.conn.local(), offending, payload_len);
        self.stats.segs_out += 1;
        out.segment(rst, [&[], &[]]);
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
        out: &mut dyn TcpSink,
    ) -> Result<usize, TcpError> {
        match self.conn.state() {
            State::Established | State::CloseWait | State::SynSent | State::SynReceived => {}
            State::TimeWait => {
                return self.answer_time_wait(out, |tw, out| tw.send_into(data, now, out))
            }
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
        out: &mut dyn TcpSink,
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
    pub fn close_into(&mut self, now: Nanos, out: &mut dyn TcpSink) -> Result<(), TcpError> {
        let next = match self.conn.state() {
            State::SynSent => {
                self.enter_closed(out);
                return Ok(());
            }
            State::SynReceived | State::Established => State::FinWait1,
            State::CloseWait => State::LastAck,
            State::FinWait1 | State::FinWait2 | State::Closing | State::LastAck => {
                return Err(TcpError::Closing)
            }
            State::TimeWait => {
                return self.answer_time_wait(out, |tw, out| tw.close_into(now, out))
            }
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
    pub fn abort_into(&mut self, out: &mut dyn TcpSink) {
        if self.conn.state() == State::TimeWait {
            return self.answer_time_wait(out, |tw, out| tw.abort_into(out));
        }
        if self.conn.is_live() || self.conn.state() == State::SynReceived {
            let flags = TcpFlags {
                rst: true,
                ack: true,
                ..TcpFlags::default()
            };
            self.emit_segment(flags, self.rod.snd_nxt(), NO_DATA, None, out);
        }
        self.enter_closed(out);
    }

    fn enter_closed(&mut self, out: &mut dyn TcpSink) {
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
