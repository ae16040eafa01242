//! Reliable ordered delivery: both sequence spaces, the stream buffers on
//! either side of them, the reassembly queue, FIN bookkeeping, and the
//! retransmission clock (RTT estimate, the one timed segment, the count
//! of consecutive timeouts).
//!
//! Methods say what the byte stream does — queue, cut a segment, take an
//! ACK, accept a payload — and return what happened as plain values. What
//! the connection then does about it (acknowledge, arm a timer, change
//! state) is the TCB's orchestration, through the other components.

use std::collections::VecDeque;
use std::mem::take;
use std::ops::Range;

use unp_wire::SeqNum;

use crate::config::{MSS_DEFAULT, RING_KEEP_MAX};
use crate::reasm::HeldRanges;
use crate::rtt::RttEstimator;
use crate::{append_range, ring_slices, Nanos};

/// What [`Delivery::retransmit_head`] resends.
pub(crate) enum Rexmit {
    /// The first segment's worth of the send buffer, from `snd_una`:
    /// `payload` is its range in [`Delivery::send_slices`]' terms.
    Data {
        seq: SeqNum,
        payload: Range<usize>,
        push: bool,
    },
    /// Our unacknowledged FIN.
    Fin(SeqNum),
}

/// What an ACK that advanced `snd_una` did.
pub(crate) struct Acked {
    /// Send-buffer bytes freed.
    pub(crate) freed: usize,
    /// The ACK covers our FIN.
    pub(crate) fin_acked: bool,
    /// The round trip of the timed segment, if the ACK covers it.
    pub(crate) rtt: Option<Nanos>,
}

/// What became of a received payload.
pub(crate) enum Payload {
    /// At or past the peer's FIN: dropped.
    PastFin,
    /// Ahead of `rcv_nxt`: this many bytes held for reassembly.
    Held(usize),
    /// Entirely below `rcv_nxt`: nothing new.
    Old,
    /// This many bytes appended to the receive buffer (0 if it is full).
    InOrder(usize),
}

/// Where a received FIN sits relative to `rcv_nxt`.
pub(crate) enum FinSeen {
    /// In order: consumed.
    Consumed,
    /// A retransmission of one already consumed.
    Repeated,
    /// Beyond a data gap: it is consumed when the gap fills (the peer will
    /// retransmit it).
    Early,
}

/// A connection's stream storage, emptied: its send ring, its receive
/// ring and its list of held ranges, kept for the room they grew to so
/// that the next connection's block starts with it. Beside the empty
/// default, only [`crate::Tcb::take_rings`] and a block's reopening make
/// one, and both clear what they take: a `Rings` holds no stream's bytes.
#[derive(Debug, Default)]
pub struct Rings {
    send: VecDeque<u8>,
    recv: VecDeque<u8>,
    held: HeldRanges,
}

impl Rings {
    /// The same storage, less any ring whose capacity is past
    /// [`RING_KEEP_MAX`]; `None` when nothing with any capacity is left.
    pub(crate) fn kept(mut self) -> Option<Rings> {
        for ring in [&mut self.send, &mut self.recv] {
            if ring.capacity() > RING_KEEP_MAX {
                *ring = VecDeque::new();
            }
        }
        let room = self.send.capacity() + self.recv.capacity() + self.held.capacity();
        (room > 0).then_some(self)
    }
}

/// One connection's byte streams and their sequence numbers.
#[derive(Debug)]
pub(crate) struct Delivery {
    iss: SeqNum,
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    /// The negotiated maximum segment size.
    snd_mss: usize,
    /// Stream bytes from `snd_una` onward (unacked then unsent).
    send_buf: VecDeque<u8>,
    /// Set once `close` queues a FIN; cleared never.
    fin_queued: bool,
    /// Sequence number of our FIN once transmitted.
    snd_fin: Option<SeqNum>,

    rcv_nxt: SeqNum,
    /// The receive ring: `readable` in-order bytes, then the reassembly
    /// area, where a held byte at `seq` sits at `readable + (seq −
    /// rcv_nxt)` and holes are zeros. It ends at the last held byte.
    recv_buf: VecDeque<u8>,
    /// In-order bytes at the front of `recv_buf`, not yet read.
    readable: usize,
    /// Which of the reassembly area's bytes have arrived.
    held: HeldRanges,
    /// Sequence number of the peer's FIN, once seen.
    peer_fin: Option<SeqNum>,

    rtt: RttEstimator,
    /// The one segment being timed: (sequence number past its end, when
    /// it left).
    rtt_probe: Option<(SeqNum, Nanos)>,
    /// Consecutive retransmission timeouts.
    retransmit_count: u32,
}

impl Delivery {
    /// A send space whose SYN, at `iss`, is the only thing outstanding,
    /// its streams stored in `rings` (empty, as every `Rings` is).
    pub(crate) fn new(iss: SeqNum, rings: Rings) -> Delivery {
        let Rings { send, recv, held } = rings;
        debug_assert!(send.is_empty() && recv.is_empty() && held.is_empty());
        Delivery {
            iss,
            snd_una: iss,
            snd_nxt: iss + 1,
            snd_mss: MSS_DEFAULT,
            send_buf: send,
            fin_queued: false,
            snd_fin: None,
            rcv_nxt: SeqNum(0),
            recv_buf: recv,
            readable: 0,
            held,
            peer_fin: None,
            rtt: RttEstimator::new(),
            rtt_probe: None,
            retransmit_count: 0,
        }
    }

    /// Takes the stream storage, cleared, leaving none behind. Whatever
    /// the rings held goes: `clear` keeps only their capacity.
    pub(crate) fn rings(&mut self) -> Rings {
        let (mut send, mut recv) = (take(&mut self.send_buf), take(&mut self.recv_buf));
        let mut held = take(&mut self.held);
        send.clear();
        recv.clear();
        held.clear();
        self.readable = 0;
        Rings { send, recv, held }
    }

    /// Stores the streams in `rings` in place of this space's own, which
    /// hold nothing.
    pub(crate) fn put_rings(&mut self, rings: Rings) {
        debug_assert!(self.drained() && self.held.is_empty());
        (self.send_buf, self.recv_buf, self.held) = (rings.send, rings.recv, rings.held);
    }

    // --- reads ---

    /// Nothing is left to resend or to read: both rings are empty.
    pub(crate) fn drained(&self) -> bool {
        self.send_buf.is_empty() && self.recv_buf.is_empty()
    }

    pub(crate) fn iss(&self) -> SeqNum {
        self.iss
    }

    pub(crate) fn snd_una(&self) -> SeqNum {
        self.snd_una
    }

    pub(crate) fn snd_nxt(&self) -> SeqNum {
        self.snd_nxt
    }

    pub(crate) fn rcv_nxt(&self) -> SeqNum {
        self.rcv_nxt
    }

    pub(crate) fn mss(&self) -> usize {
        self.snd_mss
    }

    /// Sequence space sent and not yet acknowledged.
    pub(crate) fn in_flight(&self) -> usize {
        self.snd_nxt.dist(self.snd_una).max(0) as usize
    }

    pub(crate) fn outstanding(&self) -> bool {
        self.snd_nxt != self.snd_una
    }

    /// Queued bytes not yet sent once.
    pub(crate) fn unsent(&self) -> usize {
        self.send_buf.len().saturating_sub(self.in_flight())
    }

    pub(crate) fn send_queued(&self) -> usize {
        self.send_buf.len()
    }

    pub(crate) fn recv_available(&self) -> usize {
        self.readable
    }

    pub(crate) fn fin_queued(&self) -> bool {
        self.fin_queued
    }

    pub(crate) fn fin_sent(&self) -> bool {
        self.snd_fin.is_some()
    }

    /// The peer's FIN has been received and everything before it read.
    pub(crate) fn at_eof(&self) -> bool {
        self.peer_fin.is_some() && self.readable == 0 && self.held.is_empty()
    }

    pub(crate) fn rto(&self) -> Nanos {
        self.rtt.rto()
    }

    pub(crate) fn srtt(&self) -> Option<Nanos> {
        self.rtt.srtt()
    }

    /// The window to advertise: what a receive buffer of `cap` bytes has
    /// free, as far as the 16-bit field can say. Held bytes do not count
    /// against it: they lie inside it.
    pub(crate) fn recv_window(&self, cap: usize) -> u32 {
        let free = cap.saturating_sub(self.readable);
        free.min(u16::MAX as usize) as u32
    }

    /// RFC 793's acceptability test for a segment of `seg_len` sequence
    /// numbers at `seq`, against the window a `cap`-byte buffer offers.
    pub(crate) fn seq_acceptable(&self, seq: SeqNum, seg_len: u32, cap: usize) -> bool {
        acceptable(seq, seg_len, self.rcv_nxt, self.recv_window(cap))
    }

    // --- the handshake ---

    /// The peer's SYN: its sequence space starts at `seq`, and the MSS is
    /// the smaller of ours and what it announced — the RFC 1122 default if
    /// it announced nothing, or zero (no offer, as 4.3BSD's `tcp_mss`
    /// reads it: a segment size of zero could carry no data, and divides
    /// the congestion window by zero).
    pub(crate) fn accept_syn(&mut self, seq: SeqNum, peer_mss: Option<u16>, mss_local: usize) {
        self.rcv_nxt = seq + 1;
        let offered = peer_mss.filter(|&mss| mss > 0);
        self.snd_mss = offered.map_or(MSS_DEFAULT, usize::from).min(mss_local);
    }

    /// `ack` acknowledges our SYN.
    pub(crate) fn syn_acked(&mut self, ack: SeqNum) {
        self.snd_una = ack;
        self.retransmit_count = 0;
    }

    // --- the application's side ---

    /// Appends what fits of `data` in a `cap`-byte send buffer; how much.
    pub(crate) fn queue(&mut self, data: &[u8], cap: usize) -> usize {
        let take = (cap - self.send_buf.len()).min(data.len());
        self.send_buf.extend(&data[..take]);
        take
    }

    /// A FIN follows whatever is queued.
    pub(crate) fn queue_fin(&mut self) {
        self.fin_queued = true;
    }

    /// Moves up to `max` bytes from the front of the receive buffer to the
    /// end of `out`; how many.
    pub(crate) fn read(&mut self, max: usize, out: &mut Vec<u8>) -> usize {
        let take = max.min(self.readable);
        append_range(&self.recv_buf, 0, take, out);
        self.recv_buf.drain(..take);
        self.readable -= take;
        take
    }

    // --- output ---

    /// The send-buffer bytes in `range`, counted from `snd_una` (the
    /// ranges the cutting methods below return), as the two slices on
    /// either side of the ring's seam.
    pub(crate) fn send_slices(&self, range: Range<usize>) -> [&[u8]; 2] {
        ring_slices(&self.send_buf, range.start, range.len())
    }

    /// Length of the next fresh data segment under a send window of `wnd`
    /// bytes: `Some(0)` when data waits on a window with no room, `None`
    /// when nothing waits or Nagle / silly-window avoidance holds it.
    pub(crate) fn next_segment_len(&self, wnd: usize, nagle: bool) -> Option<usize> {
        let in_flight = self.in_flight();
        let unsent = self.unsent();
        if unsent == 0 {
            return None;
        }
        let len = unsent.min(wnd.saturating_sub(in_flight)).min(self.snd_mss);
        if len == 0 {
            return Some(0);
        }
        // Nagle: while data is in flight, don't send sub-MSS segments
        // unless this flushes the last of the buffer and a FIN will
        // follow.
        if nagle && len < self.snd_mss && in_flight > 0 && !self.fin_queued {
            return None;
        }
        // Sender silly-window: without Nagle, still avoid dribbling tiny
        // segments when more is queued than the window lets us send. A
        // window-limited partial segment goes only if nothing is in
        // flight (keeps progress without SWS).
        if len < self.snd_mss && len < unsent && in_flight > 0 {
            return None;
        }
        Some(len)
    }

    /// Cuts the next `len` unsent bytes into a segment leaving at `now`:
    /// its sequence number, payload range, and whether it empties the
    /// buffer.
    pub(crate) fn take_segment(&mut self, len: usize, now: Nanos) -> (SeqNum, Range<usize>, bool) {
        let in_flight = self.in_flight();
        let seq = self.snd_nxt;
        let payload = in_flight..in_flight + len;
        self.snd_nxt += len as u32;
        // Time one segment per RTT for the estimator (Karn-safe: only
        // fresh transmissions are timed).
        if self.rtt_probe.is_none() {
            self.rtt_probe = Some((self.snd_nxt, now));
        }
        (seq, payload, in_flight + len == self.send_buf.len())
    }

    /// Claims the FIN's sequence number once a FIN is queued, not yet
    /// sent, and every queued byte has been sent.
    pub(crate) fn take_fin(&mut self) -> Option<SeqNum> {
        if !self.fin_queued || self.snd_fin.is_some() || self.in_flight() != self.send_buf.len() {
            return None;
        }
        let seq = self.snd_nxt;
        self.snd_fin = Some(seq);
        self.snd_nxt += 1;
        Some(seq)
    }

    /// Cuts one unsent byte to probe a closed window with, if any waits.
    pub(crate) fn take_probe(&mut self) -> Option<(SeqNum, Range<usize>)> {
        if self.unsent() == 0 {
            return None;
        }
        let seq = self.snd_nxt;
        let in_flight = self.in_flight();
        self.snd_nxt += 1;
        Some((seq, in_flight..in_flight + 1))
    }

    /// Rebuilds the segment at `snd_una` (synchronized states only: the
    /// TCB resends a SYN itself).
    pub(crate) fn retransmit_head(&mut self) -> Option<Rexmit> {
        // Karn's rule: never time a retransmitted segment.
        self.rtt_probe = None;
        if self.send_buf.is_empty() {
            let fin = self.snd_fin.filter(|&fin| self.snd_una.le(fin))?;
            return Some(Rexmit::Fin(fin));
        }
        let len = self.send_buf.len().min(self.snd_mss);
        let seq = self.snd_una;
        // The buffer may hold not-yet-sent bytes (e.g. a window- or
        // cwnd-limited tail); if this retransmission carries them,
        // account for them as sent or later ACKs would appear to cover
        // unsent data and be discarded.
        let end = seq + len as u32;
        if end.gt(self.snd_nxt) {
            self.snd_nxt = end;
        }
        Some(Rexmit::Data {
            seq,
            payload: 0..len,
            push: len == self.send_buf.len(),
        })
    }

    /// The retransmission timer expired. False once more than `max` have
    /// in a row — give up; otherwise the RTO backs off.
    pub(crate) fn on_rto(&mut self, max: u32) -> bool {
        self.retransmit_count += 1;
        if self.retransmit_count > max {
            return false;
        }
        self.rtt.on_retransmit();
        true
    }

    // --- input ---

    /// `ack` (in `snd_una < ack <= snd_nxt`) arrived at `now`: drops what
    /// it covers from the send buffer and samples the RTT if it covers
    /// the timed segment.
    pub(crate) fn on_ack(&mut self, ack: SeqNum, now: Nanos) -> Acked {
        let fin_acked = self.snd_fin.is_some_and(|f| ack.gt(f));
        let acked_total = ack.dist(self.snd_una).max(0) as usize;
        let data_acked = acked_total - usize::from(fin_acked);
        let freed = data_acked.min(self.send_buf.len());
        self.send_buf.drain(..freed);
        self.snd_una = ack;
        self.retransmit_count = 0;
        let rtt = self
            .rtt_probe
            .filter(|&(probe_seq, _)| ack.ge(probe_seq))
            .map(|(_, sent_at)| now.saturating_sub(sent_at));
        if let Some(rtt) = rtt {
            self.rtt.sample(rtt);
            self.rtt_probe = None;
        }
        Acked {
            freed,
            fin_acked,
            rtt,
        }
    }

    /// Takes `payload`, received at `seq`, into a `cap`-byte receive
    /// buffer — in order, or held at its offset for reassembly, or
    /// nowhere.
    ///
    /// Held bytes always fit: they lie below the advertised window's
    /// edge, `rcv_nxt + min(cap − readable, 65535)`, and that edge never
    /// moves left — an in-order append moves both of its terms by the
    /// same amount and a read only shrinks `readable` — so a held byte's
    /// index, `readable + (seq − rcv_nxt)`, stays below `cap`.
    pub(crate) fn accept_payload(&mut self, seq: SeqNum, payload: &[u8], cap: usize) -> Payload {
        // No new data is accepted once the peer's FIN sequence is known.
        if self.peer_fin.is_some_and(|fin| seq.ge(fin)) {
            return Payload::PastFin;
        }
        if seq.gt(self.rcv_nxt) {
            return Payload::Held(self.hold(seq, payload, cap));
        }
        // Trim the duplicate prefix.
        let skip = self.rcv_nxt.dist(seq).max(0) as usize;
        if skip >= payload.len() {
            return Payload::Old;
        }
        Payload::InOrder(self.append(&payload[skip..], cap))
    }

    /// Writes what fits in the window of `data` (at `seq`, beyond
    /// `rcv_nxt`) into the reassembly area, skipping bytes already held;
    /// how much fitted.
    fn hold(&mut self, seq: SeqNum, data: &[u8], cap: usize) -> usize {
        let window_edge = self.rcv_nxt + self.recv_window(cap);
        let take = data.len().min(window_edge.dist(seq).max(0) as usize);
        if take == 0 {
            return 0;
        }
        // `seq`'s index in the ring.
        let base = self.readable + seq.dist(self.rcv_nxt) as usize;
        let len = self.recv_buf.len().max(base + take);
        debug_assert!(len <= cap, "held bytes past the buffer");
        self.recv_buf.resize(len, 0);
        let ring = &mut self.recv_buf;
        self.held.insert(seq, seq + take as u32, |lo, hi| {
            let (lo, hi) = (lo.dist(seq) as usize, hi.dist(seq) as usize);
            overwrite(ring, base + lo, &data[lo..hi]);
        });
        take
    }

    /// Writes what fits of `data` at `rcv_nxt` — over any held bytes
    /// there, which it supersedes — then moves the in-order edge past the
    /// held run it reaches; how much of `data` fitted.
    fn append(&mut self, data: &[u8], cap: usize) -> usize {
        let take = data.len().min(cap - self.readable);
        let over = take.min(self.recv_buf.len() - self.readable);
        overwrite(&mut self.recv_buf, self.readable, &data[..over]);
        self.recv_buf.extend(&data[over..take]);
        self.rcv_nxt += take as u32;
        self.readable += take;
        let edge = self.held.advance(self.rcv_nxt);
        self.readable += edge.dist(self.rcv_nxt) as usize;
        self.rcv_nxt = edge;
        take
    }

    /// The peer's FIN, at `fin_seq`.
    pub(crate) fn accept_fin(&mut self, fin_seq: SeqNum) -> FinSeen {
        self.peer_fin.get_or_insert(fin_seq);
        if self.rcv_nxt == fin_seq {
            self.rcv_nxt += 1;
            FinSeen::Consumed
        } else if self.rcv_nxt.gt(fin_seq) {
            FinSeen::Repeated
        } else {
            FinSeen::Early
        }
    }
}

/// RFC 793's acceptability test for a segment of `seg_len` sequence
/// numbers at `seq`, against a receive window of `wnd` from `rcv_nxt`.
pub(crate) fn acceptable(seq: SeqNum, seg_len: u32, rcv_nxt: SeqNum, wnd: u32) -> bool {
    match (seg_len, wnd) {
        (0, 0) => seq == rcv_nxt,
        (0, w) => seq.in_window(rcv_nxt, w),
        (_, 0) => false,
        (l, w) => seq.in_window(rcv_nxt, w) || (seq + (l - 1)).in_window(rcv_nxt, w),
    }
}

/// Copies `src` over `ring[at..at + src.len()]`, across the ring's seam.
fn overwrite(ring: &mut VecDeque<u8>, at: usize, src: &[u8]) {
    let (front, back) = ring.as_mut_slices();
    if at < front.len() {
        let n = src.len().min(front.len() - at);
        front[at..at + n].copy_from_slice(&src[..n]);
        back[..src.len() - n].copy_from_slice(&src[n..]);
    } else {
        let at = at - front.len();
        back[at..at + src.len()].copy_from_slice(src);
    }
}
