//! A self-contained two-endpoint harness that runs real `Tcb` pairs over a
//! configurable channel (latency, loss, duplication, reordering,
//! corruption) with real timers.
//!
//! Segments travel as *wire bytes* — built and re-parsed through
//! `unp-wire`, checksums verified on receipt — so the harness exercises the
//! full serialize/deserialize path. Used by this crate's integration and
//! property tests only; it plays the role smoltcp's loopback tests play
//! for that stack.

use std::collections::VecDeque;

use unp_wire::{Ipv4Addr, TcpPacket, TcpRepr};

use crate::tcb::{ListenTcb, State, Tcb, TcpAction, TcpTimer};
use crate::{ring_slices, Nanos, TcpConfig};

/// Which endpoint, for addressing within the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The active opener.
    A,
    /// The passive listener.
    B,
}

impl Side {
    fn other(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }
}

/// Per-direction impairment rates — the reverse-path override for
/// asymmetric channels (a clean forward path with a lossy ACK path, or
/// vice versa). Shares the world-level `FaultPlan` vocabulary.
#[derive(Debug, Clone, Copy)]
pub struct DirFaults {
    /// Probability a segment is silently dropped.
    pub loss: f64,
    /// Probability a segment is delivered twice.
    pub duplicate: f64,
    /// Probability a random byte is flipped in flight.
    pub corrupt: f64,
}

impl DirFaults {
    /// No impairment.
    pub fn clean() -> DirFaults {
        DirFaults {
            loss: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
        }
    }

    /// The standard hostile mix: loss at `loss`, duplication and
    /// corruption at half that.
    pub fn lossy(loss: f64) -> DirFaults {
        DirFaults {
            loss,
            duplicate: loss / 2.0,
            corrupt: loss / 2.0,
        }
    }
}

/// Channel impairment model. Rates are per-segment probabilities in
/// [0, 1], applied with a deterministic xorshift PRNG.
#[derive(Debug, Clone, Copy)]
pub struct ChannelModel {
    /// One-way latency.
    pub latency: Nanos,
    /// Probability a segment is silently dropped.
    pub loss: f64,
    /// Probability a segment is delivered twice.
    pub duplicate: f64,
    /// Extra random delay (uniform in [0, jitter]) — values larger than
    /// the inter-segment gap cause reordering.
    pub jitter: Nanos,
    /// Probability a random payload byte is flipped in flight (checksum
    /// must catch it).
    pub corrupt: f64,
    /// PRNG seed.
    pub seed: u64,
    /// Per-direction override for B→A traffic: when set, the reverse
    /// path uses these rates instead of the shared `loss`/`duplicate`/
    /// `corrupt` (jitter stays shared — it models the medium, not a
    /// direction).
    pub reverse: Option<DirFaults>,
    /// A burst-loss window `[start, end)`: every segment handed to the
    /// channel inside it, either direction, is dropped outright (a cable
    /// pull, not random loss). Drops are counted in
    /// [`Loopback::outage_drops`].
    pub outage: Option<(Nanos, Nanos)>,
}

impl ChannelModel {
    /// A perfect 100 µs channel.
    pub fn clean() -> ChannelModel {
        ChannelModel {
            latency: 100_000,
            loss: 0.0,
            duplicate: 0.0,
            jitter: 0,
            corrupt: 0.0,
            seed: 1,
            reverse: None,
            outage: None,
        }
    }

    /// A hostile channel for robustness tests.
    pub fn lossy(seed: u64, loss: f64) -> ChannelModel {
        ChannelModel {
            loss,
            duplicate: loss / 2.0,
            jitter: 300_000,
            corrupt: loss / 2.0,
            seed,
            ..ChannelModel::clean()
        }
    }

    /// Sets the reverse-path (B→A) override.
    pub fn with_reverse(mut self, reverse: DirFaults) -> ChannelModel {
        self.reverse = Some(reverse);
        self
    }

    /// Sets a burst-loss outage window `[start, end)`.
    pub fn with_outage(mut self, start: Nanos, end: Nanos) -> ChannelModel {
        self.outage = Some((start, end));
        self
    }
}

/// Deterministic xorshift64* PRNG (no external dependency; reproducible).
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Accumulated notifications per endpoint.
#[derive(Debug, Default, Clone)]
pub struct Events {
    /// `Connected` seen.
    pub connected: bool,
    /// `Reset` seen.
    pub reset: bool,
    /// `PeerClosed` seen.
    pub peer_closed: bool,
    /// `ConnClosed` seen.
    pub closed: bool,
    /// Count of `DataAvailable`.
    pub data_available: u64,
    /// Count of `SendSpace`.
    pub send_space: u64,
}

struct Endpoint {
    addr: Ipv4Addr,
    tcb: Option<Tcb>,
    timers: Vec<(Nanos, TcpTimer)>,
    events: Events,
    /// Application receive sink.
    received: Vec<u8>,
    /// Application bytes queued but not yet accepted by the send buffer.
    to_send: VecDeque<u8>,
    /// Whether the app wants to close once `to_send` drains.
    close_pending: bool,
}

impl Endpoint {
    fn new(addr: Ipv4Addr) -> Endpoint {
        Endpoint {
            addr,
            tcb: None,
            timers: Vec::new(),
            events: Events::default(),
            received: Vec::new(),
            to_send: VecDeque::new(),
            close_pending: false,
        }
    }
}

struct FlightSeg {
    deliver_at: Nanos,
    seq: u64,
    to: Side,
    bytes: Vec<u8>,
}

/// The two-endpoint harness. See module docs.
pub struct Loopback {
    now: Nanos,
    a: Endpoint,
    b: Endpoint,
    listener_b: Option<ListenTcb>,
    chan: ChannelModel,
    rng: XorShift,
    flight: Vec<FlightSeg>,
    flight_seq: u64,
    /// Total segments handed to the channel (pre-impairment).
    pub segments_carried: u64,
    /// Segments swallowed by the channel's outage window.
    pub outage_drops: u64,
}

const ADDR_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const ADDR_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT_A: u16 = 40000;
const PORT_B: u16 = 80;

impl Loopback {
    /// Creates a harness: B listens, A connects (the SYN is in flight).
    pub fn new(cfg_a: TcpConfig, cfg_b: TcpConfig, chan: ChannelModel) -> Loopback {
        let mut lb = Loopback {
            now: 0,
            a: Endpoint::new(ADDR_A),
            b: Endpoint::new(ADDR_B),
            listener_b: Some(ListenTcb::new((ADDR_B, PORT_B), cfg_b)),
            chan,
            rng: XorShift(chan.seed ^ 0x9E37_79B9_7F4A_7C15),
            flight: Vec::new(),
            flight_seq: 0,
            segments_carried: 0,
            outage_drops: 0,
        };
        let (tcb, actions) = Tcb::connect((ADDR_A, PORT_A), (ADDR_B, PORT_B), cfg_a, 1000, 0);
        lb.a.tcb = Some(tcb);
        lb.apply(Side::A, actions);
        lb
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// State of an endpoint's connection block (Closed if none).
    pub fn state(&self, side: Side) -> State {
        self.ep(side).tcb.as_ref().map_or(State::Closed, Tcb::state)
    }

    /// Events accumulated by an endpoint.
    pub fn events(&self, side: Side) -> &Events {
        &self.ep(side).events
    }

    /// Everything an endpoint's application has read so far.
    pub fn received(&self, side: Side) -> &[u8] {
        &self.ep(side).received
    }

    /// Direct access to a TCB for assertions.
    pub fn tcb(&self, side: Side) -> Option<&Tcb> {
        self.ep(side).tcb.as_ref()
    }

    fn ep(&self, side: Side) -> &Endpoint {
        match side {
            Side::A => &self.a,
            Side::B => &self.b,
        }
    }

    fn ep_mut(&mut self, side: Side) -> &mut Endpoint {
        match side {
            Side::A => &mut self.a,
            Side::B => &mut self.b,
        }
    }

    /// Queues application data for transmission from `side`.
    pub fn send(&mut self, side: Side, data: &[u8]) {
        self.ep_mut(side).to_send.extend(data);
        self.pump_app(side);
    }

    /// Requests an orderly close from `side` once its queued data drains.
    pub fn close(&mut self, side: Side) {
        self.ep_mut(side).close_pending = true;
        self.pump_app(side);
    }

    /// Aborts from `side` (RST).
    pub fn abort(&mut self, side: Side) {
        if let Some(tcb) = self.ep_mut(side).tcb.as_mut() {
            let actions = tcb.abort();
            self.apply(side, actions);
        }
    }

    /// Pushes app-level pending work into the TCB (writes, close).
    fn pump_app(&mut self, side: Side) {
        let now = self.now;
        let ep = self.ep_mut(side);
        let Some(tcb) = ep.tcb.as_mut() else { return };
        let mut collected = Vec::new();
        // Write as much as the send buffer accepts.
        while !ep.to_send.is_empty() {
            let queued = ring_slices(&ep.to_send, 0, ep.to_send.len().min(4096));
            match tcb.send_into(queued, now, &mut collected) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    ep.to_send.drain(..n);
                }
            }
        }
        // A close() in SYN-SENT deletes the block (RFC 793), so an app that
        // wrote data and closed immediately would lose it; defer the close
        // until the handshake completes, as the socket layer does.
        if ep.close_pending && ep.to_send.is_empty() && tcb.state().is_synchronized() {
            if let Ok(actions) = tcb.close(now) {
                collected.extend(actions);
            }
            ep.close_pending = false;
        }
        self.apply(side, collected);
    }

    /// Drains readable data into the endpoint's `received` sink.
    fn drain_reads(&mut self, side: Side) {
        let now = self.now;
        let ep = self.ep_mut(side);
        let Some(tcb) = ep.tcb.as_mut() else { return };
        loop {
            let (data, actions) = tcb.recv(usize::MAX, now);
            let done = data.is_empty();
            ep.received.extend_from_slice(&data);
            if !actions.is_empty() {
                self.apply(side, actions);
                return self.drain_reads(side);
            }
            if done {
                break;
            }
        }
    }

    /// Applies TCB actions: transmit via the channel, arm timers, record
    /// notifications.
    fn apply(&mut self, side: Side, actions: Vec<TcpAction>) {
        for action in actions {
            match action {
                TcpAction::Send(repr, payload) => self.transmit(side, repr, payload),
                TcpAction::SetTimer(kind, deadline) => {
                    let ep = self.ep_mut(side);
                    ep.timers.retain(|&(_, k)| k != kind);
                    ep.timers.push((deadline, kind));
                }
                TcpAction::CancelTimer(kind) => {
                    self.ep_mut(side).timers.retain(|&(_, k)| k != kind);
                }
                TcpAction::Connected => {
                    self.ep_mut(side).events.connected = true;
                    self.pump_app(side);
                }
                TcpAction::DataAvailable => {
                    self.ep_mut(side).events.data_available += 1;
                    self.drain_reads(side);
                }
                TcpAction::SendSpace => {
                    self.ep_mut(side).events.send_space += 1;
                    self.pump_app(side);
                }
                TcpAction::PeerClosed => {
                    self.ep_mut(side).events.peer_closed = true;
                    self.drain_reads(side);
                }
                TcpAction::Reset => {
                    self.ep_mut(side).events.reset = true;
                }
                TcpAction::ConnClosed => {
                    self.ep_mut(side).events.closed = true;
                    self.ep_mut(side).timers.clear();
                }
            }
        }
    }

    fn transmit(&mut self, from: Side, repr: TcpRepr, payload: Vec<u8>) {
        self.segments_carried += 1;
        let (src, dst) = match from {
            Side::A => (self.a.addr, self.b.addr),
            Side::B => (self.b.addr, self.a.addr),
        };
        let mut bytes = repr.build_segment(src, dst, &payload);
        if let Some((start, end)) = self.chan.outage {
            if self.now >= start && self.now < end {
                self.outage_drops += 1;
                return;
            }
        }
        // The reverse-path override applies to B→A traffic; with no
        // override both directions share the model's rates (and the RNG
        // draw sequence is unchanged from the symmetric model).
        let dir = match (from, self.chan.reverse) {
            (Side::B, Some(d)) => d,
            _ => DirFaults {
                loss: self.chan.loss,
                duplicate: self.chan.duplicate,
                corrupt: self.chan.corrupt,
            },
        };
        if self.rng.chance(dir.loss) {
            return;
        }
        if self.rng.chance(dir.corrupt) {
            let idx = self.rng.below(bytes.len() as u64) as usize;
            bytes[idx] ^= 0x20;
        }
        let copies = if self.rng.chance(dir.duplicate) { 2 } else { 1 };
        for _ in 0..copies {
            let jitter = self.rng.below(self.chan.jitter + 1);
            let deliver_at = self.now + self.chan.latency + jitter;
            let seq = self.flight_seq;
            self.flight_seq += 1;
            self.flight.push(FlightSeg {
                deliver_at,
                seq,
                to: from.other(),
                bytes: bytes.clone(),
            });
        }
    }

    fn deliver(&mut self, to: Side, bytes: Vec<u8>) {
        let (src, dst) = match to {
            Side::A => (self.b.addr, self.a.addr),
            Side::B => (self.a.addr, self.b.addr),
        };
        let Ok(pkt) = TcpPacket::new_checked(&bytes[..]) else {
            return;
        };
        if !pkt.verify_checksum(src, dst) {
            return; // corrupted in flight
        }
        let repr = TcpRepr::parse(&pkt);
        let payload = pkt.payload().to_vec();
        let now = self.now;

        // Passive open on B.
        if self.ep(to).tcb.is_none() {
            if to == Side::B {
                if let Some(listener) = &self.listener_b {
                    if let Some((tcb, actions)) =
                        listener.on_syn((src, repr.src_port), &repr, 7000, now)
                    {
                        self.b.tcb = Some(tcb);
                        self.apply(Side::B, actions);
                    }
                }
            }
            return;
        }
        let tcb = self.ep_mut(to).tcb.as_mut().expect("checked above");
        let actions = tcb.on_segment(&repr, &payload, now);
        self.apply(to, actions);
    }

    /// Runs one event (earliest of in-flight delivery or timer). Returns
    /// false when nothing is pending.
    pub fn step(&mut self) -> bool {
        // Earliest flight delivery.
        let flight_next = self
            .flight
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| (f.deliver_at, f.seq))
            .map(|(i, f)| (f.deliver_at, i));
        // Earliest timer on either side.
        let timer_next = |ep: &Endpoint, side: Side| {
            ep.timers
                .iter()
                .copied()
                .min_by_key(|&(t, _)| t)
                .map(|(t, k)| (t, side, k))
        };
        let ta = timer_next(&self.a, Side::A);
        let tb = timer_next(&self.b, Side::B);
        let earliest_timer = [ta, tb].into_iter().flatten().min_by_key(|&(t, _, _)| t);

        let take_flight = match (flight_next, earliest_timer) {
            (None, None) => return false,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((ft, _)), Some((tt, _, _))) => ft <= tt,
        };
        if take_flight {
            let (ft, idx) = flight_next.expect("chosen above");
            let seg = self.flight.swap_remove(idx);
            self.now = self.now.max(ft);
            self.deliver(seg.to, seg.bytes);
        } else {
            let (tt, side, kind) = earliest_timer.expect("chosen above");
            self.now = self.now.max(tt);
            let ep = self.ep_mut(side);
            ep.timers.retain(|&(_, k)| k != kind);
            if let Some(tcb) = ep.tcb.as_mut() {
                let actions = tcb.on_timer(kind, tt);
                self.apply(side, actions);
            }
        }
        true
    }

    /// Runs until idle or `max_steps` events. Returns true if it idled.
    pub fn run(&mut self, max_steps: usize) -> bool {
        for _ in 0..max_steps {
            if !self.step() {
                return true;
            }
        }
        false
    }

    /// Runs until `pred` holds or `max_steps` events pass; true on success.
    pub fn run_until(&mut self, max_steps: usize, mut pred: impl FnMut(&Loopback) -> bool) -> bool {
        for _ in 0..max_steps {
            if pred(self) {
                return true;
            }
            if !self.step() {
                return pred(self);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_completes_on_clean_channel() {
        let mut lb = Loopback::new(
            TcpConfig::default(),
            TcpConfig::default(),
            ChannelModel::clean(),
        );
        assert!(lb.run_until(100, |lb| {
            lb.state(Side::A) == State::Established && lb.state(Side::B) == State::Established
        }));
        assert!(lb.events(Side::A).connected);
        assert!(lb.events(Side::B).connected);
    }

    #[test]
    fn small_transfer_both_directions() {
        let mut lb = Loopback::new(
            TcpConfig::default(),
            TcpConfig::default(),
            ChannelModel::clean(),
        );
        lb.run_until(100, |lb| lb.state(Side::A) == State::Established);
        lb.send(Side::A, b"hello from A");
        lb.send(Side::B, b"hi from B");
        assert!(
            lb.run_until(1000, |lb| lb.received(Side::B) == b"hello from A"
                && lb.received(Side::A) == b"hi from B")
        );
    }

    #[test]
    fn orderly_close_reaches_time_wait_and_closed() {
        let mut lb = Loopback::new(
            TcpConfig::default(),
            TcpConfig::default(),
            ChannelModel::clean(),
        );
        lb.run_until(100, |lb| lb.state(Side::A) == State::Established);
        lb.send(Side::A, b"bye");
        lb.close(Side::A);
        // B reads the data, sees EOF, closes too.
        assert!(lb.run_until(1000, |lb| lb.events(Side::B).peer_closed));
        lb.close(Side::B);
        // A entered TIME_WAIT; B should fully close on A's final ACK.
        assert!(lb.run_until(1000, |lb| lb.state(Side::B) == State::Closed
            && lb.state(Side::A) == State::TimeWait));
        // 2MSL later A closes too.
        assert!(lb.run_until(1000, |lb| lb.state(Side::A) == State::Closed));
        assert_eq!(lb.received(Side::B), b"bye");
    }
}
