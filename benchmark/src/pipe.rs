//! Two TCBs joined back to back: the `tcp` layer's probe.
//!
//! `unp_tcp::loopback::Loopback` is the crate's own two-endpoint harness, but
//! it serialises every segment to wire bytes and back, and its writer
//! re-collects up to 4096 queued bytes one at a time on every write attempt
//! — about 2.5 µs of harness per 1460-byte segment against roughly 1 µs of
//! TCP. This pipe hands `TcpAction::Send`'s header and payload straight to the
//! peer's `on_segment`, so what it times is `Tcb::{send, on_segment, recv,
//! on_timer, close}` and a few queue operations. Delivery is instantaneous and
//! in order; a timer fires only when nothing is in flight, and the clock
//! jumps to its deadline. Loss is a fixed drop of every n-th segment, enough
//! to drive out-of-order reassembly, fast retransmit and the RTO.

use std::collections::VecDeque;

use unp_tcp::{ListenTcb, State, Tcb, TcpAction, TcpConfig, TcpTimer};
use unp_wire::{Ipv4Addr, TcpRepr};

const A: usize = 0;
const B: usize = 1;
const ADDR: [(Ipv4Addr, u16); 2] = [
    (Ipv4Addr::new(10, 0, 0, 2), 40_000),
    (Ipv4Addr::new(10, 0, 0, 1), 80),
];
/// What every write is cut from; contents do not matter to TCP.
static ZEROS: [u8; 4096] = [0; 4096];

/// What the two applications on the pipe do.
#[derive(Debug, Clone, Copy)]
pub enum Script {
    /// A writes `total` bytes in `write`-byte writes; B reads them.
    Stream { total: u64, write: usize },
    /// A writes one byte, B echoes it, `rounds` times.
    PingPong { rounds: u64 },
    /// A writes `len` bytes, B echoes them, A closes, B closes.
    OneShot { len: u64 },
}

/// The two endpoints and what is in flight between them.
pub struct Pipe {
    script: Script,
    listener: ListenTcb,
    ends: [Option<Tcb>; 2],
    /// Segments in flight: destination, header, payload.
    queue: VecDeque<(usize, TcpRepr, Vec<u8>)>,
    timers: [Vec<(TcpTimer, u64)>; 2],
    now: u64,
    /// Bytes each end still has to write.
    want: [u64; 2],
    write: usize,
    received: [u64; 2],
    pings_left: u64,
    drop_every: Option<u64>,
    /// Segments either end handed to the pipe, dropped ones included.
    pub segments: u64,
}

impl Pipe {
    /// Opens the connection (the SYN is in flight) with A about to follow
    /// `script`. With `drop_every = Some(n)` every n-th segment is lost.
    pub fn new(script: Script, cfg: TcpConfig, drop_every: Option<u64>) -> Pipe {
        let (tcb, actions) = Tcb::connect(ADDR[A], ADDR[B], cfg.clone(), 1_000, 0);
        let (want_a, write, pings_left) = match script {
            Script::Stream { total, write } => (total, write.min(ZEROS.len()), 0),
            Script::PingPong { rounds } => (1, 1, rounds),
            Script::OneShot { len } => (len, ZEROS.len(), 0),
        };
        let mut pipe = Pipe {
            script,
            listener: ListenTcb::new(ADDR[B], cfg),
            ends: [Some(tcb), None],
            queue: VecDeque::new(),
            timers: [Vec::new(), Vec::new()],
            now: 0,
            want: [want_a, 0],
            write,
            received: [0, 0],
            pings_left,
            drop_every,
            segments: 0,
        };
        pipe.apply(A, actions);
        pipe
    }

    /// Runs until the script is finished or nothing more can happen.
    /// Returns true when the script finished.
    pub fn run(&mut self) -> bool {
        while !self.finished() {
            if !self.step() {
                return false;
            }
        }
        true
    }

    fn finished(&self) -> bool {
        match self.script {
            Script::Stream { total, .. } => self.received[B] == total,
            Script::PingPong { rounds } => self.received[A] == rounds,
            Script::OneShot { .. } => {
                let a_saw_fin = self.ends[A].as_ref().is_some_and(Tcb::at_eof);
                let b_closed = self.ends[B]
                    .as_ref()
                    .is_some_and(|tcb| tcb.state() == State::Closed);
                a_saw_fin && b_closed
            }
        }
    }

    /// Delivers the next segment, or — with nothing in flight — fires the
    /// earliest timer. False when neither exists.
    fn step(&mut self) -> bool {
        if let Some((to, repr, payload)) = self.queue.pop_front() {
            let actions = match self.ends[to].as_mut() {
                Some(tcb) => tcb.on_segment(&repr, &payload, self.now),
                None => match self.listener.on_syn(ADDR[A], &repr, 7_000, self.now) {
                    Some((tcb, actions)) => {
                        self.ends[to] = Some(tcb);
                        actions
                    }
                    None => Vec::new(),
                },
            };
            self.apply(to, actions);
            return true;
        }
        let earliest = (0..2)
            .flat_map(|end| {
                self.timers[end]
                    .iter()
                    .map(move |&(kind, at)| (at, end, kind))
            })
            .min_by_key(|&(at, end, _)| (at, end));
        let Some((at, end, kind)) = earliest else {
            return false;
        };
        self.now = self.now.max(at);
        self.timers[end].retain(|&(k, _)| k != kind);
        if let Some(tcb) = self.ends[end].as_mut() {
            let actions = tcb.on_timer(kind, self.now);
            self.apply(end, actions);
        }
        true
    }

    fn apply(&mut self, end: usize, actions: Vec<TcpAction>) {
        for action in actions {
            match action {
                TcpAction::Send(repr, payload) => {
                    self.segments += 1;
                    if self
                        .drop_every
                        .is_none_or(|n| !self.segments.is_multiple_of(n))
                    {
                        self.queue.push_back((1 - end, repr, payload));
                    }
                }
                TcpAction::SetTimer(kind, at) => {
                    self.timers[end].retain(|&(k, _)| k != kind);
                    self.timers[end].push((kind, at));
                }
                TcpAction::CancelTimer(kind) => self.timers[end].retain(|&(k, _)| k != kind),
                TcpAction::Connected | TcpAction::SendSpace => self.pump(end),
                TcpAction::DataAvailable => self.read(end),
                TcpAction::PeerClosed => {
                    if end == B {
                        self.close(B);
                    }
                }
                TcpAction::ConnClosed => self.timers[end].clear(),
                TcpAction::Reset => {}
            }
        }
    }

    /// Writes as much of what `end` still wants to write as TCP accepts.
    fn pump(&mut self, end: usize) {
        while self.want[end] > 0 {
            let n = self.want[end].min(self.write as u64) as usize;
            let Some(tcb) = self.ends[end].as_mut() else {
                return;
            };
            match tcb.send(&ZEROS[..n], self.now) {
                Ok((0, actions)) => {
                    self.apply(end, actions);
                    return;
                }
                Ok((took, actions)) => {
                    self.want[end] -= took as u64;
                    self.apply(end, actions);
                }
                Err(_) => return,
            }
        }
    }

    /// Drains what `end` can read and lets the script react to it.
    fn read(&mut self, end: usize) {
        loop {
            let Some(tcb) = self.ends[end].as_mut() else {
                return;
            };
            let (data, actions) = tcb.recv(usize::MAX, self.now);
            self.apply(end, actions);
            if data.is_empty() {
                return;
            }
            let n = data.len() as u64;
            self.received[end] += n;
            match (self.script, end) {
                (Script::Stream { .. }, _) => {}
                // B echoes whatever it reads.
                (_, B) => {
                    self.want[B] += n;
                    self.pump(B);
                }
                (Script::PingPong { .. }, _) => {
                    self.pings_left = self.pings_left.saturating_sub(1);
                    if self.pings_left > 0 {
                        self.want[A] += 1;
                        self.pump(A);
                    }
                }
                (Script::OneShot { len }, _) => {
                    if self.received[A] == len {
                        self.close(A);
                    }
                }
            }
        }
    }

    fn close(&mut self, end: usize) {
        if let Some(tcb) = self.ends[end].as_mut() {
            if let Ok(actions) = tcb.close(self.now) {
                self.apply(end, actions);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_arrives_whole_with_and_without_loss() {
        for drop_every in [None, Some(50)] {
            let script = Script::Stream {
                total: 300_000,
                write: 512,
            };
            let mut pipe = Pipe::new(script, TcpConfig::bulk_transfer(), drop_every);
            assert!(pipe.run(), "stream stalled with loss {drop_every:?}");
            // 300 kB is at least 206 full segments, plus handshake and ACKs.
            assert!(pipe.segments > 206);
        }
    }

    #[test]
    fn ping_pong_makes_every_round_trip() {
        let mut pipe = Pipe::new(Script::PingPong { rounds: 100 }, TcpConfig::default(), None);
        assert!(pipe.run());
        assert_eq!(pipe.received, [100, 100]);
    }

    #[test]
    fn one_shot_echoes_and_closes_both_ways() {
        let mut pipe = Pipe::new(Script::OneShot { len: 80 }, TcpConfig::default(), None);
        assert!(pipe.run());
        assert_eq!(pipe.received, [80, 80]);
        // SYN, SYN-ACK, ACK, data, echo, FIN, FIN, and their ACKs.
        assert!(
            (7..=12).contains(&pipe.segments),
            "{} segments",
            pipe.segments
        );
    }
}
