//! The benchmark's own applications.
//!
//! The stock `unp_core` apps compute `(i % 251)` per byte on both sides and
//! keep every round-trip time in a growing vector — fine for a 2 MB table
//! cell, but at 250 MB that arithmetic is a visible share of the run and the
//! numbers stop measuring the stack. These apps fill each write with one
//! `memcpy` out of a pre-built seeded buffer, verify with one slice compare,
//! hold O(1) state, and never panic: a mismatch or a reset is counted in the
//! shared [`Tally`] and surfaces as a failed operation.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use unp_core::{AppLogic, AppOp, AppView};

use crate::span::{AppTimer, Callback};

/// An operation on the bulk workloads: one verified block of this many bytes.
pub const BLOCK: u64 = 64 * 1024;

/// SplitMix64: the benchmark's only source of randomness, so `--seed` fully
/// determines every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seeded byte stream every payload is cut from.
///
/// Stream position `p` carries `bytes[p % LEN]`. `LEN` is prime, so no
/// 64 KiB block, 4096-byte write or 1460-byte segment boundary ever lines up
/// with the period and a shifted, repeated or swapped stretch of the stream
/// cannot compare equal. The first [`Pattern::WRAP`] bytes are repeated past
/// the end so any window of that size is one contiguous slice.
pub struct Pattern {
    bytes: Vec<u8>,
}

impl Pattern {
    /// Stream period in bytes (2²⁰ + 7, prime).
    pub const LEN: usize = 1_048_583;
    /// Largest contiguous window [`Pattern::window`] can return.
    pub const WRAP: usize = 64 * 1024;

    /// Builds the stream for `seed`.
    pub fn new(seed: u64) -> Pattern {
        let mut rng = Rng::new(seed);
        let mut bytes = Vec::with_capacity(Self::LEN + Self::WRAP + 8);
        while bytes.len() < Self::LEN {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.truncate(Self::LEN);
        bytes.extend_from_within(..Self::WRAP);
        Pattern { bytes }
    }

    /// The `len` stream bytes starting at position `pos` (`len <= WRAP`).
    pub fn window(&self, pos: u64, len: usize) -> &[u8] {
        let at = (pos % Self::LEN as u64) as usize;
        &self.bytes[at..at + len]
    }

    /// Where flow `flow` of the host with address `10.0.0.<octet>` starts in
    /// the stream, so concurrent flows carry different bytes and a sink can
    /// work out what to expect from the peer address it is shown.
    pub fn flow_start(octet: u8, flow: u8) -> u64 {
        (u64::from(octet) * 16 + u64::from(flow)) * 104_729
    }
}

/// Walks the stream, checking received bytes against it.
struct Cursor {
    pattern: Rc<Pattern>,
    pos: u64,
}

impl Cursor {
    /// True when `data` continues the stream; advances past it.
    fn check(&mut self, data: &[u8]) -> bool {
        for piece in data.chunks(Pattern::WRAP) {
            if piece != self.pattern.window(self.pos, piece.len()) {
                return false;
            }
            self.pos += piece.len() as u64;
        }
        true
    }
}

/// What the apps of one workload instance report back to the harness.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations completed and verified.
    pub ops_done: Cell<u64>,
    /// Application payload bytes that compared equal at a receiver.
    pub bytes_verified: Cell<u64>,
    /// Receives that did not match the stream.
    pub mismatches: Cell<u64>,
    /// Connections reset or refused.
    pub resets: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// What every app carries: the stream, the shared tally, the span timer.
#[derive(Clone)]
pub struct AppCtx {
    /// The seeded stream.
    pub pattern: Rc<Pattern>,
    /// Where results are counted.
    pub tally: Rc<Tally>,
    /// Times callbacks in the traced run; a no-op otherwise.
    pub timer: AppTimer,
}

/// Writes `total` stream bytes in `chunk`-byte writes, then closes.
pub struct PatternSender {
    ctx: AppCtx,
    pos: u64,
    remaining: u64,
    chunk: usize,
    closed: bool,
}

impl PatternSender {
    /// A sender of `total` bytes starting at stream position `start`.
    pub fn new(ctx: AppCtx, start: u64, total: u64, chunk: usize) -> PatternSender {
        assert!(chunk <= Pattern::WRAP);
        PatternSender {
            ctx,
            pos: start,
            remaining: total,
            chunk,
            closed: false,
        }
    }

    /// Keeps the library supplied up to a watermark, like a blocking writer
    /// woken whenever buffer space frees (the stock `BulkSender` policy).
    fn pump(&mut self, view: &AppView) -> Vec<AppOp> {
        const WATERMARK: usize = 32 * 1024;
        let mut ops = Vec::new();
        let mut queued = 0usize;
        while self.remaining > 0 && view.pending_tx + queued < WATERMARK && ops.len() < 256 {
            let n = (self.chunk as u64).min(self.remaining) as usize;
            ops.push(AppOp::Send(self.ctx.pattern.window(self.pos, n).to_vec()));
            self.pos += n as u64;
            self.remaining -= n as u64;
            queued += n;
        }
        if self.remaining == 0 && !self.closed {
            self.closed = true;
            ops.push(AppOp::Close);
        }
        ops
    }
}

impl AppLogic for PatternSender {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        let t = self.ctx.timer.start();
        let ops = self.pump(view);
        self.ctx.timer.stop(Callback::Connected, t);
        ops
    }

    fn on_send_space(&mut self, view: &AppView) -> Vec<AppOp> {
        let t = self.ctx.timer.start();
        let ops = self.pump(view);
        self.ctx.timer.stop(Callback::SendSpace, t);
        ops
    }

    fn on_reset(&mut self, _view: &AppView) {
        bump(&self.ctx.tally.resets, 1);
    }
}

/// Receives a [`PatternSender`]'s stream, crediting one operation per
/// verified [`BLOCK`].
pub struct VerifyingSink {
    ctx: AppCtx,
    flow: u8,
    cursor: Option<Cursor>,
    received: u64,
    credited: u64,
}

impl VerifyingSink {
    /// A sink for the stream of flow `flow` of whichever host connects.
    pub fn new(ctx: AppCtx, flow: u8) -> VerifyingSink {
        VerifyingSink {
            ctx,
            flow,
            cursor: None,
            received: 0,
            credited: 0,
        }
    }

    fn take(&mut self, data: &[u8]) {
        let Some(cursor) = self.cursor.as_mut() else {
            return;
        };
        if !cursor.check(data) {
            // Everything after a mismatch is suspect: stop crediting.
            bump(&self.ctx.tally.mismatches, 1);
            self.cursor = None;
            return;
        }
        self.received += data.len() as u64;
        bump(&self.ctx.tally.bytes_verified, data.len() as u64);
        let blocks = self.received / BLOCK;
        bump(&self.ctx.tally.ops_done, blocks - self.credited);
        self.credited = blocks;
    }
}

impl AppLogic for VerifyingSink {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        let octet = view.remote.map_or(0, |(ip, _)| ip.0[3]);
        self.cursor = Some(Cursor {
            pattern: Rc::clone(&self.ctx.pattern),
            pos: Pattern::flow_start(octet, self.flow),
        });
        Vec::new()
    }

    fn on_data(&mut self, data: &[u8], _view: &AppView) -> Vec<AppOp> {
        let t = self.ctx.timer.start();
        self.take(data);
        self.ctx.timer.stop(Callback::Data, t);
        Vec::new()
    }

    fn on_peer_closed(&mut self, _view: &AppView) -> Vec<AppOp> {
        vec![AppOp::Close]
    }

    fn on_reset(&mut self, _view: &AppView) {
        bump(&self.ctx.tally.resets, 1);
    }
}

/// Sends the stream one `size`-byte ping at a time, each after the echo of
/// the one before; an operation is one verified round trip.
pub struct PingPong {
    ctx: AppCtx,
    size: usize,
    rounds_left: u64,
    next: u64,
    echo: Cursor,
    got: usize,
}

impl PingPong {
    /// A pinger of `rounds` exchanges of `size` bytes from stream position
    /// `start`.
    pub fn new(ctx: AppCtx, start: u64, size: usize, rounds: u64) -> PingPong {
        assert!(size > 0 && size <= Pattern::WRAP);
        let echo = Cursor {
            pattern: Rc::clone(&ctx.pattern),
            pos: start,
        };
        PingPong {
            ctx,
            size,
            rounds_left: rounds,
            next: start,
            echo,
            got: 0,
        }
    }

    fn ping(&mut self) -> Vec<AppOp> {
        if self.rounds_left == 0 {
            return vec![AppOp::Close];
        }
        let data = self.ctx.pattern.window(self.next, self.size).to_vec();
        self.next += self.size as u64;
        self.got = 0;
        vec![AppOp::Send(data)]
    }

    fn pong(&mut self, data: &[u8]) -> Vec<AppOp> {
        if self.rounds_left == 0 {
            return Vec::new();
        }
        if self.got + data.len() > self.size || !self.echo.check(data) {
            bump(&self.ctx.tally.mismatches, 1);
            self.rounds_left = 0;
            return vec![AppOp::Close];
        }
        self.got += data.len();
        if self.got < self.size {
            return Vec::new();
        }
        bump(&self.ctx.tally.ops_done, 1);
        bump(&self.ctx.tally.bytes_verified, self.size as u64);
        self.rounds_left -= 1;
        self.ping()
    }
}

impl AppLogic for PingPong {
    fn on_connected(&mut self, _view: &AppView) -> Vec<AppOp> {
        let t = self.ctx.timer.start();
        let ops = self.ping();
        self.ctx.timer.stop(Callback::Connected, t);
        ops
    }

    fn on_data(&mut self, data: &[u8], _view: &AppView) -> Vec<AppOp> {
        let t = self.ctx.timer.start();
        let ops = self.pong(data);
        self.ctx.timer.stop(Callback::Data, t);
        ops
    }

    fn on_reset(&mut self, _view: &AppView) {
        bump(&self.ctx.tally.resets, 1);
    }
}

/// Sends back whatever arrives. With a stream position it also verifies what
/// arrives against the stream (the `rr` server, whose peer sends the stream
/// in order); without one it is a plain echo (the `churn` server, whose
/// requests start anywhere in the stream).
pub struct Echo {
    ctx: AppCtx,
    verify: Option<Cursor>,
}

impl Echo {
    /// An echo that verifies the stream from `start`, or just echoes.
    pub fn new(ctx: AppCtx, start: Option<u64>) -> Echo {
        let verify = start.map(|pos| Cursor {
            pattern: Rc::clone(&ctx.pattern),
            pos,
        });
        Echo { ctx, verify }
    }

    fn echo(&mut self, data: &[u8]) -> Vec<AppOp> {
        if let Some(cursor) = self.verify.as_mut() {
            if cursor.check(data) {
                bump(&self.ctx.tally.bytes_verified, data.len() as u64);
            } else {
                bump(&self.ctx.tally.mismatches, 1);
                self.verify = None;
            }
        }
        vec![AppOp::Send(data.to_vec())]
    }
}

impl AppLogic for Echo {
    fn on_data(&mut self, data: &[u8], _view: &AppView) -> Vec<AppOp> {
        let t = self.ctx.timer.start();
        let ops = self.echo(data);
        self.ctx.timer.stop(Callback::Data, t);
        ops
    }

    fn on_peer_closed(&mut self, _view: &AppView) -> Vec<AppOp> {
        vec![AppOp::Close]
    }

    fn on_reset(&mut self, _view: &AppView) {
        bump(&self.ctx.tally.resets, 1);
    }
}

/// Clients whose connection has ended, for the `churn` launcher to restart.
pub type ReadyQueue = Rc<RefCell<Vec<usize>>>;

/// One `churn` connection: connect, send one request, verify its echo,
/// close, wait for the peer's close. An operation is all of that; the
/// harness separately checks that every channel was reclaimed.
pub struct OneShot {
    ctx: AppCtx,
    client: usize,
    ready: ReadyQueue,
    start: u64,
    len: usize,
    echo: Cursor,
    got: usize,
    echoed: bool,
    finished: bool,
}

impl OneShot {
    /// A connection of client `client` whose request is the `len` stream
    /// bytes at `start`.
    pub fn new(ctx: AppCtx, client: usize, ready: ReadyQueue, start: u64, len: usize) -> OneShot {
        assert!(len > 0 && len <= Pattern::WRAP);
        let echo = Cursor {
            pattern: Rc::clone(&ctx.pattern),
            pos: start,
        };
        OneShot {
            ctx,
            client,
            ready,
            start,
            len,
            echo,
            got: 0,
            echoed: false,
            finished: false,
        }
    }

    /// Hands the client back to the launcher, once.
    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.ready.borrow_mut().push(self.client);
        }
    }

    fn reply(&mut self, data: &[u8]) -> Vec<AppOp> {
        if self.echoed || self.got + data.len() > self.len || !self.echo.check(data) {
            bump(&self.ctx.tally.mismatches, 1);
            self.echoed = false;
            self.finish();
            return vec![AppOp::Abort];
        }
        self.got += data.len();
        if self.got < self.len {
            return Vec::new();
        }
        self.echoed = true;
        vec![AppOp::Close]
    }
}

impl AppLogic for OneShot {
    fn on_connected(&mut self, _view: &AppView) -> Vec<AppOp> {
        let t = self.ctx.timer.start();
        let request = self.ctx.pattern.window(self.start, self.len).to_vec();
        self.ctx.timer.stop(Callback::Connected, t);
        vec![AppOp::Send(request)]
    }

    fn on_data(&mut self, data: &[u8], _view: &AppView) -> Vec<AppOp> {
        let t = self.ctx.timer.start();
        let ops = self.reply(data);
        self.ctx.timer.stop(Callback::Data, t);
        ops
    }

    fn on_peer_closed(&mut self, _view: &AppView) -> Vec<AppOp> {
        if self.echoed && !self.finished {
            bump(&self.ctx.tally.ops_done, 1);
            bump(&self.ctx.tally.bytes_verified, self.len as u64);
        }
        self.finish();
        Vec::new()
    }

    fn on_reset(&mut self, _view: &AppView) {
        bump(&self.ctx.tally.resets, 1);
        self.finish();
    }
}
