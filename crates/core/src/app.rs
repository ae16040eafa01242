//! The application model and canned workload applications.
//!
//! Applications are event-driven: the hosting organization invokes the
//! [`AppLogic`] callbacks (charging the org-appropriate boundary cost for
//! each crossing) and executes the returned [`AppOp`]s. Workload apps share
//! a [`TransferStats`] cell with the experiment harness so measurements can
//! be read out after the run.

use std::cell::RefCell;
use std::rc::Rc;

/// Nanoseconds.
pub type Nanos = u64;

/// What an application asks its protocol library to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppOp {
    /// Write bytes to the connection (the library queues what the send
    /// buffer cannot take and drains it as space frees).
    Send(Vec<u8>),
    /// Close the send direction once queued data drains.
    Close,
    /// Abort with RST.
    Abort,
}

/// Read-only context handed to app callbacks.
#[derive(Debug, Clone, Copy)]
pub struct AppView {
    /// Current simulated time.
    pub now: Nanos,
    /// Free space in the connection's send buffer.
    pub send_space: usize,
    /// Bytes the library still holds queued on the app's behalf.
    pub pending_tx: usize,
    /// Remote (address, port) of the connection, when known.
    pub remote: Option<(unp_wire::Ipv4Addr, u16)>,
}

/// An event-driven application bound to one connection.
pub trait AppLogic {
    /// The connection is established.
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        let _ = view;
        Vec::new()
    }
    /// In-order data arrived (already drained from the receive buffer).
    fn on_data(&mut self, data: &[u8], view: &AppView) -> Vec<AppOp> {
        let _ = (data, view);
        Vec::new()
    }
    /// Send-buffer space freed.
    fn on_send_space(&mut self, view: &AppView) -> Vec<AppOp> {
        let _ = view;
        Vec::new()
    }
    /// The peer closed its direction (EOF).
    fn on_peer_closed(&mut self, view: &AppView) -> Vec<AppOp> {
        let _ = view;
        Vec::new()
    }
    /// The connection was reset or setup failed.
    fn on_reset(&mut self, view: &AppView) {
        let _ = view;
    }
}

/// Shared measurement cell for transfer workloads.
#[derive(Debug, Default)]
pub struct TransferStats {
    /// Bytes received so far (sink side).
    pub bytes_received: u64,
    /// Time of the first byte's arrival.
    pub first_byte_at: Option<Nanos>,
    /// Time of the most recent byte's arrival.
    pub last_byte_at: Option<Nanos>,
    /// Time `on_connected` fired.
    pub connected_at: Option<Nanos>,
    /// Completed request/response round-trip times.
    pub rtts: Vec<Nanos>,
    /// True once the peer closed.
    pub peer_closed: bool,
    /// True if the connection was reset.
    pub reset: bool,
}

impl TransferStats {
    /// A fresh shared cell.
    pub fn new_shared() -> Rc<RefCell<TransferStats>> {
        Rc::new(RefCell::new(TransferStats::default()))
    }

    /// Payload throughput in bits/s between first and last byte.
    pub fn throughput_bps(&self) -> Option<f64> {
        let (first, last) = (self.first_byte_at?, self.last_byte_at?);
        if last <= first || self.bytes_received == 0 {
            return None;
        }
        Some(self.bytes_received as f64 * 8.0 / ((last - first) as f64 / 1e9))
    }

    /// Mean round-trip time in nanoseconds.
    pub fn mean_rtt(&self) -> Option<f64> {
        if self.rtts.is_empty() {
            return None;
        }
        Some(self.rtts.iter().map(|&r| r as f64).sum::<f64>() / self.rtts.len() as f64)
    }
}

/// Writes `total` bytes in `chunk`-sized application writes, then closes.
///
/// The chunk size is the paper's "user packet size" — the unit the
/// application hands to the transport per call, which Tables 2 and 3 vary.
pub struct BulkSender {
    total: u64,
    sent: u64,
    chunk: usize,
    close_when_done: bool,
}

impl BulkSender {
    /// Creates a sender for `total` bytes in `chunk`-byte writes.
    pub fn new(total: u64, chunk: usize) -> BulkSender {
        BulkSender {
            total,
            sent: 0,
            chunk,
            close_when_done: true,
        }
    }

    /// Keeps the connection open after the transfer.
    pub fn without_close(mut self) -> BulkSender {
        self.close_when_done = false;
        self
    }

    fn pump(&mut self, view: &AppView) -> Vec<AppOp> {
        // Keep the library supplied up to a watermark, like a blocking
        // writer that the kernel wakes whenever buffer space frees; the
        // byte pattern is position-dependent so receivers can verify
        // integrity.
        const WATERMARK: usize = 32 * 1024;
        let mut ops = Vec::new();
        let mut queued = 0usize;
        while self.sent < self.total && view.pending_tx + queued < WATERMARK && ops.len() < 256 {
            let n = self.chunk.min((self.total - self.sent) as usize);
            let data: Vec<u8> = (self.sent..self.sent + n as u64)
                .map(|i| (i % 251) as u8)
                .collect();
            self.sent += n as u64;
            queued += n;
            ops.push(AppOp::Send(data));
        }
        if self.sent >= self.total && self.close_when_done {
            ops.push(AppOp::Close);
            self.close_when_done = false;
        }
        ops
    }
}

impl AppLogic for BulkSender {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        self.pump(view)
    }

    fn on_send_space(&mut self, view: &AppView) -> Vec<AppOp> {
        self.pump(view)
    }
}

/// Receives bytes, verifying the [`BulkSender`] pattern, recording timing.
pub struct SinkApp {
    stats: Rc<RefCell<TransferStats>>,
    verify: bool,
    offset: u64,
}

impl SinkApp {
    /// Creates a sink reporting into `stats`.
    pub fn new(stats: Rc<RefCell<TransferStats>>) -> SinkApp {
        SinkApp {
            stats,
            verify: true,
            offset: 0,
        }
    }

    /// Disables pattern verification (for non-BulkSender peers).
    pub fn without_verify(mut self) -> SinkApp {
        self.verify = false;
        self
    }
}

impl AppLogic for SinkApp {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        self.stats.borrow_mut().connected_at = Some(view.now);
        Vec::new()
    }

    fn on_data(&mut self, data: &[u8], view: &AppView) -> Vec<AppOp> {
        if self.verify {
            for &b in data {
                assert_eq!(
                    b,
                    (self.offset % 251) as u8,
                    "stream corrupted at offset {}",
                    self.offset
                );
                self.offset += 1;
            }
        }
        let mut s = self.stats.borrow_mut();
        s.bytes_received += data.len() as u64;
        s.first_byte_at.get_or_insert(view.now);
        s.last_byte_at = Some(view.now);
        Vec::new()
    }

    fn on_peer_closed(&mut self, _view: &AppView) -> Vec<AppOp> {
        self.stats.borrow_mut().peer_closed = true;
        vec![AppOp::Close]
    }

    fn on_reset(&mut self, _view: &AppView) {
        self.stats.borrow_mut().reset = true;
    }
}

/// Echoes everything it receives (the latency test's passive side: "the
/// first application sends data to the second, which in turn, sends the
/// same amount of data back").
pub struct EchoApp;

impl AppLogic for EchoApp {
    fn on_data(&mut self, data: &[u8], _view: &AppView) -> Vec<AppOp> {
        vec![AppOp::Send(data.to_vec())]
    }

    fn on_peer_closed(&mut self, _view: &AppView) -> Vec<AppOp> {
        vec![AppOp::Close]
    }
}

/// The latency test's active side: sends `size` bytes, waits for the same
/// amount back, records the round-trip time, repeats `rounds` times.
pub struct PingPongApp {
    size: usize,
    rounds: usize,
    received_this_round: usize,
    sent_at: Option<Nanos>,
    stats: Rc<RefCell<TransferStats>>,
}

impl PingPongApp {
    /// Creates the pinger.
    pub fn new(size: usize, rounds: usize, stats: Rc<RefCell<TransferStats>>) -> PingPongApp {
        PingPongApp {
            size,
            rounds,
            received_this_round: 0,
            sent_at: None,
            stats,
        }
    }

    fn ping(&mut self, now: Nanos) -> Vec<AppOp> {
        self.sent_at = Some(now);
        self.received_this_round = 0;
        vec![AppOp::Send(vec![0x42; self.size])]
    }
}

impl AppLogic for PingPongApp {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        self.stats.borrow_mut().connected_at = Some(view.now);
        if self.rounds == 0 {
            return vec![AppOp::Close];
        }
        self.ping(view.now)
    }

    fn on_data(&mut self, data: &[u8], view: &AppView) -> Vec<AppOp> {
        self.received_this_round += data.len();
        if self.received_this_round < self.size {
            return Vec::new();
        }
        let rtt = view.now - self.sent_at.expect("pong implies ping");
        self.stats.borrow_mut().rtts.push(rtt);
        self.rounds -= 1;
        if self.rounds == 0 {
            vec![AppOp::Close]
        } else {
            self.ping(view.now)
        }
    }

    fn on_reset(&mut self, _view: &AppView) {
        self.stats.borrow_mut().reset = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(now: Nanos) -> AppView {
        AppView {
            now,
            send_space: 16384,
            pending_tx: 0,
            remote: None,
        }
    }

    #[test]
    fn bulk_sender_emits_total_and_closes() {
        let mut s = BulkSender::new(10_000, 4096);
        let mut sent = 0usize;
        let mut closed = false;
        let mut ops = s.on_connected(&view(0));
        loop {
            let mut progressed = false;
            for op in ops.drain(..) {
                match op {
                    AppOp::Send(d) => {
                        sent += d.len();
                        progressed = true;
                    }
                    AppOp::Close => closed = true,
                    AppOp::Abort => panic!("no abort"),
                }
            }
            if closed || !progressed {
                break;
            }
            ops = s.on_send_space(&view(1));
        }
        assert_eq!(sent, 10_000);
        assert!(closed);
    }

    #[test]
    fn sink_verifies_pattern_and_records() {
        let stats = TransferStats::new_shared();
        let mut sink = SinkApp::new(Rc::clone(&stats));
        let data: Vec<u8> = (0..500u64).map(|i| (i % 251) as u8).collect();
        sink.on_data(&data[..250], &view(100));
        sink.on_data(&data[250..], &view(200));
        let s = stats.borrow();
        assert_eq!(s.bytes_received, 500);
        assert_eq!(s.first_byte_at, Some(100));
        assert_eq!(s.last_byte_at, Some(200));
    }

    #[test]
    #[should_panic(expected = "stream corrupted")]
    fn sink_detects_corruption() {
        let stats = TransferStats::new_shared();
        let mut sink = SinkApp::new(stats);
        sink.on_data(&[0, 1, 99], &view(0));
    }

    #[test]
    fn ping_pong_measures_rtts() {
        let stats = TransferStats::new_shared();
        let mut p = PingPongApp::new(100, 2, Rc::clone(&stats));
        let ops = p.on_connected(&view(0));
        assert!(matches!(&ops[0], AppOp::Send(d) if d.len() == 100));
        // Pong arrives split across two deliveries at t=500.
        assert!(p.on_data(&[0; 60], &view(400)).is_empty());
        let ops = p.on_data(&[0; 40], &view(500));
        assert!(matches!(&ops[0], AppOp::Send(_)));
        let ops = p.on_data(&[0; 100], &view(900));
        assert_eq!(ops, vec![AppOp::Close]);
        assert_eq!(stats.borrow().rtts, vec![500, 400]);
    }

    #[test]
    fn throughput_computation() {
        let stats = TransferStats::new_shared();
        {
            let mut s = stats.borrow_mut();
            s.bytes_received = 1_000_000;
            s.first_byte_at = Some(0);
            s.last_byte_at = Some(1_000_000_000);
        }
        let bps = stats.borrow().throughput_bps().unwrap();
        assert!((bps - 8_000_000.0).abs() < 1.0);
    }
}
