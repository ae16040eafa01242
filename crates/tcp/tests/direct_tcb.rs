//! Direct TCB tests: hand-driven segment exchanges for behaviours the
//! loopback harness doesn't isolate — simultaneous open, zero-window
//! persist probing, window-update gating, and congestion-window dynamics.

mod scripts;

use scripts::{deliver, established, sends, A, B, ISS_A, ISS_B};
use unp_tcp::{CongestionControl, State, Tcb, TcpAction, TcpConfig, TcpTimer};
use unp_wire::{SeqNum, TcpRepr};

const MS: u64 = 1_000_000;

#[test]
fn simultaneous_open_establishes_both_sides() {
    // Both endpoints actively connect to each other at once (RFC 793 §3.4
    // figure 8). The SYNs cross; both go SYN_SENT → SYN_RECEIVED →
    // ESTABLISHED.
    let (mut a, syn_a) = Tcb::connect(A, B, TcpConfig::default(), ISS_A, 0);
    let (mut b, syn_b) = Tcb::connect(B, A, TcpConfig::default(), ISS_B, 0);
    assert_eq!(a.state(), State::SynSent);
    assert_eq!(b.state(), State::SynSent);

    // Cross-deliver the SYNs: each side answers SYN|ACK.
    let synack_from_a = deliver(&mut a, &syn_b, MS);
    let synack_from_b = deliver(&mut b, &syn_a, MS);
    assert_eq!(a.state(), State::SynReceived);
    assert_eq!(b.state(), State::SynReceived);
    assert!(sends(&synack_from_a)[0].0.flags.syn && sends(&synack_from_a)[0].0.flags.ack);

    // Cross-deliver the SYN|ACKs. Their sequence numbers predate the
    // already-consumed SYNs, so per RFC 793 each side answers with a
    // plain re-ACK (still SYN_RECEIVED)...
    let reack_a = deliver(&mut a, &synack_from_b, 2 * MS);
    let reack_b = deliver(&mut b, &synack_from_a, 2 * MS);
    assert_eq!(a.state(), State::SynReceived);
    assert!(
        !sends(&reack_a).is_empty(),
        "must re-ACK the crossed SYN|ACK"
    );

    // ...and those ACKs complete the handshake on both sides.
    let done_a = deliver(&mut a, &reack_b, 3 * MS);
    let done_b = deliver(&mut b, &reack_a, 3 * MS);
    assert_eq!(a.state(), State::Established);
    assert_eq!(b.state(), State::Established);
    assert!(done_a.iter().any(|x| matches!(x, TcpAction::Connected)));
    assert!(done_b.iter().any(|x| matches!(x, TcpAction::Connected)));
}

#[test]
fn zero_window_triggers_persist_probe_and_recovers() {
    // Immediate ACKs so the probe's acknowledgment isn't delayed.
    let (mut a, mut b) = established(&TcpConfig::low_latency(), MS);
    // B slams its window shut (simulate by delivering a window update of 0).
    let (hdr, _) = sends(&b.on_timer(TcpTimer::DelayedAck, 2 * MS))
        .first()
        .cloned()
        .unwrap_or((
            TcpRepr {
                src_port: 200,
                dst_port: 100,
                seq: SeqNum(9001),
                ack_num: SeqNum(1001),
                flags: unp_wire::TcpFlags::ack(),
                window: 0,
                mss: None,
            },
            Vec::new(),
        ));
    let zero_win = TcpRepr { window: 0, ..hdr };
    a.on_segment(&zero_win, &[], 3 * MS);

    // A queues data; nothing can be sent, so the persist timer arms.
    let (n, actions) = a.send(b"stuck", 3 * MS).unwrap();
    assert_eq!(n, 5);
    assert!(
        actions
            .iter()
            .any(|x| matches!(x, TcpAction::SetTimer(TcpTimer::Persist, _))),
        "persist must arm on a closed window: {actions:?}"
    );
    assert!(sends(&actions).is_empty(), "no data into a zero window");

    // Persist fires: exactly one probe byte goes out.
    let probe_actions = a.on_timer(TcpTimer::Persist, 10 * MS);
    let probes = sends(&probe_actions);
    assert_eq!(probes.len(), 1);
    assert_eq!(probes[0].1, b"stuck"[..1].to_vec());
    assert_eq!(a.stats().probes, 1);

    // B accepts the probe (its real window reopened) and acks; A drains.
    let resp = deliver(&mut b, &probe_actions, 11 * MS);
    let drained = deliver(&mut a, &resp, 12 * MS);
    let rest: Vec<u8> = sends(&drained)
        .iter()
        .flat_map(|(_, p)| p.clone())
        .collect();
    assert_eq!(rest, b"tuck", "remaining bytes flow once the window opens");
}

#[test]
fn window_update_gating_ignores_stale_segments() {
    let (mut a, b) = established(&TcpConfig::default(), MS);
    drop(b);
    // A current ACK advertising a large window.
    let fresh = TcpRepr {
        src_port: 200,
        dst_port: 100,
        seq: SeqNum(9001),
        ack_num: SeqNum(1001),
        flags: unp_wire::TcpFlags::ack(),
        window: 8192,
        mss: None,
    };
    a.on_segment(&fresh, &[], 5 * MS);
    // A stale duplicate (older seq) advertising a tiny window must NOT
    // shrink the send window (RFC 793 wl1/wl2 gating). If it did, the next
    // send would stall below; instead data flows.
    let stale = TcpRepr {
        seq: SeqNum(9000),
        window: 1,
        ..fresh
    };
    a.on_segment(&stale, &[], 6 * MS);
    let (n, actions) = a.send(&vec![7u8; 4000], 7 * MS).unwrap();
    assert_eq!(n, 4000);
    // Two full MSS segments go out immediately (the 1080-byte tail is
    // Nagle-held); a 1-byte stale window would have allowed almost
    // nothing.
    let sent: usize = sends(&actions).iter().map(|(_, p)| p.len()).sum();
    assert!(sent >= 2920, "stale window clamped transmission: {sent}");
}

#[test]
fn slow_start_grows_cwnd_per_ack() {
    let mut cfg = TcpConfig::low_latency(); // immediate ACKs clock the window
    cfg.congestion = CongestionControl::Tahoe;
    let (mut a, mut b) = established(&cfg, MS);

    // With cwnd = 1 MSS, a large write emits exactly one segment.
    let (_, actions) = a.send(&vec![1u8; 8 * 1460], 2 * MS).unwrap();
    assert_eq!(sends(&actions).len(), 1, "slow start begins at one MSS");
    // Each ACK doubles the allowance (1 → 2 → 4 ...).
    let resp = deliver(&mut b, &actions, 3 * MS);
    let burst2 = deliver(&mut a, &resp, 4 * MS);
    assert_eq!(sends(&burst2).len(), 2, "second flight: two segments");
    let resp2 = deliver(&mut b, &burst2, 5 * MS);
    let burst3 = deliver(&mut a, &resp2, 6 * MS);
    assert!(
        sends(&burst3).len() >= 3,
        "third flight grows again: {}",
        sends(&burst3).len()
    );
}

#[test]
fn fin_retransmitted_after_loss() {
    let (mut a, mut b) = established(&TcpConfig::default(), MS);
    let close_actions = a.close(2 * MS).unwrap();
    let fins = sends(&close_actions);
    assert_eq!(fins.len(), 1);
    assert!(fins[0].0.flags.fin);
    assert_eq!(a.state(), State::FinWait1);

    // The FIN is lost; the retransmission timer re-sends it.
    let rexmit = a.on_timer(TcpTimer::Retransmit, 1000 * MS);
    let again = sends(&rexmit);
    assert_eq!(again.len(), 1);
    assert!(again[0].0.flags.fin, "FIN must be retransmitted");
    assert_eq!(again[0].0.seq, fins[0].0.seq, "same sequence number");

    // Deliver it; B acks and moves to CLOSE_WAIT; A reaches FIN_WAIT_2.
    let resp = deliver(&mut b, &rexmit, 1001 * MS);
    assert_eq!(b.state(), State::CloseWait);
    deliver(&mut a, &resp, 1002 * MS);
    assert_eq!(a.state(), State::FinWait2);
}

#[test]
fn time_wait_reacks_retransmitted_fin_and_restarts_2msl() {
    let (mut a, mut b) = established(&TcpConfig::default(), MS);
    // A closes; B acks and closes too; A lands in TIME_WAIT.
    let a_fin = a.close(2 * MS).unwrap();
    let b_resp = deliver(&mut b, &a_fin, 3 * MS);
    deliver(&mut a, &b_resp, 4 * MS);
    let b_fin = b.close(5 * MS).unwrap();
    let a_resp = deliver(&mut a, &b_fin, 6 * MS);
    assert_eq!(a.state(), State::TimeWait);
    deliver(&mut b, &a_resp, 7 * MS);
    assert_eq!(b.state(), State::Closed);

    // B's FIN is retransmitted (its ACK was lost in some other universe):
    // A must re-ACK and restart the quarantine, staying in TIME_WAIT.
    let (fin_repr, fin_payload) = sends(&b_fin)[0].clone();
    let reack = a.on_segment(&fin_repr, &fin_payload, 8 * MS);
    assert!(
        !sends(&reack).is_empty(),
        "retransmitted FIN must be re-ACKed: {reack:?}"
    );
    assert!(reack
        .iter()
        .any(|x| matches!(x, TcpAction::SetTimer(TcpTimer::TimeWait, _))));
    assert_eq!(a.state(), State::TimeWait);

    // 2MSL later the block closes.
    let done = a.on_timer(TcpTimer::TimeWait, 120_000 * MS);
    assert!(done.iter().any(|x| matches!(x, TcpAction::ConnClosed)));
    assert_eq!(a.state(), State::Closed);
}

#[test]
fn data_received_in_close_wait_still_delivered() {
    let (mut a, mut b) = established(&TcpConfig::default(), MS);
    // A sends data + FIN together.
    let (_, data_actions) = a.send(b"last words", 2 * MS).unwrap();
    let fin_actions = a.close(2 * MS).unwrap();
    let mut all = data_actions;
    all.extend(fin_actions);
    let resp = deliver(&mut b, &all, 3 * MS);
    assert_eq!(b.state(), State::CloseWait);
    let (data, _) = b.recv(usize::MAX, 4 * MS);
    assert_eq!(data, b"last words");
    assert!(b.at_eof());
    // B can still send in CLOSE_WAIT (half-close semantics).
    let (n, back) = b.send(b"good bye", 5 * MS).unwrap();
    assert_eq!(n, 8);
    assert!(!sends(&back).is_empty());
    let _ = deliver(&mut a, &resp, 6 * MS);
}

/// The sender's segmentation, written down the straightforward way: the
/// accepted stream is cut front to back into segments no longer than the
/// MSS or the usable window, a short segment waiting while anything is in
/// flight (Nagle, and the window-limited case of sender silly-window
/// avoidance). Positions are stream offsets, not sequence numbers.
struct CutModel {
    mss: usize,
    send_buf: usize,
    nagle: bool,
    /// Peer's advertised window, from the last ACK.
    wnd: usize,
    /// Stream offsets: acknowledged, sent, and accepted from the writer.
    una: usize,
    nxt: usize,
    end: usize,
}

impl CutModel {
    /// The writer offers `offered` bytes; returns how many fit.
    fn accept(&mut self, offered: usize) -> usize {
        let n = offered.min(self.send_buf - (self.end - self.una));
        self.end += n;
        n
    }

    /// An ACK up to stream offset `una`, advertising `wnd`.
    fn on_ack(&mut self, una: usize, wnd: usize) {
        self.una = una;
        self.wnd = wnd;
    }

    /// The `(offset, len, psh)` of every segment that may go out now.
    fn cut(&mut self) -> Vec<(usize, usize, bool)> {
        let mut segs = Vec::new();
        loop {
            let in_flight = self.nxt - self.una;
            let unsent = self.end - self.nxt;
            let len = unsent.min(self.wnd.saturating_sub(in_flight)).min(self.mss);
            let short = len < self.mss && (self.nagle || len < unsent);
            if len == 0 || (short && in_flight > 0) {
                return segs;
            }
            segs.push((self.nxt, len, self.nxt + len == self.end));
            self.nxt += len;
        }
    }
}

mod segmentation {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;

    /// A's initial sequence number (`scripts::ISS_A`), plus the SYN.
    const FIRST_SEQ: u32 = 1001;

    fn pattern(i: usize) -> u8 {
        (i.wrapping_mul(31) ^ (i >> 8)) as u8
    }

    /// Runs `writes` through an established pair in lock step — every
    /// segment is delivered at once and in order, no timer ever fires —
    /// with B reading in `reads`-sized pieces, some straight after a
    /// segment and the rest when the wire falls idle. Every data segment A
    /// emits is checked against `CutModel` as it is emitted.
    fn run(
        writes: &[usize],
        reads: &[usize],
        nagle: bool,
        send_buf: usize,
        recv_buf: usize,
    ) -> Result<(), TestCaseError> {
        let cfg = TcpConfig {
            nagle,
            send_buf,
            recv_buf,
            ..TcpConfig::low_latency()
        };
        let (mut a, mut b) = established(&cfg, MS);
        let stream: Vec<u8> = (0..writes.iter().sum()).map(pattern).collect();
        let mut model = CutModel {
            mss: a.mss(),
            send_buf,
            nagle,
            wnd: recv_buf,
            una: 0,
            nxt: 0,
            end: 0,
        };
        // Segments in flight: (towards B?, header, payload).
        let mut wire: VecDeque<(bool, TcpRepr, Vec<u8>)> = VecDeque::new();
        let mut received = Vec::new();
        let mut reads = reads.iter().copied().cycle();
        let mut write_ends = writes.iter().scan(0, |end, w| {
            *end += w;
            Some(*end)
        });
        let mut write_end = 0;
        let now = 2 * MS;

        // Checks what A just emitted against the model and puts it on the
        // wire.
        let check = |actions: &[TcpAction],
                     model: &mut CutModel,
                     wire: &mut VecDeque<(bool, TcpRepr, Vec<u8>)>|
         -> Result<(), TestCaseError> {
            let emitted = sends(actions);
            let got: Vec<(u32, usize, bool)> = emitted
                .iter()
                .map(|(r, p)| (r.seq.0, p.len(), r.flags.psh))
                .collect();
            let want = model.cut();
            let want_seq: Vec<(u32, usize, bool)> = want
                .iter()
                .map(|&(off, len, psh)| (FIRST_SEQ + off as u32, len, psh))
                .collect();
            prop_assert_eq!(got, want_seq, "(seq, len, psh) of the data segments");
            for (&(off, len, _), (repr, payload)) in want.iter().zip(emitted) {
                prop_assert!(payload[..] == stream[off..off + len], "bytes at {}", off);
                wire.push_back((true, repr, payload));
            }
            Ok(())
        };

        for _ in 0..1_000_000 {
            // The writer: start the next write once the last is wholly
            // accepted, and offer what is left whenever there is room.
            if model.end == write_end {
                match write_ends.next() {
                    Some(end) => write_end = end,
                    None if wire.is_empty() && b.recv_available() == 0 => break,
                    None => {}
                }
            }
            if model.end < write_end && a.send_space() > 0 {
                let (n, actions) = a.send(&stream[model.end..write_end], now).unwrap();
                prop_assert_eq!(n, model.accept(write_end - model.end), "bytes accepted");
                check(&actions, &mut model, &mut wire)?;
            }
            // The wire, then the reader.
            let mut to_read = 0;
            match wire.pop_front() {
                Some((true, repr, payload)) => {
                    let out = b.on_segment(&repr, &payload, now);
                    wire.extend(sends(&out).into_iter().map(|(r, p)| (false, r, p)));
                    to_read = reads.next().unwrap() % 3;
                }
                Some((false, repr, payload)) => {
                    prop_assert!(payload.is_empty(), "B sends no data");
                    model.on_ack((repr.ack_num.0 - FIRST_SEQ) as usize, repr.window as usize);
                    let actions = a.on_segment(&repr, &payload, now);
                    check(&actions, &mut model, &mut wire)?;
                }
                // Idle: drain B, or the window never reopens.
                None => to_read = usize::MAX,
            }
            while to_read > 0 && b.recv_available() > 0 {
                let (data, out) = b.recv(reads.next().unwrap(), now);
                received.extend(data);
                wire.extend(sends(&out).into_iter().map(|(r, p)| (false, r, p)));
                to_read -= 1;
            }
        }
        prop_assert_eq!(model.una, stream.len(), "everything sent and acknowledged");
        prop_assert!(received == stream, "byte stream intact");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Writes of 1 B to 3 × `send_buf` keep the send ring wrapping
        /// under `output`'s range copies; reads that split segments do the
        /// same to the receive ring under `recv`.
        #[test]
        fn segments_are_the_reference_cut_of_the_stream(
            send_buf in prop_oneof![Just(2048usize), Just(4096), Just(16 * 1024)],
            recv_buf in prop_oneof![Just(2048usize), Just(4096), Just(16 * 1024)],
            nagle in proptest::bool::ANY,
            write_fracs in proptest::collection::vec(0.0f64..1.0, 1..8),
            reads in proptest::collection::vec(1usize..4000, 16..17),
        ) {
            // Skewed small, so one-byte and sub-MSS writes are common.
            let writes: Vec<usize> = write_fracs
                .iter()
                .map(|f| 1 + (f.powi(3) * (3 * send_buf - 1) as f64) as usize)
                .collect();
            run(&writes, &reads, nagle, send_buf, recv_buf)?;
        }
    }
}
