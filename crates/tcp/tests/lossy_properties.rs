//! Property-based tests: the TCP invariant that matters — the byte stream
//! delivered equals the byte stream sent, exactly once, in order — must
//! survive loss, duplication, reordering, and corruption.

#![allow(clippy::field_reassign_with_default)] // cfg tweaking reads better this way

use proptest::prelude::*;

use unp_tcp::loopback::{ChannelModel, DirFaults, Loopback, Side};
use unp_tcp::{CongestionControl, State, TcpConfig};

fn transfer_intact(
    data_a: &[u8],
    data_b: &[u8],
    chan: ChannelModel,
    cfg: TcpConfig,
) -> Result<(), String> {
    let mut lb = Loopback::new(cfg.clone(), cfg, chan);
    lb.send(Side::A, data_a);
    lb.send(Side::B, data_b);
    lb.close(Side::A);
    lb.close(Side::B);
    let done = lb.run_until(2_000_000, |lb| {
        lb.received(Side::B).len() == data_a.len()
            && lb.received(Side::A).len() == data_b.len()
            && lb.events(Side::A).peer_closed
            && lb.events(Side::B).peer_closed
    });
    if !done {
        return Err(format!(
            "stalled: B got {}/{} A got {}/{} states {:?}/{:?}",
            lb.received(Side::B).len(),
            data_a.len(),
            lb.received(Side::A).len(),
            data_b.len(),
            lb.state(Side::A),
            lb.state(Side::B),
        ));
    }
    if lb.received(Side::B) != data_a {
        return Err("A→B stream corrupted".into());
    }
    if lb.received(Side::A) != data_b {
        return Err("B→A stream corrupted".into());
    }
    Ok(())
}

/// A one-way transfer under 8 % loss with congestion control `cc`.
fn congestion_intact(seed: u64, cc: CongestionControl, len: usize) -> Result<(), String> {
    let mut cfg = TcpConfig::default();
    cfg.congestion = cc;
    let data: Vec<u8> = (0..len).map(|i| (i as u64 ^ seed) as u8).collect();
    let chan = ChannelModel::lossy(seed, 0.08);
    transfer_intact(&data, &[], chan, cfg)
}

/// A one-way transfer through 1 KiB buffers under 2 % loss.
fn tiny_windows_intact(seed: u64, len: usize) -> Result<(), String> {
    let mut cfg = TcpConfig::default();
    cfg.recv_buf = 1024;
    cfg.send_buf = 1024;
    let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
    let chan = ChannelModel::lossy(seed, 0.02);
    transfer_intact(&data, &[], chan, cfg)
}

/// Both sides close on a clean channel, one after the other; both must
/// reach `Closed` with the stream delivered.
fn clean_close_terminates(len: usize, close_a_first: bool) -> Result<(), String> {
    let data: Vec<u8> = vec![7; len];
    let mut lb = Loopback::new(
        TcpConfig::default(),
        TcpConfig::default(),
        ChannelModel::clean(),
    );
    lb.send(Side::A, &data);
    let (first, second) = if close_a_first {
        (Side::A, Side::B)
    } else {
        (Side::B, Side::A)
    };
    lb.close(first);
    lb.run(100);
    lb.close(second);
    let done = lb.run_until(1_000_000, |lb| {
        lb.state(Side::A) == State::Closed && lb.state(Side::B) == State::Closed
    });
    if !done {
        return Err(format!(
            "close dance stalled: {:?}/{:?}",
            lb.state(Side::A),
            lb.state(Side::B)
        ));
    }
    let got = lb.received(Side::B).len();
    if got != len {
        return Err(format!("B got {got} of {len} bytes"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bidirectional transfer over a hostile channel delivers both streams
    /// intact and both sides learn of the close.
    #[test]
    fn streams_intact_under_impairment(
        seed in 1u64..10_000,
        loss in 0.0f64..0.15,
        len_a in 0usize..20_000,
        len_b in 0usize..5_000,
    ) {
        let data_a: Vec<u8> = (0..len_a).map(|i| (i as u64 * 31 + seed) as u8).collect();
        let data_b: Vec<u8> = (0..len_b).map(|i| (i as u64 * 17 + seed) as u8).collect();
        let chan = ChannelModel::lossy(seed, loss);
        transfer_intact(&data_a, &data_b, chan, TcpConfig::default())
            .map_err(TestCaseError::fail)?;
    }

    /// The same invariant holds with congestion control enabled.
    #[test]
    fn streams_intact_with_congestion_control(
        seed in 1u64..10_000,
        reno in proptest::bool::ANY,
        len in 1usize..30_000,
    ) {
        let cc = if reno { CongestionControl::Reno } else { CongestionControl::Tahoe };
        congestion_intact(seed, cc, len).map_err(TestCaseError::fail)?;
    }

    /// Tiny receive buffers (heavy zero-window episodes) never deadlock.
    #[test]
    fn tiny_windows_never_deadlock(
        seed in 1u64..1000,
        len in 1usize..8_000,
    ) {
        tiny_windows_intact(seed, len).map_err(TestCaseError::fail)?;
    }

    /// On a clean channel the connection always reaches a fully closed
    /// state on both sides (via TIME_WAIT on one of them), with no stuck
    /// timers.
    #[test]
    fn clean_close_always_terminates(
        len in 0usize..5_000,
        close_a_first in proptest::bool::ANY,
    ) {
        clean_close_terminates(len, close_a_first).map_err(TestCaseError::fail)?;
    }

    /// Asymmetric impairment — a nearly clean forward path under a much
    /// more hostile reverse (ACK) path, so loss concentrates on the
    /// acknowledgment stream — still delivers both byte streams intact.
    #[test]
    fn streams_intact_under_asymmetric_impairment(
        seed in 1u64..10_000,
        fwd_loss in 0.0f64..0.05,
        rev_loss in 0.05f64..0.2,
        len_a in 1usize..15_000,
        len_b in 0usize..4_000,
    ) {
        let data_a: Vec<u8> = (0..len_a).map(|i| (i as u64 * 13 + seed) as u8).collect();
        let data_b: Vec<u8> = (0..len_b).map(|i| (i as u64 * 29 + seed) as u8).collect();
        let chan = ChannelModel::lossy(seed, fwd_loss)
            .with_reverse(DirFaults::lossy(rev_loss));
        transfer_intact(&data_a, &data_b, chan, TcpConfig::default())
            .map_err(TestCaseError::fail)?;
    }

    /// A mid-transfer outage window (burst loss: every segment in the
    /// window vanishes, both directions) delays but never breaks the
    /// transfer — retransmission resumes the stream once the window ends.
    #[test]
    fn streams_survive_outage_window(
        seed in 1u64..10_000,
        start_ms in 5u64..50,
        dur_ms in 1u64..200,
        len in 1usize..15_000,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i as u64 * 7 + seed) as u8).collect();
        let start = start_ms * 1_000_000;
        let chan = ChannelModel::lossy(seed, 0.02)
            .with_outage(start, start + dur_ms * 1_000_000);
        transfer_intact(&data, &[], chan, TcpConfig::default())
            .map_err(TestCaseError::fail)?;
    }
}

/// The inputs these properties once shrank failures to, replayed on every
/// run: the offline proptest stand-in reads no regression file, so a
/// recorded case re-runs only if a test names it.
#[test]
fn recorded_failure_cases_pass() {
    clean_close_terminates(1, true).unwrap();
    tiny_windows_intact(1, 1).unwrap();
    congestion_intact(1779, CongestionControl::Tahoe, 537).unwrap();
}

/// The outage window must actually swallow traffic (not just sit outside
/// the transfer) for the property above to mean anything.
#[test]
fn outage_window_actually_drops_segments() {
    // The loopback channel has latency but no bandwidth model, so a clean
    // transfer completes within a few 100 µs round trips: the window must
    // open mid-handshake-plus-one-RTT to intersect live traffic.
    let data: Vec<u8> = (0..20_000).map(|i| i as u8).collect();
    let chan = ChannelModel::clean().with_outage(250_000, 2_000_000);
    let mut lb = Loopback::new(TcpConfig::default(), TcpConfig::default(), chan);
    lb.send(Side::A, &data);
    lb.close(Side::A);
    lb.close(Side::B);
    let done = lb.run_until(2_000_000, |lb| {
        lb.received(Side::B).len() == data.len()
            && lb.events(Side::A).peer_closed
            && lb.events(Side::B).peer_closed
    });
    assert!(done, "transfer must recover after the outage");
    assert!(lb.outage_drops > 0, "window never intersected traffic");
    assert_eq!(lb.received(Side::B), &data[..]);
}

/// A fully jammed reverse path stalls the transfer (no ACK ever returns);
/// lifting the override is what lets it complete — the asymmetric knob
/// really steers one direction only.
#[test]
fn fully_lossy_reverse_path_blocks_progress() {
    let data = vec![9u8; 4000];
    let chan = ChannelModel::clean().with_reverse(DirFaults {
        loss: 1.0,
        duplicate: 0.0,
        corrupt: 0.0,
    });
    let mut lb = Loopback::new(TcpConfig::default(), TcpConfig::default(), chan);
    // B's SYN-ACK travels B→A and is always lost: the handshake can
    // never complete, while A's side keeps retrying forward.
    lb.send(Side::A, &data);
    let connected = lb.run_until(50_000, |lb| lb.events(Side::A).connected);
    assert!(!connected, "no ACK path, yet the handshake completed");
    assert!(lb.received(Side::B).is_empty());
}
