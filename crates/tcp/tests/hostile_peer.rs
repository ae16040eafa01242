//! Nothing a peer can send — and nothing the host's timers or the
//! application do around it — may panic a `Tcb`, walk it over an illegal
//! edge, or push it past its own limits.
//!
//! The property walks a block into each of the nine live states with the
//! scripts `edge_coverage.rs` uses, then feeds it a seeded run of
//! segments mutated around what the peer should send next (sequence and
//! acknowledgment numbers off by one, by a window, by half the space;
//! every flag combination; zero and maximal windows; MSS options that
//! lie; payloads larger than the receive buffer), stale timers of every
//! kind, and user calls. After every step: the send sequence space is
//! ordered, the receive buffer is within its bound, no segment carries
//! more than the MSS. At the end: every state move taken was legal.
//! Tier-1 runs 64 cases; `ci.sh` runs 512 in release.

mod scripts;

use proptest::prelude::*;
use scripts::{edges_taken, walk_to, A, B, ISS_A, ISS_B, LIVE};
use unp_tcp::{CongestionControl, State, Tcb, TcpAction, TcpConfig, TcpTimer};
use unp_wire::{SeqNum, TcpFlags, TcpRepr};

const SEC: u64 = 1_000_000_000;
/// Longer than any receive buffer the property configures.
const BIGGEST_PAYLOAD: usize = 70_000;
/// What every payload and every write is cut from.
static BYTES: [u8; BIGGEST_PAYLOAD] = [0x5a; BIGGEST_PAYLOAD];

#[derive(Debug, Clone)]
enum Step {
    /// A segment from the peer: `seq` and `ack` are offsets (wrapping)
    /// from what a conforming peer would send next.
    Segment {
        seq: u32,
        ack: u32,
        flags: u8,
        window: u16,
        mss: Option<u16>,
        len: usize,
    },
    /// The host fires a timer, armed or not.
    Timer(TcpTimer),
    Send(usize),
    Recv(usize),
    Close,
}

/// Zero, the neighbours of zero, within a window either way, half the
/// sequence space, anywhere.
fn arb_offset() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0),
        Just(0),
        Just(1),
        Just(u32::MAX),
        0u32..70_000,
        (0u32..70_000).prop_map(u32::wrapping_neg),
        Just(1 << 31),
        Just((1 << 31) - 1),
        any::<u32>(),
    ]
}

fn arb_segment() -> impl Strategy<Value = Step> {
    let flags = prop_oneof![Just(0x10u8), Just(0x10), Just(0x18), Just(0x11), 0u8..64];
    let window = prop_oneof![Just(0u16), Just(u16::MAX), any::<u16>()];
    let mss = prop_oneof![
        Just(None),
        Just(Some(0u16)),
        Just(Some(1)),
        Just(Some(u16::MAX)),
        any::<u16>().prop_map(Some),
    ];
    let len = prop_oneof![
        Just(0usize),
        Just(0),
        Just(1),
        1usize..3000,
        Just(BIGGEST_PAYLOAD)
    ];
    (arb_offset(), arb_offset(), flags, window, mss, len).prop_map(
        |(seq, ack, flags, window, mss, len)| Step::Segment {
            seq,
            ack,
            flags,
            window,
            mss,
            len,
        },
    )
}

fn arb_step() -> impl Strategy<Value = Step> {
    let timer = prop_oneof![
        Just(TcpTimer::Retransmit),
        Just(TcpTimer::Persist),
        Just(TcpTimer::DelayedAck),
        Just(TcpTimer::TimeWait),
        Just(TcpTimer::Keepalive),
    ];
    prop_oneof![
        arb_segment(),
        arb_segment(),
        arb_segment(),
        timer.prop_map(Step::Timer),
        (0usize..40_000).prop_map(Step::Send),
        (0usize..40_000).prop_map(Step::Recv),
        Just(Step::Close),
    ]
}

fn arb_config() -> impl Strategy<Value = TcpConfig> {
    let congestion = prop_oneof![
        Just(CongestionControl::Off),
        Just(CongestionControl::Tahoe),
        Just(CongestionControl::Reno),
    ];
    let recv_buf = prop_oneof![Just(2048usize), Just(16 * 1024), Just(64 * 1024)];
    (
        congestion,
        recv_buf,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(congestion, recv_buf, nagle, delayed_ack, keepalive)| TcpConfig {
                congestion,
                recv_buf,
                nagle,
                delayed_ack,
                keepalive: keepalive.then_some(10 * SEC),
                max_retransmits: 3,
                ..TcpConfig::default()
            },
        )
}

fn within_limits(tcb: &Tcb, cfg: &TcpConfig, out: &[TcpAction]) -> Result<(), TestCaseError> {
    let (snd_una, snd_nxt) = tcb.send_sequence();
    prop_assert!(
        snd_una.le(snd_nxt),
        "snd_una {snd_una:?} > snd_nxt {snd_nxt:?}"
    );
    prop_assert!(tcb.recv_available() <= cfg.recv_buf);
    prop_assert!(tcb.send_space() <= cfg.send_buf);
    for action in out {
        if let TcpAction::Send(_, payload) = action {
            prop_assert!(
                payload.len() <= tcb.mss(),
                "{} payload bytes over an MSS of {}",
                payload.len(),
                tcb.mss()
            );
        }
    }
    Ok(())
}

fn survives(state: State, cfg: &TcpConfig, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut tcb = walk_to(state, cfg);
    // What the peer would send next, as far as the block has told it.
    let mut peer_seq = SeqNum(if tcb.local() == A { ISS_B } else { ISS_A }) + 1;
    let mut now = SEC;
    for step in steps {
        now += SEC / 100;
        let out = match *step {
            Step::Segment {
                seq,
                ack,
                flags,
                window,
                mss,
                len,
            } => {
                let repr = TcpRepr {
                    src_port: tcb.remote().1,
                    dst_port: tcb.local().1,
                    seq: peer_seq + seq,
                    ack_num: tcb.send_sequence().1 + ack,
                    flags: TcpFlags::from_u8(flags),
                    window,
                    mss,
                };
                tcb.on_segment(&repr, &BYTES[..len], now)
            }
            Step::Timer(t) => tcb.on_timer(t, now),
            Step::Send(n) => tcb
                .send(&BYTES[..n], now)
                .map_or(Vec::new(), |(_, out)| out),
            Step::Recv(n) => tcb.recv(n, now).1,
            Step::Close => tcb.close(now).unwrap_or_default(),
        };
        within_limits(&tcb, cfg, &out)?;
        for action in &out {
            if let TcpAction::Send(repr, _) = action {
                if repr.flags.ack {
                    peer_seq = repr.ack_num;
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

    #[test]
    fn no_live_state_breaks_under_mutated_input(
        cfg in arb_config(),
        steps in proptest::collection::vec(arb_step(), 1..60),
    ) {
        let (outcome, taken) =
            edges_taken(|| LIVE.iter().try_for_each(|&state| survives(state, &cfg, &steps)));
        outcome?;
        for (from, to) in taken {
            prop_assert!(unp_trace::legal_transition(from, to), "illegal move {from:?} -> {to:?}");
        }
    }
}

/// A SYN-ACK announcing an MSS of zero used to be taken at its word: no
/// data could ever be sent, and with congestion control on, the first RTO
/// collapsed the window to zero segments of zero bytes and the next ACK
/// divided by it.
#[test]
fn an_mss_option_of_zero_is_no_mss_option() {
    let cfg = TcpConfig {
        congestion: CongestionControl::Reno,
        ..TcpConfig::default()
    };
    let (mut a, _syn) = Tcb::connect(A, B, cfg, ISS_A, 0);
    let mut from_peer = TcpRepr {
        src_port: B.1,
        dst_port: A.1,
        seq: SeqNum(ISS_B),
        ack_num: SeqNum(ISS_A + 1),
        flags: TcpFlags::syn_ack(),
        window: 8192,
        mss: Some(0),
    };
    a.on_segment(&from_peer, &[], 1);
    assert_eq!(a.state(), State::Established);
    assert_eq!(a.mss(), 536, "the RFC 1122 default");
    // Our FIN times out once, then is acknowledged.
    a.close(2).expect("Established takes a close");
    a.on_timer(TcpTimer::Retransmit, 2 * SEC);
    from_peer.seq = SeqNum(ISS_B + 1);
    from_peer.ack_num = a.send_sequence().1;
    from_peer.flags = TcpFlags::ack();
    from_peer.mss = None;
    a.on_segment(&from_peer, &[], 3 * SEC);
    assert_eq!(a.state(), State::FinWait2);
}
