//! TIME_WAIT, pinned: every segment, timer fire and application call a
//! connection sitting out 2·MSL answers, field by field — by the block in
//! `TimeWait` and by the record a host keeps in its place
//! ([`Tcb::time_wait`]), which must answer alike.
//!
//! Both ways in are covered: through `FinWait2` (our FIN acked, then the
//! peer's FIN) and through `Closing` (simultaneous close). Either way the
//! block ends at `snd_nxt` 1002 and `rcv_nxt` 9002, its 2·MSL timer armed,
//! so one table of cases serves both. A seeded property then drives a
//! block and its record through random segments, timers and calls. Tier-1
//! runs 64 cases; `ci.sh` runs 512 in release.

mod scripts;

use proptest::prelude::*;
use scripts::{deliver, established, sends, walk_to, A, B};
use unp_tcp::{State, Tcb, TcpAction, TcpConfig, TcpError, TcpSink, TcpTimer, TimeWait};
use unp_wire::{SeqNum, TcpFlags, TcpRepr};

const SEC: u64 = 1_000_000_000;
/// When each case's input arrives.
const NOW: u64 = 30 * SEC;
/// What we have sent through our FIN, and what the peer has.
const SND_NXT: u32 = 1002;
const RCV_NXT: u32 = 9002;

/// What a connection in TIME_WAIT is driven with.
#[derive(Debug, Clone, Copy)]
enum Input {
    /// A segment from the peer: its sequence and acknowledgment numbers,
    /// flags and payload length.
    Segment(u32, u32, TcpFlags, usize),
    Timer(TcpTimer),
    Send,
    Close,
    Abort,
}

/// One case: what arrives, what the connection answers and where it is
/// left. A send or close is refused with `Closing`.
struct Case {
    name: &'static str,
    input: Input,
    answer: Vec<TcpAction>,
    after: State,
}

fn flags(syn: bool, fin: bool, rst: bool, ack: bool) -> TcpFlags {
    TcpFlags {
        syn,
        fin,
        rst,
        ack,
        ..TcpFlags::default()
    }
}

/// The peer's segment.
fn from_peer(seq: u32, ack: u32, flags: TcpFlags, len: usize) -> (TcpRepr, Vec<u8>) {
    let repr = TcpRepr {
        src_port: B.1,
        dst_port: A.1,
        seq: SeqNum(seq),
        ack_num: SeqNum(ack),
        flags,
        window: 4096,
        mss: None,
    };
    (repr, vec![0x5a; len])
}

/// Our bare ACK of everything, advertising the whole receive buffer.
fn our_ack(cfg: &TcpConfig) -> TcpAction {
    let repr = TcpRepr {
        src_port: A.1,
        dst_port: B.1,
        seq: SeqNum(SND_NXT),
        ack_num: SeqNum(RCV_NXT),
        flags: TcpFlags::ack(),
        window: cfg.recv_buf.min(u16::MAX as usize) as u16,
        mss: None,
    };
    TcpAction::Send(repr, Vec::new())
}

/// The 2·MSL timer started again from [`NOW`].
fn restart(cfg: &TcpConfig) -> [TcpAction; 2] {
    [
        TcpAction::CancelTimer(TcpTimer::TimeWait),
        TcpAction::SetTimer(TcpTimer::TimeWait, NOW + cfg.time_wait),
    ]
}

/// The connection ends: its 2·MSL timer disarmed, the block reapable.
fn ends() -> [TcpAction; 2] {
    [
        TcpAction::CancelTimer(TcpTimer::TimeWait),
        TcpAction::ConnClosed,
    ]
}

fn cases(cfg: &TcpConfig) -> Vec<Case> {
    let ack = flags(false, false, false, true);
    let fin = flags(false, true, false, true);
    let rst = flags(false, false, true, false);
    let syn = flags(true, false, false, false);
    let rst_for_syn = TcpRepr {
        src_port: A.1,
        dst_port: B.1,
        seq: SeqNum(0),
        ack_num: SeqNum(RCV_NXT + 1),
        flags: flags(false, false, true, true),
        window: 0,
        mss: None,
    };
    let case = |name, input, answer: Vec<TcpAction>, after| Case {
        name,
        input,
        answer,
        after,
    };
    let re_ack = [restart(cfg).to_vec(), vec![our_ack(cfg)]].concat();
    vec![
        case(
            "the peer's FIN again",
            Input::Segment(RCV_NXT - 1, SND_NXT, fin, 0),
            re_ack.clone(),
            State::TimeWait,
        ),
        case(
            "the peer's FIN again, behind its last bytes",
            Input::Segment(RCV_NXT - 6, SND_NXT, fin, 5),
            re_ack.clone(),
            State::TimeWait,
        ),
        case(
            "old data",
            Input::Segment(RCV_NXT - 6, SND_NXT, ack, 5),
            vec![our_ack(cfg)],
            State::TimeWait,
        ),
        case(
            "a stale ACK",
            Input::Segment(RCV_NXT - 1, SND_NXT, ack, 0),
            vec![our_ack(cfg)],
            State::TimeWait,
        ),
        case(
            "a FIN before the peer's",
            Input::Segment(RCV_NXT - 6, SND_NXT, fin, 0),
            vec![our_ack(cfg)],
            State::TimeWait,
        ),
        case(
            "a duplicate ACK",
            Input::Segment(RCV_NXT, SND_NXT, ack, 0),
            Vec::new(),
            State::TimeWait,
        ),
        case(
            "an ACK beyond snd_nxt",
            Input::Segment(RCV_NXT, SND_NXT + 1, ack, 0),
            vec![our_ack(cfg)],
            State::TimeWait,
        ),
        case(
            "an RST in the window",
            Input::Segment(RCV_NXT, 0, rst, 0),
            [vec![TcpAction::Reset], ends().to_vec()].concat(),
            State::Closed,
        ),
        case(
            "an RST outside the window",
            Input::Segment(RCV_NXT - 1, 0, rst, 0),
            Vec::new(),
            State::TimeWait,
        ),
        case(
            "a SYN in the window",
            Input::Segment(RCV_NXT, 0, syn, 0),
            [
                vec![TcpAction::Send(rst_for_syn, Vec::new()), TcpAction::Reset],
                ends().to_vec(),
            ]
            .concat(),
            State::Closed,
        ),
        case(
            "the delayed-ACK timer",
            Input::Timer(TcpTimer::DelayedAck),
            Vec::new(),
            State::TimeWait,
        ),
        case(
            "the keepalive timer",
            Input::Timer(TcpTimer::Keepalive),
            Vec::new(),
            State::TimeWait,
        ),
        case(
            "the retransmit timer",
            Input::Timer(TcpTimer::Retransmit),
            Vec::new(),
            State::TimeWait,
        ),
        case(
            "the persist timer",
            Input::Timer(TcpTimer::Persist),
            Vec::new(),
            State::TimeWait,
        ),
        case("a send", Input::Send, Vec::new(), State::TimeWait),
        case("a close", Input::Close, Vec::new(), State::TimeWait),
        case("an abort", Input::Abort, ends().to_vec(), State::Closed),
        case(
            "2·MSL",
            Input::Timer(TcpTimer::TimeWait),
            vec![TcpAction::ConnClosed],
            State::Closed,
        ),
    ]
}

/// `A`'s block in TIME_WAIT through `FinWait2`.
fn via_fin_wait2(cfg: &TcpConfig) -> Tcb {
    walk_to(State::TimeWait, cfg)
}

/// `A`'s block in TIME_WAIT through `Closing`: both ends close before
/// either FIN lands.
fn via_closing(cfg: &TcpConfig) -> Tcb {
    let (mut a, mut b) = established(cfg, 1);
    let fin_a = a.close(10).expect("Established takes a close");
    let fin_b = b.close(10).expect("Established takes a close");
    let ack_b = deliver(&mut b, &fin_a, 11);
    deliver(&mut a, &fin_b, 11);
    assert_eq!(a.state(), State::Closing);
    deliver(&mut a, &ack_b, 12);
    assert_eq!(a.state(), State::TimeWait);
    a
}

/// `A` and `B` established, with `to_b` bytes sent from `A` and `to_a`
/// from `B`, all of it read and acknowledged (so `A` has timed a round
/// trip when it sent any).
fn exchanged(cfg: &TcpConfig, [to_b, to_a]: [usize; 2]) -> (Tcb, Tcb) {
    let (mut a, mut b) = established(cfg, 1);
    for (n, from_a) in [(to_b, true), (to_a, false)] {
        let (src, dst) = if from_a {
            (&mut a, &mut b)
        } else {
            (&mut b, &mut a)
        };
        let (_, mut wire) = src.send(&vec![0x5a; n], 2).expect("Established takes data");
        // Back and forth until both are quiet, delayed ACKs flushed.
        for now in 3..40 {
            let mut answer = deliver(dst, &wire, now);
            answer.extend(dst.recv(usize::MAX, now).1);
            answer.extend(dst.on_timer(TcpTimer::DelayedAck, now));
            wire = deliver(src, &answer, now);
            wire.extend(src.on_timer(TcpTimer::DelayedAck, now));
        }
    }
    assert_eq!(
        a.send_sequence().1,
        SeqNum(SND_NXT - 1) + to_b as u32,
        "all sent"
    );
    assert_eq!(
        (a.send_space(), a.recv_available()),
        (cfg.send_buf, 0),
        "all acked and read"
    );
    (a, b)
}

/// `A`'s block in TIME_WAIT after [`exchanged`], by either way in.
fn entered(cfg: &TcpConfig, closing: bool, data: [usize; 2]) -> Tcb {
    let (mut a, mut b) = exchanged(cfg, data);
    let fin_a = a.close(50).expect("Established takes a close");
    if closing {
        let fin_b = b.close(50).expect("Established takes a close");
        let ack_b = deliver(&mut b, &fin_a, 51);
        deliver(&mut a, &fin_b, 51);
        deliver(&mut a, &ack_b, 52);
    } else {
        let ack_b = deliver(&mut b, &fin_a, 51);
        deliver(&mut a, &ack_b, 52);
        assert_eq!(a.state(), State::FinWait2);
        let fin_b = b.close(53).expect("CloseWait takes a close");
        deliver(&mut a, &fin_b, 54);
    }
    assert_eq!(a.state(), State::TimeWait);
    a
}

/// What a connection in TIME_WAIT is: a block or its record, driven
/// through the same calls.
trait Waiting {
    fn on_segment_into(&mut self, repr: &TcpRepr, payload: &[u8], now: u64, out: &mut dyn TcpSink);
    fn on_timer_into(&mut self, t: TcpTimer, now: u64, out: &mut dyn TcpSink);
    fn send_into(
        &mut self,
        data: &[u8],
        now: u64,
        out: &mut dyn TcpSink,
    ) -> Result<usize, TcpError>;
    fn close_into(&mut self, now: u64, out: &mut dyn TcpSink) -> Result<(), TcpError>;
    fn abort_into(&mut self, out: &mut dyn TcpSink);
    fn state(&self) -> State;
}

macro_rules! waiting {
    ($ty:ty) => {
        impl Waiting for $ty {
            fn on_segment_into(&mut self, r: &TcpRepr, p: &[u8], now: u64, out: &mut dyn TcpSink) {
                <$ty>::on_segment_into(self, r, p, now, out)
            }
            fn on_timer_into(&mut self, t: TcpTimer, now: u64, out: &mut dyn TcpSink) {
                <$ty>::on_timer_into(self, t, now, out)
            }
            fn send_into(
                &mut self,
                d: &[u8],
                now: u64,
                out: &mut dyn TcpSink,
            ) -> Result<usize, TcpError> {
                <$ty>::send_into(self, [d], now, out)
            }
            fn close_into(&mut self, now: u64, out: &mut dyn TcpSink) -> Result<(), TcpError> {
                <$ty>::close_into(self, now, out)
            }
            fn abort_into(&mut self, out: &mut dyn TcpSink) {
                <$ty>::abort_into(self, out)
            }
            fn state(&self) -> State {
                <$ty>::state(self)
            }
        }
    };
}
waiting!(Tcb);
waiting!(TimeWait);

/// What `end` answers to `input` at `now`, and what a refused send or
/// close was refused with.
fn drive(end: &mut dyn Waiting, input: Input, now: u64) -> (Vec<TcpAction>, Option<TcpError>) {
    let mut out = Vec::new();
    let refused = match input {
        Input::Segment(seq, ack, flags, len) => {
            let (repr, payload) = from_peer(seq, ack, flags, len);
            end.on_segment_into(&repr, &payload, now, &mut out);
            None
        }
        Input::Timer(t) => {
            end.on_timer_into(t, now, &mut out);
            None
        }
        Input::Send => end.send_into(b"late", now, &mut out).err(),
        Input::Close => end.close_into(now, &mut out).err(),
        Input::Abort => {
            end.abort_into(&mut out);
            None
        }
    };
    (out, refused)
}

/// The block and the record a host would keep in its place.
fn both(tcb: Tcb) -> (Tcb, TimeWait) {
    let record = tcb
        .time_wait()
        .expect("a drained block in TimeWait has a record");
    assert_eq!(record.state(), State::TimeWait);
    assert_eq!((record.local_port(), record.remote()), (A.1, B));
    (tcb, record)
}

fn configs() -> [TcpConfig; 2] {
    let keepalive = TcpConfig {
        keepalive: Some(SEC),
        time_wait: 2 * SEC,
        recv_buf: 100_000,
        ..TcpConfig::default()
    };
    [TcpConfig::default(), keepalive]
}

#[test]
fn every_answer_is_pinned_both_ways_in() {
    for cfg in configs() {
        for (way, enter) in [
            ("FinWait2", via_fin_wait2 as fn(&TcpConfig) -> Tcb),
            ("Closing", via_closing),
        ] {
            for case in cases(&cfg) {
                let (mut tcb, mut record) = both(enter(&cfg));
                assert_eq!(tcb.send_sequence(), (SeqNum(SND_NXT), SeqNum(SND_NXT)));
                let before = tcb.stats();
                let refusal = matches!(case.input, Input::Send | Input::Close);
                let refused = refusal.then_some(TcpError::Closing);
                for (end, what) in [
                    (&mut tcb as &mut dyn Waiting, "block"),
                    (&mut record, "record"),
                ] {
                    let what = format!("{} (the {what}, via {way}, {cfg:?})", case.name);
                    let answer = drive(end, case.input, NOW);
                    assert_eq!(answer, (case.answer.clone(), refused), "{what}");
                    assert_eq!(end.state(), case.after, "{what}");
                }
                // Every segment in counts, every segment out counts, and
                // the record retires what the block would.
                let (stats, sent) = (tcb.stats(), sends(&case.answer).len() as u64);
                let arrived = u64::from(matches!(case.input, Input::Segment(..)));
                assert_eq!(stats.segs_in - before.segs_in, arrived, "{}", case.name);
                assert_eq!(stats.segs_out - before.segs_out, sent, "{}", case.name);
                assert_eq!(record.scope(), tcb.scope(), "{}", case.name);
            }
        }
    }
}

#[test]
fn stale_segments_leave_the_wait_running() {
    // Only the peer's FIN again restarts 2·MSL (RFC 793): a stale ACK or
    // old data every minute must not hold the pair, its port and its
    // channel for ever.
    let cfg = TcpConfig::default();
    let (mut tcb, mut record) = both(via_fin_wait2(&cfg));
    let ack = flags(false, false, false, true);
    for end in [&mut tcb as &mut dyn Waiting, &mut record] {
        for minute in 1..=3 {
            let now = NOW + minute * 59 * SEC;
            let stale = drive(end, Input::Segment(RCV_NXT - 1, SND_NXT, ack, 0), now);
            let old = drive(end, Input::Segment(RCV_NXT - 6, SND_NXT, ack, 5), now);
            assert_eq!(stale, (vec![our_ack(&cfg)], None));
            assert_eq!(old, (vec![our_ack(&cfg)], None));
        }
    }
}

#[test]
fn nothing_is_left_to_read() {
    let cfg = TcpConfig::default();
    let mut tcb = via_fin_wait2(&cfg);
    let (mut data, mut out) = (Vec::new(), Vec::new());
    assert_eq!(tcb.recv_into(usize::MAX, NOW, &mut data, &mut out), 0);
    assert!(data.is_empty() && out.is_empty());
    assert!(tcb.at_eof());
    assert_eq!((tcb.local(), tcb.remote()), (A, B));
}

#[test]
fn unread_bytes_keep_the_block() {
    // The record holds no stream: a block whose application has not read
    // everything sits out the wait itself.
    let cfg = TcpConfig::default();
    let (mut a, mut b, _) = scripts::half_closed(&cfg);
    let data = b.send(b"unread", 12).expect("CloseWait takes data").1;
    deliver(&mut a, &data, 13);
    let fin = b.close(14).expect("CloseWait takes a close");
    deliver(&mut a, &fin, 15);
    assert_eq!((a.state(), a.recv_available()), (State::TimeWait, 6));
    assert!(a.time_wait().is_none());
    a.recv(usize::MAX, 16);
    assert!(a.time_wait().is_some());
}

#[test]
fn the_wait_ends_on_the_restarted_deadline() {
    let cfg = TcpConfig::default();
    let (tcb, record) = both(via_fin_wait2(&cfg));
    let fin = flags(false, true, false, true);
    for mut end in [Box::new(tcb) as Box<dyn Waiting>, Box::new(record)] {
        let (answer, _) = drive(&mut *end, Input::Segment(RCV_NXT - 1, SND_NXT, fin, 0), NOW);
        assert_eq!(answer[..2], restart(&cfg));
        let later = NOW + cfg.time_wait;
        let (answer, _) = drive(&mut *end, Input::Timer(TcpTimer::TimeWait), later);
        assert_eq!(answer, vec![TcpAction::ConnClosed]);
        assert_eq!(end.state(), State::Closed);
    }
}

/// Sequence and acknowledgment offsets: the neighbours of the edge, within
/// a window either way, anywhere.
fn arb_offset() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1),
        Just(u32::MAX),
        Just(6u32.wrapping_neg()),
        0u32..70_000,
        (0u32..70_000).prop_map(u32::wrapping_neg),
        any::<u32>(),
    ]
}

/// A segment whose sequence and acknowledgment numbers are offsets from
/// `rcv_nxt` and `snd_nxt`.
fn arb_segment() -> impl Strategy<Value = Input> {
    let len = prop_oneof![Just(0usize), Just(0), Just(5), 1usize..3000];
    (arb_offset(), arb_offset(), 0u8..32, len).prop_map(|(seq, ack, bits, len)| {
        let bit = |n: u8| bits & 1 << n != 0;
        // Mostly ACKs, as a peer sends.
        let flags = flags(
            bit(1) && bit(2),
            bit(0),
            bit(2) && bit(3),
            !bit(4) || bit(3),
        );
        Input::Segment(seq, ack, flags, len)
    })
}

fn arb_input() -> impl Strategy<Value = Input> {
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
        timer.prop_map(Input::Timer),
        Just(Input::Send),
        (0u8..8).prop_map(|n| if n == 0 { Input::Abort } else { Input::Close }),
    ]
}

fn arb_cfg() -> impl Strategy<Value = TcpConfig> {
    let recv_buf = prop_oneof![Just(2048usize), Just(16 * 1024), Just(100_000)];
    (recv_buf, any::<bool>(), any::<bool>(), 1u64..120).prop_map(
        |(recv_buf, delayed_ack, keepalive, time_wait)| TcpConfig {
            recv_buf,
            delayed_ack,
            keepalive: keepalive.then_some(SEC),
            time_wait: time_wait * SEC,
            ..TcpConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

    /// A block in TIME_WAIT and its record answer every step alike, and
    /// only the peer's FIN again restarts the wait.
    #[test]
    fn a_record_answers_as_its_block(
        cfg in arb_cfg(),
        (closing, data) in (any::<bool>(), (0usize..3000, 0usize..3000)),
        steps in proptest::collection::vec((arb_input(), 0u64..90), 1..60),
    ) {
        let (mut tcb, mut record) = both(entered(&cfg, closing, [data.0, data.1]));
        let snd_nxt = SND_NXT.wrapping_add(data.0 as u32);
        let rcv_nxt = RCV_NXT.wrapping_add(data.1 as u32);
        prop_assert_eq!(tcb.send_sequence().1, SeqNum(snd_nxt));
        let mut now = NOW;
        for (i, &(input, secs)) in steps.iter().enumerate() {
            now += secs * SEC;
            let input = match input {
                Input::Segment(seq, ack, f, len) => {
                    Input::Segment(rcv_nxt.wrapping_add(seq), snd_nxt.wrapping_add(ack), f, len)
                }
                other => other,
            };
            let block = drive(&mut tcb, input, now);
            let kept = drive(&mut record, input, now);
            let at = format!("step {i}, {input:?}");
            prop_assert_eq!(&block, &kept, "{}", at);
            prop_assert_eq!(tcb.state(), record.state(), "{}", at);
            prop_assert_eq!(tcb.send_sequence(), record.send_sequence(), "{}", at);
            prop_assert_eq!(tcb.scope(), record.scope(), "{}", at);
            let restarted = block.0.contains(&TcpAction::SetTimer(TcpTimer::TimeWait, now + cfg.time_wait));
            let fin_again = matches!(input, Input::Segment(seq, _, f, len)
                if f.fin && SeqNum(seq) + (len as u32 + u32::from(f.syn) + 1) == SeqNum(rcv_nxt));
            prop_assert!(!restarted || fin_again, "{} restarted 2·MSL", at);
            if tcb.state() == State::Closed {
                break;
            }
        }
    }
}
