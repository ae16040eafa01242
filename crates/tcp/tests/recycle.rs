//! A reopened block is a fresh one: what a connection does in a closed
//! connection's `Tcb` ([`Tcb::connect_in_place`],
//! [`ListenTcb::on_syn_in_place`]) it does in a block built for it.
//!
//! Each case first gives two blocks a previous life — a connection
//! between other ports, from another ISS, under another configuration,
//! driven by random steps that leave segments held out of order, bytes
//! unread and unsent, counters counted, in whatever state it stops — and
//! then runs one script twice: over a fresh pair (`Tcb::connect`,
//! `ListenTcb::on_syn`) and over the used blocks reopened. The script is
//! the handshake, then random steps: writes both ways, segments delivered
//! out of order, dropped or delivered again (a TIME_WAIT block re-ACKs a
//! repeated FIN), reads, closes in either order, aborts (RST) and timers.
//! Both runs must emit the same actions, read the same bytes and read the
//! same through every accessor after every step. Tier-1 runs 64 cases;
//! `ci.sh` runs 512 in release.

mod scripts;

use std::collections::VecDeque;

use proptest::prelude::*;
use scripts::{A, B, ISS_A, ISS_B};
use unp_tcp::{CongestionControl, ListenTcb, Tcb, TcpAction, TcpConfig, TcpTimer};
use unp_wire::{Ipv4Addr, TcpRepr};

const MS: u64 = 1_000_000;
/// The previous life's endpoints.
const OLD_A: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 3), 3000);
const OLD_B: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 4), 4000);
const TIMERS: [TcpTimer; 5] = [
    TcpTimer::Retransmit,
    TcpTimer::Persist,
    TcpTimer::DelayedAck,
    TcpTimer::TimeWait,
    TcpTimer::Keepalive,
];

#[derive(Debug, Clone, Copy)]
enum Step {
    /// End `0` (A) or `1` (B) writes this many bytes.
    Write(usize, usize),
    /// The segment at this index (modulo how many there are) of those in
    /// flight toward the end arrives: out of order unless it is the first.
    Deliver(usize, usize),
    /// The last segment delivered to the end arrives again.
    Redeliver(usize),
    /// The segment at this index in flight toward the end is lost.
    Drop(usize, usize),
    Read(usize, usize),
    Close(usize),
    /// The end aborts: a RST in synchronized states.
    Abort(usize),
    /// The end's host fires a timer, armed or not.
    Timer(usize, usize),
    /// Everything in flight arrives, in order, until nothing is.
    Settle,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let end = || 0usize..2;
    prop_oneof![
        (end(), 1usize..3000).prop_map(|(e, n)| Step::Write(e, n)),
        (end(), 0usize..8).prop_map(|(e, i)| Step::Deliver(e, i)),
        (end(), 0usize..8).prop_map(|(e, i)| Step::Deliver(e, i)),
        (end(), Just(0usize)).prop_map(|(e, i)| Step::Deliver(e, i)),
        end().prop_map(Step::Redeliver),
        (end(), 0usize..8).prop_map(|(e, i)| Step::Drop(e, i)),
        (end(), 1usize..4000).prop_map(|(e, n)| Step::Read(e, n)),
        end().prop_map(Step::Close),
        (0usize..8).prop_map(|e| Step::Abort(e / 7)),
        (end(), 0usize..TIMERS.len()).prop_map(|(e, t)| Step::Timer(e, t)),
        Just(Step::Settle),
    ]
}

fn arb_cfg() -> impl Strategy<Value = TcpConfig> {
    let congestion = prop_oneof![
        Just(CongestionControl::Off),
        Just(CongestionControl::Tahoe),
        Just(CongestionControl::Reno),
    ];
    (
        (536usize..1461, 2usize..64),
        any::<bool>(),
        any::<bool>(),
        congestion,
        any::<bool>(),
    )
        .prop_map(|((mss, kib), nagle, delayed_ack, congestion, keepalive)| {
            let mut cfg = TcpConfig {
                mss_local: mss,
                send_buf: kib * 1024,
                recv_buf: (66 - kib) * 1024,
                nagle,
                delayed_ack,
                congestion,
                ..TcpConfig::default()
            };
            if keepalive {
                cfg.keepalive = Some(500 * MS);
            }
            cfg
        })
}

/// What a run saw, in order: compared between the fresh and the reopened
/// run.
#[derive(Debug, PartialEq)]
enum Seen {
    Actions(usize, Vec<TcpAction>),
    Read(usize, Vec<u8>),
    /// Every accessor of the end, after a step.
    View(usize, String),
}

/// Two ends and the segments in flight toward each.
struct Pair {
    ends: [Tcb; 2],
    wire: [VecDeque<(TcpRepr, Vec<u8>)>; 2],
    last: [Option<(TcpRepr, Vec<u8>)>; 2],
    seen: Vec<Seen>,
    now: u64,
    written: u8,
}

impl Pair {
    /// Routes what end `e` emitted: segments toward the other end, the
    /// whole list to the log.
    fn emitted(&mut self, e: usize, actions: Vec<TcpAction>) {
        for a in &actions {
            if let TcpAction::Send(repr, payload) = a {
                self.wire[1 - e].push_back((*repr, payload.clone()));
            }
        }
        self.seen.push(Seen::Actions(e, actions));
    }

    fn step(&mut self, step: Step) {
        self.now += MS;
        let now = self.now;
        let e = match step {
            Step::Settle => {
                // Each arrival can answer with a segment or two; a pair
                // with no data left to send quiets well within this.
                for _ in 0..64 {
                    let Some(e) = (0..2).find(|&e| !self.wire[e].is_empty()) else {
                        return;
                    };
                    self.step(Step::Deliver(e, 0));
                }
                return;
            }
            Step::Write(e, n) => {
                let data: Vec<u8> = (0..n)
                    .map(|_| {
                        self.written = self.written.wrapping_add(1);
                        self.written
                    })
                    .collect();
                let mut out = Vec::new();
                let took = self.ends[e].send_into([&data[..]], now, &mut out);
                self.seen.push(Seen::View(e, format!("{took:?}")));
                self.emitted(e, out);
                e
            }
            Step::Deliver(e, i) | Step::Drop(e, i) => {
                let wire = &mut self.wire[e];
                let Some(seg) = (!wire.is_empty()).then(|| wire.remove(i % wire.len())) else {
                    return;
                };
                let Some((repr, payload)) = seg else {
                    return;
                };
                if matches!(step, Step::Drop(..)) {
                    return;
                }
                let mut out = Vec::new();
                self.ends[e].on_segment_into(&repr, &payload, now, &mut out);
                self.last[e] = Some((repr, payload));
                self.emitted(e, out);
                e
            }
            Step::Redeliver(e) => {
                let Some((repr, payload)) = self.last[e].clone() else {
                    return;
                };
                let mut out = Vec::new();
                self.ends[e].on_segment_into(&repr, &payload, now, &mut out);
                self.emitted(e, out);
                e
            }
            Step::Read(e, n) => {
                let (mut data, mut out) = (Vec::new(), Vec::new());
                self.ends[e].recv_into(n, now, &mut data, &mut out);
                self.seen.push(Seen::Read(e, data));
                self.emitted(e, out);
                e
            }
            Step::Close(e) => {
                let mut out = Vec::new();
                let r = self.ends[e].close_into(now, &mut out);
                self.seen.push(Seen::View(e, format!("{r:?}")));
                self.emitted(e, out);
                e
            }
            Step::Abort(e) => {
                let mut out = Vec::new();
                self.ends[e].abort_into(&mut out);
                self.emitted(e, out);
                e
            }
            Step::Timer(e, t) => {
                let mut out = Vec::new();
                self.ends[e].on_timer_into(TIMERS[t], now, &mut out);
                self.emitted(e, out);
                e
            }
        };
        let tcb = &mut self.ends[e];
        let view = format!(
            "{:?} {:?} {:?} {:?} {:?} {} {} {} {} {:?} {:?}",
            tcb.state(),
            tcb.local(),
            tcb.remote(),
            tcb.stats(),
            tcb.take_stats_delta(),
            tcb.recv_available(),
            tcb.send_space(),
            tcb.at_eof(),
            tcb.mss(),
            tcb.send_sequence(),
            tcb.srtt(),
        );
        self.seen.push(Seen::View(e, view));
    }
}

/// The handshake's start between `a` (active, at `local_a`) and a
/// listener at `local_b`, then `steps`. With `used`, the two ends are
/// those blocks reopened in place; otherwise they are built fresh.
fn run(
    cfg: &TcpConfig,
    (local_a, local_b): ((Ipv4Addr, u16), (Ipv4Addr, u16)),
    (iss_a, iss_b): (u32, u32),
    used: Option<[Tcb; 2]>,
    steps: &[Step],
) -> Pair {
    let listener = ListenTcb::new(local_b, cfg.clone());
    let (mut seen, mut a_out, mut b_out) = (Vec::new(), Vec::new(), Vec::new());
    let ends = match used {
        None => {
            let a = Tcb::connect_into(local_a, local_b, cfg.clone(), iss_a, 0, &mut a_out);
            let syn = first_segment(&a_out);
            let b = listener
                .on_syn_into(local_a, &syn, iss_b, 0, &mut b_out)
                .expect("a SYN opens");
            [a, b]
        }
        Some([mut a, mut b]) => {
            a.connect_in_place(local_a, local_b, cfg.clone(), iss_a, 0, &mut a_out);
            let syn = first_segment(&a_out);
            assert!(listener.on_syn_in_place(&mut b, local_a, &syn, iss_b, 0, &mut b_out));
            [a, b]
        }
    };
    seen.push(Seen::Actions(0, a_out));
    let mut pair = Pair {
        ends,
        wire: [VecDeque::new(), VecDeque::new()],
        last: [None, None],
        seen,
        now: 0,
        written: 0,
    };
    pair.emitted(1, b_out);
    for &step in steps {
        pair.step(step);
    }
    pair
}

fn first_segment(actions: &[TcpAction]) -> TcpRepr {
    match actions.first() {
        Some(TcpAction::Send(repr, _)) => *repr,
        other => panic!("an open emits its SYN first, not {other:?}"),
    }
}

/// The first place the two logs part, or `None`.
fn parting(fresh: &[Seen], reopened: &[Seen]) -> Option<String> {
    let at = fresh.iter().zip(reopened).position(|(f, r)| f != r);
    match at {
        Some(i) => Some(format!(
            "entry {i}:\n fresh    {:?}\n reopened {:?}",
            fresh[i], reopened[i]
        )),
        None if fresh.len() != reopened.len() => Some(format!(
            "{} entries fresh, {} reopened",
            fresh.len(),
            reopened.len()
        )),
        None => None,
    }
}

/// Both runs of `steps` on `cfg`, the reopened one in the blocks that
/// `old_steps` used under `old_cfg`.
fn compare(
    old: (&TcpConfig, (u32, u32), &[Step]),
    swap: bool,
    cfg: &TcpConfig,
    steps: &[Step],
) -> Result<(), String> {
    let (old_cfg, old_iss, old_steps) = old;
    let used = run(old_cfg, (OLD_A, OLD_B), old_iss, None, old_steps);
    let [old_a, old_b] = used.ends;
    let blocks = if swap { [old_b, old_a] } else { [old_a, old_b] };
    let fresh = run(cfg, (A, B), (ISS_A, ISS_B), None, steps);
    let reopened = run(cfg, (A, B), (ISS_A, ISS_B), Some(blocks), steps);
    match parting(&fresh.seen, &reopened.seen) {
        Some(diff) => Err(diff),
        None => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

    #[test]
    fn a_reopened_block_runs_as_a_fresh_one(
        old_cfg in arb_cfg(),
        (old_iss, swap) in (any::<u32>(), any::<bool>()),
        old_steps in proptest::collection::vec(arb_step(), 0..60),
        cfg in arb_cfg(),
        steps in proptest::collection::vec(arb_step(), 0..80),
    ) {
        let old_iss = (old_iss, old_iss.wrapping_mul(2_654_435_761));
        let parted = compare((&old_cfg, old_iss, &old_steps), swap, &cfg, &steps);
        prop_assert!(parted.is_ok(), "{}", parted.unwrap_err());
    }
}

/// The scripted life the fixed cases reuse: a connection whose blocks end
/// established, each with bytes readable, a segment held out of order
/// behind a lost one, bytes unsent and counters counted.
const OLD_LIFE: [Step; 11] = [
    Step::Deliver(0, 0), // SYN-ACK → A
    Step::Deliver(1, 0), // A's ACK → B
    Step::Write(0, 2500),
    Step::Write(1, 2500),
    Step::Deliver(1, 0), // A's first segment, in order
    Step::Drop(1, 0),    // its second is lost
    Step::Deliver(1, 0), // its third is held
    Step::Deliver(0, 0), // the same the other way
    Step::Drop(0, 0),
    Step::Deliver(0, 0),
    Step::Write(0, 700),
];

/// The scripted life's ISSs: both sequence spaces lie ahead of both the
/// fixed cases use, so a range a block still held from it would be ahead
/// of what the new connection receives, and `at_eof` would read it.
const OLD_ISS: (u32, u32) = (20_000, 30_000);

/// Handshake, data both ways with one segment each way held out of order,
/// everything delivered and read.
const DATA: [Step; 10] = [
    Step::Deliver(0, 0),
    Step::Deliver(1, 0),
    Step::Write(0, 2000),
    Step::Write(1, 1500),
    Step::Deliver(1, 1),
    Step::Deliver(0, 1),
    Step::Settle,
    Step::Read(1, 4000),
    Step::Read(0, 4000),
    Step::Settle,
];

/// After [`DATA`]: A closes first and sits out TIME_WAIT, re-ACKing B's
/// FIN when it comes again, until its timer fires.
const A_CLOSES_FIRST: [Step; 7] = [
    Step::Close(0),
    Step::Settle,
    Step::Close(1),
    Step::Deliver(0, 0),
    Step::Redeliver(0),
    Step::Settle,
    Step::Timer(0, 3),
];

/// After [`DATA`]: B closes first and sits out TIME_WAIT.
const B_CLOSES_FIRST: [Step; 5] = [
    Step::Close(1),
    Step::Settle,
    Step::Close(0),
    Step::Settle,
    Step::Timer(1, 3),
];

/// After [`DATA`]: A aborts, and the RST reaches B.
const RESET: [Step; 2] = [Step::Abort(0), Step::Settle];

#[test]
fn every_script_runs_alike_in_a_reopened_block() {
    let old_cfg = TcpConfig {
        mss_local: 536,
        nagle: false,
        delayed_ack: false,
        keepalive: Some(MS),
        ..TcpConfig::bulk_transfer()
    };
    let cfg = TcpConfig {
        nagle: false,
        ..TcpConfig::default()
    };
    let used = run(&old_cfg, (OLD_A, OLD_B), OLD_ISS, None, &OLD_LIFE);
    assert!(used.ends.iter().all(|t| t.recv_available() > 0));
    for tail in [&A_CLOSES_FIRST[..], &B_CLOSES_FIRST[..], &RESET[..]] {
        let steps = [&DATA[..], tail].concat();
        for swap in [false, true] {
            let old = (&old_cfg, OLD_ISS, &OLD_LIFE[..]);
            if let Err(diff) = compare(old, swap, &cfg, &steps) {
                panic!("{diff}");
            }
        }
        let fresh = run(&cfg, (A, B), (ISS_A, ISS_B), None, &steps);
        let states = fresh.ends.each_ref().map(Tcb::state);
        assert!(
            states.iter().all(|s| *s == unp_tcp::State::Closed),
            "the script ends both connections: {states:?}"
        );
    }
}
