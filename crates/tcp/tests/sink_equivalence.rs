//! Sink ≡ `Vec`: every TCB entry point exists in two forms — one appends
//! to a buffer the caller owns (`*_into`), one returns a fresh `Vec` — and
//! they must be the same function. Two identical TCBs are driven in
//! lockstep, one through each form, the sink pre-loaded with a sentinel:
//! after every call the sink's suffix equals the returned `Vec` and the
//! sentinel is still in front. `recv_into` appends its bytes too, so its
//! data buffer is pre-loaded the same way. The scripts are `direct_tcb.rs`'s
//! hand-driven exchanges and `lossy_properties.rs`'s impaired transfers.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;

use unp_tcp::{ListenTcb, State, Tcb, TcpAction, TcpConfig, TcpError, TcpTimer};
use unp_wire::{Ipv4Addr, TcpRepr};

const A: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 100);
const B: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 200);
const MS: u64 = 1_000_000;

/// An action no script produces: what the sink holds before each call.
const SENTINEL: TcpAction = TcpAction::SetTimer(TcpTimer::Keepalive, u64::MAX);

/// What `recv_into`'s data buffer holds before each call: no script's
/// stream starts with it.
const BYTE_SENTINEL: &[u8] = b"\xa5 not stream bytes";

/// Runs the sink form into a pre-loaded buffer and checks it against what
/// the `Vec` form returned.
fn same(returned: Vec<TcpAction>, sink_form: impl FnOnce(&mut Vec<TcpAction>)) -> Vec<TcpAction> {
    let mut sink = vec![SENTINEL];
    sink_form(&mut sink);
    assert_eq!(sink[0], SENTINEL, "the callee cleared its caller's buffer");
    assert_eq!(
        &sink[1..],
        &returned[..],
        "sink form diverged from Vec form"
    );
    returned
}

/// One connection endpoint, twice: `by_vec` only ever sees the
/// `Vec`-returning forms, `by_sink` only the sink forms.
struct Twin {
    by_vec: Tcb,
    by_sink: Tcb,
}

impl Twin {
    fn connect(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
    ) -> (Twin, Vec<TcpAction>) {
        let (by_vec, returned) = Tcb::connect(local, remote, cfg.clone(), 1000, 0);
        let mut by_sink = None;
        let actions = same(returned, |out| {
            by_sink = Some(Tcb::connect_into(local, remote, cfg, 1000, 0, out));
        });
        let by_sink = by_sink.expect("the sink form ran");
        (Twin { by_vec, by_sink }, actions)
    }

    fn on_syn(
        listener: &ListenTcb,
        remote: (Ipv4Addr, u16),
        syn: &TcpRepr,
        now: u64,
    ) -> Option<(Twin, Vec<TcpAction>)> {
        let mut sink = vec![SENTINEL];
        let by_sink = listener.on_syn_into(remote, syn, 9000, now, &mut sink);
        let by_vec = listener.on_syn(remote, syn, 9000, now);
        assert_eq!(sink[0], SENTINEL);
        match (by_vec, by_sink) {
            (Some((by_vec, returned)), Some(by_sink)) => {
                assert_eq!(&sink[1..], &returned[..]);
                Some((Twin { by_vec, by_sink }, returned))
            }
            (None, None) => {
                assert_eq!(sink.len(), 1, "a refused SYN appends nothing");
                None
            }
            _ => panic!("one form accepted what the other refused"),
        }
    }

    /// The twins agree on everything observable from outside.
    fn agree(&self) {
        assert_eq!(self.by_vec.state(), self.by_sink.state());
        assert_eq!(self.by_vec.send_space(), self.by_sink.send_space());
        assert_eq!(self.by_vec.recv_available(), self.by_sink.recv_available());
        assert_eq!(self.by_vec.stats().segs_out, self.by_sink.stats().segs_out);
    }

    fn on_segment(&mut self, repr: &TcpRepr, payload: &[u8], now: u64) -> Vec<TcpAction> {
        let returned = self.by_vec.on_segment(repr, payload, now);
        let actions = same(returned, |out| {
            self.by_sink.on_segment_into(repr, payload, now, out)
        });
        self.agree();
        actions
    }

    fn on_timer(&mut self, t: TcpTimer, now: u64) -> Vec<TcpAction> {
        let returned = self.by_vec.on_timer(t, now);
        let actions = same(returned, |out| self.by_sink.on_timer_into(t, now, out));
        self.agree();
        actions
    }

    fn send(&mut self, data: &[u8], now: u64) -> Result<(usize, Vec<TcpAction>), TcpError> {
        let returned = self.by_vec.send(data, now);
        let mut sink = vec![SENTINEL];
        let taken = self.by_sink.send_into(data, now, &mut sink);
        assert_eq!(sink[0], SENTINEL);
        match (&returned, taken) {
            (Ok((n, actions)), Ok(m)) => {
                assert_eq!(*n, m);
                assert_eq!(&sink[1..], &actions[..]);
            }
            (Err(e), Err(f)) => {
                assert_eq!(*e, f);
                assert_eq!(sink.len(), 1, "a refused write appends nothing");
            }
            _ => panic!("send: {returned:?} vs {taken:?}"),
        }
        self.agree();
        returned
    }

    fn recv(&mut self, max: usize, now: u64) -> (Vec<u8>, Vec<TcpAction>) {
        let (data, returned) = self.by_vec.recv(max, now);
        let mut sunk = BYTE_SENTINEL.to_vec();
        let actions = same(returned, |out| {
            let n = self.by_sink.recv_into(max, now, &mut sunk, out);
            assert_eq!(n, data.len(), "recv_into counted other bytes than it read");
        });
        let (kept, appended) = sunk.split_at(BYTE_SENTINEL.len());
        assert_eq!(
            kept, BYTE_SENTINEL,
            "recv_into cleared its caller's data buffer"
        );
        assert_eq!(appended, &data[..], "recv_into read other bytes than recv");
        self.agree();
        (data, actions)
    }

    fn close(&mut self, now: u64) -> Result<Vec<TcpAction>, TcpError> {
        let returned = self.by_vec.close(now);
        let mut sink = vec![SENTINEL];
        let closed = self.by_sink.close_into(now, &mut sink);
        assert_eq!(sink[0], SENTINEL);
        match (&returned, closed) {
            (Ok(actions), Ok(())) => assert_eq!(&sink[1..], &actions[..]),
            (Err(e), Err(f)) => {
                assert_eq!(*e, f);
                assert_eq!(sink.len(), 1, "a refused close appends nothing");
            }
            _ => panic!("close: {returned:?} vs {closed:?}"),
        }
        self.agree();
        returned
    }

    fn abort(&mut self) -> Vec<TcpAction> {
        let returned = self.by_vec.abort();
        let actions = same(returned, |out| self.by_sink.abort_into(out));
        self.agree();
        actions
    }

    fn state(&self) -> State {
        self.by_vec.state()
    }
}

fn sends(actions: &[TcpAction]) -> Vec<(TcpRepr, Vec<u8>)> {
    actions
        .iter()
        .filter_map(|a| match a {
            TcpAction::Send(r, p) => Some((*r, p.clone())),
            _ => None,
        })
        .collect()
}

/// Feeds every `Send` in `actions` to `dst`, returning its responses.
fn deliver(dst: &mut Twin, actions: &[TcpAction], now: u64) -> Vec<TcpAction> {
    let mut out = Vec::new();
    for (repr, payload) in sends(actions) {
        out.extend(dst.on_segment(&repr, &payload, now));
    }
    out
}

fn established_with(cfg: TcpConfig) -> (Twin, Twin) {
    let (mut a, syn) = Twin::connect(A, B, cfg.clone());
    let listener = ListenTcb::new(B, cfg);
    let (mut b, synack) = Twin::on_syn(&listener, A, &sends(&syn)[0].0, 0).expect("a SYN");
    let ack = deliver(&mut a, &synack, MS);
    deliver(&mut b, &ack, MS);
    assert_eq!(
        (a.state(), b.state()),
        (State::Established, State::Established)
    );
    (a, b)
}

#[test]
fn simultaneous_open_is_the_same_through_both_forms() {
    let (mut a, syn_a) = Twin::connect(A, B, TcpConfig::default());
    let (mut b, syn_b) = Twin::connect(B, A, TcpConfig::default());
    let synack_from_a = deliver(&mut a, &syn_b, MS);
    let synack_from_b = deliver(&mut b, &syn_a, MS);
    assert_eq!(
        (a.state(), b.state()),
        (State::SynReceived, State::SynReceived)
    );
    let reack_a = deliver(&mut a, &synack_from_b, 2 * MS);
    let reack_b = deliver(&mut b, &synack_from_a, 2 * MS);
    deliver(&mut a, &reack_b, 3 * MS);
    deliver(&mut b, &reack_a, 3 * MS);
    assert_eq!(
        (a.state(), b.state()),
        (State::Established, State::Established)
    );
    // A listener turns away what is not a SYN, through both forms alike.
    let listener = ListenTcb::new(B, TcpConfig::default());
    assert!(Twin::on_syn(&listener, A, &sends(&reack_a)[0].0, 4 * MS).is_none());
}

#[test]
fn persist_probe_data_close_and_abort_are_the_same_through_both_forms() {
    let (mut a, mut b) = established_with(TcpConfig::low_latency());
    // B advertises a closed window; A's write arms the persist timer.
    let zero_win = TcpRepr {
        src_port: B.1,
        dst_port: A.1,
        seq: unp_wire::SeqNum(9001),
        ack_num: unp_wire::SeqNum(1001),
        flags: unp_wire::TcpFlags::ack(),
        window: 0,
        mss: None,
    };
    a.on_segment(&zero_win, &[], 3 * MS);
    let (n, stuck) = a
        .send(b"stuck", 3 * MS)
        .expect("an established connection takes data");
    assert_eq!(n, 5);
    assert!(sends(&stuck).is_empty(), "no data into a zero window");
    // The probe byte goes out, B acknowledges it, the rest follows.
    let probe = a.on_timer(TcpTimer::Persist, 10 * MS);
    let reopened = deliver(&mut b, &probe, 11 * MS);
    let rest = deliver(&mut a, &reopened, 12 * MS);
    deliver(&mut b, &rest, 13 * MS);
    let (data, _) = b.recv(usize::MAX, 14 * MS);
    assert_eq!(data, b"stuck");
    assert!(b.recv(usize::MAX, 14 * MS).0.is_empty());
    // An orderly close from A, answered by B; A sits out TIME_WAIT.
    let fin = a.close(20 * MS).expect("first close");
    assert_eq!(a.close(20 * MS), Err(TcpError::Closing));
    let ack = deliver(&mut b, &fin, 21 * MS);
    deliver(&mut a, &ack, 22 * MS);
    let fin_b = b.close(23 * MS).expect("close after the peer's FIN");
    let last_ack = deliver(&mut a, &fin_b, 24 * MS);
    deliver(&mut b, &last_ack, 25 * MS);
    assert_eq!((a.state(), b.state()), (State::TimeWait, State::Closed));
    assert!(a.send(b"late", 26 * MS).is_err());
    a.on_timer(TcpTimer::TimeWait, 10_000 * MS);
    assert_eq!(a.state(), State::Closed);
    // An abort mid-connection resets the peer.
    let (mut c, mut d) = established_with(TcpConfig::default());
    let rst = c.abort();
    deliver(&mut d, &rst, 30 * MS);
    assert_eq!((c.state(), d.state()), (State::Closed, State::Closed));
}

/// `lossy_properties.rs`'s transfer over twins: a seeded channel drops,
/// duplicates and delays segments while A streams `data` to B and both
/// close. Returns what B's application read.
fn impaired_transfer(seed: u64, loss: f64, cfg: TcpConfig, data: &[u8]) -> Vec<u8> {
    struct Run {
        ends: [Option<Twin>; 2],
        /// `(due, order, to, segment)`, unsorted.
        wire: Vec<(u64, u64, usize, TcpRepr, Vec<u8>)>,
        timers: HashMap<(usize, TcpTimer), u64>,
        unsent: VecDeque<u8>,
        read: Vec<u8>,
        rng: u64,
        order: u64,
        loss: f64,
    }

    impl Run {
        fn chance(&mut self, p: f64) -> bool {
            self.draw() % 1_000_000 < (p * 1e6) as u64
        }

        fn draw(&mut self) -> u64 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng
        }

        /// Routes what endpoint `at` produced, the way a host would.
        fn route(&mut self, at: usize, actions: Vec<TcpAction>, now: u64) {
            for action in actions {
                match action {
                    TcpAction::Send(repr, payload) => {
                        if self.chance(self.loss) {
                            continue;
                        }
                        let copies = if self.chance(self.loss / 2.0) { 2 } else { 1 };
                        for _ in 0..copies {
                            let due = now + 100_000 + self.draw() % 300_000;
                            self.order += 1;
                            let seg = (due, self.order, 1 - at, repr, payload.clone());
                            self.wire.push(seg);
                        }
                    }
                    TcpAction::SetTimer(t, deadline) => {
                        self.timers.insert((at, t), deadline);
                    }
                    TcpAction::CancelTimer(t) => {
                        self.timers.remove(&(at, t));
                    }
                    TcpAction::Connected | TcpAction::SendSpace => self.pump(at, now),
                    TcpAction::DataAvailable => {
                        let end = self.ends[at].as_mut().expect("it produced the action");
                        let (data, more) = end.recv(usize::MAX, now);
                        self.read.extend(data);
                        self.route(at, more, now);
                    }
                    TcpAction::PeerClosed => {
                        let end = self.ends[at].as_mut().expect("it produced the action");
                        if let Ok(fin) = end.close(now) {
                            self.route(at, fin, now);
                        }
                    }
                    TcpAction::Reset | TcpAction::ConnClosed => {}
                }
            }
        }

        /// A (endpoint 0) writes as much as its send buffer takes, then
        /// closes.
        fn pump(&mut self, at: usize, now: u64) {
            if at != 0 {
                return;
            }
            while !self.unsent.is_empty() {
                let a = self.ends[0].as_mut().expect("the active opener");
                let chunk = self.unsent.make_contiguous();
                let Ok((n, actions)) = a.send(&chunk[..chunk.len().min(4096)], now) else {
                    return;
                };
                if n == 0 {
                    return;
                }
                self.unsent.drain(..n);
                self.route(0, actions, now);
            }
            let a = self.ends[0].as_mut().expect("the active opener");
            if let Ok(fin) = a.close(now) {
                self.route(0, fin, now);
            }
        }
    }

    let listener = ListenTcb::new(B, cfg.clone());
    let (a, syn) = Twin::connect(A, B, cfg);
    let mut run = Run {
        ends: [Some(a), None],
        wire: Vec::new(),
        timers: HashMap::new(),
        unsent: data.iter().copied().collect(),
        read: Vec::new(),
        rng: seed | 1,
        order: 0,
        loss,
    };
    run.route(0, syn, 0);
    for _ in 0..200_000 {
        let closed = |e: &Option<Twin>| e.as_ref().is_some_and(|t| t.state() == State::Closed);
        if closed(&run.ends[0]) && closed(&run.ends[1]) {
            break;
        }
        // The earliest of the next delivery and the next timer.
        let seg = (0..run.wire.len()).min_by_key(|&i| (run.wire[i].0, run.wire[i].1));
        let timer = run
            .timers
            .iter()
            .map(|(&k, &d)| (d, k))
            .min_by_key(|&(d, (at, t))| (d, at, t as u8));
        let seg_due = seg.map(|i| run.wire[i].0);
        match (seg_due, timer) {
            (Some(due), t) if t.is_none_or(|(d, _)| due <= d) => {
                let (now, _, to, repr, payload) = run.wire.swap_remove(seg.expect("due"));
                let actions = match run.ends[to].as_mut() {
                    Some(end) => end.on_segment(&repr, &payload, now),
                    None => match Twin::on_syn(&listener, A, &repr, now) {
                        Some((b, synack)) => {
                            run.ends[to] = Some(b);
                            synack
                        }
                        None => Vec::new(),
                    },
                };
                run.route(to, actions, now);
            }
            (_, Some((now, (at, t)))) => {
                run.timers.remove(&(at, t));
                let end = run.ends[at].as_mut().expect("it armed the timer");
                let actions = end.on_timer(t, now);
                run.route(at, actions, now);
            }
            _ => break,
        }
    }
    let states = run.ends.map(|end| end.map(|twin| twin.state()));
    assert_eq!(states, [Some(State::Closed); 2], "the close dance stalled");
    run.read
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn impaired_transfers_are_the_same_through_both_forms(
        seed in 1u64..10_000,
        loss in 0.0f64..0.15,
        len in 0usize..20_000,
        tiny in proptest::bool::ANY,
    ) {
        let mut cfg = TcpConfig::default();
        if tiny {
            // Heavy zero-window episodes: persist timers and window updates.
            cfg.recv_buf = 1024;
            cfg.send_buf = 1024;
        }
        let data: Vec<u8> = (0..len).map(|i| (i as u64 * 31 + seed) as u8).collect();
        let read = impaired_transfer(seed, loss, cfg, &data);
        prop_assert_eq!(read, data);
    }
}
