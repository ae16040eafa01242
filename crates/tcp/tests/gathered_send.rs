//! A gathered write is one write.
//!
//! Two blocks of one connection, walked into the same state, take the same
//! random write: one as a single slice (`Tcb::send`), the other cut at
//! random points into parts, some of them empty (`Tcb::send_into` over the
//! parts). Both must take the same count or refuse with the same error,
//! emit the same actions — segment cuts, payload bytes, timers — and read
//! the same through every accessor; then the peer acknowledges everything
//! sent and opens its window, round after round, and what each sends of
//! the rest must agree too. The states: `SynSent`, `Established` with
//! nothing in flight, with a first write in flight (Nagle's case), with a
//! full send buffer and behind a zero window, `CloseWait`, a queued FIN
//! (`FinWait1`, `LastAck`), `TimeWait` and `Closed`; Nagle on and off.
//! Tier-1 runs 64 cases; `ci.sh` runs 512 in release.

mod scripts;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use scripts::{established, half_closed, half_open, sends};
use unp_tcp::{State, Tcb, TcpConfig};
use unp_wire::{TcpFlags, TcpRepr};

const MS: u64 = 1_000_000;

/// Where the write finds the block.
#[derive(Debug, Clone, Copy)]
enum Setting {
    SynSent,
    Established,
    /// A first write of this many bytes went before.
    InFlight(usize),
    /// A first write filled the send buffer.
    Full,
    /// The peer has closed its window.
    ZeroWindow,
    CloseWait,
    FinWait1,
    LastAck,
    TimeWait,
    Closed,
}

#[derive(Debug, Clone)]
struct Case {
    send_buf: usize,
    mss: usize,
    nagle: bool,
    setting: Setting,
    /// The write, and where it is cut (sorted; repeats make empty parts).
    data: Vec<u8>,
    cuts: Vec<usize>,
}

fn arb_setting() -> impl Strategy<Value = Setting> {
    prop_oneof![
        Just(Setting::SynSent),
        Just(Setting::Established),
        (1usize..5000).prop_map(Setting::InFlight),
        (1usize..5000).prop_map(Setting::InFlight),
        Just(Setting::Full),
        Just(Setting::ZeroWindow),
        Just(Setting::CloseWait),
        Just(Setting::FinWait1),
        Just(Setting::LastAck),
        Just(Setting::TimeWait),
        Just(Setting::Closed),
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    let send_buf = prop_oneof![Just(1024usize), Just(4096), Just(16 * 1024)];
    let mss = prop_oneof![Just(536usize), Just(1460)];
    let len = prop_oneof![Just(0usize), 1usize..200, 1usize..40_000];
    let cuts = proptest::collection::vec(0usize..=1 << 20, 0..8);
    let cfg = (send_buf, mss, any::<bool>());
    (cfg, arb_setting(), len, cuts, any::<u8>()).prop_map(
        |((send_buf, mss, nagle), setting, len, cuts, tag)| {
            let data = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.sort_unstable();
            Case {
                send_buf,
                mss,
                nagle,
                setting,
                data,
                cuts,
            }
        },
    )
}

/// `data` cut at `cuts`.
fn parts<'a>(data: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let edges = std::iter::once(0).chain(cuts.iter().copied());
    let ends = cuts.iter().copied().chain(std::iter::once(data.len()));
    edges.zip(ends).map(|(lo, hi)| &data[lo..hi]).collect()
}

/// An ACK from `peer` to `tcb` for everything `tcb` has sent, offering
/// `window`.
fn ack(tcb: &Tcb, peer: &Tcb, window: u16) -> TcpRepr {
    TcpRepr {
        src_port: peer.local().1,
        dst_port: tcb.local().1,
        seq: peer.send_sequence().1,
        ack_num: tcb.send_sequence().1,
        flags: TcpFlags::ack(),
        window,
        mss: None,
    }
}

/// The block the write finds, and its peer (which only names the
/// sequence numbers of the ACKs the test makes up for it).
fn walk(case: &Case) -> (Tcb, Tcb) {
    let cfg = TcpConfig {
        send_buf: case.send_buf,
        mss_local: case.mss,
        nagle: case.nagle,
        delayed_ack: false,
        ..TcpConfig::default()
    };
    let (mut tcb, peer) = match case.setting {
        Setting::SynSent => {
            let (a, b, _) = half_open(&cfg);
            (a, b)
        }
        Setting::CloseWait | Setting::LastAck => {
            let (a, b, _) = half_closed(&cfg);
            (b, a)
        }
        Setting::FinWait1 => {
            let (a, b, _) = half_closed(&cfg);
            (a, b)
        }
        Setting::TimeWait => {
            let (mut a, mut b, _) = half_closed(&cfg);
            let fin_ack = b.close(12).expect("CloseWait takes a close");
            scripts::deliver(&mut a, &fin_ack, 13);
            (a, b)
        }
        _ => established(&cfg, 1),
    };
    match case.setting {
        Setting::InFlight(n) => {
            tcb.send(&vec![7; n], 2).expect("Established takes data");
        }
        Setting::Full => {
            let full = vec![7; case.send_buf];
            tcb.send(&full, 2).expect("Established takes data");
            assert_eq!(tcb.send_space(), 0, "the first write fills the buffer");
        }
        Setting::ZeroWindow => {
            tcb.on_segment(&ack(&tcb, &peer, 0), &[], 2);
        }
        Setting::LastAck => {
            tcb.close(12).expect("CloseWait takes a close");
        }
        Setting::Closed => {
            tcb.abort();
        }
        _ => {}
    }
    (tcb, peer)
}

/// Everything the two blocks show of themselves must agree.
fn same_face(whole: &Tcb, gathered: &Tcb, at: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(whole.state(), gathered.state(), "state {}", at);
    prop_assert_eq!(whole.send_space(), gathered.send_space(), "{}", at);
    prop_assert_eq!(whole.send_sequence(), gathered.send_sequence(), "{}", at);
    prop_assert_eq!(whole.recv_available(), gathered.recv_available(), "{}", at);
    prop_assert_eq!(whole.at_eof(), gathered.at_eof(), "at_eof {}", at);
    let stats = |t: &Tcb| format!("{:?} {:?}", t.stats(), t.srtt());
    prop_assert_eq!(stats(whole), stats(gathered), "{}", at);
    Ok(())
}

/// How often the cases reached what a gathered write must get right.
#[derive(Debug, Default)]
struct Counts {
    /// Writes cut into two or more parts that the block took in part.
    split_and_cut_short: usize,
    /// Writes of two or more parts, Nagle on, with bytes held back until
    /// the peer's ACK.
    held_back: usize,
    /// Writes refused.
    refused: usize,
}

fn one_write_however_cut(case: &Case, counts: &mut Counts) -> Result<(), TestCaseError> {
    let (mut whole, peer) = walk(case);
    let (mut gathered, _) = walk(case);
    let split = parts(&case.data, &case.cuts);
    let mut now = 3 * MS;
    let (took, whole_out) = match whole.send(&case.data, now) {
        Ok((n, out)) => (Ok(n), out),
        Err(e) => (Err(e), Vec::new()),
    };
    let mut gathered_out = Vec::new();
    let took_gathered = gathered.send_into(split.iter().copied(), now, &mut gathered_out);
    prop_assert_eq!(took, took_gathered, "what the write took");
    prop_assert_eq!(&whole_out, &gathered_out, "what the write emitted");
    same_face(&whole, &gathered, "after the write")?;
    match took {
        Err(_) => counts.refused += 1,
        Ok(n) if split.len() > 1 && n < case.data.len() => counts.split_and_cut_short += 1,
        Ok(_) => {}
    }
    // The peer takes everything sent, round after round, its window open.
    for round in 0..64 {
        now += MS;
        let repr = ack(&whole, &peer, u16::MAX);
        let whole_out = whole.on_segment(&repr, &[], now);
        let gathered_out = gathered.on_segment(&repr, &[], now);
        prop_assert_eq!(&whole_out, &gathered_out, "round {}", round);
        same_face(&whole, &gathered, &format!("round {round}"))?;
        let data_sent = sends(&whole_out).iter().any(|(_, p)| !p.is_empty());
        if round == 0 && whole.state() == State::Established && split.len() > 1 {
            counts.held_back += usize::from(data_sent && case.nagle);
        }
        if !data_sent {
            break;
        }
    }
    Ok(())
}

#[test]
fn a_write_cut_into_parts_is_the_same_write() {
    let cases = if cfg!(debug_assertions) { 64 } else { 512 };
    let mut counts = Counts::default();
    for case in 0..cases {
        let seed = 0x6a7e ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let script = arb_case().generate(&mut TestRng::from_seed(seed));
        if let Err(e) = one_write_however_cut(&script, &mut counts) {
            panic!(
                "case {}/{cases} (seed {seed:#x}): {e}\n{script:?}",
                case + 1
            );
        }
    }
    // The cases reach a write taken in part, a tail held back and a refusal.
    assert!(
        counts.split_and_cut_short > 0 && counts.held_back > 0 && counts.refused > 0,
        "{counts:?} over {cases} cases"
    );
}

/// Every part of a gathered write reaches the wire in order, whichever
/// sides of a segment boundary the cuts fall on.
#[test]
fn a_gathered_write_sends_its_parts_in_order() {
    let cfg = TcpConfig {
        nagle: false,
        delayed_ack: false,
        ..TcpConfig::default()
    };
    let (mut a, _b) = established(&cfg, 1);
    let (head, tail): (Vec<u8>, Vec<u8>) = ((0..1000).map(|i| i as u8).collect(), vec![9; 2000]);
    let mut out = Vec::new();
    let took = a.send_into([&head[..], &[], &tail[..]], 2, &mut out);
    assert_eq!(took, Ok(3000));
    let sent: Vec<u8> = sends(&out).into_iter().flat_map(|(_, p)| p).collect();
    assert_eq!(sent, [head, tail].concat());
}
