//! A lease behaves like a read.
//!
//! Two receiving blocks of one connection take the same random script:
//! segments at random offsets around the window (out of order, repeated,
//! past it, lost in between), now and then the peer's FIN, and reads. At
//! a read, one block reads every readable byte (`Tcb::recv_into`) and the
//! other leases them (`Tcb::lease_into`); the leaser hands its leases over
//! (`Tcb::release_lease`) later, oldest first, with more segments landing
//! in between and more than one lease outstanding. After every step both
//! blocks have emitted the same actions and read the same through every
//! accessor, and every released lease — its two slices, one on either
//! side of the ring's seam, concatenated — is exactly the bytes the reader
//! read at its lease point. The runs also count the leases handed over in
//! two slices and the leases spilled out of the ring, and hold that the
//! scripts reach both. Tier-1 runs 64 cases; `ci.sh` runs 512 in
//! release.

mod scripts;

use std::collections::VecDeque;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use scripts::{established_from, A, B};
use unp_tcp::{Tcb, TcpAction, TcpConfig};
use unp_wire::{SeqNum, TcpFlags, TcpRepr};

const MS: u64 = 1_000_000;

#[derive(Debug, Clone)]
enum Step {
    /// `len` bytes at `off` from the reader's `rcv_nxt`, their contents
    /// marked with `tag`.
    Segment { off: i64, len: usize, tag: u8 },
    /// The peer's FIN at `off` from `rcv_nxt`.
    Fin(i64),
    /// Read all (the reader) or lease all (the leaser).
    Read,
    /// The leaser hands over its oldest lease.
    Release,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let len = prop_oneof![Just(1usize), 1usize..1461, 1usize..3000];
    let off = prop_oneof![Just(0i64), (0i64..3000).prop_map(|o| o - 1500), 1i64..6000,];
    (0u8..40, off, len, 0u8..4).prop_map(|(kind, off, len, tag)| match kind {
        0 => Step::Fin(off.max(0)),
        1..=8 => Step::Read,
        9..=15 => Step::Release,
        _ => Step::Segment { off, len, tag },
    })
}

fn arb_script() -> impl Strategy<Value = (usize, u32, Vec<Step>)> {
    let cap = prop_oneof![Just(2048usize), Just(4096), Just(16 * 1024)];
    (
        cap,
        0u32..8000,
        proptest::collection::vec(arb_step(), 1..300),
    )
}

/// What the byte at sequence number `seq` reads in an arrival marked `tag`.
fn byte(seq: u32, tag: u8) -> u8 {
    (seq as u8)
        .wrapping_mul(7)
        .wrapping_add(tag.wrapping_mul(101))
}

/// How often the runs took the paths a lease has besides a read's.
#[derive(Debug, Default)]
struct Counts {
    /// Leases handed over as two slices, across the ring's seam.
    two_slice: usize,
    /// Arrivals that moved the leased bytes out of the ring.
    spills: usize,
    /// The most leases outstanding at once.
    outstanding: usize,
}

/// Everything the two blocks show of themselves must agree.
fn same_face(reader: &Tcb, leaser: &Tcb, at: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(reader.state(), leaser.state(), "state {}", at);
    prop_assert_eq!(reader.recv_available(), leaser.recv_available(), "{}", at);
    prop_assert_eq!(reader.at_eof(), leaser.at_eof(), "at_eof {}", at);
    prop_assert_eq!(reader.send_sequence(), leaser.send_sequence(), "{}", at);
    prop_assert_eq!(reader.send_space(), leaser.send_space(), "{}", at);
    let stats = |t: &Tcb| format!("{:?} {:?}", t.stats(), t.srtt());
    prop_assert_eq!(stats(reader), stats(leaser), "{}", at);
    Ok(())
}

/// The last ACK number in `out`.
fn last_ack(out: &[TcpAction]) -> Option<SeqNum> {
    out.iter().rev().find_map(|a| match a {
        TcpAction::Send(r, _) if r.flags.ack => Some(r.ack_num),
        _ => None,
    })
}

/// Hands over the leaser's oldest lease, which must be `want`.
fn release(leaser: &mut Tcb, want: &[u8], counts: &mut Counts) -> Result<(), TestCaseError> {
    let before = leaser.leases();
    let got = leaser.release_lease(want.len(), |[front, back]| {
        counts.two_slice += usize::from(!back.is_empty());
        [front, back].concat()
    });
    prop_assert!(
        got == want,
        "a lease of {} bytes read otherwise",
        want.len()
    );
    prop_assert_eq!(leaser.leases().total(), before.total() - want.len());
    Ok(())
}

fn lease_is_a_read(
    cap: usize,
    before_wrap: u32,
    steps: &[Step],
    counts: &mut Counts,
) -> Result<(), TestCaseError> {
    let cfg = TcpConfig {
        recv_buf: cap,
        delayed_ack: false,
        ..TcpConfig::default()
    };
    let iss_a = u32::MAX - before_wrap;
    let (_, mut reader) = established_from(&cfg, iss_a, 1);
    let (_, mut leaser) = established_from(&cfg, iss_a, 1);
    let mut rcv_nxt = SeqNum(iss_a) + 1;
    // The reader's bytes at each lease the leaser has not handed over.
    let mut leases: VecDeque<Vec<u8>> = VecDeque::new();
    let mut now = MS;
    for (i, step) in steps.iter().enumerate() {
        now += MS;
        let at = format!("step {i}: {step:?}");
        let (seq, payload, fin) = match *step {
            Step::Segment { off, len, tag } => {
                let seq = rcv_nxt + off as u32;
                let payload = (0..len as u32)
                    .map(|k| byte(seq.0.wrapping_add(k), tag))
                    .collect();
                (seq, payload, false)
            }
            Step::Fin(off) => (rcv_nxt + off as u32, Vec::new(), true),
            Step::Read => {
                let (mut data, mut read_out, mut lease_out) = (Vec::new(), Vec::new(), Vec::new());
                let n = reader.recv_into(usize::MAX, now, &mut data, &mut read_out);
                prop_assert_eq!(leaser.lease_into(now, &mut lease_out), n, "{}", at);
                prop_assert_eq!(&read_out, &lease_out, "{}", at);
                if n > 0 {
                    leases.push_back(data);
                    counts.outstanding = counts.outstanding.max(leases.len());
                }
                same_face(&reader, &leaser, &at)?;
                continue;
            }
            Step::Release => {
                if let Some(want) = leases.pop_front() {
                    release(&mut leaser, &want, counts)?;
                }
                same_face(&reader, &leaser, &at)?;
                continue;
            }
        };
        let repr = TcpRepr {
            src_port: A.1,
            dst_port: B.1,
            seq,
            ack_num: reader.send_sequence().1,
            flags: TcpFlags {
                fin,
                ..TcpFlags::ack()
            },
            window: u16::MAX,
            mss: None,
        };
        let spilled = leaser.leases().spilled;
        let read_out = reader.on_segment(&repr, &payload, now);
        let lease_out = leaser.on_segment(&repr, &payload, now);
        prop_assert_eq!(&read_out, &lease_out, "{}", at);
        if leaser.leases().spilled > spilled {
            counts.spills += 1;
        }
        rcv_nxt = last_ack(&read_out).unwrap_or(rcv_nxt);
        same_face(&reader, &leaser, &at)?;
    }
    // What is left: the leases outstanding, then one more read of the rest.
    while let Some(want) = leases.pop_front() {
        release(&mut leaser, &want, counts)?;
    }
    let (mut rest, mut read_out, mut lease_out) = (Vec::new(), Vec::new(), Vec::new());
    let n = reader.recv_into(usize::MAX, now + MS, &mut rest, &mut read_out);
    prop_assert_eq!(leaser.lease_into(now + MS, &mut lease_out), n);
    prop_assert_eq!(&read_out, &lease_out);
    release(&mut leaser, &rest, counts)?;
    prop_assert_eq!(leaser.leases().total(), 0);
    same_face(&reader, &leaser, "the end")
}

#[test]
fn a_lease_then_its_release_reads_as_a_read() {
    let cases = if cfg!(debug_assertions) { 64 } else { 512 };
    let mut counts = Counts::default();
    for case in 0..cases {
        let seed = 0x1ea5e ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (cap, before_wrap, steps) = arb_script().generate(&mut TestRng::from_seed(seed));
        if let Err(e) = lease_is_a_read(cap, before_wrap, &steps, &mut counts) {
            panic!("case {}/{cases} (seed {seed:#x}, cap {cap}): {e}", case + 1);
        }
    }
    // The scripts reach what a lease adds to a read, every run.
    assert!(
        counts.two_slice > 0 && counts.spills > 0 && counts.outstanding >= 2,
        "{counts:?} over {cases} cases"
    );
}

/// A lease leaves the block's accounting where a read does, so a block
/// in TIME_WAIT with a lease outstanding cannot become a record: it sits
/// out the wait itself until the lease is handed over.
#[test]
fn a_block_with_a_lease_outstanding_is_not_a_record() {
    let cfg = TcpConfig {
        delayed_ack: false,
        ..TcpConfig::default()
    };
    let (mut a, mut b) = scripts::established(&cfg, 1);
    let (_, data) = a.send(b"leased", 2).expect("Established takes data");
    scripts::deliver(&mut b, &data, 3);
    let n = b.lease_into(4, &mut Vec::new());
    // `b` closes first and `a` answers with its FIN: `b` is in TIME_WAIT.
    let fin = b.close(5).expect("Established takes a close");
    let ack = scripts::deliver(&mut a, &fin, 6);
    let fin = a.close(7).expect("CloseWait takes a close");
    scripts::deliver(&mut b, &ack, 8);
    scripts::deliver(&mut b, &fin, 9);
    assert_eq!(b.state(), unp_tcp::State::TimeWait);
    assert!(b.time_wait().is_none(), "a record would drop the lease");
    assert_eq!(b.take_rings().map(|_| ()), None, "the rings hold the lease");
    assert_eq!(b.release_lease(n, |bytes| bytes.concat()), b"leased");
    assert!(
        b.time_wait().is_some(),
        "released, the wait can be a record"
    );
}
