//! Reassembly keeps every byte where a byte map says it belongs.
//!
//! The property establishes a connection whose peer starts its sequence
//! space just short of `u32::MAX`, so the stream wraps early, and feeds
//! the receiving block segments at random offsets below, inside and past
//! its window — overlapping, duplicated, and with contents that conflict
//! where they overlap — interleaved with reads of random sizes. A byte map
//! written here is the reference: beyond `rcv_nxt` the first arrival of a
//! byte is kept, an in-order segment's bytes win over held ones, and
//! nothing past the advertised window is held. After every segment the
//! block's ACK number, advertised window and readable count match the
//! model's; every read returns the model's bytes. Tier-1 runs 64 cases;
//! `ci.sh` runs 512 in release.

mod scripts;

use std::collections::BTreeMap;

use proptest::prelude::*;
use scripts::{established_from, A, B};
use unp_tcp::{TcpAction, TcpConfig};
use unp_wire::{SeqNum, TcpFlags, TcpRepr};

const MS: u64 = 1_000_000;

#[derive(Debug, Clone)]
enum Step {
    /// `len` bytes at `off` from the model's `rcv_nxt`, their contents
    /// marked with `tag` so that two arrivals of one byte can differ.
    Segment {
        off: i64,
        len: usize,
        tag: u8,
    },
    /// One byte at `off` from the advertised window's right edge.
    AtEdge {
        off: i64,
        tag: u8,
    },
    Read(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let tag = 0u8..4;
    let len = prop_oneof![Just(1usize), 1usize..1461, 1usize..3000];
    let off = prop_oneof![
        Just(0i64),
        (0i64..3000).prop_map(|o| o - 1500),
        1i64..6000,
        (0i64..72_000).prop_map(|o| o - 2000),
    ];
    prop_oneof![
        (off, len, tag.clone()).prop_map(|(off, len, tag)| Step::Segment { off, len, tag }),
        (off_near_edge(), tag).prop_map(|(off, tag)| Step::AtEdge { off, tag }),
        (0usize..8000).prop_map(Step::Read),
    ]
}

/// The window's last byte, most often; otherwise a neighbour.
fn off_near_edge() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(-1i64),
        Just(-1),
        Just(0),
        (0i64..4).prop_map(|o| o - 2)
    ]
}

/// What the byte at stream position `pos` reads in an arrival marked `tag`.
fn byte(pos: i64, tag: u8) -> u8 {
    (pos as u8)
        .wrapping_mul(7)
        .wrapping_add(tag.wrapping_mul(101))
}

/// The receive side as a byte map, positions counted from the first byte
/// of the stream.
struct Model {
    cap: usize,
    rcv_nxt: i64,
    unread: Vec<u8>,
    held: BTreeMap<i64, u8>,
}

impl Model {
    fn window(&self) -> usize {
        (self.cap - self.unread.len()).min(u16::MAX as usize)
    }

    /// RFC 793's acceptability test for a segment of `len > 0` bytes.
    fn acceptable(&self, pos: i64, len: usize) -> bool {
        let (lo, hi) = (self.rcv_nxt, self.rcv_nxt + self.window() as i64);
        let inside = |p: i64| lo <= p && p < hi;
        self.window() > 0 && (inside(pos) || inside(pos + len as i64 - 1))
    }

    fn arrive(&mut self, pos: i64, data: &[u8]) {
        if !self.acceptable(pos, data.len()) {
            return;
        }
        if pos > self.rcv_nxt {
            let edge = self.rcv_nxt + self.window() as i64;
            for (p, &b) in (pos..edge).zip(data) {
                self.held.entry(p).or_insert(b);
            }
            return;
        }
        let skip = (self.rcv_nxt - pos) as usize;
        let take = data
            .len()
            .saturating_sub(skip)
            .min(self.cap - self.unread.len());
        for &b in &data[skip..skip + take] {
            self.held.remove(&self.rcv_nxt);
            self.unread.push(b);
            self.rcv_nxt += 1;
        }
        while let Some(b) = self.held.remove(&self.rcv_nxt) {
            self.unread.push(b);
            self.rcv_nxt += 1;
        }
    }
}

/// The last ACK in `out`, as `(ack number, window)`.
fn last_ack(out: &[TcpAction]) -> Option<(SeqNum, u16)> {
    out.iter().rev().find_map(|a| match a {
        TcpAction::Send(r, _) if r.flags.ack => Some((r.ack_num, r.window)),
        _ => None,
    })
}

fn reassembles(cap: usize, iss_a: u32, steps: &[Step]) -> Result<(), TestCaseError> {
    let cfg = TcpConfig {
        recv_buf: cap,
        delayed_ack: false,
        ..TcpConfig::default()
    };
    let (_a, mut b) = established_from(&cfg, iss_a, 1);
    let first = SeqNum(iss_a) + 1;
    let mut model = Model {
        cap,
        rcv_nxt: 0,
        unread: Vec::new(),
        held: BTreeMap::new(),
    };
    let mut right_edge = model.window() as i64;
    let mut now = MS;
    for step in steps {
        now += MS;
        let (pos, len, tag) = match *step {
            Step::Segment { off, len, tag } => (model.rcv_nxt + off, len, tag),
            Step::AtEdge { off, tag } => (model.rcv_nxt + model.window() as i64 + off, 1, tag),
            Step::Read(n) => {
                let (data, out) = b.recv(n, now);
                let take = n.min(model.unread.len());
                same_bytes(&data, &model.unread[..take])?;
                model.unread.drain(..take);
                if let Some(ack) = last_ack(&out) {
                    let want = (first + model.rcv_nxt as u32, model.window() as u16);
                    prop_assert_eq!(ack, want, "window update after a read");
                }
                continue;
            }
        };
        let payload: Vec<u8> = (pos..pos + len as i64).map(|p| byte(p, tag)).collect();
        let repr = TcpRepr {
            src_port: A.1,
            dst_port: B.1,
            seq: first + pos as u32,
            ack_num: b.send_sequence().1,
            flags: TcpFlags::ack(),
            window: u16::MAX,
            mss: None,
        };
        let out = b.on_segment(&repr, &payload, now);
        model.arrive(pos, &payload);
        let want = (first + model.rcv_nxt as u32, model.window() as u16);
        prop_assert_eq!(last_ack(&out), Some(want), "{:?} at {}", step, pos);
        prop_assert_eq!(b.recv_available(), model.unread.len());
        let edge = model.rcv_nxt + model.window() as i64;
        prop_assert!(edge >= right_edge, "the window's edge moved left");
        right_edge = edge;
    }
    let (rest, _) = b.recv(usize::MAX, now + MS);
    same_bytes(&rest, &model.unread)
}

/// `got` is `want`; if not, says where they part.
fn same_bytes(got: &[u8], want: &[u8]) -> Result<(), TestCaseError> {
    let differ = got.iter().zip(want).position(|(g, w)| g != w);
    prop_assert!(
        got.len() == want.len() && differ.is_none(),
        "read {} bytes, want {}; first difference at {:?}",
        got.len(),
        want.len(),
        differ
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

    #[test]
    fn reassembly_matches_a_byte_map(
        cap in prop_oneof![Just(2048usize), Just(16 * 1024), Just(64 * 1024)],
        before_wrap in 0u32..8000,
        steps in proptest::collection::vec(arb_step(), 1..200),
    ) {
        reassembles(cap, u32::MAX - before_wrap, &steps)?;
    }
}

/// A byte at the window's last sequence number is held, and the ring it
/// sits in ends exactly at the buffer's capacity: filling the gap leaves
/// a full buffer and a closed window.
#[test]
fn a_byte_at_the_windows_last_byte_fills_the_buffer() {
    let cap = 2048;
    let cfg = TcpConfig {
        recv_buf: cap,
        delayed_ack: false,
        ..TcpConfig::default()
    };
    let (_a, mut b) = established_from(&cfg, u32::MAX - 100, 1);
    let first = SeqNum(u32::MAX - 100) + 1;
    let mut seg = TcpRepr {
        src_port: A.1,
        dst_port: B.1,
        seq: first + (cap as u32 - 1),
        ack_num: b.send_sequence().1,
        flags: TcpFlags::ack(),
        window: u16::MAX,
        mss: None,
    };
    assert_eq!(
        last_ack(&b.on_segment(&seg, b"z", 2 * MS)),
        Some((first, cap as u16))
    );
    seg.seq = first;
    let out = b.on_segment(&seg, &vec![b'a'; cap - 1], 3 * MS);
    assert_eq!(last_ack(&out), Some((first + cap as u32, 0)));
    let (data, _) = b.recv(usize::MAX, 4 * MS);
    assert_eq!((data.len(), data[cap - 1]), (cap, b'z'));
}

/// Text past the peer's FIN is not the stream's: a block in `CloseWait`
/// fed ten bytes at the peer's SYN — one sequence number below its FIN,
/// two below `rcv_nxt` — takes none of them, and says nothing is readable.
#[test]
fn text_past_the_peers_fin_is_cut_at_the_fin() {
    let cfg = TcpConfig::default();
    let (_a, mut b, _ack) = scripts::half_closed(&cfg);
    let seg = TcpRepr {
        src_port: A.1,
        dst_port: B.1,
        seq: SeqNum(scripts::ISS_A),
        ack_num: b.send_sequence().1,
        flags: TcpFlags::ack(),
        window: u16::MAX,
        mss: None,
    };
    let out = b.on_segment(&seg, &[b'x'; 10], 20 * MS);
    assert!(!out.contains(&TcpAction::DataAvailable), "{out:?}");
    assert_eq!((b.recv_available(), b.at_eof()), (0, true));
}
