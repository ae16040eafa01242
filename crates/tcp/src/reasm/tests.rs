//! Reassembly at the byte level: segments go in through
//! `Delivery::accept_payload` and come out through `Delivery::read`.
//! Beyond `rcv_nxt` the first arrival of a byte is kept; an in-order
//! segment's bytes win over held ones.

use unp_wire::SeqNum;

use crate::delivery::{Delivery, Payload, Rings};

const CAP: usize = 4096;

/// A receive side whose next expected byte is `rcv_nxt`.
fn expecting(rcv_nxt: u32) -> Delivery {
    let mut d = Delivery::new(SeqNum(0), Rings::default());
    d.accept_syn(SeqNum(rcv_nxt.wrapping_sub(1)), None, 1460);
    d
}

fn put(d: &mut Delivery, seq: u32, data: &[u8]) -> Payload {
    d.accept_payload(SeqNum(seq), data, CAP)
}

fn read_all(d: &mut Delivery) -> Vec<u8> {
    let mut out = Vec::new();
    d.read(usize::MAX, &mut out);
    out
}

#[test]
fn gap_then_fill() {
    let mut d = expecting(100);
    assert!(matches!(put(&mut d, 110, b"later"), Payload::Held(5)));
    assert_eq!(read_all(&mut d), b"");
    assert_eq!((d.rcv_nxt(), d.recv_window(CAP)), (SeqNum(100), CAP as u32));
    // The hole fills: the edge jumps past the held run.
    assert!(matches!(
        put(&mut d, 100, b"0123456789"),
        Payload::InOrder(10)
    ));
    assert_eq!(d.rcv_nxt(), SeqNum(115));
    assert_eq!(read_all(&mut d), b"0123456789later");
}

#[test]
fn multiple_gaps_drain_in_order() {
    let mut d = expecting(100);
    put(&mut d, 120, b"cc");
    put(&mut d, 105, b"aa");
    put(&mut d, 110, b"bb");
    put(&mut d, 100, b"01234");
    assert_eq!(
        (d.rcv_nxt(), read_all(&mut d)),
        (SeqNum(107), b"01234aa".to_vec())
    );
    put(&mut d, 107, b"xyz");
    assert_eq!(
        (d.rcv_nxt(), read_all(&mut d)),
        (SeqNum(112), b"xyzbb".to_vec())
    );
    put(&mut d, 112, b"01234567");
    assert_eq!(
        (d.rcv_nxt(), read_all(&mut d)),
        (SeqNum(122), b"01234567cc".to_vec())
    );
}

#[test]
fn adjacent_segments_merge_on_take() {
    let mut d = expecting(0);
    put(&mut d, 10, b"abc");
    put(&mut d, 13, b"def");
    put(&mut d, 0, b"0123456789");
    assert_eq!(read_all(&mut d), b"0123456789abcdef");
}

#[test]
fn duplicate_segment_ignored() {
    let mut d = expecting(0);
    put(&mut d, 10, b"abc");
    put(&mut d, 10, b"abc");
    put(&mut d, 0, b"0123456789");
    assert_eq!(d.recv_available(), 13);
    assert_eq!(read_all(&mut d), b"0123456789abc");
}

#[test]
fn overlap_front_kept_existing() {
    let mut d = expecting(0);
    put(&mut d, 10, b"ABCD"); // 10..14
    put(&mut d, 12, b"xxYZ"); // 12..16; 12..14 overlap
    put(&mut d, 0, b"0123456789");
    assert_eq!(read_all(&mut d), b"0123456789ABCDYZ");
}

#[test]
fn overlap_tail_kept_existing() {
    let mut d = expecting(0);
    put(&mut d, 14, b"WXYZ"); // 14..18
    put(&mut d, 10, b"abcdEF"); // 10..16; tail 14..16 overlaps
    put(&mut d, 0, b"0123456789");
    assert_eq!(read_all(&mut d), b"0123456789abcdWXYZ");
}

/// A segment that covers a held one replaces its range with their union;
/// the held bytes are the first arrival and stay.
#[test]
fn contained_segment_replaced() {
    let mut d = expecting(0);
    put(&mut d, 12, b"mm"); // 12..14
    put(&mut d, 10, b"abcdef"); // 10..16 covers it
    put(&mut d, 0, b"0123456789");
    assert_eq!(read_all(&mut d), b"0123456789abmmef");
}

#[test]
fn works_across_sequence_wrap() {
    let near = u32::MAX - 2;
    let mut d = expecting(near);
    // The held segment starts after the wrap point.
    put(&mut d, near.wrapping_add(6), b"post");
    put(&mut d, near, b"abcdef");
    assert_eq!(d.rcv_nxt(), SeqNum(near.wrapping_add(10)));
    assert_eq!(read_all(&mut d), b"abcdefpost");
}

#[test]
fn stale_data_below_edge_dropped() {
    let mut d = expecting(0);
    put(&mut d, 10, b"abcdef");
    // The in-order segment runs past part of the held run and wins there.
    put(&mut d, 0, b"0123456789XYZ");
    assert_eq!(d.rcv_nxt(), SeqNum(16));
    assert_eq!(read_all(&mut d), b"0123456789XYZdef");
}

#[test]
fn empty_insert_is_noop() {
    let mut d = expecting(0);
    assert!(matches!(put(&mut d, 10, b""), Payload::Held(0)));
    put(&mut d, 0, b"0123456789");
    assert_eq!(d.rcv_nxt(), SeqNum(10));
    assert_eq!(d.recv_available(), 10);
}
