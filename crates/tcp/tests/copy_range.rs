//! `copy_range` against the byte-iterator expression it replaced
//! (`buf.iter().skip(s).take(n).copied().collect()`), and `ring_slices`
//! against `copy_range`, on rings that have wrapped: the range may lie in
//! the front slice, in the back slice, or straddle the seam between them.

use std::collections::VecDeque;

use proptest::prelude::*;

use unp_tcp::{copy_range, ring_slices};

fn by_iterator(buf: &VecDeque<u8>, start: usize, len: usize) -> Vec<u8> {
    buf.iter().skip(start).take(len).copied().collect()
}

/// Pushes `n` bytes of a running counter without letting the ring
/// reallocate (a reallocation would lay it out contiguously again).
fn push(buf: &mut VecDeque<u8>, next: &mut u8, n: usize) {
    for _ in 0..n.min(buf.capacity() - buf.len()) {
        buf.push_back(*next);
        *next = next.wrapping_add(1);
    }
}

/// A 13-byte ring whose head sits three bytes before its end.
fn wrapped() -> VecDeque<u8> {
    let mut buf = VecDeque::with_capacity(16);
    let mut next = 0u8;
    push(&mut buf, &mut next, 12);
    buf.drain(..9);
    push(&mut buf, &mut next, 10);
    let (front, back) = buf.as_slices();
    assert!(
        !front.is_empty() && !back.is_empty(),
        "the ring must be wrapped for the seam to be tested"
    );
    buf
}

#[test]
fn every_range_of_a_wrapped_ring() {
    let buf = wrapped();
    // All starts and lengths: covers `n = 0` at every offset, ranges wholly
    // in the back slice, and ranges straddling the seam.
    for start in 0..=buf.len() {
        for len in 0..=buf.len() - start {
            assert_eq!(
                copy_range(&buf, start, len),
                by_iterator(&buf, start, len),
                "start {start} len {len}"
            );
        }
    }
}

#[test]
fn ring_slices_split_a_range_at_the_seam_only() {
    let buf = wrapped();
    let seam = buf.as_slices().0.len();
    for start in 0..=buf.len() {
        for len in 0..=buf.len() - start {
            let [front, back] = ring_slices(&buf, start, len);
            assert_eq!(
                [front, back].concat(),
                copy_range(&buf, start, len),
                "start {start} len {len}"
            );
            let straddles = start < seam && start + len > seam;
            assert_eq!(
                !front.is_empty() && !back.is_empty(),
                straddles,
                "start {start} len {len}: two halves only across the seam"
            );
            if straddles {
                assert_eq!(front.len(), seam - start, "the first half ends at the seam");
            }
        }
    }
}

/// The precondition is `start + len <= buf.len()` for empty ranges too,
/// where the iterator expression returned an empty `Vec`.
#[test]
#[should_panic]
fn an_empty_range_past_the_end_is_refused() {
    copy_range(&VecDeque::from(vec![1, 2, 3]), 4, 0);
}

proptest! {
    /// Random push/consume histories in a fixed-capacity ring, so the head
    /// travels round it; after every step the named edge ranges and a
    /// random one are compared.
    #[test]
    fn matches_the_iterator_over_random_histories(
        steps in proptest::collection::vec((0usize..48, 0usize..48, any::<u64>()), 1..60),
    ) {
        let mut buf = VecDeque::with_capacity(64);
        let mut next = 0u8;
        for (pushed, consumed, pick) in steps {
            push(&mut buf, &mut next, pushed);
            buf.drain(..consumed.min(buf.len()));
            let total = buf.len();
            let seam = buf.as_slices().0.len();
            let start = pick as usize % (total + 1);
            let len = (pick >> 32) as usize % (total - start + 1);
            let ranges = [
                (start, len),
                (start, 0),
                (0, total),
                // Wholly in the back slice (empty when the ring is not wrapped).
                (seam, total - seam),
                // Straddling the seam by up to three bytes either side.
                (seam.saturating_sub(3), (total - seam).min(3) + seam.min(3)),
            ];
            for (s, n) in ranges {
                prop_assert_eq!(copy_range(&buf, s, n), by_iterator(&buf, s, n), "start {} len {}", s, n);
                prop_assert_eq!(ring_slices(&buf, s, n).concat(), copy_range(&buf, s, n), "start {} len {}", s, n);
            }
        }
    }
}
