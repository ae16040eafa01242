//! `unp-timers` — timer facilities for transport protocols.
//!
//! The paper notes that "practically every message arrival and departure
//! involves timer operations" and points to hashed/hierarchical timing
//! wheels (Varghese & Lauck, SOSP '87) as the known fast implementation.
//! This crate provides:
//!
//! * [`TimerWheel`] — a hierarchical timing wheel whose start, stop and
//!   earliest-deadline query do not depend on how many timers are armed,
//!   and whose advance skips empty time; used by the protocol library;
//! * [`SortedTimerList`] — the naive ordered-list implementation used as the
//!   baseline in the ablation benchmark (`cargo bench -p unp-bench`).
//!
//! Both implement [`TimerService`] so the protocol code is generic over
//! the timer substrate.

pub mod list;
pub mod wheel;

pub use list::SortedTimerList;
pub use wheel::TimerWheel;

/// Time type shared with the simulator (nanoseconds).
pub type Nanos = u64;

/// Opaque handle to a started timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u64);

/// A facility that fires opaque tokens at requested deadlines.
///
/// `T` is the payload delivered on expiry (the protocol's timer kind plus
/// connection identifier).
pub trait TimerService<T> {
    /// Starts a timer firing at absolute time `deadline`, returning a handle
    /// usable with [`TimerService::stop`].
    fn start(&mut self, deadline: Nanos, token: T) -> TimerId;

    /// Stops a pending timer. Returns the token if it had not fired.
    fn stop(&mut self, id: TimerId) -> Option<T>;

    /// Advances the clock to `now`, collecting every token whose deadline is
    /// `<= now` in deadline order (ties in start order).
    fn advance(&mut self, now: Nanos, fired: &mut Vec<T>);

    /// The earliest pending deadline, if any — what the event loop sleeps on.
    fn next_deadline(&self) -> Option<Nanos>;

    /// Number of timers pending.
    fn pending(&self) -> usize;
}

#[cfg(test)]
mod conformance {
    //! Conformance tests run against both implementations.

    use super::*;

    fn exercise<S: TimerService<u32>>(mut s: S) {
        let mut fired = Vec::new();

        // Fire order follows deadlines, not insertion order.
        s.start(300, 3);
        s.start(100, 1);
        s.start(200, 2);
        assert_eq!(s.pending(), 3);
        assert_eq!(s.next_deadline(), Some(100));
        s.advance(250, &mut fired);
        assert_eq!(fired, vec![1, 2]);
        assert_eq!(s.pending(), 1);

        // Stop prevents firing and returns the token.
        let id = s.start(400, 4);
        assert_eq!(s.stop(id), Some(4));
        assert_eq!(s.stop(id), None);
        fired.clear();
        s.advance(1000, &mut fired);
        assert_eq!(fired, vec![3]);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.next_deadline(), None);

        // Deadlines in the past fire on the next advance.
        s.start(500, 5);
        fired.clear();
        s.advance(1000, &mut fired);
        assert_eq!(fired, vec![5]);

        // Equal deadlines fire in start order.
        s.start(2000, 7);
        s.start(2000, 8);
        fired.clear();
        s.advance(2000, &mut fired);
        assert_eq!(fired, vec![7, 8]);
    }

    #[test]
    fn wheel_conformance() {
        exercise(TimerWheel::new(0));
    }

    #[test]
    fn list_conformance() {
        exercise(SortedTimerList::new());
    }
}
