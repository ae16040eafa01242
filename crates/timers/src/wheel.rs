//! Hierarchical timing wheel (Varghese & Lauck, SOSP '87 — the paper's
//! reference \[25\] for fast timer facilities).
//!
//! Four levels of 64 slots each, with a ~1 ms base tick (2²⁰ ns), cover
//! deadlines up to ≈ 4.9 hours; anything farther sits in an overflow list
//! that is re-placed as the horizon advances. As in their wheel, each
//! slot is the head of a doubly linked list of timer nodes. The nodes
//! live in one slab, and `start` takes the most recently freed one, so
//! the wheel allocates only past its high-water mark of pending timers.
//! One occupancy word per level (a bit per non-empty slot) is what keeps
//! every operation off the population: start and stop are O(1);
//! `next_deadline` reads the first occupied slot of each level in
//! rotation order from its cursor; `advance` jumps from one occupied slot
//! or due cascade to the next, so it costs O(k) for the k timers fired or
//! cascaded plus O(1) per stop it makes, however much empty time lies
//! between. Each list's earliest deadline is kept beside its head, so no
//! query scans a list; stopping the timer that *is* its list's earliest
//! rescans that one list.
//!
//! A [`TimerId`] is its node's index (low 32 bits) and the low 32 bits of
//! its start's sequence number (high 32 bits), so an id whose timer has
//! fired or been stopped — even one whose node a later timer now holds —
//! and an id the wheel never issued stop nothing.

use crate::{Nanos, TimerId, TimerService};

/// log2 of the base tick in nanoseconds (2²⁰ ns ≈ 1.05 ms).
const TICK_SHIFT: u32 = 20;
/// log2 of slots per level.
const SLOT_SHIFT: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_SHIFT;
/// Number of levels.
const LEVELS: usize = 4;
/// The list number of the overflow list; slot `s` of level `l` is list
/// `l * SLOTS + s`.
const OVERFLOW: usize = LEVELS * SLOTS;
/// No node: the end of a list or of the free list.
const NIL: u32 = u32::MAX;

/// Ticks one slot of level `l` spans (`SLOTS^l`).
const fn unit(l: usize) -> u64 {
    1 << (SLOT_SHIFT * l as u32)
}

struct Node<T> {
    /// `None` while the node is on the free list.
    token: Option<T>,
    deadline: Nanos,
    /// Starts before this one: `(deadline, seq)` is the fire order, and
    /// the low 32 bits are the generation its [`TimerId`] carries.
    seq: u64,
    /// Neighbours on its list (on the free list, `next` only).
    prev: u32,
    next: u32,
    /// The list it is on.
    home: u16,
}

/// A hierarchical timing wheel. See module docs.
pub struct TimerWheel<T> {
    /// Every node ever needed at once: pending timers on their slots'
    /// lists, freed ones on the free list.
    nodes: Vec<Node<T>>,
    /// The most recently freed node.
    free: u32,
    /// `heads[home]` is the first node of list `home`. Live timers only:
    /// `stop` unlinks eagerly, so a wheel that is never advanced does not
    /// grow.
    heads: Box<[u32; OVERFLOW + 1]>,
    /// `earliest[home]` is the least deadline on list `home`; stale
    /// while that list is empty. Both arrays are boxed, so moving a wheel
    /// moves two pointers, not 3 KB.
    earliest: Box<[Nanos; OVERFLOW + 1]>,
    /// `occupied[l]` has bit `s` set iff slot `s` of level `l` is non-empty.
    occupied: [u64; LEVELS],
    /// The tick being processed: every earlier tick is fully harvested,
    /// this one up to the last `advance`'s `now`.
    current_tick: u64,
    next_seq: u64,
    pending: usize,
    /// `advance`'s due nodes, empty between calls and kept for its
    /// capacity.
    ripe: Vec<u32>,
}

impl<T> TimerWheel<T> {
    /// Creates a wheel whose notion of "now" starts at `start` nanoseconds.
    pub fn new(start: Nanos) -> TimerWheel<T> {
        TimerWheel {
            nodes: Vec::new(),
            free: NIL,
            heads: Box::new([NIL; OVERFLOW + 1]),
            earliest: Box::new([0; OVERFLOW + 1]),
            occupied: [0; LEVELS],
            current_tick: start >> TICK_SHIFT,
            next_seq: 0,
            pending: 0,
            ripe: Vec::new(),
        }
    }

    /// The list number of the level-`l` slot `tick` falls in.
    fn slot_of(l: usize, tick: u64) -> usize {
        l * SLOTS + ((tick / unit(l)) % SLOTS as u64) as usize
    }

    /// Level `l`'s occupancy word turned so that bit `k` stands for the
    /// slot of tick `(from + k) * unit(l)`.
    fn occupied_from(&self, l: usize, from: u64) -> u64 {
        self.occupied[l].rotate_right((from % SLOTS as u64) as u32)
    }

    fn node(&mut self, i: u32) -> &mut Node<T> {
        &mut self.nodes[i as usize]
    }

    /// Links node `i` at the head of the list its deadline belongs on.
    fn place(&mut self, i: u32) {
        let deadline = self.nodes[i as usize].deadline;
        // A deadline behind the cursor is due at the next advance.
        let tick = (deadline >> TICK_SHIFT).max(self.current_tick);
        let delta = tick - self.current_tick;
        let home = match (0..LEVELS).find(|&l| delta < unit(l + 1)) {
            Some(l) => {
                let home = Self::slot_of(l, tick);
                self.occupied[l] |= 1 << (home % SLOTS);
                home
            }
            None => OVERFLOW,
        };
        let head = self.heads[home];
        if head == NIL || deadline < self.earliest[home] {
            self.earliest[home] = deadline;
        }
        if head != NIL {
            self.node(head).prev = i;
        }
        let node = self.node(i);
        (node.prev, node.next, node.home) = (NIL, head, home as u16);
        self.heads[home] = i;
    }

    /// Takes node `i` off its list and returns the list, whose occupancy
    /// bit and earliest deadline are the caller's to settle.
    fn unlink(&mut self, i: u32) -> usize {
        let Node {
            prev, next, home, ..
        } = self.nodes[i as usize];
        let home = usize::from(home);
        match prev {
            NIL => self.heads[home] = next,
            prev => self.node(prev).next = next,
        }
        if next != NIL {
            self.node(next).prev = prev;
        }
        home
    }

    /// Brings list `home`'s occupancy bit and earliest deadline up to
    /// date after it lost a timer due at `gone`.
    fn settle(&mut self, home: usize, gone: Nanos) {
        if self.heads[home] == NIL {
            self.vacate(home);
        } else if gone == self.earliest[home] {
            let mut least = Nanos::MAX;
            let mut i = self.heads[home];
            while i != NIL {
                let node = &self.nodes[i as usize];
                least = least.min(node.deadline);
                i = node.next;
            }
            self.earliest[home] = least;
        }
    }

    /// Clears the occupancy bit of list `home`, now empty.
    fn vacate(&mut self, home: usize) {
        if home < OVERFLOW {
            self.occupied[home / SLOTS] &= !(1 << (home % SLOTS));
        }
    }

    /// Puts node `i`, off every list, on the free list, and returns its
    /// token.
    fn release(&mut self, i: u32) -> T {
        let free = std::mem::replace(&mut self.free, i);
        let node = self.node(i);
        node.next = free;
        let token = node.token.take().expect("a listed node holds a token");
        self.pending -= 1;
        token
    }

    /// Empties list `home` and places each of its timers again, now that
    /// the cursor is closer to their deadlines.
    fn cascade(&mut self, home: usize) {
        let mut i = std::mem::replace(&mut self.heads[home], NIL);
        self.vacate(home);
        while i != NIL {
            let next = self.nodes[i as usize].next;
            self.place(i);
            i = next;
        }
    }

    /// The first tick after the current one that has work — a non-empty
    /// level-0 slot, or a boundary whose cascade slot (or the overflow
    /// list) is non-empty — or `target` if that comes first.
    fn next_stop(&self, target: u64) -> u64 {
        let mut stop = target;
        for l in 0..LEVELS {
            // Slots in the order their ticks come up: the one after the
            // cursor's first, the cursor's own (a rotation on) last.
            let next = self.current_tick / unit(l) + 1;
            let ahead = self.occupied_from(l, next);
            if ahead != 0 {
                stop = stop.min((next + ahead.trailing_zeros() as u64) * unit(l));
            }
        }
        if self.heads[OVERFLOW] != NIL {
            let top = unit(LEVELS - 1);
            stop = stop.min((self.current_tick / top + 1) * top);
        }
        stop
    }
}

impl<T> TimerService<T> for TimerWheel<T> {
    fn start(&mut self, deadline: Nanos, token: T) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let node = Node {
            token: Some(token),
            deadline,
            seq,
            prev: NIL,
            next: NIL,
            home: 0,
        };
        let i = match self.free {
            NIL => {
                let i = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("fewer than 2^32 - 1 timers pending");
                self.nodes.push(node);
                i
            }
            i => {
                self.free = std::mem::replace(self.node(i), node).next;
                i
            }
        };
        self.place(i);
        self.pending += 1;
        TimerId(seq << 32 | u64::from(i))
    }

    fn stop(&mut self, id: TimerId) -> Option<T> {
        let i = id.0 as u32;
        let node = self.nodes.get(i as usize)?;
        if node.token.is_none() || node.seq as u32 != (id.0 >> 32) as u32 {
            return None;
        }
        let deadline = node.deadline;
        let home = self.unlink(i);
        self.settle(home, deadline);
        Some(self.release(i))
    }

    fn advance(&mut self, now: Nanos, fired: &mut Vec<T>) {
        let target = now >> TICK_SHIFT;

        while self.current_tick <= target {
            let tick = self.current_tick;
            // Cascade coarser levels *before* harvesting level 0, so timers
            // landing on this exact tick reach their level-0 slot in time.
            for l in 1..LEVELS {
                if !tick.is_multiple_of(unit(l)) {
                    break;
                }
                let home = Self::slot_of(l, tick);
                if self.heads[home] != NIL {
                    self.cascade(home);
                }
            }
            // Retry overflow placement as the top level's cursor advances.
            if tick.is_multiple_of(unit(LEVELS - 1)) && self.heads[OVERFLOW] != NIL {
                self.cascade(OVERFLOW);
            }
            // Harvest the level-0 slot for this tick.
            let home = Self::slot_of(0, tick);
            let mut i = self.heads[home];
            if tick < target {
                // The whole tick has elapsed: everything in it is ripe.
                // Then skip the empty time up to the next tick with work.
                while i != NIL {
                    self.ripe.push(i);
                    i = self.nodes[i as usize].next;
                }
                self.heads[home] = NIL;
                self.vacate(home);
                self.current_tick = self.next_stop(target);
            } else {
                // Partial tick: fire only sub-tick deadlines `<= now`; the
                // rest stay in the slot for a later advance, which starts
                // on this tick again. Whatever stays is due after all that
                // went, so a list that lost a timer lost its earliest.
                let due = self.ripe.len();
                while i != NIL {
                    let Node { deadline, next, .. } = self.nodes[i as usize];
                    if deadline <= now {
                        self.unlink(i);
                        self.ripe.push(i);
                    }
                    i = next;
                }
                if self.ripe.len() > due {
                    self.settle(home, self.earliest[home]);
                }
                break;
            }
        }

        // A slot is a whole tick, and several slots may have been
        // harvested: sort into fire order.
        let nodes = &self.nodes;
        self.ripe.sort_unstable_by_key(|&i| {
            let node = &nodes[i as usize];
            (node.deadline, node.seq)
        });
        let mut ripe = std::mem::take(&mut self.ripe);
        fired.extend(ripe.drain(..).map(|i| self.release(i)));
        self.ripe = ripe;
    }

    fn next_deadline(&self) -> Option<Nanos> {
        // Each level's earliest timer is in its first occupied slot in the
        // order the cursor reaches them: at level 0 starting with the
        // cursor's own slot (the current tick, harvested only up to the
        // last `now`), above it with the slot after — what a coarser
        // cursor slot holds is a whole rotation ahead. A coarser level's
        // earliest can still precede every finer timer, so the answer is
        // the least over the levels and the overflow list.
        let mut earliest = None;
        let mut offer = |home: usize| {
            let deadline = self.earliest[home];
            if earliest.is_none_or(|e| deadline < e) {
                earliest = Some(deadline);
            }
        };
        for l in 0..LEVELS {
            let from = self.current_tick / unit(l) + u64::from(l > 0);
            let ahead = self.occupied_from(l, from);
            if ahead != 0 {
                offer(Self::slot_of(
                    l,
                    (from + ahead.trailing_zeros() as u64) * unit(l),
                ));
            }
        }
        if self.heads[OVERFLOW] != NIL {
            offer(OVERFLOW);
        }
        earliest
    }

    fn pending(&self) -> usize {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Timers listed, after checking every list against the fields kept
    /// beside it: an occupancy bit is set exactly where a slot's list is
    /// non-empty, a non-empty list's recorded earliest deadline is its
    /// least, and each listed node is live, knows its list and links back
    /// to the node before it.
    fn listed<T>(w: &TimerWheel<T>) -> usize {
        let mut count = 0;
        for home in 0..=OVERFLOW {
            let (level, slot) = (home / SLOTS, home % SLOTS);
            let (mut prev, mut i, mut least) = (NIL, w.heads[home], None::<Nanos>);
            while i != NIL {
                let node = &w.nodes[i as usize];
                assert!(node.token.is_some(), "level {level} slot {slot}");
                assert_eq!((node.home as usize, node.prev), (home, prev));
                least = Some(least.map_or(node.deadline, |l| l.min(node.deadline)));
                (prev, i) = (i, node.next);
                count += 1;
            }
            if home < OVERFLOW {
                let bit = w.occupied[level] >> slot & 1;
                assert_eq!(bit == 1, least.is_some(), "level {level} slot {slot}");
            }
            if let Some(least) = least {
                assert_eq!(w.earliest[home], least, "level {level} slot {slot}");
            }
        }
        count
    }

    #[test]
    fn fires_at_exact_tick_boundaries() {
        let mut w: TimerWheel<&str> = TimerWheel::new(0);
        w.start(1 << TICK_SHIFT, "a");
        let mut fired = Vec::new();
        w.advance((1 << TICK_SHIFT) - 1, &mut fired);
        assert!(fired.is_empty(), "must not fire early");
        w.advance(1 << TICK_SHIFT, &mut fired);
        assert_eq!(fired, vec!["a"]);
    }

    #[test]
    fn long_deadline_cascades_correctly() {
        // A deadline far beyond level 0: 1000 ticks out lives in level 1+.
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        let deadline = 1000u64 << TICK_SHIFT;
        w.start(deadline, 42);
        let mut fired = Vec::new();
        w.advance(deadline - (1 << TICK_SHIFT), &mut fired);
        assert!(fired.is_empty());
        w.advance(deadline, &mut fired);
        assert_eq!(fired, vec![42]);
    }

    #[test]
    fn overflow_deadline_eventually_fires() {
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        // Beyond LEVELS*6 bits of ticks: > 2^24 ticks.
        let deadline = (1u64 << 25) << TICK_SHIFT;
        w.start(deadline, 7);
        let mut fired = Vec::new();
        w.advance(deadline, &mut fired);
        assert_eq!(fired, vec![7]);
    }

    #[test]
    fn stopped_timers_leave_no_residue() {
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        let ids: Vec<_> = (0..100)
            .map(|i| w.start((i + 1) << TICK_SHIFT, i as u32))
            .collect();
        for id in &ids {
            assert!(w.stop(*id).is_some());
        }
        assert_eq!(w.pending(), 0);
        assert_eq!(listed(&w), 0);
        let mut fired = Vec::new();
        w.advance(200 << TICK_SHIFT, &mut fired);
        assert!(fired.is_empty());
    }

    #[test]
    fn a_wheel_that_is_never_advanced_holds_only_live_ids() {
        // A request/response flow stops every RTO and delayed-ACK timer
        // before it fires, so nothing ever calls `advance`: `stop` itself
        // must take the timer off its slot. Deadlines cover every level
        // and the overflow list; eight timers are outstanding at any time
        // so `stop` unlinks from the middle of shared slots too.
        let mut w: TimerWheel<u64> = TimerWheel::new(0);
        let keepers: Vec<u64> = (0..5).map(|l| 3u64 << (TICK_SHIFT + 6 * l)).collect();
        for (i, &d) in keepers.iter().enumerate() {
            w.start(d, i as u64);
        }
        let mut window = std::collections::VecDeque::new();
        for i in 0..1_000_000u64 {
            let deadline = (1 + i % 7) << (TICK_SHIFT + 6 * (i % 5) as u32);
            window.push_back(w.start(deadline, 100 + i));
            if window.len() == 8 {
                // Alternate oldest and second-newest.
                let pick = if i % 2 == 0 { 0 } else { 6 };
                let id = window.remove(pick).expect("window holds eight ids");
                assert!(w.stop(id).is_some());
            }
            if i % 50_000 == 0 {
                assert_eq!(listed(&w), w.pending(), "at pair {i}");
            }
        }
        for id in window {
            assert!(w.stop(id).is_some());
        }
        assert_eq!(w.pending(), keepers.len());
        assert_eq!(listed(&w), keepers.len());
        // Freed nodes were reused: the slab never outgrew the most
        // timers pending at once (five keepers and eight in the window).
        assert!(
            w.nodes.len() <= keepers.len() + 8,
            "{} nodes",
            w.nodes.len()
        );
        // The links survived all the unlinks from mid-list: the keepers
        // still fire, in deadline order.
        let mut fired = Vec::new();
        w.advance(*keepers.last().unwrap(), &mut fired);
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(listed(&w), 0);
    }

    #[test]
    fn a_fired_stopped_or_forged_id_stops_nothing() {
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        let fired_id = w.start(1 << TICK_SHIFT, 1);
        let stopped = w.start(5 << TICK_SHIFT, 2);
        assert_eq!(w.stop(stopped), Some(2));
        let mut fired = Vec::new();
        w.advance(2 << TICK_SHIFT, &mut fired);
        assert_eq!(fired, vec![1]);
        // Both nodes go to the next two timers; their old ids still miss.
        let a = w.start(10 << TICK_SHIFT, 3);
        let b = w.start(11 << TICK_SHIFT, 4);
        let (old, new) = (
            [fired_id.0 as u32, stopped.0 as u32],
            [a.0 as u32, b.0 as u32],
        );
        assert!(
            new.iter().all(|i| old.contains(i)),
            "nodes {new:?} reuse {old:?}"
        );
        for id in [
            fired_id,
            stopped,
            TimerId(u64::MAX),
            TimerId(7),
            TimerId(a.0 ^ 1 << 32),
        ] {
            assert_eq!(w.stop(id), None, "{id:?}");
        }
        assert_eq!((w.pending(), listed(&w)), (2, 2));
        assert_eq!(w.next_deadline(), Some(10 << TICK_SHIFT));
        assert_eq!((w.stop(a), w.stop(b)), (Some(3), Some(4)));
    }

    #[test]
    fn many_timers_fire_in_deadline_order() {
        let mut w: TimerWheel<u64> = TimerWheel::new(0);
        // Insert in reverse.
        for i in (0..500u64).rev() {
            w.start((i + 1) * 777_000, i);
        }
        let mut fired = Vec::new();
        w.advance(501 * 777_000, &mut fired);
        let expect: Vec<u64> = (0..500).collect();
        assert_eq!(fired, expect);
    }

    #[test]
    fn wheel_started_at_nonzero_time() {
        let start = 123_456_789_000;
        let mut w: TimerWheel<&str> = TimerWheel::new(start);
        w.start(start + 5_000_000, "x");
        let mut fired = Vec::new();
        w.advance(start + 10_000_000, &mut fired);
        assert_eq!(fired, vec!["x"]);
    }

    #[test]
    fn restart_pattern_retransmission_style() {
        // TCP restarts its retransmit timer constantly; stop+start must not
        // leak or misfire.
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        let mut id = w.start(10 << TICK_SHIFT, 1);
        for i in 0..50u64 {
            assert!(w.stop(id).is_some());
            id = w.start((20 + i) << TICK_SHIFT, 1);
        }
        assert_eq!(w.pending(), 1);
        assert_eq!(w.nodes.len(), 1);
        let mut fired = Vec::new();
        w.advance(100 << TICK_SHIFT, &mut fired);
        assert_eq!(fired, vec![1]);
    }
}
