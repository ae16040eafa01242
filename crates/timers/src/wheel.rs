//! Hierarchical timing wheel (Varghese & Lauck, SOSP '87 — the paper's
//! reference \[25\] for fast timer facilities).
//!
//! Four levels of 64 slots each, with a ~1 ms base tick (2²⁰ ns), cover
//! deadlines up to ≈ 4.9 hours; anything farther sits in an overflow list
//! that is re-placed as the horizon advances. One occupancy word per
//! level (a bit per non-empty slot) is what keeps every operation off
//! the population: start and stop are O(1); `next_deadline` reads the
//! first occupied slot of each level in rotation order from its cursor;
//! `advance` jumps from one occupied slot or due cascade to the next, so
//! it costs O(k) for the k timers fired or cascaded plus O(1) per stop it
//! makes, however much empty time lies between. Each list's earliest
//! deadline is kept beside it, so no query scans a list; stopping the
//! timer that *is* its list's earliest rescans that one list.

use std::collections::HashMap;

use crate::{Nanos, TimerId, TimerService};

/// log2 of the base tick in nanoseconds (2²⁰ ns ≈ 1.05 ms).
const TICK_SHIFT: u32 = 20;
/// log2 of slots per level.
const SLOT_SHIFT: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_SHIFT;
/// Number of levels.
const LEVELS: usize = 4;
/// Index in `lists` of the overflow list; slot `s` of level `l` is
/// `lists[l * SLOTS + s]`.
const OVERFLOW: usize = LEVELS * SLOTS;

/// Ticks one slot of level `l` spans (`SLOTS^l`).
const fn unit(l: usize) -> u64 {
    1 << (SLOT_SHIFT * l as u32)
}

struct Entry<T> {
    token: T,
    /// Where the timer sits — `lists[home][pos]` — so `stop` can remove
    /// it without a search.
    home: usize,
    pos: usize,
}

/// A hierarchical timing wheel. See module docs.
pub struct TimerWheel<T> {
    /// `(deadline, id)` of every pending timer, by the slot whose span
    /// its deadline falls in. Live timers only: `stop` removes eagerly, so
    /// a wheel that is never advanced does not grow. Ids count starts, so
    /// `(deadline, id)` is also the fire order.
    lists: Vec<Vec<(Nanos, u64)>>,
    /// `earliest[home]` is the least deadline in `lists[home]`; stale
    /// while that list is empty.
    earliest: Vec<Nanos>,
    /// `occupied[l]` has bit `s` set iff slot `s` of level `l` is non-empty.
    occupied: [u64; LEVELS],
    entries: HashMap<u64, Entry<T>>,
    /// The tick being processed: every earlier tick is fully harvested,
    /// this one up to the last `advance`'s `now`.
    current_tick: u64,
    next_id: u64,
    /// `advance`'s working lists, empty between calls and kept for their
    /// capacity: the slot being cascaded, and everything due.
    cascading: Vec<(Nanos, u64)>,
    ripe: Vec<(Nanos, u64)>,
}

impl<T> TimerWheel<T> {
    /// Creates a wheel whose notion of "now" starts at `start` nanoseconds.
    pub fn new(start: Nanos) -> TimerWheel<T> {
        TimerWheel {
            lists: (0..=OVERFLOW).map(|_| Vec::new()).collect(),
            earliest: vec![0; OVERFLOW + 1],
            occupied: [0; LEVELS],
            entries: HashMap::new(),
            current_tick: start >> TICK_SHIFT,
            next_id: 0,
            cascading: Vec::new(),
            ripe: Vec::new(),
        }
    }

    /// Index in `lists` of the level-`l` slot `tick` falls in.
    fn slot_of(l: usize, tick: u64) -> usize {
        l * SLOTS + ((tick / unit(l)) % SLOTS as u64) as usize
    }

    /// Level `l`'s occupancy word turned so that bit `k` stands for the
    /// slot of tick `(from + k) * unit(l)`.
    fn occupied_from(&self, l: usize, from: u64) -> u64 {
        self.occupied[l].rotate_right((from % SLOTS as u64) as u32)
    }

    /// Pushes the timer onto the list its deadline belongs in and returns
    /// where it landed.
    fn place(&mut self, deadline: Nanos, id: u64) -> (usize, usize) {
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
        let list = &mut self.lists[home];
        if list.is_empty() || deadline < self.earliest[home] {
            self.earliest[home] = deadline;
        }
        list.push((deadline, id));
        (home, list.len() - 1)
    }

    /// Clears `home`'s occupancy bit once its list has emptied.
    fn vacate(&mut self, home: usize) {
        if home < OVERFLOW && self.lists[home].is_empty() {
            self.occupied[home / SLOTS] &= !(1 << (home % SLOTS));
        }
    }

    /// Removes `lists[home][pos]` by swapping the list's last timer into
    /// its place. List order is free: fire order is fixed by the sort in
    /// `advance`.
    fn unplace(&mut self, home: usize, pos: usize) {
        let list = &mut self.lists[home];
        let (deadline, _) = list.swap_remove(pos);
        if let Some((_, moved)) = list.get(pos) {
            self.entries
                .get_mut(moved)
                .expect("listed ids are live")
                .pos = pos;
        }
        if deadline == self.earliest[home] {
            if let Some(next) = list.iter().map(|&(deadline, _)| deadline).min() {
                self.earliest[home] = next;
            }
        }
        self.vacate(home);
    }

    /// Empties `home`'s list and places each of its timers again, now
    /// that the cursor is closer to their deadlines. The list trades
    /// buffers with `cascading`, so neither gives up its capacity.
    fn cascade(&mut self, home: usize) {
        let mut timers =
            std::mem::replace(&mut self.lists[home], std::mem::take(&mut self.cascading));
        self.vacate(home);
        for (deadline, id) in timers.drain(..) {
            let (home, pos) = self.place(deadline, id);
            let e = self.entries.get_mut(&id).expect("listed ids are live");
            (e.home, e.pos) = (home, pos);
        }
        self.cascading = timers;
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
        if !self.lists[OVERFLOW].is_empty() {
            let top = unit(LEVELS - 1);
            stop = stop.min((self.current_tick / top + 1) * top);
        }
        stop
    }
}

impl<T> TimerService<T> for TimerWheel<T> {
    fn start(&mut self, deadline: Nanos, token: T) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        let (home, pos) = self.place(deadline, id);
        self.entries.insert(id, Entry { token, home, pos });
        TimerId(id)
    }

    fn stop(&mut self, id: TimerId) -> Option<T> {
        let e = self.entries.remove(&id.0)?;
        self.unplace(e.home, e.pos);
        Some(e.token)
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
                if !self.lists[home].is_empty() {
                    self.cascade(home);
                }
            }
            // Retry overflow placement as the top level's cursor advances.
            if tick.is_multiple_of(unit(LEVELS - 1)) && !self.lists[OVERFLOW].is_empty() {
                self.cascade(OVERFLOW);
            }
            // Harvest the level-0 slot for this tick.
            let home = Self::slot_of(0, tick);
            if tick < target {
                // The whole tick has elapsed: everything in it is ripe.
                // Then skip the empty time up to the next tick with work.
                self.ripe.append(&mut self.lists[home]);
                self.vacate(home);
                self.current_tick = self.next_stop(target);
            } else {
                // Partial tick: fire only sub-tick deadlines `<= now`; the
                // rest stay in the slot for a later advance, which starts
                // on this tick again.
                let mut pos = 0;
                while let Some(&(deadline, id)) = self.lists[home].get(pos) {
                    if deadline <= now {
                        self.ripe.push((deadline, id));
                        self.unplace(home, pos);
                    } else {
                        pos += 1;
                    }
                }
                break;
            }
        }

        // A slot is a whole tick, and several slots may have been
        // harvested: sort into fire order.
        self.ripe.sort_unstable();
        for (_, id) in self.ripe.drain(..) {
            let e = self.entries.remove(&id).expect("ripe ids are live");
            fired.push(e.token);
        }
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
        if !self.lists[OVERFLOW].is_empty() {
            offer(OVERFLOW);
        }
        earliest
    }

    fn pending(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut fired = Vec::new();
        w.advance(200 << TICK_SHIFT, &mut fired);
        assert!(fired.is_empty());
    }

    #[test]
    fn a_wheel_that_is_never_advanced_holds_only_live_ids() {
        // A request/response flow stops every RTO and delayed-ACK timer
        // before it fires, so nothing ever calls `advance`: `stop` itself
        // must take the id out of its slot. Deadlines cover every level
        // and the overflow list; eight timers are outstanding at any time
        // so `stop` removes from the middle of shared slots too.
        let mut w: TimerWheel<u64> = TimerWheel::new(0);
        // What the lists hold — and, on the way, that an occupancy bit is
        // set exactly where a slot's list is non-empty and that each
        // non-empty list's recorded earliest deadline is its least.
        let held = |w: &TimerWheel<u64>| {
            for (home, list) in w.lists.iter().enumerate() {
                let (level, slot) = (home / SLOTS, home % SLOTS);
                if home < OVERFLOW {
                    let bit = w.occupied[level] >> slot & 1;
                    assert_eq!(bit == 1, !list.is_empty(), "level {level} slot {slot}");
                }
                if let Some(least) = list.iter().map(|&(deadline, _)| deadline).min() {
                    assert_eq!(w.earliest[home], least, "level {level} slot {slot}");
                }
            }
            w.lists.iter().map(Vec::len).sum::<usize>()
        };
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
                assert_eq!(held(&w), w.pending(), "at pair {i}");
            }
        }
        for id in window {
            assert!(w.stop(id).is_some());
        }
        assert_eq!(w.pending(), keepers.len());
        assert_eq!(held(&w), keepers.len());
        // The recorded positions survived all the swap-removes: the
        // keepers still fire, in deadline order.
        let mut fired = Vec::new();
        w.advance(*keepers.last().unwrap(), &mut fired);
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(held(&w), 0);
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
        let mut fired = Vec::new();
        w.advance(100 << TICK_SHIFT, &mut fired);
        assert_eq!(fired, vec![1]);
    }
}
