//! Hierarchical timing wheel (Varghese & Lauck, SOSP '87 — the paper's
//! reference \[25\] for fast timer facilities).
//!
//! Four levels of 64 slots each, with a ~1 ms base tick (2²⁰ ns), cover
//! deadlines up to ≈ 4.9 hours; anything farther sits in an overflow list
//! that is drained as the horizon advances. Start and stop are O(1);
//! advancing performs amortized O(1) work per tick plus O(k) for the k
//! timers fired or cascaded.

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

/// The id list an entry sits in.
#[derive(Clone, Copy)]
enum Home {
    /// `levels[level][slot]`.
    Slot(usize, usize),
    Overflow,
}

struct Entry<T> {
    deadline: Nanos,
    seq: u64,
    token: T,
    /// Where the id sits — `pos` within `home`'s list — so `stop` can
    /// remove it without a search.
    home: Home,
    pos: usize,
}

/// A hierarchical timing wheel. See module docs.
pub struct TimerWheel<T> {
    /// `levels[l][slot]` holds ids of entries expiring in that slot's span.
    /// Slots and `overflow` hold live ids only: `stop` removes eagerly, so
    /// a wheel that is never advanced does not grow.
    levels: Vec<Vec<Vec<u64>>>,
    /// Entries too far out for the top level.
    overflow: Vec<u64>,
    entries: HashMap<u64, Entry<T>>,
    /// Current time, in ticks, already processed.
    current_tick: u64,
    next_id: u64,
    next_seq: u64,
    /// `advance`'s working lists, empty between calls and kept for their
    /// capacity: the ids of the slot being cascaded, and the
    /// `(deadline, seq, id)` of everything due.
    cascading: Vec<u64>,
    ripe: Vec<(Nanos, u64, u64)>,
}

impl<T> TimerWheel<T> {
    /// Creates a wheel whose notion of "now" starts at `start` nanoseconds.
    pub fn new(start: Nanos) -> TimerWheel<T> {
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: Vec::new(),
            entries: HashMap::new(),
            current_tick: start >> TICK_SHIFT,
            next_id: 0,
            next_seq: 0,
            cascading: Vec::new(),
            ripe: Vec::new(),
        }
    }

    /// Ticks covered by level `l` (one slot's span is `SLOTS^l` ticks).
    fn level_span_ticks(l: usize) -> u64 {
        1u64 << (SLOT_SHIFT * (l as u32 + 1))
    }

    /// Pushes `id` onto the list its deadline belongs in and returns
    /// where it landed.
    fn place(&mut self, id: u64, deadline: Nanos) -> (Home, usize) {
        let deadline_tick = deadline >> TICK_SHIFT;
        let delta = deadline_tick.saturating_sub(self.current_tick);
        let home = (0..LEVELS)
            .find(|&l| delta < Self::level_span_ticks(l))
            .map_or(Home::Overflow, |l| {
                let slot_unit = 1u64 << (SLOT_SHIFT * l as u32);
                Home::Slot(l, ((deadline_tick / slot_unit) % SLOTS as u64) as usize)
            });
        let bucket = Self::bucket(&mut self.levels, &mut self.overflow, home);
        bucket.push(id);
        (home, bucket.len() - 1)
    }

    /// Empties `home`'s list and places each of its entries again, now
    /// that the cursor is closer to their deadlines. The list trades
    /// buffers with `cascading`, so neither gives up its capacity.
    fn cascade(&mut self, home: Home) {
        let bucket = Self::bucket(&mut self.levels, &mut self.overflow, home);
        let mut ids = std::mem::replace(bucket, std::mem::take(&mut self.cascading));
        for id in ids.drain(..) {
            let deadline = self.entries[&id].deadline;
            let (home, pos) = self.place(id, deadline);
            let e = self.entries.get_mut(&id).expect("slot ids are live");
            (e.home, e.pos) = (home, pos);
        }
        self.cascading = ids;
    }

    fn bucket<'a>(
        levels: &'a mut [Vec<Vec<u64>>],
        overflow: &'a mut Vec<u64>,
        home: Home,
    ) -> &'a mut Vec<u64> {
        match home {
            Home::Slot(level, slot) => &mut levels[level][slot],
            Home::Overflow => overflow,
        }
    }

    /// Removes `bucket[pos]` by swapping the last id into its place. Slot
    /// order is free: fire order is fixed by the `(deadline, seq)` sort.
    fn unplace(bucket: &mut Vec<u64>, pos: usize, entries: &mut HashMap<u64, Entry<T>>) {
        bucket.swap_remove(pos);
        if let Some(moved) = bucket.get(pos) {
            entries.get_mut(moved).expect("slot ids are live").pos = pos;
        }
    }
}

impl<T> TimerService<T> for TimerWheel<T> {
    fn start(&mut self, deadline: Nanos, token: T) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let (home, pos) = self.place(id, deadline);
        self.entries.insert(
            id,
            Entry {
                deadline,
                seq,
                token,
                home,
                pos,
            },
        );
        TimerId(id)
    }

    fn stop(&mut self, id: TimerId) -> Option<T> {
        let e = self.entries.remove(&id.0)?;
        let bucket = Self::bucket(&mut self.levels, &mut self.overflow, e.home);
        Self::unplace(bucket, e.pos, &mut self.entries);
        Some(e.token)
    }

    fn advance(&mut self, now: Nanos, fired: &mut Vec<T>) {
        let target_tick = now >> TICK_SHIFT;

        while self.current_tick <= target_tick {
            let tick = self.current_tick;
            // Cascade coarser levels *before* harvesting level 0, so timers
            // landing on this exact tick reach their level-0 slot in time.
            for l in 1..LEVELS {
                let unit = 1u64 << (SLOT_SHIFT * l as u32);
                if !tick.is_multiple_of(unit) {
                    break;
                }
                self.cascade(Home::Slot(l, ((tick / unit) % SLOTS as u64) as usize));
            }
            // Retry overflow placement as the top level's cursor advances.
            let top_unit = 1u64 << (SLOT_SHIFT * (LEVELS as u32 - 1));
            if tick.is_multiple_of(top_unit) && !self.overflow.is_empty() {
                self.cascade(Home::Overflow);
            }
            // Harvest the level-0 slot for this tick.
            let slot0 = (tick % SLOTS as u64) as usize;
            if tick < target_tick {
                // The whole tick has elapsed: everything in it is ripe.
                for id in self.levels[0][slot0].drain(..) {
                    let e = &self.entries[&id];
                    self.ripe.push((e.deadline, e.seq, id));
                }
                self.current_tick += 1;
            } else {
                // Partial tick: fire only sub-tick deadlines `<= now`; the
                // rest stay in the slot for a later advance. Leave
                // `current_tick` at `target_tick` so the slot (and, on a
                // boundary, the already-emptied cascade slots) are
                // revisited then.
                let slot = &mut self.levels[0][slot0];
                let mut pos = 0;
                while let Some(&id) = slot.get(pos) {
                    let e = &self.entries[&id];
                    if e.deadline <= now {
                        self.ripe.push((e.deadline, e.seq, id));
                        Self::unplace(slot, pos, &mut self.entries);
                    } else {
                        pos += 1;
                    }
                }
                break;
            }
        }
        self.current_tick = self.current_tick.max(target_tick);

        // Level-0 placement is per-tick, but within a tick entries may have
        // sub-tick deadline differences; sort for deterministic fire order.
        self.ripe.sort_unstable_by_key(|&(d, s, _)| (d, s));
        for (_, _, id) in self.ripe.drain(..) {
            let e = self.entries.remove(&id).expect("ripe ids are live");
            fired.push(e.token);
        }
    }

    fn next_deadline(&self) -> Option<Nanos> {
        // O(n) scan; used by event loops that only need it occasionally.
        self.entries.values().map(|e| e.deadline).min()
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
        let held = |w: &TimerWheel<u64>| {
            w.levels.iter().flatten().map(Vec::len).sum::<usize>() + w.overflow.len()
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
