//! `unp-sim` — a deterministic discrete-event simulation engine.
//!
//! The SIGCOMM '93 paper's results were measured on DECstation 5000/200
//! workstations (25 MHz R3000) running Ultrix 4.2A or Mach 3.0, attached to
//! 10 Mb/s Ethernet and the 100 Mb/s DEC SRC AN1. That testbed is
//! unobtainable, so the reproduction executes the *real* protocol code on a
//! virtual clock: every structural operation the paper charges for — traps,
//! Mach IPCs, context switches, semaphore signals, data copies, checksums,
//! filter interpretation, DMA setup — is billed to a per-host CPU model
//! using the calibrated [`costs::CostModel`].
//!
//! The engine is single-threaded and fully deterministic: events at equal
//! times fire in schedule order, and all randomness flows through seeded
//! RNGs owned by the world.

pub mod costs;
pub mod cpu;

pub use costs::{CostModel, DemuxPath, LinkParams};
pub use cpu::Cpu;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::marker::PhantomData;

/// Simulated time in nanoseconds since world start.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROS: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLIS: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECONDS: Nanos = 1_000_000_000;

thread_local! {
    static EVENTS_EXECUTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Events executed by every engine on this thread since the last
/// [`reset_events_executed`]. The per-engine [`Engine::executed`] counter
/// dies with its engine; experiment runners build engines internally, so
/// `unp-bench`'s `bench zero_copy` report reads this aggregate instead.
pub fn events_executed() -> u64 {
    EVENTS_EXECUTED.with(|c| c.get())
}

/// Resets the thread-wide executed-event counter.
pub fn reset_events_executed() {
    EVENTS_EXECUTED.with(|c| c.set(0));
}

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    /// Schedule order; unique per engine, so an id outlives its slot.
    seq: u64,
    /// Where the event sits in the engine's slab.
    slot: u32,
}

/// A boxed closure over the world and its engine: what [`Engine::at`] and
/// [`Engine::after`] hand to [`Event::call`].
pub type EventFn<W, E> = Box<dyn FnOnce(&mut W, &mut Engine<W, E>)>;

/// What an [`Engine`] stores and fires. The engine keeps events by value
/// in its slab, so a world whose steps are variants of one enum schedules
/// them without touching the allocator; `call` is how that enum (or
/// [`Call`], the default) carries the occasional closure.
pub trait Event<W>: Sized {
    /// Runs the event at its scheduled time.
    fn fire(self, world: &mut W, eng: &mut Engine<W, Self>);

    /// Wraps a closure as an event.
    fn call(f: EventFn<W, Self>) -> Self;
}

/// The closure-only event: an engine that names no event type stores one
/// boxed closure per event.
pub struct Call<W>(EventFn<W, Call<W>>);

impl<W> Event<W> for Call<W> {
    fn fire(self, world: &mut W, eng: &mut Engine<W, Self>) {
        (self.0)(world, eng)
    }

    fn call(f: EventFn<W, Self>) -> Self {
        Call(f)
    }
}

/// A discrete-event engine generic over the world type `W` and the event
/// type `E` it stores.
///
/// Events receive `(&mut W, &mut Engine<W, E>)` so they can mutate the
/// world and schedule follow-up events.
pub struct Engine<W, E = Call<W>> {
    now: Nanos,
    seq: u64,
    /// `(time, seq, slot)`: `seq` is unique, so order is `(time, seq)`.
    heap: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    /// Scheduled events, each tagged with its `seq`; a heap entry or
    /// [`EventId`] whose `seq` differs from its slot's is stale.
    slab: Vec<Option<(u64, E)>>,
    /// Vacant `slab` slots, reused last-freed-first.
    free: Vec<u32>,
    executed: u64,
    /// Heap entries whose event has been cancelled but not yet popped.
    tombstones: usize,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E: Event<W>> Default for Engine<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The pending events in firing order, so a stuck or surprising run can be
/// read off with `{:?}`.
impl<W, E: fmt::Debug> fmt::Debug for Engine<W, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut queue: Vec<(Nanos, u64, &E)> = self
            .heap
            .iter()
            .filter_map(
                |&Reverse((time, seq, slot))| match &self.slab[slot as usize] {
                    Some((s, event)) if *s == seq => Some((time, seq, event)),
                    _ => None,
                },
            )
            .collect();
        queue.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("queue", &queue)
            .finish()
    }
}

impl<W, E: Event<W>> Engine<W, E> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Engine<W, E> {
        Engine {
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            executed: 0,
            tombstones: 0,
            _world: PhantomData,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently scheduled.
    pub fn pending(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Number of entries in the internal time heap, live and tombstoned.
    /// Exposed so tests can assert the heap stays bounded under mass
    /// cancellation.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `event` to fire at absolute time `time` (clamped to `now`).
    pub fn schedule(&mut self, time: Nanos, event: E) -> EventId {
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let event = Some((seq, event));
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = event;
                slot
            }
            None => {
                self.slab.push(event);
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((time, seq, slot)));
        EventId { seq, slot }
    }

    /// Schedules the closure `f` to run at absolute time `time` (clamped to
    /// `now`): [`Engine::schedule`] of [`Event::call`].
    pub fn at<F>(&mut self, time: Nanos, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    {
        self.schedule(time, E::call(Box::new(f)))
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn after<F>(&mut self, delay: Nanos, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    {
        self.at(self.now + delay, f)
    }

    /// True while event `seq` occupies `slot`: it has neither run nor been
    /// cancelled. A slot is reused, so the `seq` tag is what tells a stale
    /// heap entry or [`EventId`] from the slot's current tenant.
    fn is_live(slab: &[Option<(u64, E)>], seq: u64, slot: u32) -> bool {
        matches!(slab.get(slot as usize), Some(Some((s, _))) if *s == seq)
    }

    /// Removes and returns event `seq` if it is still live.
    fn take(&mut self, seq: u64, slot: u32) -> Option<E> {
        if !Self::is_live(&self.slab, seq, slot) {
            return None;
        }
        self.free.push(slot);
        self.slab[slot as usize].take().map(|(_, event)| event)
    }

    /// Cancels a scheduled event. Returns true if it had not yet run.
    ///
    /// Cancellation is a tombstone: the event is dropped immediately but
    /// the `(time, seq, slot)` entry stays in the heap until popped. When
    /// tombstones outnumber live events the heap is compacted in place, so
    /// a workload that schedules and cancels many timers (e.g. TCP
    /// retransmission timers answered by ACKs) keeps the heap at O(live)
    /// rather than O(ever scheduled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let cancelled = self.take(id.seq, id.slot).is_some();
        if cancelled {
            self.tombstones += 1;
            self.maybe_compact();
        }
        cancelled
    }

    /// Rebuilds the heap without tombstoned entries once they dominate.
    /// The `> 64` floor keeps small heaps from compacting on every other
    /// cancel, where the O(n) rebuild would cost more than the garbage.
    fn maybe_compact(&mut self) {
        if self.tombstones > 64 && self.tombstones > self.pending() {
            let slab = &self.slab;
            self.heap
                .retain(|&Reverse((_, seq, slot))| Self::is_live(slab, seq, slot));
            self.tombstones = 0;
        }
    }

    /// Runs the next event, if any. Returns false when the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        while let Some(Reverse((time, seq, slot))) = self.heap.pop() {
            if let Some(event) = self.take(seq, slot) {
                self.now = time;
                unp_trace::set_time(time);
                self.executed += 1;
                EVENTS_EXECUTED.with(|c| c.set(c.get() + 1));
                event.fire(world, self);
                return true;
            }
            // Cancelled entry: skip.
            self.tombstones = self.tombstones.saturating_sub(1);
        }
        false
    }

    /// Runs events until the queue empties or `limit` events have executed.
    /// Returns true if the queue drained.
    pub fn run(&mut self, world: &mut W, limit: u64) -> bool {
        for _ in 0..limit {
            if !self.step(world) {
                return true;
            }
        }
        self.heap.is_empty()
    }

    /// Runs events with times `<= deadline`. Events scheduled later remain
    /// queued. Advances `now` to `deadline` if the queue drains earlier.
    pub fn run_until(&mut self, world: &mut W, deadline: Nanos) {
        loop {
            // Peek at the next *live* event time.
            let next = loop {
                match self.heap.peek() {
                    Some(&Reverse((t, seq, slot))) => {
                        if Self::is_live(&self.slab, seq, slot) {
                            break Some(t);
                        }
                        self.heap.pop();
                        self.tombstones = self.tombstones.saturating_sub(1);
                    }
                    None => break None,
                }
            };
            match next {
                Some(t) if t <= deadline => {
                    self.step(world);
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
        unp_trace::set_time(self.now);
    }
}

/// Formats a nanosecond duration in engineering units for reports.
pub fn fmt_nanos(n: Nanos) -> String {
    if n >= SECONDS {
        format!("{:.3} s", n as f64 / SECONDS as f64)
    } else if n >= MILLIS {
        format!("{:.3} ms", n as f64 / MILLIS as f64)
    } else if n >= MICROS {
        format!("{:.3} us", n as f64 / MICROS as f64)
    } else {
        format!("{n} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(Nanos, &'static str)>,
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.at(300, |w, e| w.log.push((e.now(), "c")));
        eng.at(100, |w, e| w.log.push((e.now(), "a")));
        eng.at(200, |w, e| w.log.push((e.now(), "b")));
        assert!(eng.run(&mut w, 100));
        assert_eq!(w.log, vec![(100, "a"), (200, "b"), (300, "c")]);
    }

    #[test]
    fn equal_times_run_in_schedule_order() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.at(50, |w, _| w.log.push((50, "first")));
        eng.at(50, |w, _| w.log.push((50, "second")));
        eng.run(&mut w, 10);
        assert_eq!(w.log, vec![(50, "first"), (50, "second")]);
    }

    #[test]
    fn events_can_schedule_more_events() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.at(10, |_, e| {
            e.after(5, |w, e| w.log.push((e.now(), "chained")));
        });
        eng.run(&mut w, 10);
        assert_eq!(w.log, vec![(15, "chained")]);
    }

    #[test]
    fn cancellation() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let id = eng.at(10, |w, _| w.log.push((10, "never")));
        assert!(eng.cancel(id));
        assert!(!eng.cancel(id));
        eng.run(&mut w, 10);
        assert!(w.log.is_empty());
    }

    #[test]
    fn past_times_clamp_to_now() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.at(100, |w, e| {
            e.at(5, |w, e| w.log.push((e.now(), "clamped")));
            w.log.push((e.now(), "outer"));
        });
        eng.run(&mut w, 10);
        assert_eq!(w.log, vec![(100, "outer"), (100, "clamped")]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.at(10, |w, _| w.log.push((10, "early")));
        eng.at(1000, |w, _| w.log.push((1000, "late")));
        eng.run_until(&mut w, 500);
        assert_eq!(w.log, vec![(10, "early")]);
        assert_eq!(eng.now(), 500);
        assert_eq!(eng.pending(), 1);
        eng.run_until(&mut w, 2000);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let id = eng.at(10, |w, _| w.log.push((10, "no")));
        eng.at(20, |w, _| w.log.push((20, "yes")));
        eng.cancel(id);
        eng.run_until(&mut w, 100);
        assert_eq!(w.log, vec![(20, "yes")]);
    }

    #[test]
    fn mass_cancellation_keeps_heap_bounded() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        // A retransmission-timer-like workload: schedule a timer, then
        // cancel it before it fires, thousands of times, with a handful of
        // long-lived events outstanding the whole time.
        for i in 0..8 {
            eng.at(1_000_000 + i, |w, e| w.log.push((e.now(), "keeper")));
        }
        for round in 0..10_000u64 {
            let id = eng.at(500_000 + round, |w, _| w.log.push((0, "never")));
            assert!(eng.cancel(id));
            // Without compaction the heap would hold every tombstone ever
            // scheduled (~round entries). With it, the heap stays at
            // O(live + compaction floor).
            assert!(
                eng.heap_len() <= eng.pending() + 130,
                "heap grew unbounded: {} entries with {} live at round {round}",
                eng.heap_len(),
                eng.pending()
            );
        }
        assert_eq!(eng.pending(), 8);
        // The survivors still fire, in order.
        assert!(eng.run(&mut w, 100));
        assert_eq!(w.log.len(), 8);
        assert!(w.log.iter().all(|(_, tag)| *tag == "keeper"));
    }

    #[test]
    fn compaction_preserves_cancel_then_run_semantics() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        // Interleave live and cancelled events across the compaction
        // threshold and check exactly the live ones run, in time order.
        let mut expect = Vec::new();
        for i in 0..500u64 {
            let t = 10 + i;
            let id = eng.at(t, move |w, e| w.log.push((e.now(), "live")));
            if i % 3 != 0 {
                eng.cancel(id);
            } else {
                expect.push(t);
            }
        }
        assert!(eng.run(&mut w, 1_000));
        assert_eq!(
            w.log.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            expect,
            "live events must be unaffected by compaction"
        );
    }

    #[test]
    fn stale_id_does_not_cancel_the_slots_next_tenant() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let old = eng.at(10, |w, _| w.log.push((10, "old")));
        assert!(eng.cancel(old));
        // The freed slot is taken by the next event scheduled.
        let new = eng.at(20, |w, _| w.log.push((20, "new")));
        assert_eq!(old.slot, new.slot, "the test needs the slot reused");
        assert!(!eng.cancel(old), "a stale id cancels nothing");
        assert_eq!(eng.pending(), 1);
        assert!(eng.run(&mut w, 10));
        assert_eq!(w.log, vec![(20, "new")]);
        // Nor does the id of an event that already ran.
        let third = eng.at(30, |w, _| w.log.push((30, "third")));
        assert_eq!(new.slot, third.slot);
        assert!(!eng.cancel(new));
        assert!(eng.run(&mut w, 10));
        assert_eq!(w.log, vec![(20, "new"), (30, "third")]);
    }

    #[test]
    fn slot_reuse_across_compaction_runs_live_events_in_order() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        // Two of every three events are cancelled five events after they
        // are scheduled, so later events reuse their slots while the
        // tombstones pointing at those slots still sit in the heap, and
        // the heap compacts several times on the way. Times repeat: ties
        // must run in schedule order.
        const N: u64 = 2_000;
        let time = |i: u64| 1_000 + (i * 7919) % 97;
        let cancelled = |i: u64| !(i + 5).is_multiple_of(3) && i + 5 < N;
        let mut ids = Vec::new();
        for i in 0..N {
            // The log's only number carries (time run, schedule order).
            ids.push(eng.at(time(i), move |w, e| w.log.push((e.now() * N + i, "live"))));
            if i >= 5 && cancelled(i - 5) {
                assert!(eng.cancel(ids[(i - 5) as usize]));
            }
        }
        for i in (0..N).filter(|&i| cancelled(i)) {
            assert!(
                !eng.cancel(ids[i as usize]),
                "a cancelled id stays dead when its slot is reused"
            );
        }
        let mut expect: Vec<(u64, u64)> = (0..N)
            .filter(|&i| !cancelled(i))
            .map(|i| (time(i), i))
            .collect();
        expect.sort_unstable();
        assert_eq!(eng.pending(), expect.len());
        assert!(
            (eng.slab.len() as u64) < N / 2,
            "cancelled slots were reused"
        );
        assert!(eng.run(&mut w, 2 * N));
        assert_eq!(
            w.log
                .iter()
                .map(|(k, _)| (k / N, k % N))
                .collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(500), "500 ns");
        assert_eq!(fmt_nanos(1_500), "1.500 us");
        assert_eq!(fmt_nanos(2_500_000), "2.500 ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.000 s");
    }
}
