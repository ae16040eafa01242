//! Property tests for the discrete-event engine: execution order matches a
//! reference model under arbitrary schedules and cancellations, whether an
//! event is stored as a typed value or as a boxed closure, and the CPU
//! queueing model conserves busy time.

use std::rc::Rc;

use proptest::prelude::*;

use unp_sim::{Cpu, Engine, Event, EventFn, Nanos};

/// The world of these tests: the tags of the events that fired, in order.
#[derive(Default)]
struct W {
    fired: Vec<usize>,
}

/// A typed event next to the closure form, as `unp-core` has them.
enum Ev {
    /// Records its tag, a payload whose drop is observable.
    Tag(Rc<usize>),
    Call(EventFn<W, Ev>),
}

impl Event<W> for Ev {
    fn fire(self, w: &mut W, eng: &mut Engine<W, Ev>) {
        match self {
            Ev::Tag(tag) => w.fired.push(*tag),
            Ev::Call(f) => f(w, eng),
        }
    }

    fn call(f: EventFn<W, Ev>) -> Ev {
        Ev::Call(f)
    }
}

fn tag(tag: usize) -> Ev {
    Ev::Tag(Rc::new(tag))
}

#[derive(Debug, Clone)]
enum Cmd {
    /// Schedule a tagged event at an absolute time, typed or as a closure.
    At(Nanos, bool),
    /// Cancel the nth previously scheduled (and possibly already-run) event.
    Cancel(usize),
}

fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    proptest::collection::vec(
        prop_oneof![
            // Few distinct times, so ties between the two forms are common.
            (0u64..40, any::<bool>()).prop_map(|(t, typed)| Cmd::At(t * 25_000, typed)),
            any::<usize>().prop_map(Cmd::Cancel),
        ],
        1..60,
    )
}

proptest! {
    /// Events fire exactly once, in (time, schedule-order) order — typed
    /// events and closures interleaved, ties included — and cancelled
    /// events never fire.
    #[test]
    fn engine_matches_reference(cmds in arb_cmds()) {
        let mut eng: Engine<W, Ev> = Engine::new();
        let mut w = W::default();
        let mut handles = Vec::new();
        let mut expected: Vec<(Nanos, usize)> = Vec::new(); // (time, tag)
        let mut cancelled: Vec<usize> = Vec::new();

        for cmd in cmds {
            match cmd {
                Cmd::At(t, typed) => {
                    let n = handles.len();
                    let id = if typed {
                        eng.schedule(t, tag(n))
                    } else {
                        eng.at(t, move |w: &mut W, _| w.fired.push(n))
                    };
                    handles.push(id);
                    expected.push((t, n));
                }
                Cmd::Cancel(n) => {
                    if handles.is_empty() {
                        continue;
                    }
                    let idx = n % handles.len();
                    if eng.cancel(handles[idx]) && !cancelled.contains(&idx) {
                        cancelled.push(idx);
                    }
                }
            }
        }
        eng.run(&mut w, 10_000);
        let mut want: Vec<(Nanos, usize)> = expected
            .into_iter()
            .filter(|(_, tag)| !cancelled.contains(tag))
            .collect();
        want.sort_by_key(|&(t, tag)| (t, tag)); // schedule order == tag order
        let want_tags: Vec<usize> = want.into_iter().map(|(_, tag)| tag).collect();
        prop_assert_eq!(w.fired, want_tags);
    }

    /// The CPU model: completions are monotone, never earlier than
    /// request + cost, and total busy time is the sum of charges.
    #[test]
    fn cpu_queueing_laws(charges in proptest::collection::vec((0u64..1_000, 1u64..500), 1..40)) {
        let mut cpu = Cpu::new();
        let mut prev_done = 0;
        let mut total = 0;
        for &(at, cost) in &charges {
            let done = cpu.charge(at, cost);
            prop_assert!(done >= at + cost, "completion before request+cost");
            prop_assert!(done >= prev_done, "completions must be monotone");
            prev_done = done;
            total += cost;
        }
        prop_assert_eq!(cpu.busy_total(), total);
    }

    /// Interrupt-priority charges complete at now+cost and push queued
    /// work back by exactly their cost.
    #[test]
    fn interrupt_priority_laws(base in 1u64..1000, intr in 1u64..500, at in 0u64..800) {
        let mut cpu = Cpu::new();
        let normal_done = cpu.charge(0, base);
        let intr_done = cpu.charge_priority(at, intr);
        prop_assert_eq!(intr_done, at + intr, "interrupt runs immediately");
        // Subsequent normal work sees the displacement.
        let next = cpu.charge(0, 1);
        prop_assert_eq!(next, normal_done.max(at) + intr + 1);
    }
}

#[test]
fn cancelling_a_typed_event_drops_its_payload_at_once() {
    let mut eng: Engine<W, Ev> = Engine::new();
    let held = Rc::new(1);
    let id = eng.schedule(10, Ev::Tag(Rc::clone(&held)));
    assert_eq!(
        Rc::strong_count(&held),
        2,
        "the slab holds the event by value"
    );
    assert!(eng.cancel(id));
    assert_eq!(
        Rc::strong_count(&held),
        1,
        "not when the tombstone is popped"
    );
    assert_eq!((eng.pending(), eng.heap_len()), (0, 1));
    // Firing consumes the payload too.
    eng.schedule(20, Ev::Tag(Rc::clone(&held)));
    let mut w = W::default();
    assert!(eng.run(&mut w, 10));
    assert_eq!(w.fired, vec![1]);
    assert_eq!(Rc::strong_count(&held), 1);
}

#[test]
fn an_event_id_goes_stale_when_its_slot_is_reused() {
    let mut eng: Engine<W, Ev> = Engine::new();
    let mut w = W::default();
    let old = eng.schedule(10, tag(0));
    assert!(eng.cancel(old));
    // One slot was ever needed, so the next event can only sit in it.
    let new = eng.at(20, |w: &mut W, _| w.fired.push(1));
    assert_eq!(eng.pending(), 1);
    assert!(!eng.cancel(old), "a stale id cancels nothing");
    assert_eq!(eng.pending(), 1);
    assert!(eng.run(&mut w, 10));
    assert_eq!(w.fired, vec![1]);
    // Nor does the id of an event that already ran.
    eng.schedule(30, tag(2));
    assert!(!eng.cancel(new));
    assert!(eng.run(&mut w, 10));
    assert_eq!(w.fired, vec![1, 2]);
}

#[test]
fn compaction_keeps_the_heap_proportional_to_live_typed_events() {
    let mut eng: Engine<W, Ev> = Engine::new();
    let mut w = W::default();
    for keeper in 0..8 {
        eng.schedule(1_000_000 + keeper as Nanos, tag(keeper));
    }
    // The retransmission-timer pattern: armed, then cancelled unrun.
    for round in 0..10_000u64 {
        let id = eng.schedule(500_000 + round, tag(99));
        assert!(eng.cancel(id));
        assert!(
            eng.heap_len() <= eng.pending() + 130,
            "{} heap entries for {} live events at round {round}",
            eng.heap_len(),
            eng.pending()
        );
    }
    assert_eq!(eng.pending(), 8);
    assert!(eng.run(&mut w, 100));
    assert_eq!(w.fired, (0..8).collect::<Vec<_>>());
}
