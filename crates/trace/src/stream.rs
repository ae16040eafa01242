//! Streaming-observer pipeline: the pluggable fan-out behind the emit path.
//!
//! [`crate::emit`] no longer writes into a hard-wired journal vector.
//! Instead every [`Record`] is dispatched, at emission time, to whatever
//! observers are attached to the current thread. The classic full journal
//! is just one observer ([`Journal`]); the online conformance monitor
//! (`crate::monitor::Monitor`) and the bounded [`FlightRecorder`] are
//! others. Observers see records in emission order, synchronously, on the
//! emitting thread — the simulation is single-threaded and deterministic,
//! so the stream is too.
//!
//! The pipeline preserves the journal's zero-overhead discipline: with no
//! observers attached a quiescent emission point still costs one
//! thread-local flag read, and the event-construction closure never runs.
//! Observation stays observation-only — an observer cannot charge
//! simulated cost, schedule events, or (re-entrantly) emit records; an
//! emission made from inside an observer callback is dropped.

use crate::Record;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};

/// Object-safe downcast support for boxed observers. Blanket-implemented
/// for every `'static` type so [`detach_as`] and [`observe`] can recover
/// the concrete observer (e.g. a `Monitor` full of violation state)
/// without relying on `dyn` trait upcasting.
pub trait AsAny {
    /// Converts the boxed observer into a boxed [`Any`] for downcasting.
    fn as_any_box(self: Box<Self>) -> Box<dyn Any>;

    /// Borrows the observer as an [`Any`] for downcasting.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A streaming consumer of journal records, attached at [`attach`] and fed
/// synchronously from the emit path. Implementations must be cheap: they
/// run inline on every emission while attached.
pub trait Observer: AsAny {
    /// Called for every record emitted while this observer is attached.
    fn on_record(&mut self, rec: &Record);

    /// Called once when the observer is detached — the stream is over.
    /// Final-accounting checks (e.g. "the frame pool drained back to its
    /// baseline") belong here.
    fn on_finish(&mut self) {}
}

/// Handle returned by [`attach`]; read through it with [`observe`] and
/// redeem it at [`detach`] / [`detach_as`]. Deliberately neither `Copy`
/// nor `Clone`, and not constructible outside this crate: one attach, one
/// detach, and only by whoever attached.
#[derive(Debug, PartialEq, Eq)]
pub struct ObserverHandle(u64);

impl ObserverHandle {
    /// The raw handle id (stable for the lifetime of the attachment).
    pub(crate) fn id(&self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from [`ObserverHandle::id`] — the journal's own
    /// start/stop pair, which keeps its handle in a thread-local. The emit
    /// path keeps no registry of outstanding ids; redeeming a stale one at
    /// [`detach`] just returns `None`.
    pub(crate) fn from_id(id: u64) -> ObserverHandle {
        ObserverHandle(id)
    }
}

thread_local! {
    static OBSERVERS: RefCell<Vec<(u64, Box<dyn Observer>)>> = const { RefCell::new(Vec::new()) };
    static NEXT_HANDLE: Cell<u64> = const { Cell::new(1) };
    static ATTACHED: Cell<usize> = const { Cell::new(0) };
    static DISPATCHING: Cell<bool> = const { Cell::new(false) };
    static JOURNAL_DROPPED: Cell<u64> = const { Cell::new(0) };
}

/// Attaches an observer to the current thread's emit path. Observers are
/// fed in attach order. Must not be called from inside an observer
/// callback.
pub fn attach(obs: Box<dyn Observer>) -> ObserverHandle {
    let id = NEXT_HANDLE.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    });
    OBSERVERS.with(|o| o.borrow_mut().push((id, obs)));
    ATTACHED.with(|c| c.set(c.get() + 1));
    ObserverHandle(id)
}

/// Detaches an observer, firing its [`Observer::on_finish`], and returns
/// the box (with all its accumulated state). `None` if the handle was
/// already redeemed.
pub fn detach(handle: ObserverHandle) -> Option<Box<dyn Observer>> {
    let found = OBSERVERS.with(|o| {
        let mut obs = o.borrow_mut();
        let idx = obs.iter().position(|(id, _)| *id == handle.0)?;
        Some(obs.remove(idx).1)
    });
    let mut obs = found?;
    ATTACHED.with(|c| c.set(c.get().saturating_sub(1)));
    obs.on_finish();
    Some(obs)
}

/// [`detach`], then downcast to the concrete observer type. `None` if the
/// handle was stale; panics if the handle resolves to a different type
/// (that's a caller bug, not a runtime condition).
pub fn detach_as<T: Observer + 'static>(handle: ObserverHandle) -> Option<Box<T>> {
    let obs = detach(handle)?;
    Some(
        obs.as_any_box()
            .downcast::<T>()
            .expect("observer handle redeemed at a mismatched type"),
    )
}

/// Reads an attached observer in place: `read` borrows the concrete
/// observer behind `handle`, which stays attached. `None` if the handle
/// was stale; panics if it resolves to a different type, like
/// [`detach_as`]. Must not be called from inside an observer callback.
pub fn observe<T: Observer + 'static, R>(
    handle: &ObserverHandle,
    read: impl FnOnce(&T) -> R,
) -> Option<R> {
    OBSERVERS.with(|o| {
        let obs = o.borrow();
        let (_, obs) = obs.iter().find(|(id, _)| *id == handle.0)?;
        // The observer, not its box: `Box<dyn Observer>` is `Any` too.
        let obs = (**obs)
            .as_any()
            .downcast_ref::<T>()
            .expect("observer handle read at a mismatched type");
        Some(read(obs))
    })
}

/// The emit path's hot gate: one thread-local read while quiescent.
#[inline]
pub(crate) fn any_attached() -> bool {
    ATTACHED.with(|c| c.get() > 0)
}

/// Fans a record out to every attached observer, in attach order.
/// Re-entrant dispatch (an observer emitting during its callback) is
/// dropped: observation must stay observation-only.
#[doc(hidden)]
pub fn dispatch(rec: &Record) {
    if DISPATCHING.with(|c| c.replace(true)) {
        return;
    }
    OBSERVERS.with(|o| {
        for (_, obs) in o.borrow_mut().iter_mut() {
            obs.on_record(rec);
        }
    });
    DISPATCHING.with(|c| c.set(false));
}

/// Records dropped by the current (or most recent) bounded [`Journal`]
/// because its capacity was exhausted. Zeroed by `journal_start`.
pub fn journal_dropped() -> u64 {
    JOURNAL_DROPPED.with(|c| c.get())
}

pub(crate) fn reset_journal_dropped() {
    JOURNAL_DROPPED.with(|c| c.set(0));
}

/// The classic full journal, demoted to an observer. Unbounded by
/// default; [`Journal::bounded`] keeps only the most recent `cap` records
/// (drop-oldest), counting evictions in [`journal_dropped`] so soak runs
/// stop carrying peak-journal memory.
pub struct Journal {
    records: VecDeque<Record>,
    cap: Option<usize>,
}

impl Journal {
    /// A journal that keeps every record (the pre-pipeline behavior).
    pub fn unbounded() -> Journal {
        Journal {
            records: VecDeque::new(),
            cap: None,
        }
    }

    /// A journal that keeps only the most recent `cap` records.
    pub fn bounded(cap: usize) -> Journal {
        assert!(cap > 0, "bounded journal capacity must be positive");
        Journal {
            records: VecDeque::with_capacity(cap.min(4096)),
            cap: Some(cap),
        }
    }

    /// Drains the journal into a right-sized `Vec` (shrunk to its length:
    /// repeated start/stop cycles no longer hand peak-capacity allocations
    /// to the caller).
    pub fn into_records(self) -> Vec<Record> {
        let mut v = Vec::from(self.records);
        v.shrink_to_fit();
        v
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl Observer for Journal {
    fn on_record(&mut self, rec: &Record) {
        if let Some(cap) = self.cap {
            if self.records.len() == cap {
                self.records.pop_front();
                JOURNAL_DROPPED.with(|c| c.set(c.get() + 1));
            }
        }
        self.records.push_back(rec.clone());
    }
}

/// A fixed-capacity per-host ring of the most recent records: the
/// postmortem memory of the conformance monitor, and a standalone
/// observer in its own right. Each host (plus the host-less `None` lane)
/// gets its own `cap`-deep ring, so a chatty host cannot evict another
/// host's recent history. A global monotonic sequence number preserves
/// emission order across lanes for [`FlightRecorder::dump_all`].
pub struct FlightRecorder {
    cap: usize,
    seq: u64,
    held: usize,
    evicted: u64,
    rings: BTreeMap<Option<u16>, VecDeque<(u64, Record)>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` records per host.
    pub fn new(cap: usize) -> FlightRecorder {
        assert!(cap > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            cap,
            seq: 0,
            held: 0,
            evicted: 0,
            rings: BTreeMap::new(),
        }
    }

    /// The tail window for one host lane, oldest first.
    pub fn dump(&self, host: Option<u16>) -> Vec<Record> {
        self.rings
            .get(&host)
            .map(|ring| ring.iter().map(|(_, r)| r.clone()).collect())
            .unwrap_or_default()
    }

    /// All lanes' tail windows merged back into emission order.
    pub fn dump_all(&self) -> Vec<Record> {
        let mut tagged: Vec<(u64, &Record)> = self
            .rings
            .values()
            .flat_map(|ring| ring.iter().map(|(s, r)| (*s, r)))
            .collect();
        tagged.sort_by_key(|(s, _)| *s);
        tagged.into_iter().map(|(_, r)| r.clone()).collect()
    }

    /// Records currently held across all lanes.
    pub fn occupancy(&self) -> usize {
        self.held
    }

    /// Per-host ring capacity.
    pub fn capacity_per_host(&self) -> usize {
        self.cap
    }

    /// Records evicted (overwritten) so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

impl Observer for FlightRecorder {
    fn on_record(&mut self, rec: &Record) {
        let ring = self.rings.entry(rec.host).or_default();
        if ring.len() == self.cap {
            ring.pop_front();
            self.held -= 1;
            self.evicted += 1;
        }
        ring.push_back((self.seq, rec.clone()));
        self.seq += 1;
        self.held += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn rec(time: u64, host: Option<u16>, len: u32) -> Record {
        Record {
            time,
            host,
            frame: None,
            event: Event::NicTx { len },
        }
    }

    struct Counter {
        seen: usize,
        finished: bool,
    }

    impl Observer for Counter {
        fn on_record(&mut self, _rec: &Record) {
            self.seen += 1;
        }
        fn on_finish(&mut self) {
            self.finished = true;
        }
    }

    #[test]
    fn attach_dispatch_detach_roundtrip() {
        assert!(!any_attached());
        let h = attach(Box::new(Counter {
            seen: 0,
            finished: false,
        }));
        assert!(any_attached());
        dispatch(&rec(1, None, 5));
        dispatch(&rec(2, None, 6));
        let c = detach_as::<Counter>(h).expect("live handle");
        assert_eq!(c.seen, 2);
        assert!(c.finished, "detach fires on_finish");
        assert!(!any_attached());
    }

    #[test]
    fn stale_handle_detaches_to_none() {
        let h = attach(Box::new(Counter {
            seen: 0,
            finished: false,
        }));
        let id = h.id();
        assert!(detach(h).is_some());
        assert!(detach(ObserverHandle::from_id(id)).is_none());
    }

    #[test]
    fn observe_reads_an_attached_observer_in_place() {
        let h = attach(Box::new(Counter {
            seen: 0,
            finished: false,
        }));
        dispatch(&rec(1, None, 5));
        let read = |c: &Counter| (c.seen, c.finished);
        assert_eq!(observe(&h, read), Some((1, false)), "still attached");
        dispatch(&rec(2, None, 6));
        assert_eq!(observe(&h, read), Some((2, false)));
        let id = h.id();
        assert!(detach(h).is_some());
        assert_eq!(observe(&ObserverHandle::from_id(id), read), None);
    }

    #[test]
    #[should_panic(expected = "observer handle read at a mismatched type")]
    fn observe_at_a_mismatched_type_panics() {
        let h = attach(Box::new(Counter {
            seen: 0,
            finished: false,
        }));
        observe(&h, |j: &Journal| j.len());
    }

    #[test]
    fn bounded_journal_keeps_tail_and_counts_drops() {
        reset_journal_dropped();
        let mut j = Journal::bounded(3);
        for t in 0..5 {
            j.on_record(&rec(t, None, t as u32));
        }
        assert_eq!(journal_dropped(), 2);
        let recs = j.into_records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs.capacity(), recs.len(), "shrunk on stop");
        assert_eq!(
            recs.iter().map(|r| r.time).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn recorder_rings_are_per_host() {
        let mut fr = FlightRecorder::new(2);
        fr.on_record(&rec(1, Some(0), 1));
        fr.on_record(&rec(2, Some(1), 2));
        fr.on_record(&rec(3, Some(0), 3));
        fr.on_record(&rec(4, Some(0), 4));
        // Host 0 overflowed its 2-deep lane; host 1 kept its record.
        assert_eq!(fr.occupancy(), 3);
        assert_eq!(fr.evicted(), 1);
        let h0 = fr.dump(Some(0));
        assert_eq!(h0.iter().map(|r| r.time).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(fr.dump(Some(1)).len(), 1);
        let all = fr.dump_all();
        assert_eq!(
            all.iter().map(|r| r.time).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn reentrant_dispatch_is_dropped() {
        struct Reentrant {
            fired: bool,
        }
        impl Observer for Reentrant {
            fn on_record(&mut self, rec: &Record) {
                if !self.fired {
                    self.fired = true;
                    // An observer must not feed the stream; this inner
                    // dispatch is silently dropped (no double-count, no
                    // RefCell panic).
                    dispatch(rec);
                }
            }
        }
        let hr = attach(Box::new(Reentrant { fired: false }));
        let hc = attach(Box::new(Counter {
            seen: 0,
            finished: false,
        }));
        dispatch(&rec(1, None, 1));
        let c = detach_as::<Counter>(hc).expect("live handle");
        assert_eq!(c.seen, 1);
        let _ = detach(hr);
    }
}
