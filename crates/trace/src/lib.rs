//! `unp-trace` — observability substrate for the user-level protocol stack.
//!
//! Two halves, both deterministic:
//!
//! * **The event journal**: span-style packet-lifecycle records
//!   (`ring_enqueue`, `demux_classify`, `wakeup_batch`, `tcp_segment`,
//!   `app_deliver`, `tx_template_check`, …) carrying the simulated-time
//!   timestamp, the emitting host, and the frame id, so one frame's journey
//!   from NIC staging to application delivery can be reconstructed by
//!   joining on its id. Emission points live in every layer (`netdev`,
//!   `kernel`, `tcp`, `core`); none of them charges simulated cost or
//!   schedules events, so journaling can never perturb reproduced results.
//! * **The typed metrics registry** ([`Metrics`]): event counters and
//!   nearest-rank histograms behind enum keys instead of strings, plus
//!   per-connection and per-channel scopes that absorb the stack's
//!   scattered stats structs at teardown. Levels (open channels, table
//!   sizes, tenant accounts) stay with the layer that keeps them.
//!
//! # The streaming-observer pipeline
//!
//! Emission fans out through [`stream`]: every record is dispatched, at
//! emit time, to whatever [`Observer`]s are attached to the thread. The
//! full journal is just one observer ([`Journal`], attached by
//! [`journal_start`] / [`journal_start_bounded`]); the online conformance
//! monitor ([`monitor::Monitor`]) and the bounded [`FlightRecorder`] are
//! others, so analyses can run online in bounded memory instead of
//! post-hoc over an unbounded `Vec<Record>`.
//!
//! # The quiescent gate
//!
//! The journal is always compiled in; what an idle emission point costs
//! is a runtime gate, a thread-local observer count: one flag read
//! (≈ 0.4 ns, the host-time ledger's `trace.emit_quiescent_ns`), and the
//! closure building the event runs only while at least one observer is
//! attached. `repro-tables` golden output is byte-identical with and
//! without observers because emission is observation-only.
//!
//! # Determinism
//!
//! The simulation is single-threaded and deterministic, so the journal is
//! too: [`journal_start`] zeroes the frame-id mint and the sim clock, and
//! two identical runs produce byte-identical journals (asserted by the
//! workspace's `tests/journal.rs`).

/// Declares fieldless enums whose variants each carry one keyword, and
/// generates each one's `ALL` (every variant, in declaration order) and
/// `label()` (the variant's keyword) from that one list. Every journal,
/// report and metric vocabulary in this crate is declared through it.
/// No `repr` is forced: `as usize` already indexes by declaration order,
/// and a wider enum would widen every journal [`Record`] carrying one.
macro_rules! keywords {
    ($($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident => $label:literal,)*
    })*) => {$(
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// The variant's keyword.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }
        }
    )*};
}

pub mod causal;
pub mod json;
pub mod metrics;
pub mod monitor;
mod record;
pub mod stream;

use std::cell::Cell;

pub use causal::{
    Attribution, CausalGraph, Cause, Journey, JourneyFate, Loss, PathOutcome, PathTrace, Stage,
};
pub use metrics::{
    ClosedConns, ConnKey, ConnScope, Ctr, Hist, Histogram, LinkScope, Metrics, Snapshot, Window,
    RETIRED_KEPT,
};
pub use monitor::{CheckStats, Monitor, Violation, ViolationKind};
pub use record::{
    legal_transition, render, Dir, Event, FaultKind, PathKind, ReclaimKind, Record, RexmitReason,
    SegFlags, TcpFsm,
};
pub use stream::{
    attach, detach, detach_as, journal_dropped, observe, FlightRecorder, Journal, Observer,
    ObserverHandle,
};

/// Simulated time in nanoseconds (mirrors `unp_sim::Nanos`; this crate
/// sits below the engine and cannot import it).
pub type Nanos = u64;

thread_local! {
    static CLOCK: Cell<Nanos> = const { Cell::new(0) };
    static HOST: Cell<Option<u16>> = const { Cell::new(None) };
    static NEXT_FRAME: Cell<u64> = const { Cell::new(0) };
    static JOURNAL_HANDLE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Zeroes the frame-id mint, the clock, and the host scope without
/// touching attached observers: arms a deterministic run for
/// observer-only (journal-off) monitoring. [`journal_start`] calls
/// this; monitor-only runs — the million-channel sweeps where a full
/// journal is impossible — call it directly before building the
/// world.
pub fn reset_run() {
    NEXT_FRAME.with(|c| c.set(0));
    CLOCK.with(|c| c.set(0));
    HOST.with(|c| c.set(None));
}

fn start_with(j: stream::Journal) {
    if let Some(id) = JOURNAL_HANDLE.with(|c| c.take()) {
        let _ = stream::detach(stream::ObserverHandle::from_id(id));
    }
    reset_run();
    stream::reset_journal_dropped();
    let h = stream::attach(Box::new(j));
    JOURNAL_HANDLE.with(|c| c.set(Some(h.id())));
}

/// Starts recording: attaches a fresh unbounded journal observer
/// (replacing any previous one) and zeroes the frame-id mint and the
/// clock. Build the world *after* calling this so two identical runs
/// mint identical frame ids. Other observers stay attached.
pub fn journal_start() {
    start_with(stream::Journal::unbounded());
}

/// [`journal_start`], but the journal keeps only the most recent
/// `cap` records (drop-oldest; evictions counted by
/// [`journal_dropped`]) — long soaks no longer carry
/// peak-journal memory.
pub fn journal_start_bounded(cap: usize) {
    start_with(stream::Journal::bounded(cap));
}

/// Stops recording and drains the journal, shrunk to its length.
pub fn journal_stop() -> Vec<Record> {
    let Some(id) = JOURNAL_HANDLE.with(|c| c.take()) else {
        return Vec::new();
    };
    match stream::detach_as::<stream::Journal>(stream::ObserverHandle::from_id(id)) {
        Some(j) => j.into_records(),
        None => Vec::new(),
    }
}

/// Whether a journal observer is currently recording on this thread.
#[inline]
pub fn journal_enabled() -> bool {
    JOURNAL_HANDLE.with(|c| c.get().is_some())
}

/// The shared record-push path behind [`emit`] and [`emit_at`]: gate
/// first, so neither the host resolver nor the event constructor runs
/// while quiescent (no observers attached).
#[inline]
fn push(host: impl FnOnce() -> Option<u16>, frame: Option<u64>, make: impl FnOnce() -> Event) {
    if !stream::any_attached() {
        return;
    }
    let rec = Record {
        time: CLOCK.with(|c| c.get()),
        host: host(),
        frame,
        event: make(),
    };
    stream::dispatch(&rec);
}

/// Emits an event attributed to the thread's current host scope. The
/// closure runs only while a journal is recording.
#[inline]
pub fn emit(frame: Option<u64>, make: impl FnOnce() -> Event) {
    push(|| HOST.with(|c| c.get()), frame, make);
}

/// Emits an event with an explicit host (world-level emission sites
/// know their host index directly).
#[inline]
pub fn emit_at(host: u16, frame: Option<u64>, make: impl FnOnce() -> Event) {
    push(move || Some(host), frame, make);
}

/// Sets the journal clock; called by the simulation engine as it
/// advances virtual time.
#[inline]
pub fn set_time(t: Nanos) {
    CLOCK.with(|c| c.set(t));
}

/// The journal clock's current reading.
#[inline]
pub fn time() -> Nanos {
    CLOCK.with(|c| c.get())
}

/// Mints a fresh frame id. Stamped on every `Frame` at creation;
/// clones and slices share their parent's id.
#[inline]
pub fn next_frame_id() -> u64 {
    NEXT_FRAME.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Scope guard attributing emissions from layers that don't know
/// their host (kernel, tcp) to host `h`. Restores the previous scope
/// on drop.
pub struct HostScope {
    prev: Option<u16>,
}

/// Enters a host attribution scope.
pub fn host_scope(h: u16) -> HostScope {
    let prev = HOST.with(|c| c.replace(Some(h)));
    HostScope { prev }
}

impl Drop for HostScope {
    fn drop(&mut self) {
        let prev = self.prev;
        HOST.with(|c| c.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monitor::mutations::BugClass;
    use std::collections::BTreeSet;

    #[test]
    fn every_vocabulary_says_each_keyword_once() {
        // `metrics::tests` checks `Ctr` and `Hist`, label order included.
        fn check<T: Copy>(all: &[T], label: fn(T) -> &'static str) {
            let name = std::any::type_name::<T>();
            let labels: Vec<_> = all.iter().map(|&v| label(v)).collect();
            let distinct: BTreeSet<_> = labels.iter().collect();
            assert_eq!(distinct.len(), labels.len(), "{name} repeats a keyword");
        }
        check(PathKind::ALL, PathKind::label);
        check(Dir::ALL, Dir::label);
        check(RexmitReason::ALL, RexmitReason::label);
        check(TcpFsm::ALL, TcpFsm::label);
        check(FaultKind::ALL, FaultKind::label);
        check(ReclaimKind::ALL, ReclaimKind::label);
        check(Stage::ALL, Stage::label);
        check(PathOutcome::ALL, PathOutcome::label);
        check(ViolationKind::ALL, ViolationKind::label);
        check(BugClass::ALL, BugClass::label);
    }

    #[test]
    fn record_line_is_canonical() {
        let r = Record {
            time: 12345,
            host: Some(1),
            frame: Some(7),
            event: Event::RingEnqueue {
                channel: 3,
                depth: 2,
                signal: true,
            },
        };
        assert_eq!(
            r.line(),
            "12345 h1 f7 ring_enqueue ch=3 depth=2 signal=true"
        );
        let r = Record {
            time: 0,
            host: None,
            frame: None,
            event: Event::WakeupBatch {
                channel: 3,
                frames: 4,
            },
        };
        assert_eq!(r.line(), "0 h- f- wakeup_batch ch=3 frames=4");
    }

    #[test]
    fn journal_records_between_start_and_stop() {
        // Quiescent: emissions vanish and the closure never runs.
        let mut built = 0u32;
        emit(None, || {
            built += 1;
            Event::NicTx { len: 60 }
        });
        assert_eq!(built, 0);
        assert!(!journal_enabled());

        journal_start();
        assert!(journal_enabled());
        set_time(500);
        let f = next_frame_id();
        assert_eq!(f, 0);
        {
            let _g = host_scope(2);
            emit(Some(f), || Event::NicRx {
                len: 64,
                accepted: true,
            });
        }
        emit_at(0, None, || Event::NicTx { len: 64 });
        // Host scope restored after the guard dropped.
        emit(None, || Event::NicTx { len: 1 });
        let j = journal_stop();
        assert!(!journal_enabled());
        assert_eq!(j.len(), 3);
        assert_eq!(j[0].line(), "500 h2 f0 nic_rx len=64 accepted=true");
        assert_eq!(j[1].line(), "500 h0 f- nic_tx len=64");
        assert_eq!(j[2].line(), "500 h- f- nic_tx len=1");
        // Restarting zeroes the mint.
        journal_start();
        assert_eq!(next_frame_id(), 0);
        assert_eq!(next_frame_id(), 1);
        let _ = journal_stop();
    }

    #[test]
    fn host_scopes_nest() {
        journal_start();
        {
            let _a = host_scope(1);
            {
                let _b = host_scope(2);
                emit(None, || Event::NicTx { len: 1 });
            }
            emit(None, || Event::NicTx { len: 2 });
        }
        let j = journal_stop();
        assert_eq!(j[0].host, Some(2));
        assert_eq!(j[1].host, Some(1));
    }

    #[test]
    fn render_joins_lines() {
        let recs = vec![
            Record {
                time: 1,
                host: None,
                frame: None,
                event: Event::NicTx { len: 5 },
            },
            Record {
                time: 2,
                host: None,
                frame: None,
                event: Event::RingDrop {
                    channel: 9,
                    pressure: false,
                },
            },
        ];
        assert_eq!(
            render(&recs),
            "1 h- f- nic_tx len=5\n2 h- f- ring_drop ch=9 pressure=false\n"
        );
    }

    #[test]
    fn render_is_stable_on_timestamp_ties() {
        let a = Record {
            time: 5,
            host: Some(1),
            frame: Some(3),
            event: Event::NicTx { len: 9 },
        };
        let b = Record {
            time: 5,
            host: Some(0),
            frame: Some(7),
            event: Event::RingDrop {
                channel: 2,
                pressure: false,
            },
        };
        // Same tick, opposite emission orders: render must agree.
        let fwd = render(&[a.clone(), b.clone()]);
        let rev = render(&[b.clone(), a.clone()]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd, format!("{}\n{}\n", b.line(), a.line()));
        // The input slices themselves are untouched (joins need emission
        // order).
        let recs = [a.clone(), b.clone()];
        let _ = render(&recs);
        assert_eq!(recs[0], a);
        assert_eq!(recs[1], b);
    }
}
