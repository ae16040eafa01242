//! The allocation budgets tier-1 can see, from one counting allocator.
//!
//! **Per frame:** a Table-2 bulk transfer under the user-level library may
//! touch the general allocator 1.25 times per steady-state frame, the same
//! transfer at 2 % loss 0.88 times and ask it for 935 bytes (an
//! out-of-order segment's bytes go straight into the receive ring, and the
//! application reads them there), and a one-byte ping-pong on AN1 2.25
//! times. What is left is named in
//! DESIGN.md ("Events are data; the allocation budget"): the application's
//! ops and write buffers. A sent segment's payload goes from the TCB's
//! send buffer straight into a pooled frame, pooled frames recycle whole
//! and a received byte is read in place, so an allocation per frame there
//! (a payload `Vec` per sent segment, an `Rc` header, a fresh `recv`
//! `Vec`) breaks the bound, and a boxed closure per event or a fresh `Vec`
//! per call on the per-frame path shows up as a count several times it.
//!
//! **Per connection:** a connect → echo → close may make only about a
//! dozen allocations and request only a few kilobytes from the allocator,
//! and a connection sitting out TIME_WAIT may keep only a few alive
//! (DESIGN.md, "What a connection costs"). A channel that reserves its
//! whole modelled ring up front reads 59 KB and 28 KB here; a fresh block
//! and fresh stream rings per connection and a closure per connect RPC
//! read 18.7 allocations, and a closure per step of the hand-off, a fresh
//! parked-frame `Vec` and a fresh ring and flow-table bucket per channel
//! besides read 34.
//!
//! **Per closed connection:** once TIME_WAIT is over, nothing — a closed
//! connection is a count and a sum (DESIGN.md, "What a closed connection
//! costs"). A scope and a binding report kept per connection ever made
//! read 445 B per endpoint here; it reads 18.
//!
//! **Per block:** the `Tcb` a connection boxes, and the `TcpConfig`
//! inside it, stay at the size the component split left them; the
//! `TimeWait` record that replaces the block for 2·MSL stays small enough
//! to share the connection's table slot, and the block goes back to the
//! registry when the wait starts.
//!
//! Its own test binary: the counting allocator is process-wide, so it must
//! not share a process with tests that run concurrently — and the six
//! tests that allocate in a world take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::mem::size_of;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

use unp::core::app::{EchoApp, PingPongApp, TransferStats};
use unp::core::experiments::Transfer;
use unp::core::faults::FaultPlan;
use unp::core::world::{
    build_hosts, connect, install_faults, listen, Eng, Network, OrgKind, World,
};
use unp::sim::MILLIS;
use unp::tcp::{State, TcpConfig};
use unp::trace::Ctr;
use unp::wire::Ipv4Addr;

/// Allocations made, bytes they asked for, bytes currently live, and
/// the most bytes live at once.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Held by whichever test is reading the counters.
static TURN: Mutex<()> = Mutex::new(());

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    REQUESTED.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

/// `System`, with every allocation counted.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One allocation of the new size; the old block is released.
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per steady-state frame: a bulk frame reads 1.04 and a
/// one-byte ping or echo 2.03; with a payload `Vec` per sent segment they
/// read 1.54 and 3.05.
const BULK_BUDGET: f64 = 1.25;
const PING_BUDGET: f64 = 2.25;
/// The bulk transfer again at 2 % loss, so segments arrive out of order
/// and wait for their retransmitted predecessors: its frames read 0.70
/// allocations each, and 749 bytes requested. With a copy of every held
/// segment in a map of its own and the filled run gathered into a fresh
/// `Vec` (the reassembly queue before it held only sequence ranges) they
/// read 1.24 allocations; with every read copied out of the receive ring
/// into a buffer of its own (the application before it read the ring in
/// place) 0.72 allocations and 1,273 bytes, for a read that drains a
/// filled hole is longer than a buffer worth keeping.
const LOSSY_BUDGET: f64 = 0.88;
const LOSSY_BYTES_BUDGET: f64 = 935.0;
const LOSSY_SEED: u64 = 1993;
/// The same transfer may keep 400 KB live at once: it reads 352 KB, with
/// its 64 KiB stream rings grown to the buffer size and no further and a
/// write the sender's TCB refused waiting in the application's own
/// buffer. With rings doubling past the buffer size, as `VecDeque` grows
/// them, and every refused byte copied into a queue of the library's
/// own, it read 458 KB.
const LOSSY_PEAK_BUDGET: u64 = 400_000;
/// 4 MB lasts about eleven simulated seconds at this loss; the window
/// opens after slow start and closes well before the FIN.
const LOSSY_TOTAL: u64 = 4_000_000;
const LOSSY_WINDOW: [u64; 2] = [300 * MILLIS, 3_000 * MILLIS];
/// Pings in the one-byte exchange: about five simulated seconds.
const ROUNDS: usize = 2_000;

/// Allocations, and bytes they requested, per frame sent between the two
/// instants of `window` in a Table-2 bulk transfer of `total` bytes,
/// `faults` installed if any; and the most bytes the transfer kept live
/// at once, its world included.
fn bulk_allocs_per_frame(
    total: u64,
    window: [u64; 2],
    faults: Option<FaultPlan>,
) -> ([f64; 2], u64) {
    let live_before = LIVE.load(Relaxed);
    PEAK.store(live_before, Relaxed);
    let edges = Rc::new(Cell::new([(0u64, 0u64, 0u64); 2]));
    let transfer = Transfer::table2(Network::Ethernet, OrgKind::UserLibrary, 1460, total);
    transfer.run(|w, eng| {
        if let Some(plan) = faults {
            install_faults(w, eng, plan);
        }
        for (edge, at) in window.into_iter().enumerate() {
            let edges = Rc::clone(&edges);
            eng.at(at, move |w, _| {
                let mut readings = edges.get();
                let counts = (ALLOCS.load(Relaxed), REQUESTED.load(Relaxed));
                readings[edge] = (counts.0, counts.1, w.metrics.get(Ctr::FramesSent));
                edges.set(readings);
            });
        }
    });
    let [(allocs_open, bytes_open, frames_open), (allocs_close, bytes_close, frames_close)] =
        edges.get();
    let frames = frames_close - frames_open;
    assert!(frames > 300, "the window saw only {frames} frames");
    let per_frame =
        [allocs_close - allocs_open, bytes_close - bytes_open].map(|n| n as f64 / frames as f64);
    (per_frame, PEAK.load(Relaxed) - live_before)
}

#[test]
fn a_steady_state_bulk_frame_stays_within_its_allocation_budget() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    // 1 MB at ~8 Mb/s lasts about a simulated second. The window opens
    // once the handshake, slow start and every buffer's growth are behind
    // (200 ms) and closes well before the FIN (700 ms).
    let ([per_frame, _], _) = bulk_allocs_per_frame(1_000_000, [200 * MILLIS, 700 * MILLIS], None);
    assert!(
        per_frame <= BULK_BUDGET,
        "{per_frame:.2} allocations per frame in steady state (budget {BULK_BUDGET})"
    );
}

#[test]
fn a_lossy_bulk_frame_stays_within_its_allocation_budget() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let plan = FaultPlan::lossy(LOSSY_SEED, 0.02);
    let ([per_frame, bytes], _) = bulk_allocs_per_frame(LOSSY_TOTAL, LOSSY_WINDOW, Some(plan));
    assert!(
        per_frame <= LOSSY_BUDGET && bytes <= LOSSY_BYTES_BUDGET,
        "per frame of a lossy transfer: {per_frame:.2} allocations (budget {LOSSY_BUDGET}), \
         {bytes:.0} bytes requested (budget {LOSSY_BYTES_BUDGET})"
    );
}

#[test]
fn a_lossy_transfer_keeps_no_more_heap_than_its_buffers_hold() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let plan = FaultPlan::lossy(LOSSY_SEED, 0.02);
    let (_, peak) = bulk_allocs_per_frame(LOSSY_TOTAL, LOSSY_WINDOW, Some(plan));
    assert!(
        peak <= LOSSY_PEAK_BUDGET,
        "a lossy transfer kept {peak} bytes live at once (budget {LOSSY_PEAK_BUDGET})"
    );
}

#[test]
fn a_steady_state_one_byte_exchange_stays_within_its_allocation_budget() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    // `rr` in small: one-byte pings echoed back on AN1 under the
    // user-level library, every frame a one-byte data segment with its
    // acknowledgment piggybacked. The window opens once the handshake and
    // every buffer's growth are behind and closes before the last ping.
    let (mut w, mut eng) = build_hosts(2, Network::An1, OrgKind::UserLibrary);
    let cfg = TcpConfig::default();
    listen(&mut w, 1, 80, cfg.clone(), Box::new(|| Box::new(EchoApp)));
    let stats = TransferStats::new_shared();
    stats.borrow_mut().rtts.reserve(ROUNDS);
    let app = PingPongApp::new(1, ROUNDS, Rc::clone(&stats));
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 80),
        cfg,
        Box::new(app),
        1,
    );
    let window = Rc::new(Cell::new([(0u64, 0u64); 2]));
    for (edge, at) in [100 * MILLIS, 1_000 * MILLIS].into_iter().enumerate() {
        let window = Rc::clone(&window);
        eng.at(at, move |w, _| {
            let mut edges = window.get();
            edges[edge] = (ALLOCS.load(Relaxed), w.metrics.get(Ctr::FramesSent));
            window.set(edges);
        });
    }
    assert!(eng.run(&mut w, 50_000_000), "the exchange did not drain");
    assert_eq!(stats.borrow().rtts.len(), ROUNDS, "rounds incomplete");
    let [(allocs_open, frames_open), (allocs_close, frames_close)] = window.get();
    let frames = frames_close - frames_open;
    assert!(frames > 300, "the window saw only {frames} frames");
    let per_frame = (allocs_close - allocs_open) as f64 / frames as f64;
    assert!(
        per_frame <= PING_BUDGET,
        "{per_frame:.2} allocations per one-byte frame in steady state (budget {PING_BUDGET})"
    );
}

/// `churn` in small: four clients, each opening one connection every
/// `EVERY` to the echo server on host 0 — connect, one 64-byte round trip,
/// close — so every slot ends with all its connections closed at the
/// server and sitting out TIME_WAIT (60 s) at their clients.
const CLIENTS: usize = 4;
const EVERY: u64 = 100 * MILLIS;
const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 80);
/// Bytes: a connection reads 3.0 KB requested in release and 9.8 KB in
/// debug (whose kernel re-derives its demux caches after every channel
/// event), and 1.4 KB kept either way: live TIME_WAIT state, the client's
/// record in its table slot, its channel and its timer, which the
/// measured connections still hold at the window's end (DESIGN.md, "What
/// a connection costs"). A block parked through the wait instead of given
/// back at its start read 2.0 KB, and a timing wheel with a vector per
/// slot and an id map 1.6 KB. Allocations: 10.7 in release, where a
/// finished connection's block and rings open the host's next one; a
/// fresh block and fresh rings per connection and a closure per connect
/// RPC read 18.7.
const REQUESTED_BUDGET: u64 = 25_000;
const KEPT_BUDGET: u64 = 4_950;
const ALLOCS_BUDGET: f64 = 15.0;

fn open_one_per_slot(
    w: &mut World,
    eng: &mut Eng,
    client: usize,
    cfg: TcpConfig,
    stats: Rc<RefCell<TransferStats>>,
) {
    let app = PingPongApp::new(64, 1, Rc::clone(&stats));
    connect(w, eng, client, SERVER, cfg.clone(), Box::new(app), 64);
    eng.after(EVERY, move |w, eng| {
        open_one_per_slot(w, eng, client, cfg, stats)
    });
}

/// The churn-shaped world with `cfg` on every connection, run up to each
/// of `edges` (in slots): the allocator's `(allocations, requested, live)`
/// readings taken there, every connection of the slots before having
/// echoed and closed at `ends_closed` of its two ends (the server; the
/// client too once its TIME_WAIT is over).
fn churn_readings(cfg: TcpConfig, edges: [u64; 2], ends_closed: u64) -> [(u64, u64, u64); 2] {
    let (mut w, mut eng) = build_hosts(CLIENTS + 1, Network::Ethernet, OrgKind::UserLibrary);
    let echo = || Box::new(EchoApp) as _;
    listen(&mut w, 0, SERVER.1, cfg.clone(), Box::new(echo));
    let stats = TransferStats::new_shared();
    stats.borrow_mut().rtts.reserve(CLIENTS * edges[1] as usize);
    for client in 1..=CLIENTS {
        let (cfg, stats) = (cfg.clone(), Rc::clone(&stats));
        eng.at(client as u64 * MILLIS, move |w, eng| {
            open_one_per_slot(w, eng, client, cfg, stats)
        });
    }
    let mut readings = [(0u64, 0u64, 0u64); 2];
    for (reading, slots) in readings.iter_mut().zip(edges) {
        eng.run_until(&mut w, slots * EVERY);
        let opened = CLIENTS as u64 * slots;
        assert_eq!(
            stats.borrow().rtts.len() as u64,
            opened,
            "echoes by slot {slots}"
        );
        assert_eq!(
            w.metrics.get(Ctr::ConnectionsClosed),
            ends_closed * opened,
            "ends closed by slot {slots}"
        );
        *reading = (
            ALLOCS.load(Relaxed),
            REQUESTED.load(Relaxed),
            LIVE.load(Relaxed),
        );
    }
    assert!(!stats.borrow().reset);
    readings
}

#[test]
fn a_connection_stays_within_its_heap_budget() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    // Ten slots of warm-up (tables, pools and spares reach their size),
    // then fifty measured; each edge falls just before its slot's opens.
    const EDGES: [u64; 2] = [10, 60];
    let readings = churn_readings(TcpConfig::default(), EDGES, 1);
    let [(allocs_open, requested_open, live_open), (allocs_close, requested_close, live_close)] =
        readings;
    let connections = CLIENTS as u64 * (EDGES[1] - EDGES[0]);
    let allocs = (allocs_close - allocs_open) as f64 / connections as f64;
    let requested = (requested_close - requested_open) / connections;
    let kept = live_close.saturating_sub(live_open) / connections;
    assert!(
        requested <= REQUESTED_BUDGET && kept <= KEPT_BUDGET,
        "per connection: {requested} bytes requested (budget {REQUESTED_BUDGET}), \
         {kept} bytes kept through TIME_WAIT (budget {KEPT_BUDGET})"
    );
    // Held in release (as `ci.sh` runs this test): a debug kernel also
    // allocates in the demux cache check it makes after every channel
    // event (`debug_validate`), 17 more per connection.
    if !cfg!(debug_assertions) {
        assert!(
            allocs <= ALLOCS_BUDGET,
            "per connection: {allocs:.1} allocations (budget {ALLOCS_BUDGET})"
        );
    }
}

#[test]
fn a_closed_connection_keeps_nothing_on_the_heap() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    // A 10 ms TIME_WAIT, so each slot's connections are gone from both
    // ends before the next slot opens: what the heap still grows by is
    // what the world keeps per connection *ever made*. The first half
    // closes 70 connections per client — enough to fill every bounded
    // tail (64 closes) on every host — and the second half is measured.
    const EDGES: [u64; 2] = [70, 140];
    let cfg = TcpConfig {
        time_wait: 10 * MILLIS,
        ..TcpConfig::default()
    };
    let [(.., live_open), (.., live_close)] = churn_readings(cfg, EDGES, 2);
    let endpoints = 2 * CLIENTS as u64 * (EDGES[1] - EDGES[0]);
    let kept = live_close.saturating_sub(live_open) / endpoints;
    assert!(
        kept <= 64,
        "{kept} bytes of live heap per closed endpoint, {endpoints} closed (budget 64)"
    );
}

/// What an open connection keeps is mostly its `Box<Tcb>`; one sitting
/// out TIME_WAIT keeps a `TimeWait` record in its table slot instead, and
/// its block serves the host's next connection. The block read 624 B and
/// the configuration inside it 104 B when `TcpConfig` had six more
/// fields, the estimator its own copy of the RTO bounds and the timer
/// table a deadline per kind; they read 488 and 64 on a 64-bit target, the
/// block 480 once its reassembly queue held only sequence ranges, and 512
/// once it counted the bytes it leases its application and kept their
/// spill: a new field needs an old one to shrink. The record reads 72: it shares its slot with the open connection's box,
/// queue and write size, so the slot stays 128 (`world::tests`).
#[test]
fn a_tcb_stays_under_half_a_kilobyte() {
    let (tcb, cfg) = (size_of::<unp::tcp::Tcb>(), size_of::<TcpConfig>());
    let record = size_of::<unp::tcp::TimeWait>();
    assert!(
        tcb <= 512 && cfg <= 64 && record <= 72,
        "Tcb is {tcb} bytes (budget 512), TcpConfig {cfg} (budget 64), TimeWait {record} (budget 72)"
    );
}

/// A client that starts its TIME_WAIT gives its block back at once: the
/// registry's spare holds it (and its rings) while the pair sits out the
/// wait, and the wait's end gives back nothing more.
#[test]
fn a_client_in_time_wait_has_given_its_block_back() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut w, mut eng) = build_hosts(2, Network::Ethernet, OrgKind::UserLibrary);
    let cfg = TcpConfig::default();
    listen(
        &mut w,
        0,
        SERVER.1,
        cfg.clone(),
        Box::new(|| Box::new(EchoApp) as _),
    );
    let stats = TransferStats::new_shared();
    let app = PingPongApp::new(64, 1, Rc::clone(&stats));
    connect(&mut w, &mut eng, 1, SERVER, cfg, Box::new(app), 64);
    let waiting = |w: &World| {
        w.hosts[1]
            .conns
            .values()
            .any(|c| c.state() == State::TimeWait)
    };
    while !waiting(&w) {
        assert!(eng.step(&mut w), "the client never reached TIME_WAIT");
    }
    assert_eq!(w.hosts[1].conns.len(), 1, "the pair still holds its slot");
    assert_eq!(w.hosts[1].registry.spare(), [1, 1], "block and rings back");
    assert!(eng.run(&mut w, 50_000_000), "the wait did not end");
    assert!(w.hosts[1].conns.is_empty());
    assert_eq!(
        w.hosts[1].registry.spare(),
        [1, 1],
        "the block came back once"
    );
}
