//! What a connection's end gives back, seen from outside the world:
//! every refused, closed or exhausted connect must leave the host able to
//! open the next one. (`World::leaks` over every teardown route is
//! checked beside the world itself, in `core::world`'s own tests.)

use std::cell::Cell;
use std::rc::Rc;

use unp::buffers::OwnerTag;
use unp::core::app::{
    AppLogic, AppOp, AppView, BulkSender, EchoApp, PingPongApp, SinkApp, TransferStats,
};
use unp::core::world::{build_two_hosts, connect, listen, Eng, Network, Nic, OrgKind, World};
use unp::tcp::TcpConfig;
use unp::trace::Ctr;
use unp::wire::Ipv4Addr;

const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 80);

/// Counts the resets its connection reports.
struct ResetCounter(Rc<Cell<u32>>);

impl AppLogic for ResetCounter {
    fn on_connected(&mut self, _view: &AppView) -> Vec<AppOp> {
        panic!("nobody listens on {SERVER:?}")
    }
    fn on_reset(&mut self, _view: &AppView) {
        self.0.set(self.0.get() + 1);
    }
}

/// Opens 100 connections, one at a time, to a port nobody listens on:
/// each handshake fails and ends in its application's `on_reset`.
fn refuse_100_connects(network: Network) -> (World, Eng) {
    let (mut w, mut eng) = build_two_hosts(network, OrgKind::UserLibrary);
    let resets = Rc::new(Cell::new(0));
    for _ in 0..100 {
        let app = Box::new(ResetCounter(Rc::clone(&resets)));
        connect(&mut w, &mut eng, 0, SERVER, TcpConfig::default(), app, 512);
        assert!(eng.run(&mut w, 1_000_000));
    }
    assert_eq!(w.metrics.get(Ctr::HandshakeFailures), 100);
    assert_eq!(resets.get(), 100, "each refusal resets its application");
    (w, eng)
}

#[test]
fn refused_connects_on_ethernet_reset_their_applications() {
    let (w, _) = refuse_100_connects(Network::Ethernet);
    assert_eq!(w.leaks(), Vec::<String>::new());
}

#[test]
fn refused_connects_on_an1_give_their_bqi_slots_back() {
    let (mut w, mut eng) = refuse_100_connects(Network::An1);
    for h in &w.hosts {
        let Nic::An1(nic) = &h.nic else {
            panic!("AN1 world")
        };
        // Entry 0, the kernel's own ring, is all that stays bound.
        assert_eq!(nic.bqi_table.bound_entries(), 1, "host {}", h.idx);
    }
    // So the table still has a slot for a connection that is accepted,
    // and its data is demultiplexed in hardware.
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    let sink = move || Box::new(SinkApp::new(Rc::clone(&st))) as _;
    listen(&mut w, 1, 80, TcpConfig::default(), Box::new(sink));
    let app = Box::new(BulkSender::new(100_000, 4096).without_close());
    connect(&mut w, &mut eng, 0, SERVER, TcpConfig::default(), app, 4096);
    assert!(eng.run(&mut w, 5_000_000));
    assert_eq!(stats.borrow().bytes_received, 100_000);
    for h in &w.hosts {
        let chan = h.conns.values().next().and_then(|c| c.chan.as_ref());
        assert_ne!(chan.expect("held open").our_bqi, 0, "host {}", h.idx);
    }
}

#[test]
fn sequential_connects_outlast_the_ephemeral_port_range() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    // A short 2·MSL keeps the timing wheel's idle sweeps (and this test)
    // short; the port comes back after TIME_WAIT however long that is.
    let cfg = TcpConfig {
        time_wait: 10_000_000,
        ..TcpConfig::low_latency()
    };
    let echo = || Box::new(EchoApp) as _;
    listen(&mut w, 1, 80, cfg.clone(), Box::new(echo));
    let stats = TransferStats::new_shared();
    // The registry hands out 1024..=5000: 3,977 ports, each of which a
    // library-side close must return.
    for _ in 0..5_000 {
        let app = Box::new(PingPongApp::new(64, 1, Rc::clone(&stats)));
        connect(&mut w, &mut eng, 0, SERVER, cfg.clone(), app, 64);
        assert!(eng.run(&mut w, 1_000_000));
    }
    assert_eq!(stats.borrow().rtts.len(), 5_000);
    assert!(!stats.borrow().reset);
    assert_eq!(w.metrics.get(Ctr::HandshakeFailures), 0);
    assert_eq!(w.leaks(), Vec::<String>::new());
    // The range wrapped, so 4-tuples came round again: each incarnation
    // is its own connection in the closed totals, with its own counters.
    let closed = || w.metrics.closed().map(|(_, c)| c);
    assert_eq!(closed().map(|c| c.count).sum::<u64>(), 2 * 5_000);
    let echoed = closed().map(|c| c.sum.bytes_to_app).sum::<u64>();
    assert_eq!(echoed, 2 * 5_000 * 64, "64 bytes there and 64 back");
    let segs_out = closed().map(|c| c.sum.segs_out).sum::<u64>();
    assert_eq!(segs_out, w.metrics.get(Ctr::FramesSent));
}

#[test]
fn connect_with_no_port_left_resets_the_application() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    // Bind the whole ephemeral range behind the world's back.
    while w.hosts[0]
        .registry
        .connect(OwnerTag(9), SERVER, TcpConfig::default(), 0)
        .is_ok()
    {}
    let stats = TransferStats::new_shared();
    let app = Box::new(PingPongApp::new(64, 1, Rc::clone(&stats)));
    connect(&mut w, &mut eng, 0, SERVER, TcpConfig::default(), app, 64);
    eng.run(&mut w, 10_000);
    assert!(
        stats.borrow().reset,
        "the app must learn its connect failed"
    );
    assert_eq!(w.metrics.get(Ctr::HandshakeFailures), 1);
}
