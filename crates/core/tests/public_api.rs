//! The paths `benchmark/src` imports from `unp_core`, used the way it uses
//! them. The host-time ledger (`benchmark/`) is a frozen workspace of its
//! own that tier-1 (`cargo build --release && cargo test -q`) does not
//! build, so a re-export that moved or a signature that changed would
//! otherwise surface only in `ci.sh`. The list is the benchmark's, not a
//! wish list: it shrinks at the next benchmark PR (ROADMAP direction 4a),
//! when the ledger is re-frozen on the API the world actually uses.

use std::cell::Cell;
use std::rc::Rc;

use unp_core::world::{connect, listen};
use unp_core::{build_hosts, install_faults, Eng, FaultPlan, Host, Network, OrgKind, World};
use unp_core::{AppLogic, AppOp, AppView};
use unp_tcp::TcpConfig;
use unp_timers::TimerService;
use unp_trace::Ctr;
use unp_wire::Ipv4Addr;

/// Sends one block when connected, closes when the peer does, and counts
/// what it is handed: every `AppLogic` upcall the benchmark's apps define.
struct Probe(Rc<Cell<usize>>);

impl AppLogic for Probe {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        assert!(view.send_space > 0 && view.pending_tx == 0);
        vec![AppOp::Send(vec![7; 100]), AppOp::Close]
    }
    fn on_data(&mut self, data: &[u8], _view: &AppView) -> Vec<AppOp> {
        self.0.set(self.0.get() + data.len());
        Vec::new()
    }
    fn on_send_space(&mut self, _view: &AppView) -> Vec<AppOp> {
        Vec::new()
    }
    fn on_peer_closed(&mut self, _view: &AppView) -> Vec<AppOp> {
        vec![AppOp::Close]
    }
    fn on_reset(&mut self, _view: &AppView) {}
}

/// `round.rs`'s "most of anything on one host".
fn most(w: &World, per_host: impl Fn(&Host) -> usize) -> usize {
    w.hosts.iter().map(per_host).max().unwrap_or(0)
}

#[test]
fn the_frozen_benchmarks_imports_resolve_and_type_check() {
    let (mut w, mut eng): (World, Eng) = build_hosts(2, Network::Ethernet, OrgKind::UserLibrary);
    install_faults(&mut w, &mut eng, FaultPlan::none());
    let received = Rc::new(Cell::new(0));
    let sink = Rc::clone(&received);
    let server = (Ipv4Addr::new(10, 0, 0, 1), 80);
    listen(
        &mut w,
        0,
        server.1,
        TcpConfig::default(),
        Box::new(move || Box::new(Probe(Rc::clone(&sink)))),
    );
    let client = Box::new(Probe(Rc::default()));
    connect(
        &mut w,
        &mut eng,
        1,
        server,
        TcpConfig::default(),
        client,
        4096,
    );
    while w.hosts[0].conns.is_empty() {
        assert!(eng.step(&mut w), "never established");
    }
    assert_eq!(most(&w, |h| h.netio.channel_count()), 1);
    assert!(most(&w, |h| h.wheel.pending()) > 0);
    assert!(eng.run(&mut w, 1_000_000), "did not drain");
    assert_eq!(received.get(), 100);
    assert!(w.metrics.get(Ctr::FramesSent) > 0);
    assert!(w.hosts.iter().any(|h| h.netio.demux_stats().packets > 0));
    assert!(w.pool.buf_size() > 0);
    let _the_third_op: AppOp = AppOp::Abort;
}
