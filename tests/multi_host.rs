//! Multi-host worlds: several stations share one Ethernet; concurrent
//! connections from different hosts to one server must demultiplex
//! cleanly (each channel's filter matches only its own 4-tuple), and the
//! shared bus carries everyone's traffic.

use std::cell::RefCell;
use std::rc::Rc;

use unp::core::app::{BulkSender, SinkApp, TransferStats};
use unp::core::world::{build_hosts, connect, listen, Network, OrgKind};
use unp::tcp::TcpConfig;
use unp::trace::Ctr;
use unp::wire::Ipv4Addr;

#[test]
fn four_clients_one_server_streams_isolated() {
    // Hosts 0..3 are clients; host 4 is the server.
    let (mut w, mut eng) = build_hosts(5, Network::Ethernet, OrgKind::UserLibrary);
    let server_ip = Ipv4Addr::new(10, 0, 0, 5);
    let sinks: Rc<RefCell<Vec<Rc<RefCell<TransferStats>>>>> = Rc::new(RefCell::new(Vec::new()));
    let sh = Rc::clone(&sinks);
    listen(
        &mut w,
        4,
        80,
        TcpConfig::default(),
        Box::new(move || {
            let st = TransferStats::new_shared();
            sh.borrow_mut().push(Rc::clone(&st));
            // Pattern verification inside SinkApp proves per-connection
            // stream isolation: any cross-delivery would corrupt the
            // position-dependent pattern and panic.
            Box::new(SinkApp::new(st))
        }),
    );
    for client in 0..4 {
        connect(
            &mut w,
            &mut eng,
            client,
            (server_ip, 80),
            TcpConfig::default(),
            Box::new(BulkSender::new(60_000, 4096)),
            4096,
        );
    }
    assert!(eng.run(&mut w, 100_000_000), "world did not drain");
    let sinks = sinks.borrow();
    assert_eq!(sinks.len(), 4, "four connections accepted");
    for st in sinks.iter() {
        let s = st.borrow();
        assert_eq!(s.bytes_received, 60_000);
        assert!(s.peer_closed && !s.reset);
    }
    // The server's kernel ran four separate channels and reaped them all.
    assert_eq!(w.hosts[4].netio.channel_count(), 0);
    assert_eq!(w.metrics.get(Ctr::TxTemplateRejections), 0);
}

#[test]
fn cross_traffic_between_pairs_coexists() {
    // 0→1 and 2→3 transfer simultaneously on the shared bus.
    let (mut w, mut eng) = build_hosts(4, Network::Ethernet, OrgKind::UserLibrary);
    let st1 = TransferStats::new_shared();
    let st2 = TransferStats::new_shared();
    let (c1, c2) = (Rc::clone(&st1), Rc::clone(&st2));
    listen(
        &mut w,
        1,
        80,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&c1)))),
    );
    listen(
        &mut w,
        3,
        80,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&c2)))),
    );
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 80),
        TcpConfig::default(),
        Box::new(BulkSender::new(80_000, 2048)),
        2048,
    );
    connect(
        &mut w,
        &mut eng,
        2,
        (Ipv4Addr::new(10, 0, 0, 4), 80),
        TcpConfig::default(),
        Box::new(BulkSender::new(80_000, 2048)),
        2048,
    );
    assert!(eng.run(&mut w, 100_000_000));
    assert_eq!(st1.borrow().bytes_received, 80_000);
    assert_eq!(st2.borrow().bytes_received, 80_000);
    // Stations only process frames addressed to them; host 0 never saw
    // host 2's unicast data in its stack beyond the NIC's address match.
    assert!(
        w.metrics.get(Ctr::IpNotForUs) == 0,
        "unicast must filter at the NIC"
    );
}

#[test]
fn shared_bus_contention_slows_concurrent_transfers() {
    // One pair transferring alone vs two pairs sharing the bus: the shared
    // medium must show contention (per-pair throughput drops).
    let solo = {
        let (mut w, mut eng) = build_hosts(4, Network::Ethernet, OrgKind::InKernel);
        let st = TransferStats::new_shared();
        let c = Rc::clone(&st);
        listen(
            &mut w,
            1,
            80,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&c)))),
        );
        connect(
            &mut w,
            &mut eng,
            0,
            (Ipv4Addr::new(10, 0, 0, 2), 80),
            TcpConfig::default(),
            Box::new(BulkSender::new(200_000, 4096)),
            4096,
        );
        eng.run(&mut w, 100_000_000);
        let bps = st.borrow().throughput_bps().unwrap();
        bps
    };
    let contended = {
        let (mut w, mut eng) = build_hosts(4, Network::Ethernet, OrgKind::InKernel);
        let st = TransferStats::new_shared();
        let other = TransferStats::new_shared();
        let (c, o) = (Rc::clone(&st), Rc::clone(&other));
        listen(
            &mut w,
            1,
            80,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&c)))),
        );
        listen(
            &mut w,
            3,
            80,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&o)))),
        );
        connect(
            &mut w,
            &mut eng,
            0,
            (Ipv4Addr::new(10, 0, 0, 2), 80),
            TcpConfig::default(),
            Box::new(BulkSender::new(200_000, 4096)),
            4096,
        );
        connect(
            &mut w,
            &mut eng,
            2,
            (Ipv4Addr::new(10, 0, 0, 4), 80),
            TcpConfig::default(),
            Box::new(BulkSender::new(200_000, 4096)),
            4096,
        );
        eng.run(&mut w, 100_000_000);
        let bps = st.borrow().throughput_bps().unwrap();
        bps
    };
    assert!(
        contended < solo * 0.85,
        "bus sharing must cost throughput: solo {solo:.0} vs contended {contended:.0}"
    );
}

#[test]
fn thirty_three_hosts_build_with_overflow_checks_on() {
    // `build_hosts` spaces the hosts' port bases 8000 apart in a `u16`,
    // which wraps from the ninth host on; this test runs in the debug
    // profile, where an implicit wrap would panic. The last host must be
    // a working station in both kinds of organization (only the
    // monolithic ones allocate from the wrapped base).
    for org in [OrgKind::UserLibrary, OrgKind::InKernel] {
        let (mut w, mut eng) = build_hosts(33, Network::Ethernet, org);
        let stats = TransferStats::new_shared();
        let st = Rc::clone(&stats);
        listen(
            &mut w,
            0,
            80,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)))),
        );
        connect(
            &mut w,
            &mut eng,
            32,
            (Ipv4Addr::new(10, 0, 0, 1), 80),
            TcpConfig::default(),
            Box::new(BulkSender::new(10_000, 4096)),
            4096,
        );
        assert!(eng.run(&mut w, 10_000_000), "world did not drain");
        let s = stats.borrow();
        assert_eq!(s.bytes_received, 10_000, "{org:?}");
        assert!(s.peer_closed && !s.reset, "{org:?}");
    }
}
