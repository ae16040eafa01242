//! Cross-crate integration tests exercised through the public facade:
//! full transfers under every organization, multi-protocol coexistence,
//! dynamic ARP, registry behaviours, and connection lifecycle.

#![allow(clippy::field_reassign_with_default)] // cfg tweaking reads better this way

use std::cell::RefCell;
use std::rc::Rc;

use unp::core::app::{
    AppLogic, AppOp, AppView, BulkSender, EchoApp, PingPongApp, SinkApp, TransferStats,
};
use unp::core::world::{
    bind_udp, build_two_hosts, connect, crash_host, listen, send_ping, send_udp, Network, OrgKind,
    World,
};
use unp::tcp::TcpConfig;
use unp::trace::Ctr;
use unp::wire::Ipv4Addr;

const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 80);

const ALL_ORGS: [OrgKind; 5] = [
    OrgKind::InKernel,
    OrgKind::SingleServer,
    OrgKind::SingleServerMsg,
    OrgKind::DedicatedServer,
    OrgKind::UserLibrary,
];

fn sink_listener(w: &mut World, stats: &Rc<RefCell<TransferStats>>, cfg: TcpConfig) {
    let st = Rc::clone(stats);
    listen(
        w,
        1,
        80,
        cfg,
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)))),
    );
}

#[test]
fn large_transfer_integrity_all_orgs_both_networks() {
    for network in [Network::Ethernet, Network::An1] {
        for org in ALL_ORGS {
            let (mut w, mut eng) = build_two_hosts(network, org);
            let stats = TransferStats::new_shared();
            sink_listener(&mut w, &stats, TcpConfig::bulk_transfer());
            connect(
                &mut w,
                &mut eng,
                0,
                SERVER,
                TcpConfig::bulk_transfer(),
                Box::new(BulkSender::new(300_000, 8192)),
                8192,
            );
            assert!(eng.run(&mut w, 20_000_000), "{org:?}/{network:?} stuck");
            let s = stats.borrow();
            // SinkApp verifies the byte pattern internally (panics on
            // corruption), so reaching the count proves integrity.
            assert_eq!(s.bytes_received, 300_000, "{org:?}/{network:?}");
            assert!(s.peer_closed, "{org:?}/{network:?} no FIN");
            assert!(!s.reset, "{org:?}/{network:?} reset");
        }
    }
}

#[test]
fn bidirectional_echo_all_orgs() {
    for org in ALL_ORGS {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
        let stats = TransferStats::new_shared();
        listen(
            &mut w,
            1,
            80,
            TcpConfig::default(),
            Box::new(|| Box::new(EchoApp)),
        );
        connect(
            &mut w,
            &mut eng,
            0,
            SERVER,
            TcpConfig::default(),
            Box::new(PingPongApp::new(1024, 10, Rc::clone(&stats))),
            1024,
        );
        assert!(eng.run(&mut w, 20_000_000));
        assert_eq!(stats.borrow().rtts.len(), 10, "{org:?} rounds");
    }
}

#[test]
fn multiple_concurrent_connections() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let mut all_stats = Vec::new();
    let shared: Rc<RefCell<Vec<Rc<RefCell<TransferStats>>>>> = Rc::new(RefCell::new(Vec::new()));
    let sh = Rc::clone(&shared);
    listen(
        &mut w,
        1,
        80,
        TcpConfig::default(),
        Box::new(move || {
            let st = TransferStats::new_shared();
            sh.borrow_mut().push(Rc::clone(&st));
            Box::new(SinkApp::new(st))
        }),
    );
    for _ in 0..5 {
        let st = TransferStats::new_shared();
        all_stats.push(Rc::clone(&st));
        connect(
            &mut w,
            &mut eng,
            0,
            SERVER,
            TcpConfig::default(),
            Box::new(BulkSender::new(50_000, 2048)),
            2048,
        );
    }
    assert!(eng.run(&mut w, 50_000_000));
    let sinks = shared.borrow();
    assert_eq!(sinks.len(), 5, "five connections accepted");
    for st in sinks.iter() {
        assert_eq!(st.borrow().bytes_received, 50_000);
    }
    // Each connection had its own channel; all were reaped at close.
    assert_eq!(w.metrics.get(Ctr::ConnectionsEstablished), 10); // 5 per side
    assert_eq!(w.hosts[1].netio.channel_count(), 0);
}

#[test]
fn dynamic_arp_resolution_without_static_seed() {
    // Remove the static ARP entries: the connection must still form via
    // real ARP request/reply traffic.
    for org in [OrgKind::InKernel, OrgKind::UserLibrary] {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
        let peer0 = w.hosts[1].ip;
        let peer1 = w.hosts[0].ip;
        w.hosts[0].arp = unp::proto::ArpCache::new(w.hosts[0].mac, w.hosts[0].ip);
        w.hosts[1].arp = unp::proto::ArpCache::new(w.hosts[1].mac, w.hosts[1].ip);
        let _ = (peer0, peer1);
        let stats = TransferStats::new_shared();
        sink_listener(&mut w, &stats, TcpConfig::default());
        connect(
            &mut w,
            &mut eng,
            0,
            SERVER,
            TcpConfig::default(),
            Box::new(BulkSender::new(10_000, 1024)),
            1024,
        );
        assert!(eng.run(&mut w, 10_000_000));
        assert_eq!(stats.borrow().bytes_received, 10_000, "{org:?} via ARP");
    }
}

#[test]
fn udp_and_icmp_share_the_link_with_tcp() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    sink_listener(&mut w, &stats, TcpConfig::default());
    connect(
        &mut w,
        &mut eng,
        0,
        SERVER,
        TcpConfig::default(),
        Box::new(BulkSender::new(100_000, 4096)),
        4096,
    );
    assert!(bind_udp(&mut w, 1, 53));
    for i in 0..8u16 {
        send_udp(
            &mut w,
            &mut eng,
            0,
            4000,
            (SERVER.0, 53),
            i.to_be_bytes().to_vec(),
        );
        send_ping(&mut w, &mut eng, 0, SERVER.0, 1, i);
    }
    assert!(eng.run(&mut w, 20_000_000));
    assert_eq!(stats.borrow().bytes_received, 100_000);
    assert_eq!(w.metrics.get(Ctr::UdpDelivered), 8);
    assert_eq!(w.metrics.get(Ctr::IcmpEchoReplyReceived), 8);
    // FIFO datagram content intact.
    for i in 0..8u16 {
        let d = w.hosts[1].udp.recv_from(53).expect("datagram");
        assert_eq!(d.payload, i.to_be_bytes());
    }
}

#[test]
fn udp_to_unbound_port_counts_unreachable() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    send_udp(
        &mut w,
        &mut eng,
        0,
        4000,
        (SERVER.0, 7777),
        b"void".to_vec(),
    );
    assert!(eng.run(&mut w, 1_000_000));
    assert_eq!(w.metrics.get(Ctr::UdpUnreachable), 1);
}

#[test]
fn crashed_application_releases_its_udp_ports() {
    // A dead process reads no datagrams: its ports close with it, a
    // datagram to one is unreachable, and the port can be bound again.
    for org in [OrgKind::InKernel, OrgKind::UserLibrary] {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
        assert!(bind_udp(&mut w, 1, 53), "{org:?}");
        crash_host(&mut w, &mut eng, 1);
        send_udp(&mut w, &mut eng, 0, 4000, (SERVER.0, 53), b"q".to_vec());
        assert!(eng.run(&mut w, 1_000_000));
        assert_eq!(w.metrics.get(Ctr::UdpDelivered), 0, "{org:?}");
        assert_eq!(w.metrics.get(Ctr::UdpUnreachable), 1, "{org:?}");
        assert!(bind_udp(&mut w, 1, 53), "{org:?}: port still held");
    }
}

/// An app that writes a burst and aborts mid-stream.
struct Aborter {
    wrote: bool,
}

impl AppLogic for Aborter {
    fn on_connected(&mut self, _v: &AppView) -> Vec<AppOp> {
        self.wrote = true;
        vec![AppOp::Send(vec![1u8; 4096]), AppOp::Abort]
    }
}

#[test]
fn abort_resets_peer_in_all_orgs() {
    for org in ALL_ORGS {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
        let stats = TransferStats::new_shared();
        let st = Rc::clone(&stats);
        listen(
            &mut w,
            1,
            80,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)).without_verify())),
        );
        connect(
            &mut w,
            &mut eng,
            0,
            SERVER,
            TcpConfig::default(),
            Box::new(Aborter { wrote: false }),
            4096,
        );
        assert!(eng.run(&mut w, 10_000_000));
        assert!(stats.borrow().reset, "{org:?}: peer must observe RST");
    }
}

#[test]
fn registry_stray_segment_draws_rst() {
    // A segment to a port nobody listens on: the registry (user-library
    // org) answers with RST; the originating TCB reports reset.
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    // No listener installed at all.
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 4242),
        TcpConfig::default(),
        Box::new(PingPongApp::new(8, 1, Rc::clone(&stats))),
        8,
    );
    assert!(eng.run(&mut w, 10_000_000));
    assert!(stats.borrow().rtts.is_empty(), "no data should flow");
    assert!(
        w.metrics.get(Ctr::HandshakeFailures) > 0 || w.metrics.get(Ctr::ConnectionsReset) > 0,
        "the SYN must be refused"
    );
}

#[test]
fn template_checks_never_fire_for_legitimate_traffic() {
    let (mut w, mut eng) = build_two_hosts(Network::An1, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    sink_listener(&mut w, &stats, TcpConfig::default());
    connect(
        &mut w,
        &mut eng,
        0,
        SERVER,
        TcpConfig::default(),
        Box::new(BulkSender::new(200_000, 4096)),
        4096,
    );
    assert!(eng.run(&mut w, 20_000_000));
    assert_eq!(stats.borrow().bytes_received, 200_000);
    assert_eq!(w.hosts[0].netio.tx_rejections(), 0);
    assert_eq!(w.hosts[1].netio.tx_rejections(), 0);
    assert_eq!(w.metrics.get(Ctr::TxTemplateRejections), 0);
}

#[test]
fn batching_amortizes_signals_under_load() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    sink_listener(&mut w, &stats, TcpConfig::bulk_transfer());
    connect(
        &mut w,
        &mut eng,
        0,
        SERVER,
        TcpConfig::bulk_transfer(),
        Box::new(BulkSender::new(500_000, 4096)),
        4096,
    );
    assert!(eng.run(&mut w, 50_000_000));
    let delivered = w.metrics.get(Ctr::ChDeliveries);
    let batched = w.metrics.get(Ctr::ChBatched);
    assert!(
        batched * 10 >= delivered,
        "expect ≥10% of deliveries batched under load: {batched}/{delivered}"
    );
}

#[test]
fn simulation_is_deterministic() {
    let run = || {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
        let stats = TransferStats::new_shared();
        sink_listener(&mut w, &stats, TcpConfig::default());
        connect(
            &mut w,
            &mut eng,
            0,
            SERVER,
            TcpConfig::default(),
            Box::new(BulkSender::new(100_000, 4096)),
            4096,
        );
        eng.run(&mut w, 20_000_000);
        let last = stats.borrow().last_byte_at;
        (eng.now(), eng.executed(), last)
    };
    assert_eq!(run(), run(), "identical worlds must replay identically");
}

#[test]
fn connect_to_nonexistent_host_times_out_with_reset() {
    // SYNs to an address nobody owns vanish; the registry retransmits with
    // backoff and eventually gives up, failing the pending application.
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 99), 80),
        TcpConfig::default(),
        Box::new(PingPongApp::new(8, 1, Rc::clone(&stats))),
        8,
    );
    assert!(eng.run(&mut w, 10_000_000), "give-up path must drain");
    assert!(stats.borrow().connected_at.is_none(), "must never connect");
    assert!(stats.borrow().reset, "the app must learn of the failure");
    assert_eq!(w.metrics.get(Ctr::HandshakeFailures), 1);
    assert_eq!(w.hosts[0].registry.tracked(), 0, "registry cleaned up");
    assert_eq!(w.hosts[0].netio.channel_count(), 0, "channel reclaimed");
}

#[test]
fn oversized_udp_fragments_and_reassembles_through_the_stack() {
    // A 4000-byte datagram on a 1500-byte MTU: the IP library fragments on
    // send, the frames cross the wire separately, and the peer's IP
    // library reassembles before UDP sees it.
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    assert!(bind_udp(&mut w, 1, 2049));
    let payload: Vec<u8> = (0..4000u32).map(|i| (i % 241) as u8).collect();
    send_udp(&mut w, &mut eng, 0, 700, (SERVER.0, 2049), payload.clone());
    assert!(eng.run(&mut w, 2_000_000));
    assert!(
        w.metrics.get(Ctr::IpFragmentsHeld) >= 2,
        "fragments must traverse the reassembly path: {}",
        w.metrics.get(Ctr::IpFragmentsHeld)
    );
    let d = w.hosts[1]
        .udp
        .recv_from(2049)
        .expect("reassembled datagram");
    assert_eq!(d.payload, payload);
    assert_eq!(d.src_port, 700);
}

#[test]
fn keepalive_detects_dead_peer_through_the_world() {
    // Establish, let the transfer finish, then unplug the server host by
    // swapping its connection out from under it (simulating a crashed
    // machine that answers nothing); the client's keepalive must reset.
    let mut cfg = TcpConfig::default();
    cfg.keepalive = Some(2_000_000_000); // 2 s probes for a fast test
    cfg.max_keepalive_probes = 2;
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    listen(&mut w, 1, 80, cfg.clone(), Box::new(|| Box::new(EchoApp)));
    let client_stats = TransferStats::new_shared();
    connect(
        &mut w,
        &mut eng,
        0,
        SERVER,
        cfg,
        Box::new(PingPongApp::new(64, 1, Rc::clone(&client_stats))),
        64,
    );
    // Run until the single round completes (connection then sits idle).
    let mut steps = 0;
    while client_stats.borrow().rtts.is_empty() && eng.step(&mut w) && steps < 2_000_000 {
        steps += 1;
    }
    assert_eq!(client_stats.borrow().rtts.len(), 1);
    // Power off host 1: drop its connections so nothing answers probes.
    w.hosts[1].conns.clear();
    assert!(eng.run(&mut w, 10_000_000));
    assert!(
        client_stats.borrow().reset,
        "keepalive must detect the dead peer and reset"
    );
}

#[test]
fn promiscuous_bpf_tap_observes_connection_traffic() {
    // The Packet Filter's original purpose: user-level monitoring code.
    // Install a BPF tap for the server connection's 4-tuple and verify it
    // sees exactly the to-server half of the conversation.
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let spec = unp::filter::programs::DemuxSpec {
        link_header_len: 14,
        protocol: unp::wire::IpProtocol::Tcp,
        local_ip: SERVER.0,
        local_port: 80,
        remote_ip: None,
        remote_port: None,
    };
    let tap = w.add_capture_tap("to-server-80", unp::filter::programs::bpf_demux(&spec));
    let stats = TransferStats::new_shared();
    sink_listener(&mut w, &stats, TcpConfig::default());
    connect(
        &mut w,
        &mut eng,
        0,
        SERVER,
        TcpConfig::default(),
        Box::new(BulkSender::new(50_000, 4096)),
        4096,
    );
    assert!(eng.run(&mut w, 20_000_000));
    assert_eq!(stats.borrow().bytes_received, 50_000);
    let captured = w.tap_frames(tap);
    // Every data segment (plus handshake pieces) headed to :80 was seen.
    let data_frames = captured.iter().filter(|(_, f)| f.len() > 60).count();
    assert!(
        data_frames >= 50_000 / 1460,
        "tap must capture the data stream: {data_frames} frames"
    );
    // Timestamps are monotone.
    assert!(captured.windows(2).all(|p| p[0].0 <= p[1].0));
}

#[test]
fn soak_one_megabyte_on_an1() {
    // A longer transfer on the fast network: exercises thousands of
    // segments, sustained batching, and window cycling, with full pattern
    // verification in the sink.
    let (mut w, mut eng) = build_two_hosts(Network::An1, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    sink_listener(&mut w, &stats, TcpConfig::bulk_transfer());
    connect(
        &mut w,
        &mut eng,
        0,
        SERVER,
        TcpConfig::bulk_transfer(),
        Box::new(BulkSender::new(1_000_000, 8192)),
        8192,
    );
    assert!(eng.run(&mut w, 100_000_000));
    let s = stats.borrow();
    assert_eq!(s.bytes_received, 1_000_000);
    assert!(s.peer_closed && !s.reset);
    assert!(
        s.throughput_bps().unwrap() > 8e6,
        "sustained AN1 throughput: {:.2} Mb/s",
        s.throughput_bps().unwrap() / 1e6
    );
}
