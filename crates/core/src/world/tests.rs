//! Tests of the world as a whole: every organization end to end, every
//! teardown route against the zero-leak oracle, and the seams between the
//! modules (the timer table, the event queue, the TCP ingress). One
//! module, `world::tests`: the names the test floor pins.

use unp_buffers::Frame;
use unp_registry::RegistryError;
use unp_sim::Nanos;
use unp_tcp::{TcpConfig, TcpTimer};
use unp_trace::Ctr;
use unp_wire::{IpProtocol, Ipv4Addr, TcpPacket, TcpRepr, IPV4_HEADER_LEN};

use super::link::encap_link;
use super::timers::{arm_timer, cancel_timer, fire_due};
use super::*;
use crate::app::{AppOp, BulkSender, EchoApp, PingPongApp, SinkApp, TransferStats};

const ALL_ORGS: [OrgKind; 5] = [
    OrgKind::InKernel,
    OrgKind::SingleServer,
    OrgKind::SingleServerMsg,
    OrgKind::DedicatedServer,
    OrgKind::UserLibrary,
];

fn run_transfer(
    network: Network,
    org: OrgKind,
    total: u64,
    chunk: usize,
) -> (World, std::rc::Rc<std::cell::RefCell<TransferStats>>) {
    let (mut w, mut eng) = build_two_hosts(network, org);
    let stats = TransferStats::new_shared();
    let st = std::rc::Rc::clone(&stats);
    listen(
        &mut w,
        1,
        80,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(std::rc::Rc::clone(&st)))),
    );
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 80),
        TcpConfig::default(),
        Box::new(BulkSender::new(total, chunk)),
        chunk,
    );
    assert!(eng.run(&mut w, 5_000_000), "simulation did not drain");
    (w, stats)
}

#[test]
fn an_event_fits_its_slab_slot() {
    // The engine's slab keeps 8 + size_of::<Event>() bytes per slot and
    // never shrinks, so a variant that outgrows this budget is paid
    // for by every workload's peak heap: carry less (a frame, not its
    // parsed segment too) or box the rare thing instead.
    assert!(std::mem::size_of::<Event>() <= 72);
}

#[test]
#[should_panic(expected = "a /24 holds 254 hosts")]
fn build_hosts_refuses_more_hosts_than_its_subnet_holds() {
    // Host 255 would be 10.0.0.255, the subnet's broadcast address, and
    // from host 256 on `idx as u8 + 1` wraps onto addresses already taken.
    build_hosts(255, Network::Ethernet, OrgKind::InKernel);
}

#[test]
fn a_connection_table_slot_is_a_pointer() {
    // `Host.conns` keeps its capacity after the connections are gone
    // (a `churn` client's table reaches 512 buckets), so the entry
    // holds the TCB's box, not its 600-odd bytes.
    assert!(std::mem::size_of::<Conn>() <= 128);
}

#[test]
fn a_timer_rearmed_by_its_own_batch_keeps_its_handle() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let first = TimerToken::Conn(7, TcpTimer::Retransmit);
    let second = TimerToken::Conn(7, TcpTimer::DelayedAck);
    let third = TimerToken::Conn(7, TcpTimer::Persist);
    for token in [first, second, third] {
        arm_timer(&mut w, &mut eng, 0, token, 1_000_000);
    }
    // This test fires the batch itself, with a handler that does what
    // no TCB timer does today: the first token re-arms the second
    // and cancels the third.
    let (_, wheel_event) = w.hosts[0].wheel_event.take().expect("armed");
    eng.cancel(wheel_event);
    let dispatched = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let seen = std::rc::Rc::clone(&dispatched);
    eng.at(1_000_000, move |w, eng| {
        fire_due(w, eng, 0, |w, eng, token| {
            seen.borrow_mut().push(token);
            if token == first {
                arm_timer(w, eng, 0, second, 5_000_000);
                cancel_timer(w, eng, 0, third);
            }
            let host = &w.hosts[0];
            assert_eq!(host.timers.len(), host.wheel.pending(), "at {token:?}");
        });
    });
    eng.run_until(&mut w, 2_000_000);
    // The re-armed token's superseded fire is dropped; the cancelled
    // one still fires (handlers re-check their state).
    assert_eq!(*dispatched.borrow(), [first, third]);
    let host = &w.hosts[0];
    assert_eq!((host.timers.len(), host.wheel.pending()), (1, 1));
    // The re-armed timer is still cancellable, and fires on time if
    // it is not.
    assert!(host.timers.contains_key(&second));
    assert_eq!(host.wheel_event.map(|(at, _)| at), Some(5_000_000));
    cancel_timer(&mut w, &mut eng, 0, second);
    assert_eq!(w.hosts[0].wheel.pending(), 0);
    assert_eq!(w.leaks(), Vec::<String>::new());
}

#[test]
fn the_pending_queue_prints_its_steps_by_name() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let remote = (Ipv4Addr::new(10, 0, 0, 2), 80);
    let app = Box::new(BulkSender::new(50_000, 4096));
    connect(&mut w, &mut eng, 0, remote, TcpConfig::default(), app, 4096);
    let queue = format!("{eng:?}");
    assert!(queue.ends_with(", 0, Connect { host: 0 })] }"), "{queue}");
    // Nobody listens: by now the SYN is on the wire and its timer armed.
    eng.run(&mut w, 3);
    let queue = format!("{eng:?}");
    assert!(queue.contains("FrameArrives { host: 1"), "{queue}");
    assert!(queue.contains("WheelFire { host: 0 }"), "{queue}");
}

#[test]
fn transfer_completes_under_every_org_on_ethernet() {
    for org in ALL_ORGS {
        let (w, stats) = run_transfer(Network::Ethernet, org, 100_000, 4096);
        let s = stats.borrow();
        assert_eq!(s.bytes_received, 100_000, "{org:?} lost data");
        assert!(s.peer_closed, "{org:?} missed FIN");
        assert!(!s.reset, "{org:?} reset");
        assert_eq!(w.metrics.get(Ctr::TxTemplateRejections), 0);
    }
}

#[test]
fn transfer_completes_under_every_org_on_an1() {
    for org in ALL_ORGS {
        let (w, stats) = run_transfer(Network::An1, org, 100_000, 4096);
        let s = stats.borrow();
        assert_eq!(s.bytes_received, 100_000, "{org:?} lost data on AN1");
        assert!(!s.reset, "{org:?} reset");
        let _ = w;
    }
}

#[test]
fn user_library_actually_uses_its_mechanisms() {
    let (w, _stats) = run_transfer(Network::Ethernet, OrgKind::UserLibrary, 200_000, 4096);
    // Frames flowed through channels, and batching happened.
    assert!(w.metrics.get(Ctr::ChDeliveries) > 50);
    assert!(
        w.hosts[1].netio.default_deliveries() > 0,
        "handshake via registry"
    );
    assert_eq!(w.metrics.get(Ctr::TxTemplateRejections), 0);
}

#[test]
fn an1_hardware_demux_is_used_for_data() {
    let (w, _stats) = run_transfer(Network::An1, OrgKind::UserLibrary, 200_000, 4096);
    assert!(
        w.metrics.get(Ctr::ChDeliveries) > 50,
        "hardware path unused"
    );
    // On AN1 the data path must not fall back to software filters:
    // deliveries arrive via BQI rings.
    if let Nic::An1(nic) = &w.hosts[1].nic {
        assert!(nic.rx_frames > 50);
    } else {
        panic!("expected AN1 nic");
    }
}

#[test]
fn ping_pong_works_under_every_org() {
    for org in ALL_ORGS {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
        let stats = TransferStats::new_shared();
        listen(
            &mut w,
            1,
            80,
            TcpConfig::low_latency(),
            Box::new(|| Box::new(EchoApp)),
        );
        connect(
            &mut w,
            &mut eng,
            0,
            (Ipv4Addr::new(10, 0, 0, 2), 80),
            TcpConfig::low_latency(),
            Box::new(PingPongApp::new(512, 5, std::rc::Rc::clone(&stats))),
            512,
        );
        assert!(eng.run(&mut w, 2_000_000), "{org:?} did not drain");
        let s = stats.borrow();
        assert_eq!(s.rtts.len(), 5, "{org:?} rounds incomplete");
        assert!(s.rtts.iter().all(|&r| r > 0));
    }
}

#[test]
fn faster_orgs_have_lower_latency() {
    let mean_rtt = |org| {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
        let stats = TransferStats::new_shared();
        listen(
            &mut w,
            1,
            80,
            TcpConfig::low_latency(),
            Box::new(|| Box::new(EchoApp)),
        );
        connect(
            &mut w,
            &mut eng,
            0,
            (Ipv4Addr::new(10, 0, 0, 2), 80),
            TcpConfig::low_latency(),
            Box::new(PingPongApp::new(1, 10, std::rc::Rc::clone(&stats))),
            1,
        );
        eng.run(&mut w, 2_000_000);
        let m = stats.borrow().mean_rtt().expect("rtts measured");
        m
    };
    let ultrix = mean_rtt(OrgKind::InKernel);
    let ours = mean_rtt(OrgKind::UserLibrary);
    let mach = mean_rtt(OrgKind::SingleServer);
    let dedicated = mean_rtt(OrgKind::DedicatedServer);
    assert!(
        ultrix < ours,
        "paper: Ultrix beats the library ({ultrix} vs {ours})"
    );
    assert!(
        ours < mach,
        "paper: the library beats Mach/UX ({ours} vs {mach})"
    );
    assert!(mach < dedicated, "dedicated servers are worst");
}

const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 80);

/// An application that answers each event from a closure.
struct Scripted<F>(F);

#[derive(Debug, PartialEq)]
enum Ev {
    Connected,
    Data,
    PeerClosed,
    Reset,
}

impl<F: FnMut(Ev) -> Vec<AppOp>> crate::app::AppLogic for Scripted<F> {
    fn on_connected(&mut self, _: &crate::app::AppView) -> Vec<AppOp> {
        (self.0)(Ev::Connected)
    }
    fn on_data(&mut self, _: &[u8], _: &crate::app::AppView) -> Vec<AppOp> {
        (self.0)(Ev::Data)
    }
    fn on_peer_closed(&mut self, _: &crate::app::AppView) -> Vec<AppOp> {
        (self.0)(Ev::PeerClosed)
    }
    fn on_reset(&mut self, _: &crate::app::AppView) {
        (self.0)(Ev::Reset);
    }
}

/// An application that does nothing on any event.
fn idle() -> Box<dyn crate::app::AppLogic> {
    Box::new(Scripted(|_| Vec::new()))
}

/// A sink on the server that closes when its peer does.
fn listen_sink(w: &mut World, tenant: Option<OwnerTag>) {
    let tenant = tenant.unwrap_or(w.hosts[1].owner());
    let sink = || {
        let st = TransferStats::new_shared();
        Box::new(SinkApp::new(st)) as Box<dyn crate::app::AppLogic>
    };
    listen_as(w, 1, tenant, 80, TcpConfig::default(), Box::new(sink)).expect("port 80 free");
}

fn connect_app(w: &mut World, eng: &mut Eng, app: Box<dyn crate::app::AppLogic>) {
    connect(w, eng, 0, SERVER, TcpConfig::default(), app, 4096);
}

#[test]
fn a_second_listener_is_refused_and_the_first_keeps_its_port() {
    for org in [OrgKind::InKernel, OrgKind::UserLibrary] {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
        let owner = w.hosts[1].owner();
        let [first, second] = [(); 2].map(|_| TransferStats::new_shared());
        for (stats, verdict) in [
            (&first, Ok(())),
            (&second, Err(RegistryError::PortUnavailable)),
        ] {
            let st = std::rc::Rc::clone(stats);
            let factory = move || {
                Box::new(SinkApp::new(std::rc::Rc::clone(&st))) as Box<dyn crate::app::AppLogic>
            };
            let got = listen_as(
                &mut w,
                1,
                owner,
                80,
                TcpConfig::default(),
                Box::new(factory),
            );
            assert_eq!(got, verdict, "{org:?}");
        }
        connect_app(&mut w, &mut eng, Box::new(BulkSender::new(10_000, 4096)));
        assert!(eng.run(&mut w, 2_000_000), "{org:?} did not drain");
        let received = [&first, &second].map(|s| s.borrow().bytes_received);
        assert_eq!(received, [10_000, 0], "{org:?}");
    }
}

/// A 200 kB transfer into [`listen_sink`], stepped until both ends
/// hold the connection: `(client conn id, server conn id)`.
fn mid_transfer(w: &mut World, eng: &mut Eng, tenant: Option<OwnerTag>) -> (u32, u32) {
    listen_sink(w, None);
    let app = Box::new(BulkSender::new(200_000, 4096));
    connect_as(w, eng, 0, tenant, SERVER, TcpConfig::default(), app, 4096);
    while w.hosts[0].conns.is_empty() || w.hosts[1].conns.is_empty() {
        assert!(eng.step(w), "never established");
    }
    let only = |h: &Host| *h.conns.keys().next().expect("one connection");
    (only(&w.hosts[0]), only(&w.hosts[1]))
}

const HOSTILE: OwnerTag = OwnerTag(66);

/// Steps until host `h`'s handshake enters completion — its registry has
/// taken the connection and then, on `Complete`, stopped tracking it — so
/// that what the caller does next happens before `finalize_user_conn`.
fn step_to_mid_complete(w: &mut World, eng: &mut Eng, h: usize) {
    for tracked in [0, 1] {
        while w.hosts[h].registry.tracked() == tracked {
            assert!(eng.step(w), "handshake never reached completion");
        }
    }
}

/// Tears the server's listener down while its handshake completes.
fn listener_vanishes(w: &mut World, eng: &mut Eng) {
    listen_sink(w, None);
    connect_app(w, eng, Box::new(BulkSender::new(10_000, 4096)));
    step_to_mid_complete(w, eng, 1);
    w.hosts[1].listeners.clear();
}

/// [`HOSTILE`] on host 0 never runs its library's part of a crash.
fn wedge_hostile(w: &mut World, eng: &mut Eng) {
    let mut plan = crate::faults::FaultPlan::clean(1);
    plan.byzantine.push(crate::faults::ByzantineSchedule {
        host: 0,
        tenant: HOSTILE.0,
        kind: crate::faults::ByzantineKind::WedgedRegistry,
        start: 0,
        end: Nanos::MAX,
    });
    install_faults(w, eng, plan);
}

/// Crashes [`HOSTILE`] on host 0 while its connect completes: the
/// registry has handed the established TCB over, and no library is left
/// to take it.
fn crash_mid_complete(w: &mut World, eng: &mut Eng) {
    listen_sink(w, None);
    let (app, cfg) = (
        Box::new(BulkSender::new(10_000, 4096)),
        TcpConfig::default(),
    );
    connect_as(w, eng, 0, Some(HOSTILE), SERVER, cfg, app, 4096);
    step_to_mid_complete(w, eng, 0);
    crash_tenant(w, eng, 0, HOSTILE);
}

/// Lets [`HOSTILE`] hold one channel on host `h`.
fn cap_hostile(w: &mut World, h: usize) {
    let budget = unp_kernel::TenantBudget {
        max_channels: 1,
        ..Default::default()
    };
    w.hosts[h].netio.set_tenant_budget(HOSTILE, budget);
}

/// [`mid_transfer`]'s connection holds [`HOSTILE`]'s one channel on host
/// 0 when `app` connects as the same tenant.
fn connect_at_cap(w: &mut World, eng: &mut Eng, app: Box<dyn crate::app::AppLogic>) {
    cap_hostile(w, 0);
    mid_transfer(w, eng, Some(HOSTILE));
    let cfg = TcpConfig::default();
    connect_as(w, eng, 0, Some(HOSTILE), SERVER, cfg, app, 4096);
}

/// The server's listener is [`HOSTILE`]'s, and an accepted connection
/// holds its one channel on host 1 when `app` connects.
fn accept_at_cap(w: &mut World, eng: &mut Eng, app: Box<dyn crate::app::AppLogic>) {
    cap_hostile(w, 1);
    listen_sink(w, Some(HOSTILE));
    connect_app(w, eng, Box::new(BulkSender::new(200_000, 4096)));
    while w.hosts[1].conns.is_empty() {
        assert!(eng.step(w), "never accepted");
    }
    connect_app(w, eng, app);
}

/// Every way a connection or a handshake can end, by name. Each
/// route leaves the engine to be drained by the matrix below.
type Route = fn(&mut World, &mut Eng);
const TEARDOWN_ROUTES: [(&str, Route); 15] = [
    ("close, client first", |w, eng| {
        listen_sink(w, None);
        connect_app(w, eng, Box::new(BulkSender::new(10_000, 4096)));
    }),
    ("close, server first", |w, eng| {
        let server = || {
            let script = |ev| match ev {
                Ev::Connected => vec![AppOp::Send(vec![7; 1000]), AppOp::Close],
                _ => Vec::new(),
            };
            Box::new(Scripted(script)) as Box<dyn crate::app::AppLogic>
        };
        listen(w, 1, 80, TcpConfig::default(), Box::new(server));
        let client = |ev| match ev {
            Ev::PeerClosed => vec![AppOp::Close],
            _ => Vec::new(),
        };
        connect_app(w, eng, Box::new(Scripted(client)));
    }),
    ("abort", |w, eng| {
        listen_sink(w, None);
        let client = |ev| match ev {
            Ev::Connected => vec![AppOp::Send(vec![7; 100]), AppOp::Abort],
            _ => Vec::new(),
        };
        connect_app(w, eng, Box::new(Scripted(client)));
    }),
    ("app_exit, normal", |w, eng| {
        let (client, _) = mid_transfer(w, eng, None);
        app_exit(w, eng, 0, client, false);
    }),
    ("app_exit, abnormal", |w, eng| {
        let (_, server) = mid_transfer(w, eng, None);
        app_exit(w, eng, 1, server, true);
    }),
    ("handshake refused", |w, eng| {
        connect_app(w, eng, Box::new(BulkSender::new(10_000, 4096)));
    }),
    ("listener vanished mid-Complete", listener_vanishes),
    ("crash_host, server", |w, eng| {
        mid_transfer(w, eng, None);
        crash_host(w, eng, 1);
    }),
    ("crash_host mid-handshake, client", |w, eng| {
        listen_sink(w, None);
        connect_app(w, eng, Box::new(BulkSender::new(10_000, 4096)));
        while w.hosts[0].registry.tracked() == 0 {
            assert!(eng.step(w), "connect never reached the registry");
        }
        crash_host(w, eng, 0);
    }),
    ("crash_tenant", |w, eng| {
        mid_transfer(w, eng, Some(HOSTILE));
        crash_tenant(w, eng, 0, HOSTILE);
    }),
    ("crash_tenant, wedged", |w, eng| {
        wedge_hostile(w, eng);
        mid_transfer(w, eng, Some(HOSTILE));
        crash_tenant(w, eng, 0, HOSTILE);
    }),
    ("crash_tenant mid-Complete", crash_mid_complete),
    ("crash_tenant, wedged, mid-Complete", |w, eng| {
        wedge_hostile(w, eng);
        crash_mid_complete(w, eng);
    }),
    ("connect at the tenant's channel cap", |w, eng| {
        connect_at_cap(w, eng, idle());
    }),
    ("accept at the tenant's channel cap", |w, eng| {
        accept_at_cap(w, eng, idle());
    }),
];

#[test]
fn every_teardown_route_leaves_nothing_behind() {
    for network in [Network::Ethernet, Network::An1] {
        for (route, run) in TEARDOWN_ROUTES {
            let (mut w, mut eng) = build_two_hosts(network, OrgKind::UserLibrary);
            run(&mut w, &mut eng);
            assert!(eng.run(&mut w, 5_000_000), "{route} on {network:?} hangs");
            let none: Vec<String> = Vec::new();
            assert_eq!(w.leaks(), none, "{route} on {network:?}");
        }
    }
}

#[test]
fn a_handshake_at_the_tenants_channel_cap_is_refused_before_it_is_sent() {
    type Open = fn(&mut World, &mut Eng, Box<dyn crate::app::AppLogic>);
    // (side, route, handshake failures, SYNs the server sees)
    let cases: [(&str, Open, u64, usize); 2] = [
        // Refused at once: one failure, and no second SYN leaves.
        ("connect", connect_at_cap, 1, 1),
        // The peer's SYN is answered by a RST instead of a SYN-ACK: the
        // server's refusal and the client's failed handshake.
        ("accept", accept_at_cap, 2, 2),
    ];
    for network in [Network::Ethernet, Network::An1] {
        for (side, open, failures, syns) in cases {
            let case = format!("{side} on {network:?}");
            let (mut w, mut eng) = build_two_hosts(network, OrgKind::UserLibrary);
            let to_server = tap_to(&mut w, SERVER.0, SERVER.1);
            let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let log = std::rc::Rc::clone(&seen);
            let app = Scripted(move |ev| {
                log.borrow_mut().push(ev);
                Vec::new()
            });
            open(&mut w, &mut eng, Box::new(app));
            assert!(eng.run(&mut w, 5_000_000), "{case} hangs");
            assert_eq!(*seen.borrow(), [Ev::Reset], "{case}");
            assert_eq!(w.metrics.get(Ctr::HandshakeFailures), failures, "{case}");
            let syns_seen = tapped(&w, to_server).filter(|t| t.flags.syn).count();
            assert_eq!(syns_seen, syns, "{case}");
        }
    }
}

/// A segment from host 0 to host 1 as it would leave the wire, with
/// `pad` bytes of link padding after the IP datagram.
fn padded_frame(w: &mut World, repr: &TcpRepr, payload: &[u8], pad: usize) -> Frame {
    let (src, dst) = (w.hosts[0].ip, w.hosts[1].ip);
    let seg = repr.build_segment(src, dst, payload);
    let mtu = w.link.params().mtu;
    let pkt = w.hosts[0].ip_ep.send(IpProtocol::Tcp, dst, &seg, mtu);
    let (mac, lhl) = (w.hosts[1].mac, w.hosts[0].link_header_len());
    let ipf = w.pool.alloc(lhl, &pkt[0]);
    let mut bytes = encap_link(w, 0, mac, ipf, 0, 0).to_vec();
    bytes.resize(bytes.len() + pad, 0xEE);
    Frame::from_vec(bytes)
}

/// A tap on everything sent to `ip`:`port`.
fn tap_to(w: &mut World, ip: Ipv4Addr, port: u16) -> usize {
    let spec = unp_filter::programs::DemuxSpec {
        link_header_len: w.hosts[0].link_header_len(),
        protocol: IpProtocol::Tcp,
        local_ip: ip,
        local_port: port,
        remote_ip: None,
        remote_port: None,
    };
    w.add_capture_tap("padding", unp_filter::programs::bpf_demux(&spec))
}

fn tapped(w: &World, tap: usize) -> impl Iterator<Item = TcpRepr> + '_ {
    let lhl = w.hosts[0].link_header_len();
    w.tap_frames(tap).iter().map(move |(_, frame)| {
        let tcp = &frame[lhl + IPV4_HEADER_LEN..];
        TcpRepr::parse(&TcpPacket::new_checked(tcp).expect("tapped segment parses"))
    })
}

fn last_tapped(w: &World, tap: usize) -> TcpRepr {
    tapped(w, tap).last().expect("tap saw a segment")
}

/// Ten bytes continuing the stream the last segment tapped on its
/// way to the server belongs to.
fn next_in_stream(w: &World, tap: usize) -> TcpRepr {
    TcpRepr {
        flags: unp_wire::TcpFlags::ack(),
        mss: None,
        ..last_tapped(w, tap)
    }
}

#[test]
fn link_padding_never_becomes_tcp_payload() {
    let idle = || Box::new(Scripted(|_| Vec::new())) as Box<dyn crate::app::AppLogic>;
    let orgs = [
        OrgKind::InKernel,
        OrgKind::SingleServer,
        OrgKind::UserLibrary,
    ];
    for network in [Network::Ethernet, Network::An1] {
        for org in orgs {
            for pad in [0, 6, 46] {
                let case = format!("{org:?} on {network:?}, {pad} bytes of padding");
                let (mut w, mut eng) = build_two_hosts(network, org);
                // A SYN to a closed port: the RST acknowledges the SYN
                // and nothing else.
                let client_ip = w.hosts[0].ip;
                let rsts = tap_to(&mut w, client_ip, 5555);
                let syn = TcpRepr {
                    src_port: 5555,
                    dst_port: 9,
                    seq: unp_wire::SeqNum(1000),
                    ack_num: unp_wire::SeqNum(0),
                    flags: unp_wire::TcpFlags::SYN,
                    window: 1024,
                    mss: None,
                };
                let frame = padded_frame(&mut w, &syn, &[], pad);
                frame_arrives(&mut w, &mut eng, 1, frame);
                assert!(eng.run(&mut w, 1_000_000));
                let rst = last_tapped(&w, rsts);
                assert!(rst.flags.rst, "{case}");
                assert_eq!(rst.ack_num, unp_wire::SeqNum(1001), "{case}");

                // Ten bytes to an established connection, arriving on
                // the kernel path (AN1: BQI 0) or through its channel.
                let stats = TransferStats::new_shared();
                let st = std::rc::Rc::clone(&stats);
                let sink = move || {
                    let sink = SinkApp::new(std::rc::Rc::clone(&st)).without_verify();
                    Box::new(sink) as Box<dyn crate::app::AppLogic>
                };
                listen(&mut w, 1, 80, TcpConfig::default(), Box::new(sink));
                let to_server = tap_to(&mut w, SERVER.0, SERVER.1);
                let before = w.metrics.get(Ctr::FramesReceived);
                connect_app(&mut w, &mut eng, idle());
                let parks = org == OrgKind::UserLibrary && pad == 46;
                if parks {
                    // The same, right behind the handshake's last ACK
                    // (SYN, SYN-ACK, ACK: the third frame received), so
                    // that the kernel holds it across the activation.
                    while w.metrics.get(Ctr::FramesReceived) < before + 3 {
                        assert!(eng.step(&mut w), "{case}: no handshake");
                    }
                } else {
                    assert!(eng.run(&mut w, 1_000_000));
                }
                let data = next_in_stream(&w, to_server);
                let frame = padded_frame(&mut w, &data, &[7; 10], pad);
                frame_arrives(&mut w, &mut eng, 1, frame);
                // The real client never sent these bytes, so the two
                // ends now trade ACKs forever: run long enough, not dry.
                eng.run(&mut w, 10_000);
                assert_eq!(w.metrics.get(Ctr::FramesParked), u64::from(parks), "{case}");
                assert_eq!(stats.borrow().bytes_received, 10, "{case}");
            }
        }
    }
}

#[test]
fn listener_vanished_mid_handshake_resets_peer_and_reclaims() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    listener_vanishes(&mut w, &mut eng);
    assert!(eng.run(&mut w, 5_000_000), "did not drain");

    assert_eq!(w.metrics.get(Ctr::ListenerVanished), 1);
    assert!(w.metrics.get(Ctr::ResourceReclaims) >= 1);
    // The registry no longer tracks the connection, and the peer was
    // reset (its conn torn down) instead of hanging half-open.
    assert_eq!(w.hosts[1].registry.tracked(), 0);
    assert!(w.hosts[0].conns.is_empty(), "peer never saw the RST");
    assert_eq!(w.metrics.get(Ctr::ConnectionsEstablished), 1, "no app ran");
}
