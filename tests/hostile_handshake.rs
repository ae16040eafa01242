//! Nothing a peer sends into a connection's opening or its data phase may
//! panic a host of any organization, trip the conformance monitor, or
//! leave anything behind.
//!
//! Each case opens one connection from host 0 to a listener on host 1,
//! both running the same organization (any of the five), on Ethernet or
//! AN1. It steps the world to one phase of the connection — the client's
//! SYN out and no SYN-ACK back, the segment that completes one host's
//! handshake waiting for its CPU, both ends holding the connection, or
//! the sink holding part of the transfer — and, under the user-level
//! library, also to the one phase only the library↔registry hand-off has:
//! one host's registry having handed the connection over while its
//! library has not installed it yet. There it hands `frame_arrives`
//! segments a hostile peer could put on the wire: the connection's own
//! segments so far, handshake and data alike (and a forged SYN-ACK),
//! replayed or mutated. The mutations are flag combinations (a RST or FIN
//! mid-completion, a replayed SYN), lying sequence and acknowledgment
//! numbers, data nobody sent, a stale or foreign BQI or announcement on
//! AN1, an IPv4 header whose total length, IHL or fragment fields lie (its
//! checksum recomputed in half the cases, so the lie reaches the parser),
//! and truncation. The oracle: no panic, zero monitor violations, and
//! `World::leaks()` empty after the world drains. Tier-1 runs 64 cases;
//! `ci.sh` runs 512 in release.

use std::rc::Rc;

use proptest::prelude::*;
use proptest::sample::Index;
use unp::buffers::Frame;
use unp::core::world::{app_exit, connect, frame_arrives, listen, Conn, Host};
use unp::core::{
    build_two_hosts, AppLogic, BulkSender, Eng, Network, OrgKind, SinkApp, TransferStats, World,
};
use unp::filter::programs::{bpf_demux, DemuxSpec};
use unp::tcp::{State, TcpConfig};
use unp::trace::{Ctr, Monitor};
use unp::wire::{
    checksum, An1Frame, An1Repr, EtherType, EthernetRepr, IpProtocol, Ipv4Packet, Ipv4Repr, SeqNum,
    TcpFlags, TcpPacket, TcpRepr, AN1_HEADER_LEN, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN,
};

const CLIENT: usize = 0;
const SERVER: usize = 1;
const PORT: u16 = 80;
/// Bytes the client sends: enough that the data phase has a middle.
const TRANSFER: u64 = 16_384;
/// Events a case may take to drain; a clean connection takes about a
/// thousand.
const BUDGET: u64 = 20_000;
/// The organizations without a registry hand-off: the kernel or one
/// protocol server holds a connection from its first SYN to its end.
const MONOLITHIC: [OrgKind; 4] = [
    OrgKind::InKernel,
    OrgKind::SingleServer,
    OrgKind::SingleServerMsg,
    OrgKind::DedicatedServer,
];

/// Where in the connection the hostile segments arrive.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// The client's SYN is on the wire; no SYN-ACK has been sent.
    BeforeSynAck,
    /// The segment that completes host `.0`'s handshake has arrived and
    /// waits for the host's CPU, so what arrives next meets the hand-off
    /// (and is parked until the channel activates).
    Racing(usize),
    /// Host `.0`'s registry has emitted `Complete` and its library has not
    /// installed the connection yet.
    Completing(usize),
    /// Both ends hold the connection past its handshake (a monolithic
    /// host holds it from the first SYN).
    Installed,
    /// The sink holds part of the transfer, so the data segments and
    /// their acknowledgments are lie bases too.
    MidStream,
}

/// The phases every organization has.
const SHARED: [Phase; 5] = [
    Phase::BeforeSynAck,
    Phase::Racing(CLIENT),
    Phase::Racing(SERVER),
    Phase::Installed,
    Phase::MidStream,
];

/// The organization and the phase: half the cases a monolithic
/// organization in any shared phase, half the user library in those or
/// `Completing`, the registry's hand-off.
fn arb_case() -> impl Strategy<Value = (OrgKind, Phase)> {
    let completing = [Phase::Completing(CLIENT), Phase::Completing(SERVER)];
    let library: Vec<Phase> = SHARED.iter().chain(&completing).copied().collect();
    let monolithic = (0..MONOLITHIC.len(), 0..SHARED.len());
    prop_oneof![
        monolithic.prop_map(|(org, phase)| (MONOLITHIC[org], SHARED[phase])),
        (0..library.len()).prop_map(move |i| (OrgKind::UserLibrary, library[i])),
    ]
}

/// A lie about a sequence or acknowledgment number.
#[derive(Debug, Clone, Copy)]
enum Shift {
    Keep,
    By(i32),
    To(u32),
}

impl Shift {
    fn apply(self, n: SeqNum) -> SeqNum {
        match self {
            Shift::Keep => n,
            Shift::By(d) => SeqNum(n.0.wrapping_add_signed(d)),
            Shift::To(v) => SeqNum(v),
        }
    }
}

fn arb_shift() -> impl Strategy<Value = Shift> {
    prop_oneof![
        Just(Shift::Keep),
        Just(Shift::Keep),
        (0i32..7).prop_map(|d| Shift::By(d - 3)),
        (0i32..140_000).prop_map(|d| Shift::By(d - 70_000)),
        any::<u32>().prop_map(Shift::To),
    ]
}

/// A lie in an IPv4 header, told after the header is built.
#[derive(Debug, Clone, Copy)]
enum IpLie {
    /// A total length other than the datagram's: too short or too long.
    TotalLen(u16),
    /// An IHL of 0–15 words.
    Ihl(u8),
    /// The more-fragments flag and a fragment offset, not both clear.
    Fragment(bool, u16),
}

fn arb_ip_lie() -> impl Strategy<Value = IpLie> {
    prop_oneof![
        (0u16..100).prop_map(IpLie::TotalLen),
        any::<u16>().prop_map(IpLie::TotalLen),
        (0u8..16).prop_map(IpLie::Ihl),
        Just(IpLie::Fragment(true, 0)),
        (any::<bool>(), 1u16..0x2000).prop_map(|(more, offset)| IpLie::Fragment(more, offset)),
    ]
}

impl IpLie {
    /// Tells the lie in `ip`'s header, and recomputes the header checksum
    /// if `reseal`, so that the lie reaches the parser instead of dying at
    /// the checksum.
    fn tell(self, ip: &mut [u8], reseal: bool) {
        match self {
            IpLie::TotalLen(len) => ip[2..4].copy_from_slice(&len.to_be_bytes()),
            IpLie::Ihl(words) => ip[0] = (ip[0] & 0xf0) | words,
            IpLie::Fragment(more, offset) => {
                let dont_frag = u16::from_be_bytes([ip[6], ip[7]]) & 0x4000;
                let field = dont_frag | if more { 0x2000 } else { 0 } | offset;
                ip[6..8].copy_from_slice(&field.to_be_bytes());
            }
        }
        if reseal {
            ip[10..12].fill(0);
            let sum = checksum(&ip[..IPV4_HEADER_LEN]);
            ip[10..12].copy_from_slice(&sum.to_be_bytes());
        }
    }
}

/// One hostile segment: which real segment it starts from, what it lies
/// about, and how many of the world's own events run after it.
#[derive(Debug, Clone)]
struct Lie {
    base: Index,
    /// FIN, SYN, RST, PSH, ACK, URG as bits 0..6; `None` keeps the base's.
    flags: Option<u8>,
    seq_ack: (Shift, Shift),
    /// Bytes of data nobody sent, replacing the base's payload.
    data: Option<u8>,
    /// A rewritten BQI and announcement (AN1 only), and where the frame
    /// is cut short.
    link: (Option<u16>, Option<u16>, Option<Index>),
    /// A lie in the IPv4 header, and whether its checksum is recomputed.
    ip: Option<(IpLie, bool)>,
    steps: u8,
}

fn arb_lie() -> impl Strategy<Value = Lie> {
    let bqi = || proptest::option::of(prop_oneof![0u16..8, any::<u16>()]);
    let truncate = proptest::option::of(any::<Index>());
    (
        any::<Index>(),
        proptest::option::of(0u8..64),
        (arb_shift(), arb_shift()),
        proptest::option::of(1u8..40),
        (bqi(), bqi(), truncate),
        (proptest::option::of((arb_ip_lie(), any::<bool>())), 0u8..4),
    )
        .prop_map(|(base, flags, seq_ack, data, link, (ip, steps))| Lie {
            base,
            flags,
            seq_ack,
            data,
            link,
            ip,
            steps,
        })
}

/// A segment as it crossed the wire, the starting point of a lie.
#[derive(Debug, Clone)]
struct Seg {
    to: usize,
    repr: TcpRepr,
    payload: Vec<u8>,
    bqi: u16,
    announce: u16,
}

fn link_header_len(network: Network) -> usize {
    match network {
        Network::Ethernet => ETHERNET_HEADER_LEN,
        Network::An1 => AN1_HEADER_LEN,
    }
}

/// A capture tap on every frame to `host`:`port`.
fn tap_to(w: &mut World, network: Network, host: usize, port: u16) -> usize {
    let spec = DemuxSpec {
        link_header_len: link_header_len(network),
        protocol: IpProtocol::Tcp,
        local_ip: w.hosts[host].ip,
        local_port: port,
        remote_ip: None,
        remote_port: None,
    };
    w.add_capture_tap("hostile handshake", bpf_demux(&spec))
}

/// The segments a tap captured on their way to host `to`.
fn captured(w: &World, network: Network, tap: usize, to: usize) -> Vec<Seg> {
    let l = link_header_len(network);
    let seg = |frame: &Frame| {
        let ip = Ipv4Packet::new_checked(&frame[l..]).expect("a tapped datagram");
        let tcp = TcpPacket::new_checked(ip.payload()).expect("a tapped segment");
        let (bqi, announce) = match network {
            Network::An1 => {
                let f = An1Frame::new_checked(&frame[..]).expect("a tapped AN1 frame");
                (f.bqi(), f.announce())
            }
            Network::Ethernet => (0, 0),
        };
        Seg {
            to,
            repr: TcpRepr::parse(&tcp),
            payload: tcp.payload().to_vec(),
            bqi,
            announce,
        }
    };
    w.tap_frames(tap).iter().map(|(_, f)| seg(f)).collect()
}

/// `base` with `lie` told in it, framed for the wire.
fn tell(w: &World, network: Network, base: &Seg, lie: &Lie) -> Frame {
    let mut repr = base.repr;
    if let Some(bits) = lie.flags {
        repr.flags = TcpFlags {
            fin: bits & 1 != 0,
            syn: bits & 2 != 0,
            rst: bits & 4 != 0,
            psh: bits & 8 != 0,
            ack: bits & 16 != 0,
            urg: bits & 32 != 0,
        };
    }
    repr.seq = lie.seq_ack.0.apply(repr.seq);
    repr.ack_num = lie.seq_ack.1.apply(repr.ack_num);
    let payload = lie
        .data
        .map_or(base.payload.clone(), |n| vec![0x5a; n.into()]);
    let (from, to) = (&w.hosts[1 - base.to], &w.hosts[base.to]);
    let seg = repr.build_segment(from.ip, to.ip, &payload);
    let mut ip = Ipv4Repr::simple(from.ip, to.ip, IpProtocol::Tcp, seg.len()).build_packet(&seg);
    if let Some((ip_lie, reseal)) = lie.ip {
        ip_lie.tell(&mut ip, reseal);
    }
    let (dst, src, ethertype) = (to.mac, from.mac, EtherType::Ipv4);
    let mut bytes = match network {
        Network::Ethernet => EthernetRepr {
            dst,
            src,
            ethertype,
        }
        .build_frame(&ip),
        Network::An1 => An1Repr {
            dst,
            src,
            ethertype,
            bqi: lie.link.0.unwrap_or(base.bqi),
            announce: lie.link.1.unwrap_or(base.announce),
        }
        .build_frame(&ip),
    };
    if let Some(at) = lie.link.2 {
        let keep = at.index(bytes.len() + 1);
        bytes.truncate(keep);
    }
    Frame::from_vec(bytes)
}

/// Steps until `done` holds.
fn step_until(w: &mut World, eng: &mut Eng, what: &str, done: impl Fn(&World) -> bool) {
    while !done(w) {
        assert!(eng.step(w), "the handshake never reached {what}");
    }
}

/// One case: an `org` connection stepped to `phase`, `lies` told there,
/// drained.
fn run(network: Network, org: OrgKind, phase: Phase, lies: &[Lie]) -> Result<(), TestCaseError> {
    let monitor = unp::trace::attach(Box::new(Monitor::new()));
    let (mut w, mut eng) = build_two_hosts(network, org);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    let sink = move || {
        let sink = SinkApp::new(Rc::clone(&st)).without_verify();
        Box::new(sink) as Box<dyn AppLogic>
    };
    listen(&mut w, SERVER, PORT, TcpConfig::default(), Box::new(sink));
    let server = (w.hosts[SERVER].ip, PORT);
    let (app, cfg) = (
        Box::new(BulkSender::new(TRANSFER, 1024)),
        TcpConfig::default(),
    );
    connect(&mut w, &mut eng, CLIENT, server, cfg, app, 1024);

    // The client's SYN names the connection; from then on both
    // directions are captured.
    let to_server = tap_to(&mut w, network, SERVER, PORT);
    let on_wire = |w: &World| !w.tap_frames(to_server).is_empty();
    step_until(&mut w, &mut eng, "the wire", on_wire);
    let syn = captured(&w, network, to_server, SERVER).remove(0);
    let to_client = tap_to(&mut w, network, CLIENT, syn.repr.src_port);
    match phase {
        Phase::BeforeSynAck => {}
        // The SYN, SYN-ACK and ACK are the first frames to arrive, at the
        // server, the client and the server.
        Phase::Racing(h) => {
            let frames = if h == CLIENT { 2 } else { 3 };
            let arrived = |w: &World| w.metrics.get(Ctr::FramesReceived) == frames;
            step_until(&mut w, &mut eng, "its last segment", arrived);
        }
        Phase::Completing(h) => {
            let tracked = |w: &World| w.hosts[h].registry.tracked();
            step_until(&mut w, &mut eng, "the registry", |w| tracked(w) == 1);
            step_until(&mut w, &mut eng, "completion", |w| tracked(w) == 0);
        }
        Phase::Installed => step_until(&mut w, &mut eng, "installation", |w| {
            let opening = |c: &Conn| matches!(c.state(), State::SynSent | State::SynReceived);
            let past = |h: &Host| !h.conns.is_empty() && !h.conns.values().any(opening);
            w.hosts.iter().all(past)
        }),
        Phase::MidStream => {
            let part = |_: &World| stats.borrow().bytes_received >= TRANSFER / 4;
            step_until(&mut w, &mut eng, "the data phase", part);
        }
    }

    // The real segments so far, and a SYN-ACK the server never sent.
    let mut bases = captured(&w, network, to_server, SERVER);
    bases.extend(captured(&w, network, to_client, CLIENT));
    bases.push(Seg {
        to: CLIENT,
        repr: TcpRepr {
            src_port: PORT,
            dst_port: syn.repr.src_port,
            seq: SeqNum(0x4000_0000),
            ack_num: syn.repr.seq + 1,
            flags: TcpFlags {
                syn: true,
                ack: true,
                ..TcpFlags::default()
            },
            window: 8192,
            mss: Some(1460),
        },
        payload: Vec::new(),
        bqi: 0,
        announce: 0,
    });
    for lie in lies {
        let base = &bases[lie.base.index(bases.len())];
        let frame = tell(&w, network, base, lie);
        frame_arrives(&mut w, &mut eng, base.to, frame);
        for _ in 0..lie.steps {
            eng.step(&mut w);
        }
    }

    // A byte the real peer never sent desynchronizes the two ends for good,
    // as it does any TCP: they trade ACKs forever, or one waits for a FIN
    // the forged byte took the place of. No segment can end such a
    // connection; its applications abort it, and then all must be gone.
    let drained = eng.run(&mut w, BUDGET);
    if !drained || w.hosts.iter().any(|h| !h.conns.is_empty()) {
        for h in [CLIENT, SERVER] {
            let mut cids: Vec<u32> = w.hosts[h].conns.keys().copied().collect();
            cids.sort_unstable();
            for cid in cids {
                app_exit(&mut w, &mut eng, h, cid, true);
            }
        }
        let drained = eng.run(&mut w, BUDGET);
        prop_assert!(drained, "{:?} {:?}: not drained once aborted", org, phase);
    }
    let leaks = w.leaks();
    let mon = unp::trace::detach_as::<Monitor>(monitor).expect("monitor still attached");
    prop_assert_eq!(leaks, Vec::<String>::new(), "{:?} {:?}", org, phase);
    prop_assert_eq!(
        mon.total_violations(),
        0,
        "{:?} {:?}: {:?}",
        org,
        phase,
        mon.violations().first()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

    #[test]
    fn hostile_handshake_segments_leave_nothing_behind(
        an1 in any::<bool>(),
        (org, phase) in arb_case(),
        lies in proptest::collection::vec(arb_lie(), 1..6),
    ) {
        let network = if an1 { Network::An1 } else { Network::Ethernet };
        run(network, org, phase, &lies)?;
    }
}
