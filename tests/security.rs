//! Security-model tests: the paper's two protection objectives —
//! "only entities that are authorized to communicate with each other
//! should be able to communicate" and "entities should not be able to
//! impersonate others" — exercised through the kernel interfaces an
//! adversarial library would have to get past.

use unp::buffers::{BqiTable, Frame, OwnerTag, RingId};
use unp::filter::programs::DemuxSpec;
use unp::kernel::{Delivery, HeaderTemplate, NetIoModule, PortSpace, TxError};
use unp::registry::{RegistryAction, RegistryServer};
use unp::tcp::{Tcb, TcpAction, TcpConfig};
use unp::wire::{
    EtherType, EthernetRepr, IpProtocol, Ipv4Addr, Ipv4Repr, MacAddr, SeqNum, TcpFlags, TcpRepr,
};

const VICTIM_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const ATTACKER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 66);
const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

fn tcp_frame(src_ip: Ipv4Addr, dst_ip: Ipv4Addr, sport: u16, dport: u16, payload: &[u8]) -> Frame {
    let t = TcpRepr {
        src_port: sport,
        dst_port: dport,
        seq: SeqNum(1),
        ack_num: SeqNum(0),
        flags: TcpFlags::ack(),
        window: 1000,
        mss: None,
    };
    let seg = t.build_segment(src_ip, dst_ip, payload);
    let ip = Ipv4Repr::simple(src_ip, dst_ip, IpProtocol::Tcp, seg.len());
    Frame::from_vec(
        EthernetRepr {
            dst: MacAddr::from_host_index(2),
            src: MacAddr::from_host_index(1),
            ethertype: EtherType::Ipv4,
        }
        .build_frame(&ip.build_packet(&seg)),
    )
}

fn victim_channel(m: &mut NetIoModule) -> (unp::kernel::ChannelId, unp::kernel::Capability) {
    let spec = DemuxSpec {
        link_header_len: 14,
        protocol: IpProtocol::Tcp,
        local_ip: VICTIM_IP,
        local_port: 80,
        remote_ip: Some(PEER_IP),
        remote_port: Some(5000),
    };
    let template = HeaderTemplate {
        link_header_len: 14,
        src_mac: None,
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: VICTIM_IP,
        dst_ip: PEER_IP,
        src_port: 80,
        dst_port: Some(5000),
        bqi: None,
    };
    let (id, send, _recv, _ring) = m.create_channel(OwnerTag(1), &spec, template, 8, 2048);
    m.activate(id);
    (id, send)
}

#[test]
fn source_spoofing_is_rejected_at_transmit() {
    let mut m = NetIoModule::new();
    let (_, send) = victim_channel(&mut m);
    // The library tries to send with a source IP it does not own.
    let spoofed = tcp_frame(ATTACKER_IP, PEER_IP, 80, 5000, b"evil");
    assert!(matches!(
        m.transmit(send, &spoofed),
        Err(TxError::Template(_))
    ));
    // ... or with someone else's source port (a different connection).
    let port_theft = tcp_frame(VICTIM_IP, PEER_IP, 81, 5000, b"evil");
    assert!(matches!(
        m.transmit(send, &port_theft),
        Err(TxError::Template(_))
    ));
    // ... or to a destination the connection was not set up for.
    let redirect = tcp_frame(VICTIM_IP, ATTACKER_IP, 80, 5000, b"evil");
    assert!(matches!(
        m.transmit(send, &redirect),
        Err(TxError::Template(_))
    ));
    assert_eq!(m.tx_rejections(), 3);
    // The legitimate frame still passes.
    let legit = tcp_frame(VICTIM_IP, PEER_IP, 80, 5000, b"fine");
    assert!(m.transmit(send, &legit).is_ok());
}

#[test]
fn guessed_capabilities_are_useless() {
    let mut m = NetIoModule::new();
    let (_, _send) = victim_channel(&mut m);
    let legit = tcp_frame(VICTIM_IP, PEER_IP, 80, 5000, b"x");
    // An attacker without the capability value cannot transmit: every
    // guessed value is rejected (unforgeability is by construction — the
    // value space is sparse and the kernel validates every use).
    for guess in [0u64, 1, 0xdead_beef, u64::MAX] {
        let forged = unp::kernel::Capability::forge_for_tests(guess);
        assert_eq!(
            m.transmit(forged, &legit).err(),
            Some(TxError::BadCapability)
        );
    }
}

#[test]
fn other_connections_traffic_is_not_deliverable_to_us() {
    let mut m = NetIoModule::new();
    let (id, _) = victim_channel(&mut m);
    // Traffic for a different 4-tuple does not match our binding; it goes
    // to protected kernel memory, not to any application ring.
    let other = tcp_frame(PEER_IP, VICTIM_IP, 5001, 80, b"someone else's data");
    assert!(matches!(
        m.deliver_software(&other),
        Delivery::KernelDefault { .. }
    ));
    // Our own traffic still reaches us.
    let ours = tcp_frame(PEER_IP, VICTIM_IP, 5000, 80, b"ours");
    assert!(matches!(m.deliver_software(&ours), Delivery::Channel { id: did, .. } if did == id));
}

#[test]
fn receive_capability_cannot_transmit_and_vice_versa() {
    let mut m = NetIoModule::new();
    let spec = DemuxSpec {
        link_header_len: 14,
        protocol: IpProtocol::Tcp,
        local_ip: VICTIM_IP,
        local_port: 80,
        remote_ip: Some(PEER_IP),
        remote_port: Some(5000),
    };
    let template = HeaderTemplate {
        link_header_len: 14,
        src_mac: None,
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: VICTIM_IP,
        dst_ip: PEER_IP,
        src_port: 80,
        dst_port: Some(5000),
        bqi: None,
    };
    let (id, send, recv, _) = m.create_channel(OwnerTag(1), &spec, template, 8, 2048);
    m.activate(id);
    let legit = tcp_frame(VICTIM_IP, PEER_IP, 80, 5000, b"x");
    assert_eq!(m.transmit(recv, &legit).err(), Some(TxError::WrongRight));
    assert_eq!(
        m.consume_batch(send).err(),
        Some(TxError::WrongRight),
        "send capability cannot consume"
    );
    assert_eq!(m.end_wakeup(send), Err(TxError::WrongRight));
}

#[test]
fn bqi_entries_are_owner_protected() {
    let mut t = BqiTable::new(16, RingId(0));
    let victim = OwnerTag(1);
    let attacker = OwnerTag(2);
    let bqi = t.allocate(victim, RingId(5)).unwrap();
    // The attacker cannot free (and thus re-bind) the victim's index.
    assert!(!t.free(bqi, attacker));
    assert_eq!(t.resolve(bqi), RingId(5));
    // Nobody can unbind the kernel's protected entry 0.
    assert!(!t.free(0, attacker));
    assert!(!t.free(0, victim));
}

#[test]
fn port_rights_do_not_leak_between_holders() {
    let mut ps: PortSpace<u32> = PortSpace::new();
    let alice = OwnerTag(1);
    let mallory = OwnerTag(3);
    let p = ps.allocate(alice, 7);
    assert!(ps.get(p, mallory).is_err());
    assert!(ps.transfer(p, mallory, mallory).is_err());
    assert!(ps.destroy(p, mallory).is_err());
    // Alice still holds it.
    assert_eq!(ps.get(p, alice), Ok(&7));
}

#[test]
fn channel_destruction_requires_ownership() {
    let mut m = NetIoModule::new();
    let (id, _) = victim_channel(&mut m);
    assert!(!m.destroy_channel(id, OwnerTag(99)), "stranger refused");
    assert!(m.destroy_channel(id, OwnerTag(1)), "owner allowed");
}

/// A channel the attacker legitimately holds, under its own tenant.
fn attacker_channel(
    m: &mut NetIoModule,
) -> (
    unp::kernel::ChannelId,
    unp::kernel::Capability,
    unp::kernel::Capability,
) {
    let spec = DemuxSpec {
        link_header_len: 14,
        protocol: IpProtocol::Tcp,
        local_ip: VICTIM_IP,
        local_port: 8080,
        remote_ip: Some(PEER_IP),
        remote_port: Some(6000),
    };
    let template = HeaderTemplate {
        link_header_len: 14,
        src_mac: None,
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: VICTIM_IP,
        dst_ip: PEER_IP,
        src_port: 8080,
        dst_port: Some(6000),
        bqi: None,
    };
    let (id, send, recv, _ring) = m.create_channel(OwnerTag(2), &spec, template, 8, 2048);
    m.activate(id);
    (id, send, recv)
}

#[test]
fn revoked_capabilities_cannot_be_replayed() {
    let mut m = NetIoModule::new();
    let spec = DemuxSpec {
        link_header_len: 14,
        protocol: IpProtocol::Tcp,
        local_ip: VICTIM_IP,
        local_port: 80,
        remote_ip: Some(PEER_IP),
        remote_port: Some(5000),
    };
    let template = HeaderTemplate {
        link_header_len: 14,
        src_mac: None,
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: VICTIM_IP,
        dst_ip: PEER_IP,
        src_port: 80,
        dst_port: Some(5000),
        bqi: None,
    };
    let (id, send, recv, _) = m.create_channel(OwnerTag(1), &spec, template.clone(), 8, 2048);
    m.activate(id);
    let legit = tcp_frame(VICTIM_IP, PEER_IP, 80, 5000, b"x");
    assert!(m.transmit(send, &legit).is_ok());

    // The channel is torn down: every outstanding capability is revoked.
    assert!(m.destroy_channel(id, OwnerTag(1)));
    assert_eq!(m.transmit(send, &legit).err(), Some(TxError::BadCapability));
    assert_eq!(m.consume_batch(recv).err(), Some(TxError::BadCapability));
    assert_eq!(m.end_wakeup(recv), Err(TxError::BadCapability));

    // Re-creating the same binding mints *fresh* capabilities — the
    // replayed ones stay dead (no capability-value reuse across
    // generations of the same channel).
    let spec2 = DemuxSpec {
        link_header_len: 14,
        protocol: IpProtocol::Tcp,
        local_ip: VICTIM_IP,
        local_port: 80,
        remote_ip: Some(PEER_IP),
        remote_port: Some(5000),
    };
    let (id2, send2, _recv2, _) = m.create_channel(OwnerTag(1), &spec2, template, 8, 2048);
    m.activate(id2);
    assert_ne!(send, send2);
    assert_eq!(m.transmit(send, &legit).err(), Some(TxError::BadCapability));
    assert!(m.transmit(send2, &legit).is_ok());
}

#[test]
fn cross_tenant_capabilities_do_not_reach_victim_traffic() {
    let mut m = NetIoModule::new();
    let (victim_id, _victim_send) = victim_channel(&mut m);
    let (attacker_id, att_send, att_recv) = attacker_channel(&mut m);

    // A frame for the victim's connection lands in the victim's ring.
    let secret = tcp_frame(PEER_IP, VICTIM_IP, 5000, 80, b"victim secret");
    assert!(matches!(
        m.deliver_software(&secret),
        Delivery::Channel { id, .. } if id == victim_id
    ));

    // The attacker holds a perfectly valid capability — for its OWN
    // channel. It cannot consume the victim's frame with it: the
    // capability names the attacker's ring, which is empty.
    assert_eq!(
        m.consume_batch(att_recv).expect("own ring readable").len(),
        0
    );
    assert_eq!(m.end_wakeup(att_recv), Ok(true));
    // The victim's frame is still exactly where it was delivered.
    assert_eq!(m.channel_stats(victim_id).map(|s| s.delivered), Some(1));

    // Nor can the attacker's send capability impersonate the victim:
    // the per-channel template pins the 4-tuple.
    let impersonation = tcp_frame(VICTIM_IP, PEER_IP, 80, 5000, b"evil");
    assert!(matches!(
        m.transmit(att_send, &impersonation),
        Err(TxError::Template(_))
    ));

    // And the attacker cannot destroy the victim's channel, with or
    // without a capability in hand — destruction is owner-checked.
    assert!(!m.destroy_channel(victim_id, OwnerTag(2)));
    assert!(
        m.channel_stats(victim_id).is_some(),
        "victim channel survives"
    );
    assert!(
        m.destroy_channel(attacker_id, OwnerTag(2)),
        "own channel ok"
    );
}

/// Ferries a handshake between `host`'s registry, where `tenant`
/// connects, and a listener on `peer`'s: the library's block and the
/// peer's, both established.
fn open_through(
    host: &mut RegistryServer,
    peer: &mut RegistryServer,
    tenant: OwnerTag,
) -> (Box<Tcb>, Box<Tcb>) {
    let (_, first) = host
        .connect(tenant, (PEER_IP, 80), TcpConfig::default(), 0)
        .expect("a free ephemeral port");
    let (mut library, mut remote) = (None, None);
    // (the host's actions, to route toward the peer; or the peer's)
    let mut queue = vec![(true, first)];
    while let Some((toward_peer, actions)) = queue.pop() {
        for action in actions {
            match action {
                RegistryAction::Send { repr, payload, .. } => {
                    let answer = if toward_peer {
                        peer.on_segment(VICTIM_IP, &repr, &payload, 0)
                    } else {
                        host.on_segment(PEER_IP, &repr, &payload, 0)
                    };
                    queue.push((!toward_peer, answer));
                }
                RegistryAction::Complete { tcb, .. } if toward_peer => library = Some(tcb),
                RegistryAction::Complete { tcb, .. } => remote = Some(tcb),
                _ => {}
            }
        }
    }
    (
        library.expect("host side completed"),
        remote.expect("peer side completed"),
    )
}

/// The segments in `actions`, with their payloads.
fn segments(actions: Vec<TcpAction>) -> Vec<(TcpRepr, Vec<u8>)> {
    let sends = actions.into_iter().filter_map(|a| match a {
        TcpAction::Send(repr, payload) => Some((repr, payload)),
        _ => None,
    });
    sends.collect()
}

/// B's streams: bytes that are never `MARKER`.
fn stream_b(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 97) as u8 + 1).collect()
}

const MARKER: u8 = 0xAA;

#[test]
fn a_recycled_block_shows_the_next_tenant_only_its_own_streams() {
    let mut host = RegistryServer::new(VICTIM_IP);
    let mut peer = RegistryServer::new(PEER_IP);
    peer.listen(OwnerTag(9), 80, TcpConfig::default()).unwrap();
    let (tenant_a, tenant_b) = (OwnerTag(1), OwnerTag(2));

    // Tenant A fills both rings with the marker: its own writes, never
    // acknowledged, and the peer's segments 1 and 3 — 2 is lost, so 3
    // sits in the reassembly area behind a hole.
    let (mut a, mut peer_a) = open_through(&mut host, &mut peer, tenant_a);
    let (queued, _lost) = a.send(&[MARKER; 6000], 1).unwrap();
    assert_eq!(queued, 6000);
    let (_, sent) = peer_a.send(&[MARKER; 3 * 1460], 1).unwrap();
    let sent = segments(sent);
    assert_eq!(sent.len(), 3);
    for i in [0, 2] {
        a.on_segment(&sent[i].0, &sent[i].1, 2);
    }
    assert_eq!(a.recv_available(), 1460, "the hole holds back segment 3");
    // A's process dies: its library's connection is reset, and the block
    // goes back to the registry that built it.
    a.abort();
    let used: *const Tcb = &*a;
    host.recycle(a);
    assert_eq!(host.spare(), [1, 1], "the block and its rings are spare");

    // Tenant B's next connection on the host gets that block and those
    // rings.
    let (mut b, mut peer_b) = open_through(&mut host, &mut peer, tenant_b);
    assert!(std::ptr::eq(&*b, used), "B's connection reopened A's block");
    assert_eq!(host.spare(), [0, 0], "and took its rings with it");

    // What B's library reads: the peer's stream, delivered out of order
    // so that the reassembly area opens holes over A's held bytes.
    let inbound = stream_b(5 * 1460);
    let (_, sent) = peer_b.send(&inbound, 3).unwrap();
    let sent = segments(sent);
    assert_eq!(sent.len(), 5);
    let mut read = Vec::new();
    for i in [3, 1, 4, 0, 2] {
        b.on_segment(&sent[i].0, &sent[i].1, 4);
        let (bytes, _) = b.recv(usize::MAX, 4);
        read.extend(bytes);
        assert_eq!(
            read,
            inbound[..read.len()],
            "B reads only its peer's stream"
        );
    }
    assert_eq!(read, inbound);

    // What B's library sends: its own stream, and nothing else.
    let outbound: Vec<u8> = stream_b(7000).into_iter().rev().collect();
    let (queued, sent) = b.send(&outbound, 5).unwrap();
    assert_eq!(queued, 7000);
    let mut on_the_wire = Vec::new();
    for (repr, payload) in segments(sent) {
        let at = repr.seq.dist(b.send_sequence().0) as usize;
        assert_eq!(at, on_the_wire.len(), "segments in order");
        on_the_wire.extend(payload);
    }
    assert!(!on_the_wire.is_empty());
    assert_eq!(on_the_wire, outbound[..on_the_wire.len()]);
}
