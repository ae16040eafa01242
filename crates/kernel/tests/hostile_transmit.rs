//! Nothing a library hands the network I/O module to transmit may leave
//! under a header its channel's template does not allow.
//!
//! The property starts from a legitimate TCP frame on either framing
//! (Ethernet, AN1) and lies in it the way a hostile library could:
//! truncation, bit flips in the link, IP and TCP headers, a lying IHL,
//! total length or fragment offset, a rewritten BQI, address or port —
//! optionally re-sealing the IP header checksum so a receiver would take
//! the lie. The oracle does not call `HeaderTemplate::check`: whenever a
//! frame is accepted and `unp-wire` parses it the way a receiver would,
//! the fields the template pins (MACs, EtherType, BQI, addresses,
//! protocol, and the ports of a first fragment) must read back equal.
//! A second property mutates only what the template leaves free (payload,
//! TTL, IP id, checksums, the TCP header past the ports) and must never
//! turn an accept into a reject. Every template rejection is counted by
//! the module. Tier-1 runs 64 cases; `ci.sh` runs 512 in release.

use proptest::prelude::*;
use proptest::sample::Index;
use unp_buffers::{Frame, OwnerTag};
use unp_filter::programs::DemuxSpec;
use unp_kernel::{Capability, HeaderTemplate, NetIoModule, TxError};
use unp_wire::{
    An1Frame, An1Repr, EtherType, EthernetFrame, EthernetRepr, IpProtocol, Ipv4Addr, Ipv4Packet,
    Ipv4Repr, MacAddr, SeqNum, TcpFlags, TcpRepr,
};

const US: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const THEM: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SPORT: u16 = 4000;
const DPORT: u16 = 80;
const BQI: u16 = 7;

/// One channel's binding: the framing and which optional fields it pins.
#[derive(Debug, Clone, Copy)]
struct Binding {
    an1: bool,
    pin_dst_mac: bool,
    pin_dst_port: bool,
}

impl Binding {
    fn link_header_len(self) -> usize {
        if self.an1 {
            18
        } else {
            14
        }
    }

    fn template(self) -> HeaderTemplate {
        HeaderTemplate {
            link_header_len: self.link_header_len(),
            src_mac: Some(MacAddr::from_host_index(2)),
            dst_mac: self.pin_dst_mac.then(|| MacAddr::from_host_index(1)),
            ethertype: EtherType::Ipv4,
            protocol: IpProtocol::Tcp,
            src_ip: US,
            dst_ip: THEM,
            src_port: SPORT,
            dst_port: self.pin_dst_port.then_some(DPORT),
            bqi: self.an1.then_some(BQI),
        }
    }

    /// A module holding one channel bound to this template, and its send
    /// capability.
    fn module(self) -> (NetIoModule, Capability) {
        let spec = DemuxSpec {
            link_header_len: self.link_header_len(),
            protocol: IpProtocol::Tcp,
            local_ip: US,
            local_port: SPORT,
            remote_ip: Some(THEM),
            remote_port: Some(DPORT),
        };
        let mut m = NetIoModule::new();
        let (_, send, _, _) = m.create_channel(OwnerTag(1), &spec, self.template(), 8, 2048);
        (m, send)
    }

    /// The frame a conforming library sends.
    fn legitimate(self, payload_len: usize) -> Vec<u8> {
        let tcp = TcpRepr {
            src_port: SPORT,
            dst_port: DPORT,
            seq: SeqNum(1000),
            ack_num: SeqNum(2000),
            flags: TcpFlags::ack(),
            window: 4096,
            mss: None,
        };
        let seg = tcp.build_segment(US, THEM, &vec![0xa5; payload_len]);
        let ip = Ipv4Repr::simple(US, THEM, IpProtocol::Tcp, seg.len()).build_packet(&seg);
        let (dst, src) = (MacAddr::from_host_index(1), MacAddr::from_host_index(2));
        let ethertype = EtherType::Ipv4;
        if self.an1 {
            let announce = 0;
            An1Repr {
                dst,
                src,
                ethertype,
                bqi: BQI,
                announce,
            }
            .build_frame(&ip)
        } else {
            EthernetRepr {
                dst,
                src,
                ethertype,
            }
            .build_frame(&ip)
        }
    }

    /// Whether the template constrains the byte at `at` of a frame whose
    /// IP header has no options.
    fn pins(self, at: usize) -> bool {
        let l = self.link_header_len();
        if at < l {
            return match at {
                0..6 => self.pin_dst_mac,
                6..14 => true, // source MAC, EtherType
                14..16 => self.an1,
                _ => false, // AN1 announce word
            };
        }
        match at - l {
            0 | 6 | 7 | 9 => true, // version/IHL, fragment field, protocol
            12..22 => true,        // addresses, source port
            22..24 => self.pin_dst_port,
            _ => false,
        }
    }
}

fn arb_binding() -> impl Strategy<Value = Binding> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(an1, pin_dst_mac, pin_dst_port)| {
        Binding {
            an1,
            pin_dst_mac,
            pin_dst_port,
        }
    })
}

/// One lie told in an outgoing frame.
#[derive(Debug, Clone)]
enum Lie {
    Truncate(Index),
    /// Flip bit `bit` of a byte in the link (0), IP (1) or TCP (2) header.
    Flip(u8, Index, u8),
    Ihl(u8),
    TotalLen(u16),
    /// A fragment offset (in 8-byte units) and the more-fragments flag.
    Fragment(u16, bool),
    Bqi(u16),
    Addr(bool, [u8; 4]),
    Port(bool, u16),
}

fn arb_lie() -> impl Strategy<Value = Lie> {
    let addr = prop_oneof![Just(US.0), Just(THEM.0), any::<[u8; 4]>()];
    let port = || prop_oneof![Just(SPORT), Just(DPORT), any::<u16>()];
    prop_oneof![
        any::<Index>().prop_map(Lie::Truncate),
        (0u8..3, any::<Index>(), 0u8..8).prop_map(|(layer, at, bit)| Lie::Flip(layer, at, bit)),
        (0u8..3, any::<Index>(), 0u8..8).prop_map(|(layer, at, bit)| Lie::Flip(layer, at, bit)),
        (0u8..16).prop_map(Lie::Ihl),
        prop_oneof![Just(0u16), 0u16..80, any::<u16>()].prop_map(Lie::TotalLen),
        (
            prop_oneof![Just(0u16), Just(0), 1u16..8, 0u16..0x2000],
            any::<bool>()
        )
            .prop_map(|(off, mf)| Lie::Fragment(off, mf)),
        prop_oneof![Just(BQI), Just(0u16), any::<u16>()].prop_map(Lie::Bqi),
        (any::<bool>(), addr).prop_map(|(dst, a)| Lie::Addr(dst, a)),
        (any::<bool>(), port()).prop_map(|(dst, p)| Lie::Port(dst, p)),
        (any::<bool>(), port()).prop_map(|(dst, p)| Lie::Port(dst, p)),
    ]
}

/// Tells `lie` in `frame` (link header `l` bytes); a lie about a byte the
/// frame no longer has is not told.
fn tell(frame: &mut Vec<u8>, l: usize, lie: &Lie) {
    let mut put = |at: usize, bytes: &[u8]| {
        if let Some(dst) = frame.get_mut(at..at + bytes.len()) {
            dst.copy_from_slice(bytes);
        }
    };
    match *lie {
        Lie::Truncate(at) => {
            let keep = at.index(frame.len() + 1);
            frame.truncate(keep);
        }
        Lie::Flip(layer, at, bit) => {
            let (base, len) = [(0, l), (l, 20), (l + 20, 20)][usize::from(layer)];
            if let Some(b) = frame.get_mut(base + at.index(len)) {
                *b ^= 1 << bit;
            }
        }
        Lie::Ihl(ihl) => {
            if let Some(b) = frame.get_mut(l) {
                *b = (*b & 0xf0) | ihl;
            }
        }
        Lie::TotalLen(n) => put(l + 2, &n.to_be_bytes()),
        Lie::Fragment(off, mf) => put(l + 6, &((off & 0x1fff) | u16::from(mf) << 13).to_be_bytes()),
        Lie::Bqi(bqi) => put(14, &bqi.to_be_bytes()),
        Lie::Addr(dst, a) => put(l + if dst { 16 } else { 12 }, &a),
        Lie::Port(dst, p) => put(l + if dst { 22 } else { 20 }, &p.to_be_bytes()),
    }
}

/// Recomputes the IP header checksum, as a library that lies carefully
/// would, so a receiver's header check does not hide the lie.
fn reseal(frame: &mut [u8], l: usize) {
    if let Some(ip) = frame.get_mut(l..l + 20) {
        ip[10..12].fill(0);
        let sum = unp_wire::checksum(ip);
        ip[10..12].copy_from_slice(&sum.to_be_bytes());
    }
}

/// The header fields a receiver reads out of `frame`, or `None` where it
/// would drop the frame before reading them.
#[derive(Debug, PartialEq)]
struct Seen {
    dst_mac: MacAddr,
    src_mac: MacAddr,
    bqi: Option<u16>,
    protocol: IpProtocol,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    /// Only a first fragment carries the transport header.
    ports: Option<(u16, u16)>,
}

fn as_received(frame: &[u8], an1: bool) -> Option<Seen> {
    let (dst_mac, src_mac, ethertype, bqi, ip) = if an1 {
        let f = An1Frame::new_checked(frame).ok()?;
        (f.dst(), f.src(), f.ethertype(), Some(f.bqi()), &frame[18..])
    } else {
        let f = EthernetFrame::new_checked(frame).ok()?;
        (f.dst(), f.src(), f.ethertype(), None, &frame[14..])
    };
    if ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Packet::new_checked(ip).ok()?;
    let repr = Ipv4Repr::parse(&ip);
    let ports = match ip.payload() {
        [a, b, c, d, ..] if repr.frag_offset == 0 => {
            Some((u16::from_be_bytes([*a, *b]), u16::from_be_bytes([*c, *d])))
        }
        _ => None,
    };
    Some(Seen {
        dst_mac,
        src_mac,
        bqi,
        protocol: repr.protocol,
        src: repr.src,
        dst: repr.dst,
        ports,
    })
}

/// The oracle: every field the template pins reads back as pinned.
fn conforms(seen: &Seen, t: &HeaderTemplate) -> bool {
    t.dst_mac.is_none_or(|m| m == seen.dst_mac)
        && t.src_mac.is_none_or(|m| m == seen.src_mac)
        && t.bqi.is_none_or(|b| seen.bqi == Some(b))
        && seen.protocol == t.protocol
        && (seen.src, seen.dst) == (t.src_ip, t.dst_ip)
        && seen
            .ports
            .is_none_or(|(s, d)| s == t.src_port && t.dst_port.is_none_or(|p| p == d))
}

fn arb_frame() -> impl Strategy<Value = (usize, Vec<Lie>, bool)> {
    (
        prop_oneof![Just(0usize), 1usize..64],
        proptest::collection::vec(arb_lie(), 1..5),
        prop_oneof![Just(true), Just(true), Just(false)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

    #[test]
    fn an_accepted_frame_reads_back_as_its_template(
        binding in arb_binding(),
        frames in proptest::collection::vec(arb_frame(), 1..12),
    ) {
        let (mut m, send) = binding.module();
        let template = binding.template();
        let l = binding.link_header_len();
        let mut rejected = 0;
        for (payload_len, lies, sealed) in &frames {
            let mut bytes = binding.legitimate(*payload_len);
            for lie in lies {
                tell(&mut bytes, l, lie);
            }
            if *sealed {
                reseal(&mut bytes, l);
            }
            match m.transmit_frame(send, &Frame::from_vec(bytes.clone())) {
                Ok(_) => {
                    if let Some(seen) = as_received(&bytes, binding.an1) {
                        prop_assert!(conforms(&seen, &template), "{lies:?} left as {seen:?}");
                    }
                }
                Err(TxError::Template(_)) => rejected += 1,
                Err(other) => prop_assert!(false, "{lies:?}: {other:?}"),
            }
        }
        prop_assert_eq!(m.tx_rejections(), rejected);
    }

    #[test]
    fn unpinned_bytes_never_turn_an_accept_into_a_reject(
        binding in arb_binding(),
        payload_len in prop_oneof![Just(0usize), 1usize..64],
        flips in proptest::collection::vec((any::<Index>(), 1u8..=255), 1..8),
    ) {
        let (mut m, send) = binding.module();
        let mut bytes = binding.legitimate(payload_len);
        prop_assert!(m.transmit(send, &bytes).is_ok(), "the legitimate frame");
        let free: Vec<usize> = (0..bytes.len()).filter(|&at| !binding.pins(at)).collect();
        for (at, mask) in &flips {
            bytes[free[at.index(free.len())]] ^= mask;
        }
        let verdict = m.transmit_frame(send, &Frame::from_vec(bytes));
        prop_assert_eq!(verdict.err(), None, "flipped {:?}", flips);
        prop_assert_eq!(m.tx_rejections(), 0);
    }
}
