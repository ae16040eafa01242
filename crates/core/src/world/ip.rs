//! The kernel's IP layer, the same under every organization: the one IP
//! ingress that turns a frame into a datagram, the UDP and ICMP the kernel
//! serves in place, and the copying send path those two take. Fig. 1 moves
//! the *transport* between kernel, servers and library; a complete TCP
//! datagram is handed back to whichever of them the host runs.

use unp_buffers::Frame;
use unp_proto::{icmp_input, IpRecv};
use unp_sim::Nanos;
use unp_trace::Ctr;
use unp_wire::{IpProtocol, Ipv4Addr};

use super::costs::{app_boundary_cost, tx_device_cost};
use super::event::{host_exec, host_step, Event};
use super::link::{encap_link, resolve_mac};
use super::{Eng, World};

/// IP ingress for the frame `frame` at time `now`: `Ok` is a complete TCP
/// datagram for this host, as its sender and its payload — sliced out of
/// the frame (a window over the same backing buffer) in the common,
/// unfragmented case, copied out of reassembly otherwise. `Err` is
/// everything else the IP endpoint made of the packet.
pub(super) fn ip_ingress(
    w: &mut World,
    h: usize,
    frame: &Frame,
    now: Nanos,
) -> Result<(Ipv4Addr, Frame), IpRecv> {
    let lhl = w.hosts[h].link_header_len();
    let ip_ep = &mut w.hosts[h].ip_ep;
    if let Some((src, IpProtocol::Tcp, range)) = ip_ep.receive_in_place(&frame[lhl..], now) {
        return Ok((src, frame.slice(lhl + range.start, lhl + range.end)));
    }
    match ip_ep.receive(&frame[lhl..], now) {
        IpRecv::Complete {
            protocol: IpProtocol::Tcp,
            src,
            payload,
            ..
        } => Ok((src, Frame::from_vec(payload))),
        other => Err(other),
    }
}

/// The kernel's IP input: UDP and ICMP are served here, in every
/// organization alike (they are not part of the paper's measurements but
/// keep the host fully functional); a complete TCP datagram is returned
/// to the caller, whose transport it is.
pub(super) fn kernel_ip_input(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    frame: &Frame,
) -> Option<(Ipv4Addr, Frame)> {
    match ip_ingress(w, h, frame, eng.now()) {
        Ok(tcp) => return Some(tcp),
        Err(IpRecv::Complete {
            protocol: IpProtocol::Udp,
            src,
            dst,
            payload,
        }) => {
            // Keep the original datagram header around in case an ICMP
            // destination-unreachable must be generated.
            let orig = frame[w.hosts[h].link_header_len()..].to_vec();
            udp_input(w, eng, h, src, dst, payload, orig);
        }
        Err(IpRecv::Complete {
            protocol: IpProtocol::Icmp,
            src,
            payload,
            ..
        }) => icmp_input_host(w, eng, h, src, &payload),
        Err(IpRecv::Complete { .. }) => w.metrics.bump(Ctr::IpUnknownProto),
        Err(IpRecv::FragmentHeld) => w.metrics.bump(Ctr::IpFragmentsHeld),
        Err(IpRecv::NotForUs) => w.metrics.bump(Ctr::IpNotForUs),
        Err(IpRecv::Bad(_)) => w.metrics.bump(Ctr::IpBad),
    }
    None
}

/// Registers and binds a UDP port on `host` through the UDP registry
/// server (name allocation is privileged; the data path then uses the
/// bound `UdpLayer` directly).
pub fn bind_udp(w: &mut World, host: usize, port: u16) -> bool {
    let owner = w.hosts[host].owner();
    if w.hosts[host].udp_registry.bind(owner, port).is_err() {
        return false;
    }
    w.hosts[host].udp.bind(port)
}

/// Sends a UDP datagram from `host` (source port must be bound via
/// [`bind_udp`] for replies to be deliverable).
pub fn send_udp(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    src_port: u16,
    dst: (Ipv4Addr, u16),
    payload: Vec<u8>,
) {
    let cost =
        app_boundary_cost(w, host) + w.costs.udp_per_packet + w.costs.checksum(payload.len());
    host_exec(w, eng, host, cost, move |w, eng| {
        let src_ip = w.hosts[host].ip;
        let dgram = w.hosts[host]
            .udp
            .send(src_ip, src_port, dst.0, dst.1, &payload);
        send_ip(w, eng, host, dst.0, IpProtocol::Udp, &dgram);
    });
}

/// Sends an ICMP echo request from `host` to `dst`. The reply is counted
/// in the trace under `icmp_echo_reply_received`.
pub fn send_ping(w: &mut World, eng: &mut Eng, host: usize, dst: Ipv4Addr, ident: u16, seq: u16) {
    let msg = unp_wire::IcmpRepr::Echo {
        request: true,
        ident,
        seq,
        data: b"unp ping".to_vec(),
    }
    .build();
    let cost = w.costs.ip_per_packet + w.costs.checksum(msg.len());
    host_exec(w, eng, host, cost, move |w, eng| {
        send_ip(w, eng, host, dst, IpProtocol::Icmp, &msg);
    });
}

fn udp_input(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    payload: Vec<u8>,
    orig_ip_packet: Vec<u8>,
) {
    let cost = w.costs.udp_per_packet + w.costs.checksum(payload.len());
    host_exec(w, eng, h, cost, move |w, eng| {
        use unp_proto::udp::UdpRecv;
        match w.hosts[h].udp.receive(src, dst, &payload) {
            UdpRecv::Delivered { .. } => w.metrics.bump(Ctr::UdpDelivered),
            UdpRecv::PortUnreachable => {
                w.metrics.bump(Ctr::UdpUnreachable);
                // "In response to a packet arriving at a port without a
                // listening socket, an ICMP destination unreachable
                // message is generated."
                let icmp = unp_proto::icmp::port_unreachable(&orig_ip_packet).build();
                let cost = w.costs.ip_per_packet + w.costs.checksum(icmp.len());
                host_exec(w, eng, h, cost, move |w, eng| {
                    send_ip(w, eng, h, src, IpProtocol::Icmp, &icmp);
                });
            }
            UdpRecv::Bad(_) => w.metrics.bump(Ctr::UdpBad),
        }
    });
}

fn icmp_input_host(w: &mut World, eng: &mut Eng, h: usize, src: Ipv4Addr, payload: &[u8]) {
    let cost = w.costs.ip_per_packet + w.costs.checksum(payload.len());
    match icmp_input(payload) {
        Ok(Some(reply)) => {
            let bytes = reply.build();
            host_exec(w, eng, h, cost, move |w, eng| {
                send_ip(w, eng, h, src, IpProtocol::Icmp, &bytes);
                w.metrics.bump(Ctr::IcmpEchoReplies);
            });
        }
        Ok(None) => {
            // Classify for the trace: echo replies (our pings coming
            // back) and destination-unreachable errors.
            match unp_wire::IcmpPacket::new_checked(payload)
                .ok()
                .map(|p| p.icmp_type())
            {
                Some(unp_wire::IcmpType::EchoReply) => w.metrics.bump(Ctr::IcmpEchoReplyReceived),
                Some(unp_wire::IcmpType::DestUnreachable(_)) => {
                    w.metrics.bump(Ctr::IcmpDestUnreachableReceived)
                }
                _ => w.metrics.bump(Ctr::IcmpOther),
            }
        }
        Err(_) => w.metrics.bump(Ctr::IcmpBad),
    }
}

/// Sends `payload` to `dst_ip` as one IP datagram, on the copying slow
/// path UDP and ICMP take: the datagram's packets (fragments, past the
/// MTU) are each staged once into a pooled frame with link headroom, then
/// the link header is prepended in place.
fn send_ip(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    dst_ip: Ipv4Addr,
    proto: IpProtocol,
    payload: &[u8],
) {
    let mtu = w.link.params().mtu;
    let lhl = w.hosts[h].link_header_len();
    for ip_packet in w.hosts[h].ip_ep.send(proto, dst_ip, payload, mtu) {
        let ipf = w.pool.alloc(lhl, &ip_packet);
        let Some(mac) = resolve_mac(w, eng, h, dst_ip, proto, &ipf) else {
            continue;
        };
        let frame = encap_link(w, h, mac, ipf, 0, 0);
        let cost = tx_device_cost(w, h, frame.len());
        host_step(w, eng, h, cost, Event::Transmit { host: h, frame });
    }
}
