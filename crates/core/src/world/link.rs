//! The link fabric: a frame's way from a host's interface onto the wire
//! and from the wire into a host's kernel — link headers of both framings,
//! ARP, the shared link, and the fault plan's verdict on each delivery.
//! Nothing here knows which organization a host runs except the one
//! question [`kernel_input`] asks to pick the IP input.

use unp_buffers::{Frame, RingId};
use unp_netdev::StationId;
use unp_proto::arp::ArpResult;
use unp_trace::{Ctr, FaultKind};
use unp_wire::{
    An1Repr, ArpPacket, ArpRepr, EtherType, EthernetRepr, IpProtocol, Ipv4Addr, MacAddr,
};

use super::costs::{rx_device_cost, tx_device_cost};
use super::event::{host_step, host_step_intr, Event};
use super::org::{monolithic, userlib};
use super::{Eng, Nic, World};

/// Entry point for a frame reaching host `h`'s interface.
pub fn frame_arrives(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    w.metrics.bump(Ctr::FramesReceived);
    let _attr = unp_trace::host_scope(h as u16);
    let cost = rx_device_cost(w, h, frame.len());
    match &mut w.hosts[h].nic {
        Nic::Lance(nic) => {
            // A staging overflow is the NIC's to count (`rx_drops`).
            if !nic.frame_arrived(frame, eng.now()) {
                return;
            }
            host_step_intr(w, eng, h, cost, Event::LanceIntr { host: h });
        }
        Nic::An1(nic) => {
            // Hardware classification happens in the controller before the
            // completion interrupt.
            let ring = nic.classify_frame(&frame);
            let host = h;
            host_step_intr(w, eng, h, cost, Event::An1Intr { host, frame, ring });
        }
    }
}

/// Kernel-side input processing after interrupt (+PIO) costs.
/// `hw_ring` is `Some` on AN1 (the controller's BQI classification).
pub(super) fn kernel_input(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    frame: Frame,
    hw_ring: Option<RingId>,
) {
    let lhl = w.hosts[h].link_header_len();
    if frame.len() < lhl {
        return;
    }
    let ethertype = EtherType::from_u16(u16::from_be_bytes([frame[12], frame[13]]));
    match ethertype {
        EtherType::Arp => arp_input(w, eng, h, &frame[lhl..]),
        EtherType::Ipv4 => {
            if w.hosts[h].org.is_user_library() {
                userlib::ip_input(w, eng, h, frame, hw_ring);
            } else {
                monolithic::ip_input(w, eng, h, frame);
            }
        }
        EtherType::Other(_) => w.metrics.bump(Ctr::UnknownEthertype),
    }
}

fn arp_input(w: &mut World, eng: &mut Eng, h: usize, payload: &[u8]) {
    let Ok(pkt) = ArpPacket::new_checked(payload) else {
        return;
    };
    let Ok(repr) = ArpRepr::parse(&pkt) else {
        return;
    };
    let now = eng.now();
    let reply = w.hosts[h].arp.input(&repr, now);
    if let Some(rep) = reply {
        let frame = build_arp_frame(w, h, &rep);
        let cost = w.costs.ip_per_packet + tx_device_cost(w, h, frame.len());
        host_step(w, eng, h, cost, Event::Transmit { host: h, frame });
    }
    // Flush packets that were waiting on this resolution.
    if let Some(waiting) = w.hosts[h].arp_wait.remove(&repr.sender_ip) {
        let mac = repr.sender_mac;
        for (_proto, ip_packet) in waiting {
            let frame = encap_link(w, h, mac, ip_packet, 0, 0);
            let cost = tx_device_cost(w, h, frame.len());
            host_step(w, eng, h, cost, Event::Transmit { host: h, frame });
        }
    }
}

/// Emits the link header for `h`'s network into `buf` — the one place the
/// two framings differ. Cannot fail: both callers hand it exactly
/// `link_header_len()` bytes, which is what either `emit` asks for.
fn emit_link_header(
    w: &World,
    h: usize,
    dst_mac: MacAddr,
    ethertype: EtherType,
    bqi: u16,
    announce: u16,
    buf: &mut [u8],
) {
    let host = &w.hosts[h];
    match &host.nic {
        Nic::Lance(_) => EthernetRepr {
            dst: dst_mac,
            src: host.mac,
            ethertype,
        }
        .emit(buf)
        .expect("link headroom"),
        Nic::An1(_) => An1Repr {
            dst: dst_mac,
            src: host.mac,
            ethertype,
            bqi,
            announce,
        }
        .emit(buf)
        .expect("link headroom"),
    }
}

/// Prepends the link header onto an IP-packet frame, in place: every
/// caller's frame was allocated with link headroom (the zero-copy tx
/// path), which `prepend` asserts.
pub(super) fn encap_link(
    w: &World,
    h: usize,
    dst_mac: MacAddr,
    mut ip_packet: Frame,
    bqi: u16,
    announce: u16,
) -> Frame {
    let header = ip_packet.prepend(w.hosts[h].link_header_len());
    emit_link_header(w, h, dst_mac, EtherType::Ipv4, bqi, announce, header);
    ip_packet
}

/// Resolves the next hop MAC, queueing behind ARP if needed. Returns
/// `None` when resolution is pending (the IP packet is parked — a
/// refcount bump, not a copy — and a request broadcast).
pub(super) fn resolve_mac(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    dst_ip: Ipv4Addr,
    proto: IpProtocol,
    ip_packet: &Frame,
) -> Option<MacAddr> {
    if dst_ip.is_broadcast() {
        return Some(MacAddr::BROADCAST);
    }
    let now = eng.now();
    match w.hosts[h].arp.resolve(dst_ip, now) {
        ArpResult::Hit(mac) => Some(mac),
        ArpResult::Miss { request } => {
            w.hosts[h]
                .arp_wait
                .entry(dst_ip)
                .or_default()
                .push((proto, ip_packet.clone()));
            if let Some(req) = request {
                let frame = build_arp_frame(w, h, &req);
                let cost = w.costs.ip_per_packet + tx_device_cost(w, h, frame.len());
                host_step(w, eng, h, cost, Event::Transmit { host: h, frame });
            }
            None
        }
    }
}

/// Wraps an ARP packet in the link header for `h`'s network, in a fresh
/// buffer.
fn build_arp_frame(w: &World, h: usize, arp: &ArpRepr) -> Frame {
    let dst = if arp.target_mac == MacAddr::ZERO {
        MacAddr::BROADCAST
    } else {
        arp.target_mac
    };
    let payload = arp.build();
    let lhl = w.hosts[h].link_header_len();
    let mut buf = vec![0u8; lhl + payload.len()];
    emit_link_header(w, h, dst, EtherType::Arp, 0, 0, &mut buf[..lhl]);
    buf[lhl..].copy_from_slice(&payload);
    Frame::from_vec(buf)
}

/// Puts a frame on the wire: reserves the link, applies the fault plan's
/// verdict to each recipient's copy and schedules the surviving arrivals.
/// Taps and recipients share the one frame by refcount — no per-recipient
/// copy unless a fault corrupts one.
pub(super) fn transmit_frame(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    let now = eng.now();
    let (start, arrival) = w.link.reserve(StationId(h), now, frame.len());
    let dst = MacAddr([frame[0], frame[1], frame[2], frame[3], frame[4], frame[5]]);
    w.metrics.bump(Ctr::FramesSent);
    unp_trace::emit_at(h as u16, Some(frame.id()), || unp_trace::Event::NicTx {
        len: frame.len() as u32,
    });
    // The wire-hop span for the causal tracer: time waiting for link
    // access vs serialization + propagation. The split telescopes with
    // the receiver's `nic_rx` timestamp (any residue is injected reorder
    // delay), so journey latency decomposes exactly.
    unp_trace::emit_at(h as u16, Some(frame.id()), || unp_trace::Event::LinkTx {
        queue: start - now,
        wire: arrival - start,
    });
    w.run_taps(now, &frame);
    // The recipient walk borrows the link while each copy's verdict takes
    // the fault plan, the metrics and the receiver's link header length.
    let World {
        link,
        hosts,
        metrics,
        faults,
        ..
    } = w;
    let f16 = h as u16;
    for StationId(to) in link.recipients(StationId(h), dst) {
        let fate = faults.fate(h, to, now);
        let t16 = to as u16;
        let emit_fault = |kind: FaultKind| {
            unp_trace::emit_at(f16, Some(frame.id()), || unp_trace::Event::FaultInject {
                kind,
                from: f16,
                to: t16,
            });
        };
        if fate.outage {
            metrics.link(f16, t16).outage_drops += 1;
            emit_fault(FaultKind::Outage);
            continue;
        }
        if fate.drop {
            metrics.link(f16, t16).drops += 1;
            emit_fault(FaultKind::Drop);
            continue;
        }
        let mut bytes = frame.clone();
        if fate.corrupt {
            // Flip one byte past the link header: the TCP checksum catches
            // it at the receiver. Link-header corruption on AN1 could flip
            // the BQI field and *misdeliver* a checksum-valid segment — a
            // different fault class than in-flight payload damage, so it is
            // deliberately out of range. The clone diverges copy-on-write,
            // so taps and other recipients keep the pristine frame.
            let lhl = hosts[to].link_header_len();
            if bytes.len() > lhl {
                let idx = lhl + faults.pick(bytes.len() - lhl);
                bytes.as_mut_slice()[idx] ^= 0x20;
                metrics.link(f16, t16).corrupts += 1;
                emit_fault(FaultKind::Corrupt);
            }
        }
        if fate.delays().len() > 1 {
            metrics.link(f16, t16).dups += 1;
            emit_fault(FaultKind::Duplicate);
        }
        for &extra in fate.delays() {
            if extra > 0 {
                metrics.link(f16, t16).reorders += 1;
                emit_fault(FaultKind::Reorder);
            }
            let frame = bytes.clone();
            eng.schedule(arrival + extra, Event::FrameArrives { host: to, frame });
        }
    }
}
