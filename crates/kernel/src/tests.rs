//! The module's unit tests, across its mechanisms: `tests::*`, the names
//! the test floor pins.

use super::*;
use unp_wire::{
    EtherType, EthernetRepr, IpProtocol, Ipv4Addr, Ipv4Repr, MacAddr, SeqNum, TcpFlags, TcpRepr,
};

const US: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const THEM: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const OUR_MAC_IDX: u32 = 2;
const THEIR_MAC_IDX: u32 = 1;

fn spec() -> DemuxSpec {
    DemuxSpec {
        link_header_len: 14,
        protocol: IpProtocol::Tcp,
        local_ip: US,
        local_port: 80,
        remote_ip: Some(THEM),
        remote_port: Some(5000),
    }
}

fn wildcard_spec(port: u16) -> DemuxSpec {
    DemuxSpec {
        local_port: port,
        remote_ip: None,
        remote_port: None,
        ..spec()
    }
}

fn template() -> HeaderTemplate {
    HeaderTemplate {
        link_header_len: 14,
        src_mac: Some(MacAddr::from_host_index(OUR_MAC_IDX)),
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: US,
        dst_ip: THEM,
        src_port: 80,
        dst_port: Some(5000),
        bqi: None,
    }
}

fn mac(ip: Ipv4Addr) -> MacAddr {
    MacAddr::from_host_index(if ip == US { OUR_MAC_IDX } else { THEIR_MAC_IDX })
}

fn ether(dst: Ipv4Addr, src: Ipv4Addr, ip_packet: &[u8]) -> Frame {
    let ethertype = EtherType::Ipv4;
    Frame::from_vec(
        EthernetRepr {
            dst: mac(dst),
            src: mac(src),
            ethertype,
        }
        .build_frame(ip_packet),
    )
}

fn tcp_frame(src_ip: Ipv4Addr, dst_ip: Ipv4Addr, sport: u16, dport: u16) -> Frame {
    let t = TcpRepr {
        src_port: sport,
        dst_port: dport,
        seq: SeqNum(1),
        ack_num: SeqNum(0),
        flags: TcpFlags::ack(),
        window: 1000,
        mss: None,
    };
    let seg = t.build_segment(src_ip, dst_ip, b"d");
    let ip = Ipv4Repr::simple(src_ip, dst_ip, IpProtocol::Tcp, seg.len());
    ether(dst_ip, src_ip, &ip.build_packet(&seg))
}

/// The frame every test delivers: from the peer to our port 80.
fn inbound() -> Frame {
    tcp_frame(THEM, US, 5000, 80)
}

/// A module with one active channel of `slots` slots bound to `spec()`.
fn one_channel(slots: usize) -> (NetIoModule, ChannelId, Capability, Capability) {
    let mut m = NetIoModule::new();
    let (id, send, recv, _) = m.create_channel(OwnerTag(1), &spec(), template(), slots, 2048);
    m.activate(id);
    (m, id, send, recv)
}

/// A delivery into a ring: `(channel, signal, filter_instrs, path)`.
fn placed(d: Delivery) -> (ChannelId, bool, usize, DemuxPath) {
    match d {
        Delivery::Channel {
            id,
            signal,
            filter_instrs,
            path,
            ..
        } => (id, signal, filter_instrs, path),
        other => panic!("unexpected {other:?}"),
    }
}

/// A delivery to the kernel default path: the tier that missed.
fn missed(d: Delivery) -> DemuxPath {
    match d {
        Delivery::KernelDefault { path, .. } => path,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn channel_delivery_and_consume_roundtrip() {
    let mut m = NetIoModule::new();
    let (id, _send, recv, _ring) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
    // Until activation, traffic falls through to the kernel default.
    let frame = inbound();
    assert_eq!(missed(m.deliver_software(&frame)), DemuxPath::FilterScan);
    m.activate(id);
    let (did, signal, filter_instrs, _) = placed(m.deliver_software(&frame));
    assert_eq!(did, id);
    assert!(signal, "first packet posts the semaphore");
    assert!(filter_instrs > 0);
    let pkts: Vec<Frame> = m.consume_batch(recv).unwrap().collect();
    assert_eq!(pkts, [frame]);
    assert!(m.end_wakeup(recv).unwrap());
}

#[test]
fn notification_batching() {
    let (mut m, id, _, recv) = one_channel(8);
    let frame = inbound();
    let signals: Vec<bool> = (0..4)
        .map(|_| placed(m.deliver_software(&frame)).1)
        .collect();
    assert_eq!(signals, vec![true, false, false, false], "batched");
    assert_eq!(m.consume_batch(recv).unwrap().len(), 4);
    assert!(m.end_wakeup(recv).unwrap());
    let stats = m.channel_stats(id).unwrap();
    assert_eq!((stats.delivered, stats.batched), (4, 3));
    assert_eq!(
        stats.flow_hits + stats.listen_hits + stats.scan_fallbacks,
        4,
        "every software delivery is attributed to a demux tier"
    );
    // After consuming, the next packet signals again.
    assert!(placed(m.deliver_software(&frame)).1);
}

#[test]
fn unmatched_traffic_goes_to_kernel_default() {
    let (mut m, ..) = one_channel(8);
    // Wrong port: no channel matches.
    missed(m.deliver_software(&tcp_frame(THEM, US, 5000, 81)));
    assert_eq!(m.default_deliveries(), 1);
}

#[test]
fn transmit_requires_valid_capability_and_template() {
    let (mut m, _, send, recv) = one_channel(8);
    let good = tcp_frame(US, THEM, 80, 5000);
    assert!(m.transmit(send, &good).is_ok());
    // Receive capability has no send right.
    assert_eq!(m.transmit(recv, &good).err(), Some(TxError::WrongRight));
    // Forged capability.
    let (forged, bad) = (
        Capability::forge_for_tests(0xdead_beef),
        TxError::BadCapability,
    );
    assert_eq!(m.transmit(forged, &good).err(), Some(bad));
}

#[test]
fn impersonation_rejected_by_template() {
    let (mut m, _, send, _) = one_channel(8);
    // Spoofed source IP.
    let spoofed_ip = tcp_frame(Ipv4Addr::new(10, 0, 0, 9), THEM, 80, 5000);
    assert!(matches!(
        m.transmit(send, &spoofed_ip),
        Err(TxError::Template(_))
    ));
    // Wrong source port (stealing another connection's identity).
    let spoofed_port = tcp_frame(US, THEM, 81, 5000);
    assert!(matches!(
        m.transmit(send, &spoofed_port),
        Err(TxError::Template(_))
    ));
    assert_eq!(m.tx_rejections(), 2);
}

#[test]
fn hardware_path_places_by_ring() {
    let mut m = NetIoModule::new();
    let (id, _, _, ring) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
    let frame = inbound();
    let (did, _, filter_instrs, _) = placed(m.deliver_hardware(ring, &frame));
    assert_eq!(did, id);
    assert_eq!(filter_instrs, 0, "no software filtering on AN1");
    // Unknown ring → kernel default.
    let unknown = m.deliver_hardware(RingId(999), &frame);
    assert_eq!(missed(unknown), DemuxPath::Hardware);
}

#[test]
fn ring_overflow_drops() {
    let (mut m, id, ..) = one_channel(2);
    let frame = inbound();
    assert_eq!(placed(m.deliver_software(&frame)).0, id);
    assert_eq!(placed(m.deliver_software(&frame)).0, id);
    let full = Delivery::Dropped(Discard::RingFull);
    assert_eq!(m.deliver_software(&frame), full);
}

#[test]
fn tenant_ring_quota_drops_with_attribution() {
    let (mut m, id, _, recv) = one_channel(8);
    let budget = TenantBudget {
        ring_slots: 3,
        ..TenantBudget::default()
    };
    m.set_tenant_budget(OwnerTag(1), budget);
    let frame = inbound();
    for _ in 0..3 {
        assert_eq!(placed(m.deliver_software(&frame)).0, id);
    }
    // Ring has 8 slots free, but the tenant's quota is exhausted — and
    // the drop is attributed to the tenant, not the ring.
    let tenant = OwnerTag(1);
    let quota = Delivery::Dropped(Discard::TenantQuota { tenant });
    assert_eq!(m.deliver_software(&frame), quota);
    let s = m.tenant_stats(OwnerTag(1)).unwrap();
    assert_eq!((s.quota_drops, s.ring_slots, s.rx_delivered), (1, 3, 3));
    // Consuming releases the occupancy and delivery resumes.
    assert_eq!(m.consume_batch(recv).unwrap().len(), 3);
    assert_eq!(placed(m.deliver_software(&frame)).0, id);
    assert_eq!(m.tenant_stats(OwnerTag(1)).unwrap().ring_slots, 1);
}

#[test]
fn tenant_tx_credit_refills_on_epoch_boundary() {
    let (mut m, _, send, _) = one_channel(8);
    let budget = TenantBudget {
        tx_credit: 2,
        ..TenantBudget::default()
    };
    m.set_tenant_budget(OwnerTag(1), budget);
    let good = tcp_frame(US, THEM, 80, 5000);
    assert!(m.transmit(send, &good).is_ok());
    assert!(m.transmit(send, &good).is_ok());
    assert_eq!(m.transmit(send, &good).err(), Some(TxError::QuotaExceeded));
    assert_eq!(m.tenant_stats(OwnerTag(1)).unwrap().tx_rejections, 1);
    // Same epoch: still dry.
    m.advance_tx_window(TX_WINDOW_NS - 1);
    assert_eq!(m.transmit(send, &good).err(), Some(TxError::QuotaExceeded));
    // Next epoch-aligned window: credit refills.
    m.advance_tx_window(TX_WINDOW_NS);
    assert!(m.transmit(send, &good).is_ok());
    assert_eq!(m.tenant_stats(OwnerTag(1)).unwrap().tx_frames, 3);
}

#[test]
fn tenant_channel_cap_bounds_creation_and_destroy_releases() {
    let mut m = NetIoModule::new();
    let budget = TenantBudget {
        max_channels: 1,
        ..TenantBudget::default()
    };
    m.set_tenant_budget(OwnerTag(1), budget);
    let create = |m: &mut NetIoModule, owner: u64, spec: DemuxSpec| {
        m.try_create_channel(OwnerTag(owner), &spec, template(), 8, 2048)
    };
    let (id, ..) = create(&mut m, 1, spec()).expect("first channel within cap");
    assert!(
        create(&mut m, 1, wildcard_spec(81)).is_none(),
        "second channel exceeds cap"
    );
    // Other tenants are not affected by tenant 1's cap.
    assert!(create(&mut m, 2, wildcard_spec(82)).is_some());
    assert!(m.destroy_channel(id, OwnerTag(1)));
    assert!(create(&mut m, 1, wildcard_spec(83)).is_some());
}

#[test]
fn destroying_a_channel_releases_its_ring_occupancy() {
    let (mut m, id, ..) = one_channel(8);
    let frame = inbound();
    for _ in 0..2 {
        assert_eq!(placed(m.deliver_software(&frame)).0, id);
    }
    assert_eq!(m.tenant_stats(OwnerTag(1)).unwrap().ring_slots, 2);
    assert!(m.destroy_channel(id, OwnerTag(1)));
    let s = m.tenant_stats(OwnerTag(1)).unwrap();
    assert_eq!((s.ring_slots, s.open_channels), (0, 0));
}

#[test]
fn kernel_tenant_cannot_be_budgeted() {
    let mut m = NetIoModule::new();
    let budget = TenantBudget {
        ring_slots: 1,
        tx_credit: 1,
        max_channels: 1,
    };
    m.set_tenant_budget(OwnerTag(0), budget);
    assert!(m.tenant_stats(OwnerTag(0)).is_none(), "no account minted");
}

#[test]
fn destroy_channel_enforces_ownership_and_revokes_caps() {
    let mut m = NetIoModule::new();
    let (id, send, _, _) = m.create_channel(OwnerTag(1), &spec(), template(), 4, 2048);
    assert!(!m.destroy_channel(id, OwnerTag(2)), "non-owner refused");
    assert!(m.destroy_channel(id, OwnerTag(1)));
    assert_eq!(m.channel_count(), 0);
    let frame = tcp_frame(US, THEM, 80, 5000);
    assert_eq!(m.transmit(send, &frame).err(), Some(TxError::BadCapability));
    // Kernel can always reap.
    let (id2, ..) = m.create_channel(OwnerTag(3), &spec(), template(), 4, 2048);
    assert!(m.destroy_channel(id2, OwnerTag(0)));
}

#[test]
fn oversized_frame_dropped_not_truncated() {
    let mut m = NetIoModule::new();
    let (id, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 4, 48);
    m.activate(id);
    let frame = inbound(); // 55 bytes > 48-byte slots
    let oversize = Delivery::Dropped(Discard::Oversize);
    assert_eq!(m.deliver_software(&frame), oversize);
}

#[test]
fn every_discard_is_journaled_once_with_its_reason() {
    // The ring's one admission check names each discard and journals it:
    // a ring_drop for the ring's own reasons (`pressure` only when the
    // clamp alone refused), a quota_drop for the tenant's.
    let mut m = NetIoModule::new();
    let (id, _, _, ring) = m.create_channel(OwnerTag(1), &spec(), template(), 2, 64);
    m.activate(id);
    let quota = |ring_slots| TenantBudget {
        ring_slots,
        ..TenantBudget::default()
    };
    let frame = inbound();
    unp_trace::journal_start();
    m.set_pressure_cap(Some(0));
    let shed = m.deliver_software(&frame);
    m.set_pressure_cap(None);
    m.set_tenant_budget(OwnerTag(1), quota(1));
    let first = placed(m.deliver_software(&frame)).0;
    let over_quota = m.deliver_software(&frame);
    m.set_tenant_budget(OwnerTag(1), quota(0));
    let second = placed(m.deliver_software(&frame)).0;
    let full = m.deliver_software(&frame);
    let oversize = m.deliver_hardware(ring, &Frame::from_vec(vec![0; 65]));
    let journal = unp_trace::journal_stop();
    assert_eq!((first, second), (id, id));
    let tenant = OwnerTag(1);
    let verdicts = [shed, over_quota, full, oversize].map(|d| match d {
        Delivery::Dropped(why) => why,
        other => panic!("unexpected {other:?}"),
    });
    use Discard::*;
    let want = [PressureShed, TenantQuota { tenant }, RingFull, Oversize];
    assert_eq!(verdicts, want);
    let records: Vec<Option<bool>> = journal
        .iter()
        .filter_map(|r| match r.event {
            unp_trace::Event::RingDrop { pressure, .. } => Some(Some(pressure)),
            unp_trace::Event::QuotaDrop { .. } => Some(None),
            _ => None,
        })
        .collect();
    assert_eq!(records, [Some(true), None, Some(false), Some(false)]);
}

#[test]
fn wakeup_lifecycle_batches_across_processing() {
    let (mut m, _, _, recv) = one_channel(8);
    let frame = inbound();
    // First packet signals; the library starts its wakeup.
    assert!(placed(m.deliver_software(&frame)).1);
    assert_eq!(m.consume_batch(recv).unwrap().len(), 1);
    // While processing, two more arrive: neither signals.
    assert!(!placed(m.deliver_software(&frame)).1);
    assert!(!placed(m.deliver_software(&frame)).1);
    // The wakeup ends with packets still queued: keep going.
    assert!(!m.end_wakeup(recv).unwrap());
    assert_eq!(m.consume_batch(recv).unwrap().len(), 2);
    // Now the ring is empty: the thread blocks again...
    assert!(m.end_wakeup(recv).unwrap());
    // ...and the next packet posts a fresh signal.
    assert!(placed(m.deliver_software(&frame)).1);
}

#[test]
fn wakeup_api_enforces_rights() {
    let (mut m, _, send, recv) = one_channel(8);
    m.deliver_software(&inbound());
    unp_trace::journal_start();
    assert_eq!(m.consume_batch(send).err(), Some(TxError::WrongRight));
    assert_eq!(m.end_wakeup(send), Err(TxError::WrongRight));
    // The ring kept its frame for the Receive capability, whose drain
    // is the journal's only wakeup_batch.
    assert_eq!(m.consume_batch(recv).unwrap().len(), 1);
    let journal = unp_trace::journal_stop();
    let batches = journal.iter().filter(|r| r.event.name() == "wakeup_batch");
    assert_eq!(batches.count(), 1);
}

/// Delivers `frame` and returns where it landed and by which tier.
fn landed_via(m: &mut NetIoModule, frame: &Frame) -> (ChannelId, DemuxPath) {
    let (id, _, _, path) = placed(m.deliver_software(frame));
    (id, path)
}

#[test]
fn exact_binding_takes_flow_table_path() {
    let (mut m, id, ..) = one_channel(8);
    assert_eq!(m.flow_table_len(), 1);
    let (did, _, filter_instrs, path) = placed(m.deliver_software(&inbound()));
    assert_eq!((did, path), (id, DemuxPath::FlowTable));
    // Scan-equivalent modeled cost: this channel's own program.
    assert_eq!(filter_instrs, 7);
    let s = m.demux_stats();
    assert_eq!((s.flow_hits, s.scan_fallbacks, s.packets), (1, 0, 1));
}

#[test]
fn lower_id_wildcard_shadows_flow_hit() {
    // Channel 0: wildcard listener on port 80. Channel 1: exact binding
    // for the same traffic. A scan visits id 0 first, so the wildcard
    // must win even though the flow table knows channel 1 — and it wins
    // from the listen table, not the residual scan.
    let mut m = NetIoModule::new();
    let (wild, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(80), template(), 8, 2048);
    let (exact, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
    m.activate(wild);
    m.activate(exact);
    let frame = inbound();
    let scan_order_wins = (wild, DemuxPath::ListenTable);
    assert_eq!(landed_via(&mut m, &frame), scan_order_wins);
    // With the wildcard torn down, the exact binding takes over on the
    // fast path.
    assert!(m.destroy_channel(wild, OwnerTag(1)));
    assert_eq!(landed_via(&mut m, &frame), (exact, DemuxPath::FlowTable));
}

#[test]
fn higher_id_wildcard_does_not_preempt_flow_hit() {
    let mut m = NetIoModule::new();
    let (exact, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
    let (wild, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(80), template(), 8, 2048);
    m.activate(exact);
    m.activate(wild);
    let frame = inbound();
    assert_eq!(landed_via(&mut m, &frame), (exact, DemuxPath::FlowTable));
}

#[test]
fn duplicate_keys_resolve_to_lowest_active_id() {
    let mut m = NetIoModule::new();
    let (a, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
    let (b, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
    assert_eq!(m.flow_table_len(), 2);
    // Only the higher id is active: it receives.
    m.activate(b);
    let frame = inbound();
    assert_eq!(placed(m.deliver_software(&frame)).0, b);
    // Both active: the scan winner is the lower id.
    m.activate(a);
    assert_eq!(placed(m.deliver_software(&frame)).0, a);
    assert!(m.destroy_channel(a, OwnerTag(1)));
    assert_eq!(m.flow_table_len(), 1);
    assert_eq!(placed(m.deliver_software(&frame)).0, b);
}

#[test]
fn fragment_falls_back_to_scan_tier() {
    let (mut m, ..) = one_channel(8);
    // A non-first fragment has no flow identity and no transport
    // header: the exact binding rejects it, and it lands on the kernel
    // default path via the scan tier.
    let ip = Ipv4Repr {
        frag_offset: 64,
        ..Ipv4Repr::simple(THEM, US, IpProtocol::Tcp, 8)
    };
    let frame = ether(US, THEM, &ip.build_packet(&[0u8; 8]));
    assert_eq!(missed(m.deliver_software(&frame)), DemuxPath::FilterScan);
}

#[test]
fn reclaim_owner_sweeps_only_that_owners_channels() {
    let mut m = NetIoModule::new();
    let (dead1, ..) = m.create_channel(OwnerTag(7), &spec(), template(), 8, 2048);
    let (alive, ..) = m.create_channel(OwnerTag(8), &wildcard_spec(81), template(), 8, 2048);
    let (dead2, ..) = m.create_channel(OwnerTag(7), &wildcard_spec(82), template(), 8, 2048);
    m.activate(alive);
    assert_eq!(m.reclaim_owner(OwnerTag(7)), vec![dead1, dead2]);
    assert_eq!(m.channel_count(), 1);
    assert_eq!(m.flow_table_len(), 0, "dead flow entry swept");
    assert_eq!(m.listen_table_len(), 1, "survivor's listen entry kept");
    // The survivor still receives.
    let frame = tcp_frame(THEM, US, 5000, 81);
    assert_eq!(placed(m.deliver_software(&frame)).0, alive);
    assert!(m.reclaim_owner(OwnerTag(7)).is_empty(), "idempotent");
}

#[test]
fn pressure_cap_sheds_at_reduced_capacity() {
    let (mut m, id, _, recv) = one_channel(8);
    m.set_pressure_cap(Some(1));
    let frame = inbound();
    assert_eq!(placed(m.deliver_software(&frame)).0, id);
    let shed = Delivery::Dropped(Discard::PressureShed);
    assert_eq!(m.deliver_software(&frame), shed);
    // Lifting the pressure restores the configured capacity.
    m.set_pressure_cap(None);
    assert_eq!(placed(m.deliver_software(&frame)).0, id);
    assert_eq!(m.consume_batch(recv).unwrap().len(), 2);
}

#[test]
fn listen_binding_takes_listen_table_path() {
    let mut m = NetIoModule::new();
    let (id, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(80), template(), 8, 2048);
    m.activate(id);
    assert_eq!((m.flow_table_len(), m.listen_table_len()), (0, 1));
    // Two different remote endpoints both land via the 3-tuple table —
    // no filter interpretation on the host path.
    for sport in [5000, 6000] {
        let (did, _, filter_instrs, path) =
            placed(m.deliver_software(&tcp_frame(THEM, US, sport, 80)));
        assert_eq!((did, path), (id, DemuxPath::ListenTable));
        // Scan-equivalent modeled cost: the wildcard program is 5
        // instructions (no remote compares).
        assert_eq!(filter_instrs, 5);
    }
    let s = m.demux_stats();
    assert_eq!((s.flow_hits, s.listen_hits, s.scan_fallbacks), (0, 2, 0));
    assert_eq!(m.channel_stats(id).unwrap().listen_hits, 2);
}

#[test]
fn half_wildcard_binding_stays_on_scan_tier() {
    let mut m = NetIoModule::new();
    let half = DemuxSpec {
        remote_port: None,
        ..spec()
    };
    let (id, ..) = m.create_channel(OwnerTag(1), &half, template(), 8, 2048);
    m.activate(id);
    assert_eq!((m.flow_table_len(), m.listen_table_len()), (0, 0));
    assert_eq!(landed_via(&mut m, &inbound()), (id, DemuxPath::FilterScan));
}

#[test]
fn incremental_caches_match_rebuild_through_churn() {
    // The oracle invariant behind the incremental maintenance: after
    // any interleaving of create/activate/destroy, the patched-in-place
    // caches equal a from-scratch rebuild, and classification results
    // are unchanged by forcing that rebuild.
    let mut m = NetIoModule::new();
    let mut ids = Vec::new();
    for i in 0..24u16 {
        let s = match i % 3 {
            0 => spec(),
            1 => wildcard_spec(80 + i),
            _ => DemuxSpec {
                remote_port: None,
                ..spec()
            },
        };
        let (id, ..) = m.create_channel(OwnerTag(1), &s, template(), 8, 2048);
        if i % 4 != 3 {
            m.activate(id);
        }
        ids.push(id);
        assert!(m.caches_match_rebuild(), "after install {i}");
    }
    let frame = inbound();
    for (i, id) in ids.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
        assert!(m.destroy_channel(*id, OwnerTag(1)));
        assert!(m.caches_match_rebuild(), "after destroy {i}");
        let after = m.classify(&frame);
        m.force_rebuild_active();
        assert_eq!(m.classify(&frame), after, "rebuild must be a no-op");
    }
    // Re-activation of a live channel is idempotent.
    m.activate(ids[1]);
    m.activate(ids[1]);
    assert!(m.caches_match_rebuild());
}

#[test]
fn duplicate_listen_keys_resolve_to_lowest_active_id() {
    let mut m = NetIoModule::new();
    let (a, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(80), template(), 8, 2048);
    let (b, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(80), template(), 8, 2048);
    assert_eq!(m.listen_table_len(), 2);
    m.activate(b);
    let frame = inbound();
    assert_eq!(placed(m.deliver_software(&frame)).0, b);
    m.activate(a);
    assert_eq!(placed(m.deliver_software(&frame)).0, a);
    assert!(m.destroy_channel(a, OwnerTag(1)));
    assert_eq!(m.listen_table_len(), 1);
    assert_eq!(placed(m.deliver_software(&frame)).0, b);
}

#[test]
fn demux_mem_bytes_tracks_population() {
    let mut m = NetIoModule::new();
    let empty = m.demux_mem_bytes();
    for i in 0..64u16 {
        let s = DemuxSpec {
            remote_port: Some(6000 + i),
            ..spec()
        };
        let (id, ..) = m.create_channel(OwnerTag(1), &s, template(), 2, 256);
        m.activate(id);
    }
    assert!(
        m.demux_mem_bytes() > empty,
        "footprint grows with the tables"
    );
}

#[test]
fn classify_agrees_with_scan_reference() {
    let mut m = NetIoModule::new();
    let (a, ..) = m.create_channel(OwnerTag(1), &spec(), template(), 8, 2048);
    let (b, ..) = m.create_channel(OwnerTag(1), &wildcard_spec(81), template(), 8, 2048);
    m.activate(a);
    m.activate(b);
    for frame in [
        tcp_frame(THEM, US, 5000, 80),
        tcp_frame(THEM, US, 5000, 81),
        tcp_frame(THEM, US, 5001, 80),
        tcp_frame(US, THEM, 80, 5000),
    ] {
        let (fast, fast_instrs, _) = m.classify(&frame);
        let (slow, slow_instrs) = m.classify_scan_reference(&frame);
        assert_eq!(fast, slow);
        assert_eq!(fast_instrs, slow_instrs, "modeled cost must match scan");
    }
}
