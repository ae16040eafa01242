//! Experiment runners that regenerate the paper's evaluation (§4).
//!
//! Each function builds a fresh two-host world, runs the workload on the
//! virtual clock, and returns the measurement. The `unp-bench` crate's
//! `repro-tables` binary formats these into the paper's tables;
//! `EXPERIMENTS.md` records paper-vs-measured values.

use std::cell::RefCell;
use std::rc::Rc;

use unp_buffers::OwnerTag;
use unp_kernel::TenantBudget;
use unp_sim::{CostModel, Engine, LinkParams, Nanos, MILLIS};
use unp_tcp::TcpConfig;
use unp_trace::causal::{CausalGraph, Loss};
use unp_trace::Ctr;
use unp_wire::Ipv4Addr;

use crate::app::{BulkSender, EchoApp, PingPongApp, SinkApp, TransferStats};
use crate::faults::{ByzantineKind, ByzantineSchedule, FaultPlan};
use crate::world::{
    build_hosts, build_two_hosts, connect, connect_as, crash_tenant, install_faults, listen,
    listen_as, Ablation, Eng, Network, OrgKind, World,
};

const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 80);

/// The Table-2 workload: host 0 streams `total` bytes to a verifying sink
/// on host 1 in `write_size`-byte application writes. Every bulk-transfer
/// measurement in the repo — the tables, the ablations, the `BENCH_*`
/// reports, the journal tests — is this one definition with a different
/// `prepare` hook.
pub struct Transfer {
    pub network: Network,
    pub org: OrgKind,
    pub cfg: TcpConfig,
    /// The paper's "user packet size": bytes per application write.
    pub write_size: usize,
    pub total: u64,
}

impl Transfer {
    /// The transfer as the paper measured it. Its workload puts one
    /// network packet on the wire per user packet below the link MTU
    /// ("user packet sizes beyond the link-imposed maximum will require
    /// multiple network packet transmissions for each packet"), so the MSS
    /// is capped at the write size and the segment stream matches.
    pub fn table2(network: Network, org: OrgKind, user_packet: usize, total: u64) -> Transfer {
        let mut cfg = TcpConfig::bulk_transfer();
        cfg.mss_local = user_packet.min(1460);
        Transfer {
            network,
            org,
            cfg,
            write_size: user_packet,
            total,
        }
    }

    /// Builds the two-host world, queues the listen and the connect, lets
    /// `prepare` adjust the world before the first event runs (fault plan,
    /// ablation switch, pool policy, counter resets), runs to completion
    /// and returns the drained world with the sink's measurements. Arm a
    /// journal or attach observers *before* calling, so frame ids and the
    /// clock start from zero. Panics if the transfer does not complete.
    pub fn run(self, prepare: impl FnOnce(&mut World, &mut Eng)) -> (World, TransferStats) {
        let (mut w, mut eng) = build_two_hosts(self.network, self.org);
        let stats = TransferStats::new_shared();
        let st = Rc::clone(&stats);
        listen(
            &mut w,
            1,
            80,
            self.cfg.clone(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)))),
        );
        connect(
            &mut w,
            &mut eng,
            0,
            SERVER,
            self.cfg,
            Box::new(BulkSender::new(self.total, self.write_size)),
            self.write_size,
        );
        prepare(&mut w, &mut eng);
        assert!(eng.run(&mut w, 100_000_000), "transfer did not drain");
        let stats = stats.take();
        assert_eq!(stats.bytes_received, self.total, "transfer incomplete");
        (w, stats)
    }
}

/// Payload throughput of a completed transfer in Mb/s.
pub fn mbps(stats: &TransferStats) -> f64 {
    stats.throughput_bps().expect("bytes moved") / 1e6
}

/// Table 2: unidirectional TCP throughput in Mb/s for `user_packet`-byte
/// application writes.
pub fn throughput_mbps(network: Network, org: OrgKind, user_packet: usize, total: u64) -> f64 {
    mbps(
        &Transfer::table2(network, org, user_packet, total)
            .run(|_, _| {})
            .1,
    )
}

/// Table 3: mean TCP round-trip time in milliseconds for `size`-byte
/// exchanges ("the first application sends data to the second, which in
/// turn, sends the same amount of data back"), setup excluded.
pub fn latency_ms(network: Network, org: OrgKind, size: usize, rounds: usize) -> f64 {
    let (mut w, mut eng) = build_two_hosts(network, org);
    let stats = TransferStats::new_shared();
    // The stock stack configuration: delayed ACKs let the echo piggyback
    // its acknowledgment on the reply, exactly as the paper's ping-pong
    // traffic would behave; Nagle never delays because each ping is sent
    // with no data outstanding.
    let cfg = TcpConfig::default();
    listen(&mut w, 1, 80, cfg.clone(), Box::new(|| Box::new(EchoApp)));
    connect(
        &mut w,
        &mut eng,
        0,
        SERVER,
        cfg,
        Box::new(PingPongApp::new(size, rounds, Rc::clone(&stats))),
        size,
    );
    let drained = eng.run(&mut w, 50_000_000);
    assert!(drained, "latency run did not drain");
    let s = stats.borrow();
    assert_eq!(s.rtts.len(), rounds, "rounds incomplete");
    s.mean_rtt().expect("rtts") / 1e6
}

/// Table 4: connection setup time in milliseconds — from the application's
/// connect call to its `Connected` upcall, "assuming the passive peer was
/// already listening".
pub fn setup_ms(network: Network, org: OrgKind) -> f64 {
    let (mut w, mut eng) = build_two_hosts(network, org);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    listen(
        &mut w,
        1,
        80,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)).without_verify())),
    );
    let client_stats = TransferStats::new_shared();
    // A ping-pong app with zero rounds: records connected_at, closes.
    connect(
        &mut w,
        &mut eng,
        0,
        SERVER,
        TcpConfig::default(),
        Box::new(PingPongApp::new(1, 0, Rc::clone(&client_stats))),
        1,
    );
    let drained = eng.run(&mut w, 10_000_000);
    assert!(drained, "setup run did not drain");
    let connected_at = client_stats
        .borrow()
        .connected_at
        .expect("connection must establish");
    connected_at as f64 / 1e6
}

/// The five-component breakdown of the user-library setup cost on
/// Ethernet, mirroring the paper's itemization of its 11.9 ms. Returns
/// (label, milliseconds) pairs, model-derived.
pub fn setup_breakdown(costs: &CostModel) -> Vec<(&'static str, f64)> {
    let ms = |n: Nanos| n as f64 / MILLIS as f64;
    // Remote+back: the registry's per-packet device operations for the
    // three-way handshake (2 local sends + 1 local receive on the client,
    // plus the peer's 2 ops awaited synchronously) + protocol processing.
    let remote_and_back = 3 * costs.registry_pkt_op
        + 2 * (costs.registry_pkt_op + costs.tcp_per_segment + costs.ip_per_packet)
        + 2 * costs.tcp_per_segment;
    vec![
        ("remote peer and back", ms(remote_and_back)),
        (
            "non-overlapped outbound processing",
            ms(costs.registry_connect_processing),
        ),
        ("user channel setup", ms(costs.channel_setup)),
        ("application to server and back", ms(2 * costs.registry_rpc)),
        ("TCP state transfer to user level", ms(costs.state_transfer)),
    ]
}

/// Table 1: the raw-mechanism micro-benchmark. Two applications exchange
/// maximum-sized Ethernet packets "without using any higher-level
/// protocols", exercising the shared ring, the library↔kernel signaling,
/// and template checking. Returns `(mechanism_mbps, standalone_mbps)` —
/// the paper compares against "the maximum achievable using the raw
/// hardware with a standalone program and no operating system".
pub fn table1_mechanisms(network: Network) -> (f64, f64) {
    let params = match network {
        Network::Ethernet => LinkParams::ethernet_10mbps(),
        Network::An1 => LinkParams::an1_100mbps(),
    };
    let costs = CostModel::calibrated_1993();
    let payload = params.mtu; // max-sized packets, no protocol headers
    let link_hdr = 14;
    let standalone = params.saturation_payload_bps(payload, link_hdr) / 1e6;

    // A bespoke two-stage pipeline on the virtual clock: sender app →
    // (library call, fast trap, template check, ring op, device) → wire →
    // receiver (interrupt, device, demux, ring, batched signal, library).
    struct Raw {
        tx_cpu: unp_sim::Cpu,
        rx_cpu: unp_sim::Cpu,
        link: unp_netdev::Link,
        delivered: u64,
        first: Option<Nanos>,
        last: Option<Nanos>,
        notify_pending: bool,
    }
    let mut eng: Engine<Raw> = Engine::new();
    let mut raw = Raw {
        tx_cpu: unp_sim::Cpu::new(),
        rx_cpu: unp_sim::Cpu::new(),
        link: unp_netdev::Link::new(params),
        delivered: 0,
        first: None,
        last: None,
        notify_pending: false,
    };
    let frames: u64 = 400;
    let frame_len = payload + link_hdr;
    let is_an1 = network == Network::An1;

    fn send_one(
        r: &mut Raw,
        eng: &mut Engine<Raw>,
        costs: &CostModel,
        frame_len: usize,
        payload: usize,
        is_an1: bool,
        remaining: u64,
    ) {
        if remaining == 0 {
            return;
        }
        let dev = if is_an1 {
            costs.dma_setup
        } else {
            costs.pio(frame_len)
        };
        let tx_cost =
            costs.library_call + costs.fast_trap + costs.template_check + costs.ring_op + dev;
        let done = r.tx_cpu.charge(eng.now(), tx_cost);
        let costs2 = costs.clone();
        let costs3 = costs.clone();
        eng.at(done, move |r: &mut Raw, eng| {
            let (_s, arrival) = r
                .link
                .reserve(unp_netdev::StationId(0), eng.now(), frame_len);
            // Receiver side.
            eng.at(arrival, move |r: &mut Raw, eng| {
                let dev = if is_an1 { 0 } else { costs2.pio(frame_len) };
                let demux = if is_an1 {
                    costs2.bqi_demux
                } else {
                    costs2.filter_run(14)
                };
                let mut rx_cost = costs2.interrupt + dev + demux + costs2.ring_op;
                if !r.notify_pending {
                    r.notify_pending = true;
                    rx_cost += costs2.semaphore_signal + costs2.thread_switch;
                }
                let done = r.rx_cpu.charge(eng.now(), rx_cost + costs2.library_call);
                eng.at(done, move |r: &mut Raw, eng| {
                    r.notify_pending = false;
                    r.delivered += payload as u64;
                    r.first.get_or_insert(eng.now());
                    r.last = Some(eng.now());
                });
            });
            // Pipeline the next frame immediately.
            send_one(r, eng, &costs3, frame_len, payload, is_an1, remaining - 1);
        });
    }
    send_one(
        &mut raw, &mut eng, &costs, frame_len, payload, is_an1, frames,
    );
    eng.run(&mut raw, 100_000_000);
    let (first, last) = (raw.first.expect("ran"), raw.last.expect("ran"));
    let mechanism =
        (raw.delivered - payload as u64) as f64 * 8.0 / ((last - first) as f64 / 1e9) / 1e6;
    (mechanism, standalone)
}

/// Table 5: per-packet demultiplexing cost in microseconds —
/// `(software_us, hardware_us)`. The software figure charges the actual
/// generated BPF program for a connected TCP endpoint; the hardware figure
/// is the AN1's inherent BQI device-management cost. "Copy and DMA costs
/// are not included."
pub fn table5_demux_us() -> (f64, f64) {
    let costs = CostModel::calibrated_1993();
    let spec = unp_filter::programs::DemuxSpec {
        link_header_len: 14,
        protocol: unp_wire::IpProtocol::Tcp,
        local_ip: Ipv4Addr::new(10, 0, 0, 2),
        local_port: 80,
        remote_ip: Some(Ipv4Addr::new(10, 0, 0, 1)),
        remote_port: Some(4000),
    };
    let prog = unp_filter::programs::bpf_demux(&spec);
    use unp_filter::Demux;
    let sw = costs.filter_run(prog.instruction_count()) as f64 / 1e3;
    let hw = costs.bqi_demux as f64 / 1e3;
    (sw, hw)
}

// ---------------------------------------------------------------------
// Ablations: what each design choice buys (DESIGN.md §4)
// ---------------------------------------------------------------------

/// Throughput of the user-level library with `ablation` applied (`None`:
/// the design as built).
pub fn ablation_throughput(
    network: Network,
    user_packet: usize,
    total: u64,
    ablation: Option<Ablation>,
) -> f64 {
    let transfer = Transfer::table2(network, OrgKind::UserLibrary, user_packet, total);
    let (_, stats) = transfer.run(|w, _| w.ablation = ablation);
    mbps(&stats)
}

/// Nagle/delayed-ACK ablation on a small-write workload (the
/// write-write-read RPC pathology is demonstrated in the
/// `app_specific_tuning` example; this measures bulk small-write cost).
pub fn ablation_nagle(total: u64, nagle: bool) -> (f64, u64) {
    let mut cfg = TcpConfig::bulk_transfer();
    cfg.nagle = nagle;
    let transfer = Transfer {
        network: Network::Ethernet,
        org: OrgKind::UserLibrary,
        cfg,
        write_size: 128,
        total,
    };
    let (w, stats) = transfer.run(|_, _| {});
    (mbps(&stats), w.metrics.get(Ctr::FramesSent))
}

/// The request/response-vs-TCP crossover (paper §1.1: specialized
/// protocols "achieve remarkably low latencies \[but\] do not always deliver
/// the highest throughput"). Models `rrp` as one outstanding `size`-byte
/// transaction per round trip over the same per-message costs as the
/// library's data path, and compares with the measured TCP numbers.
/// Returns (rrp_latency_ms, tcp_latency_ms, rrp_tput_mbps, tcp_tput_mbps).
pub fn ablation_rrp_vs_tcp(size: usize) -> (f64, f64, f64, f64) {
    let costs = CostModel::calibrated_1993();
    let params = LinkParams::ethernet_10mbps();
    // One rrp message each way: library call + kernel entry + template +
    // device + wire + interrupt + demux + deliver-up.
    let one_way = |bytes: usize| -> Nanos {
        costs.library_call
            + costs.fast_trap
            + costs.template_check
            + costs.ring_op
            + costs.pio(bytes + 22)
            + params.tx_time(bytes + 22)
            + costs.interrupt
            + costs.pio(bytes + 22)
            + costs.filter_run(14)
            + costs.ring_op
            + costs.semaphore_signal
            + costs.thread_switch
            + costs.library_call
    };
    let rtt = one_way(size) + one_way(size); // request out, reply back
    let rrp_lat_ms = rtt as f64 / 1e6;
    // Throughput with one outstanding request of `size` bytes per RTT
    // (the reply is a small ack-sized message).
    let cycle = one_way(size) + one_way(16);
    let rrp_tput = size as f64 * 8.0 / (cycle as f64 / 1e9) / 1e6;
    let tcp_lat = latency_ms(Network::Ethernet, OrgKind::UserLibrary, size, 10);
    let tcp_tput = throughput_mbps(Network::Ethernet, OrgKind::UserLibrary, 4096, 500_000);
    (rrp_lat_ms, tcp_lat, rrp_tput, tcp_tput)
}

/// Congestion-control ablation on the byte-accurate loopback harness with
/// real loss: transfers `total` bytes at `loss` rate under the given
/// algorithm and reports `(virtual_completion_ms, segments_carried,
/// bytes_retransmitted)`. Run by the `ablations` report; shows what
/// Tahoe/Reno buy over the paper-era uncontrolled stack once links lose
/// packets (on the paper's clean LANs they buy nothing, which is why the
/// default is off).
pub fn ablation_congestion(
    total: usize,
    loss: f64,
    seed: u64,
    congestion: unp_tcp::CongestionControl,
) -> (f64, u64, u64) {
    use unp_tcp::loopback::{ChannelModel, Loopback, Side};
    let cfg = TcpConfig {
        congestion,
        ..TcpConfig::bulk_transfer()
    };
    let chan = ChannelModel {
        jitter: 0,
        duplicate: 0.0,
        corrupt: 0.0,
        ..ChannelModel::lossy(seed, loss)
    };
    let mut lb = Loopback::new(cfg.clone(), cfg, chan);
    let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
    lb.send(Side::A, &data);
    assert!(
        lb.run_until(5_000_000, |lb| lb.received(Side::B).len() == total),
        "transfer must complete under loss"
    );
    assert_eq!(lb.received(Side::B), &data[..], "stream integrity");
    let stats = lb.tcb(Side::A).expect("conn live").stats();
    (
        lb.now() as f64 / 1e6,
        lb.segments_carried,
        stats.bytes_rexmit,
    )
}

// ---------------------------------------------------------------------
// Multi-tenant isolation: innocents vs one byzantine tenant
// ---------------------------------------------------------------------

/// Innocent tenants sharing the client host with the hostile one.
pub const ISOLATION_INNOCENTS: usize = 3;
/// Bytes each innocent tenant streams.
pub const ISOLATION_XFER: u64 = 150_000;
/// The hostile tenant id.
pub const ISOLATION_HOSTILE: u64 = 66;
/// Fault-plan seed (the byzantine schedules draw no randomness, but the
/// plan carries it).
pub const ISOLATION_SEED: u64 = 21;
/// Byzantine activity window: opens once all connections are up (setup
/// rides the deliberately slow registry path and contends with data
/// transfer for the host CPU, so establishment takes tens of
/// milliseconds), closes when the hostile tenant is crashed.
const BYZ_START: u64 = 160_000_000;
const CRASH_AT: u64 = 320_000_000;

/// What one run of the isolation scenario measured.
pub struct IsolationRun {
    /// Per-innocent (throughput bps, completion instant ns), server side.
    pub innocents: Vec<(f64, u64)>,
    /// p99 of the innocent streams' end-to-end app-deliver latency (ns),
    /// from the causal graph's receive copies on their server-side channels.
    pub p99_ns: u64,
    /// Kernel-counted quota drops / transmit-credit rejections.
    pub quota_drops: u64,
    pub tx_rejections: u64,
    /// Tenants named by `Loss::QuotaExceeded` in the causal graph.
    pub quota_loss_tenants: Vec<u64>,
    /// [`World::leaks`] after the hostile tenant's crash and the drain.
    pub leaks: Vec<String>,
}

/// Runs the isolation scenario once, journal recording. Three innocent
/// tenants on host 0 stream to the server while a fourth tenant holds an
/// active connection open (the transmit-flood / capability-storm vehicle)
/// and a listener the server feeds (the ring-flood victim: its consumer
/// never wakes during the window). With `hostile` the tenant's budgets,
/// the byzantine schedules and the wedged crash are armed; without it the
/// same topology, traffic and crash instant run unimpaired, which is the
/// baseline the isolation envelope is measured against. Panics if an
/// innocent stream is not byte-exact and cleanly closed.
pub fn isolation_scenario(hostile: bool) -> (World, IsolationRun) {
    unp_trace::journal_start();
    let (mut w, mut eng) = build_hosts(2, Network::Ethernet, OrgKind::UserLibrary);
    let server_ip = w.hosts[1].ip;
    let client_ip = w.hosts[0].ip;
    let tenant = OwnerTag(ISOLATION_HOSTILE);

    // Innocent connects are staggered so the handshakes don't all contend
    // for the registry at once.
    let mut sinks = Vec::new();
    for i in 0..ISOLATION_INNOCENTS {
        let st = TransferStats::new_shared();
        let sh = Rc::clone(&st);
        let port = 81 + i as u16;
        listen(
            &mut w,
            1,
            port,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&sh)))),
        );
        eng.at(i as u64 * 10_000_000 + 1, move |w, eng| {
            connect_as(
                w,
                eng,
                0,
                Some(OwnerTag(11 + i as u64)),
                (server_ip, port),
                TcpConfig::default(),
                Box::new(BulkSender::new(ISOLATION_XFER, 4096)),
                4096,
            );
        });
        sinks.push(st);
    }

    let unverified_sink = || {
        let st = TransferStats::new_shared();
        Box::new(move || {
            Box::new(SinkApp::new(Rc::clone(&st)).without_verify()) as Box<dyn crate::AppLogic>
        })
    };
    listen_as(
        &mut w,
        0,
        tenant,
        90,
        TcpConfig::default(),
        unverified_sink(),
    )
    .expect("a fresh world's port 90 is free");
    listen(&mut w, 1, 80, TcpConfig::default(), unverified_sink());
    eng.at(31_000_000, move |w, eng| {
        connect_as(
            w,
            eng,
            0,
            Some(tenant),
            (server_ip, 80),
            TcpConfig::default(),
            Box::new(BulkSender::new(30_000, 4096).without_close()),
            4096,
        );
    });
    eng.at(36_000_000, move |w, eng| {
        connect_as(
            w,
            eng,
            1,
            None,
            (client_ip, 90),
            TcpConfig::default(),
            Box::new(BulkSender::new(400_000, 4096).without_close()),
            4096,
        );
    });

    let mut plan = FaultPlan::clean(ISOLATION_SEED);
    if hostile {
        w.hosts[0].netio.set_tenant_budget(
            tenant,
            TenantBudget {
                ring_slots: 8,
                tx_credit: 40,
                max_channels: 4,
            },
        );
        for kind in [
            ByzantineKind::RingFlood,
            ByzantineKind::TransmitFlood {
                burst: 12,
                period: 2_000_000,
            },
            ByzantineKind::CapabilityStorm { period: 3_000_000 },
            ByzantineKind::StaleBqi { period: 5_000_000 },
            ByzantineKind::WedgedRegistry,
        ] {
            plan.byzantine.push(ByzantineSchedule {
                host: 0,
                tenant: ISOLATION_HOSTILE,
                kind,
                start: BYZ_START,
                end: CRASH_AT,
            });
        }
    }
    install_faults(&mut w, &mut eng, plan);

    // Server-side channel ids of the innocent streams, harvested once
    // everything is established, to scope the latency profile.
    let chan_ids: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
    let cm = Rc::clone(&chan_ids);
    eng.at(BYZ_START - 1_000_000, move |w, _eng| {
        let mut ids: Vec<u32> = w.hosts[1]
            .conns
            .values()
            .filter(|c| (81..81 + ISOLATION_INNOCENTS as u16).contains(&c.tcb.local().1))
            .filter_map(|c| c.chan.as_ref().map(|ci| ci.id.0))
            .collect();
        ids.sort_unstable();
        *cm.borrow_mut() = ids;
    });
    // Both runs crash the hostile tenant at the same instant so the
    // workloads stay comparable (in the baseline it dies politely — no
    // wedge schedule — and its held-open streams are inherited).
    eng.at(CRASH_AT, move |w, eng| crash_tenant(w, eng, 0, tenant));

    assert!(
        eng.run(&mut w, 2_500_000_000),
        "isolation run did not drain"
    );
    let records = unp_trace::journal_stop();
    let innocent_chans = chan_ids.take();
    assert_eq!(
        innocent_chans.len(),
        ISOLATION_INNOCENTS,
        "innocent connections not all established before the window"
    );
    for (i, st) in sinks.iter().enumerate() {
        let s = st.borrow();
        assert_eq!(s.bytes_received, ISOLATION_XFER, "innocent {i} lost bytes");
        assert!(s.peer_closed && !s.reset, "innocent {i} stream failed");
    }

    let graph = CausalGraph::build(&records);
    let mut lat: Vec<u64> = (graph.rx())
        .filter(|t| {
            t.is_complete()
                && t.host == Some(1)
                && t.channel.is_some_and(|c| innocent_chans.contains(&c))
        })
        .filter_map(|t| t.end_to_end())
        .collect();
    lat.sort_unstable();
    assert!(!lat.is_empty(), "no innocent deliveries profiled");
    let p99_ns = lat[((lat.len() - 1) as f64 * 0.99).round() as usize];

    let quota_loss_tenants = graph
        .losses()
        .filter_map(|(_, l)| match l {
            Loss::QuotaExceeded { tenant, .. } => Some(tenant),
            _ => None,
        })
        .collect();

    let run = IsolationRun {
        innocents: sinks
            .iter()
            .map(|s| {
                let s = s.borrow();
                (
                    s.throughput_bps().expect("innocent throughput"),
                    s.last_byte_at.expect("innocent completion"),
                )
            })
            .collect(),
        p99_ns,
        quota_drops: w.tenants().map(|(_, _, t)| t.quota_drops).sum(),
        tx_rejections: w.tenants().map(|(_, _, t)| t.tx_rejections).sum(),
        quota_loss_tenants,
        leaks: w.leaks(),
    };
    (w, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_orderings_match_paper_shape() {
        // Small transfer to keep the test fast; shapes hold regardless.
        let t = |org| throughput_mbps(Network::Ethernet, org, 4096, 300_000);
        let ultrix = t(OrgKind::InKernel);
        let ours = t(OrgKind::UserLibrary);
        let mach = t(OrgKind::SingleServer);
        assert!(
            ours > mach,
            "library must beat Mach/UX: {ours:.2} vs {mach:.2}"
        );
        assert!(
            ultrix > ours,
            "Ultrix beats the library on Ethernet: {ultrix:.2} vs {ours:.2}"
        );
    }

    #[test]
    fn an1_small_packets_favor_the_library() {
        let ultrix = throughput_mbps(Network::An1, OrgKind::InKernel, 512, 300_000);
        let ours = throughput_mbps(Network::An1, OrgKind::UserLibrary, 512, 300_000);
        assert!(
            ours > ultrix,
            "copy elimination should win at 512 B on AN1: {ours:.2} vs {ultrix:.2}"
        );
    }

    #[test]
    fn latency_ordering() {
        let l = |org| latency_ms(Network::Ethernet, org, 512, 8);
        let ultrix = l(OrgKind::InKernel);
        let ours = l(OrgKind::UserLibrary);
        let mach = l(OrgKind::SingleServer);
        assert!(ultrix < ours && ours < mach, "{ultrix} {ours} {mach}");
    }

    #[test]
    fn setup_ordering() {
        let ultrix = setup_ms(Network::Ethernet, OrgKind::InKernel);
        let mach = setup_ms(Network::Ethernet, OrgKind::SingleServer);
        let ours = setup_ms(Network::Ethernet, OrgKind::UserLibrary);
        assert!(
            ultrix < mach && mach < ours,
            "setup ordering: {ultrix:.2} {mach:.2} {ours:.2}"
        );
        // Paper: ours ≈ 11.9 ms on Ethernet; stay in the regime.
        assert!((6.0..25.0).contains(&ours), "ours setup {ours:.2} ms");
    }

    #[test]
    fn table1_modest_overhead() {
        let (mech, standalone) = table1_mechanisms(Network::Ethernet);
        assert!(mech < standalone);
        assert!(
            mech > standalone * 0.5,
            "mechanisms should cost modestly: {mech:.2} vs {standalone:.2}"
        );
    }

    #[test]
    fn table5_costs_close() {
        let (sw, hw) = table5_demux_us();
        assert!((sw - hw).abs() < 15.0, "sw {sw:.1} hw {hw:.1}");
        assert!(sw > 30.0 && sw < 80.0);
    }

    #[test]
    fn breakdown_sums_near_total() {
        let costs = CostModel::calibrated_1993();
        let parts = setup_breakdown(&costs);
        let sum: f64 = parts.iter().map(|(_, v)| v).sum();
        assert!((8.0..16.0).contains(&sum), "breakdown sum {sum:.2}");
    }
}
