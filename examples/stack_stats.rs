//! Live stack statistics — the typed metrics registry at work.
//!
//! ```text
//! cargo run --release --example stack_stats
//! ```
//!
//! Three concurrent bulk transfers run through the user-level library
//! organization while the simulation is stepped in 250 ms slices; each
//! slice takes a [`Snapshot`] of the registry and prints the *rates
//! over the window* — delivery and retransmit rates, and the demux
//! fast-path hit rates (flow-table, keyed 4-tuple, 3-tuple listen) —
//! rather than lifetime totals. When the connections retire, their
//! per-connection and per-channel scopes are filled in, and the
//! registry's channel-stats handoff reports any binding that kept
//! missing the fast path. A mildly lossy seeded [`FaultPlan`] runs
//! underneath, so the fault-injection counters and per-link fault
//! scopes have something to show.

use std::rc::Rc;

use unp::buffers::OwnerTag;
use unp::core::app::{BulkSender, SinkApp, TransferStats};
use unp::core::faults::FaultPlan;
use unp::core::world::{
    build_two_hosts, connect, install_faults, listen_as, sync_monitor_stats, sync_tenant_scopes,
    Network, OrgKind,
};
use unp::kernel::TenantBudget;
use unp::sim::fmt_nanos;
use unp::tcp::TcpConfig;
use unp::trace::{Ctr, Gauge, Hist, Monitor};
use unp::wire::Ipv4Addr;

fn main() {
    let (mut world, mut engine) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let host1_addr = Ipv4Addr::new(10, 0, 0, 2);

    // Streaming conformance monitor with a bounded flight recorder: the
    // `viol`/`rec` columns below mirror its stream counters into the
    // metrics registry each slice.
    unp::trace::reset_stream_stats();
    let monitor = unp::trace::attach(Box::new(Monitor::with_recorder(256)));

    // Three transfers of different sizes and write granularities, all
    // running at once on the same link.
    let transfers = [
        (80u16, 400_000u64, 4096usize),
        (81, 200_000, 1024),
        (82, 100_000, 512),
    ];
    let mut stats = Vec::new();
    for &(port, total, user_packet) in &transfers {
        let st = TransferStats::new_shared();
        let st2 = Rc::clone(&st);
        // Each server listener runs as its own tenant (1..=3), so the
        // per-tenant quota/ring columns below have distinct rows.
        listen_as(
            &mut world,
            1,
            OwnerTag(u64::from(port) - 79),
            port,
            TcpConfig::bulk_transfer(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&st2)))),
        );
        connect(
            &mut world,
            &mut engine,
            0,
            (host1_addr, port),
            TcpConfig::bulk_transfer(),
            Box::new(BulkSender::new(total, user_packet)),
            user_packet,
        );
        stats.push((port, total, st));
    }

    // A gentle seeded impairment: 1% loss with half-rate duplication,
    // corruption, and reordering. TCP absorbs all of it; the counters
    // below show what was injected and recovered from.
    install_faults(&mut world, &mut engine, FaultPlan::lossy(7, 0.01));

    // Budget the server-side tenants so the ring-share column is live:
    // generous for the big transfer, tight for the small one (whose
    // occupancy spikes may actually hit the quota).
    for (tenant, ring_slots) in [(1u64, 256usize), (2, 64), (3, 40)] {
        world.hosts[1].netio.set_tenant_budget(
            OwnerTag(tenant),
            TenantBudget {
                ring_slots,
                tx_credit: 0,
                max_channels: 0,
            },
        );
    }

    // Step the world in slices, printing the deltas of each window:
    // packet and retransmit rates plus the three demux fast-path hit
    // rates (per-channel flow table, keyed 4-tuple map, 3-tuple listen
    // table).
    let pct = |r: Option<f64>| r.map_or("-".into(), |r| format!("{:.1}", r * 100.0));
    println!(
        "{:<10} {:>5} {:>5} {:>9} {:>9} {:>9} {:>7} {:>7} {:>8} {:>9} {:>5} {:>7}",
        "sim time",
        "conns",
        "chans",
        "rx pps",
        "tx pps",
        "rexmit/s",
        "flow %",
        "keyed %",
        "listen %",
        "avg batch",
        "viol",
        "rec occ"
    );
    let slice = 250_000_000; // 250 ms of simulated time
    let mut deadline = slice;
    let mut prev = world.metrics.snapshot(engine.now());
    let mut prev_qdrops: std::collections::BTreeMap<(u16, u64), u64> = Default::default();
    loop {
        engine.run_until(&mut world, deadline);
        sync_monitor_stats(&mut world);
        let snap = world.metrics.snapshot(engine.now());
        let w = snap.window_since(&prev);
        println!(
            "{:<10} {:>5} {:>5} {:>9.0} {:>9.0} {:>9.1} {:>7} {:>7} {:>8} {:>9} {:>5} {:>7}",
            fmt_nanos(snap.time),
            snap.gauge(Gauge::ActiveConnections),
            snap.gauge(Gauge::OpenChannels),
            w.rx_pps(),
            w.tx_pps(),
            w.rexmit_per_sec(),
            pct(w.flow_hit_rate()),
            pct(w.keyed_hit_rate()),
            pct(w.listen_hit_rate()),
            w.hist_mean(Hist::WakeupBatchFrames)
                .map_or("-".into(), |b| format!("{b:.2}")),
            snap.get(Ctr::MonitorViolations),
            snap.gauge(Gauge::RecorderOccupancy),
        );
        // Per-tenant sub-line: quota-drop rate over the window and the
        // tenant's current share of its own ring quota.
        sync_tenant_scopes(&mut world);
        let secs = slice as f64 / 1e9;
        let mut cells = Vec::new();
        for (&(host, tenant), t) in world.metrics.tenants() {
            let before = prev_qdrops
                .insert((host, tenant), t.quota_drops)
                .unwrap_or(0);
            cells.push(format!(
                "h{host}t{tenant} {:>5.1} qd/s ring {:>4}",
                (t.quota_drops - before) as f64 / secs,
                t.ring_share()
                    .map_or("-".into(), |r| format!("{:.0}%", r * 100.0)),
            ));
        }
        if !cells.is_empty() {
            println!("{:<10} {}", "  tenants", cells.join("  "));
        }
        prev = snap;
        let done = stats
            .iter()
            .all(|(_, total, st)| st.borrow().bytes_received == *total);
        if done || deadline > 300_000_000_000 {
            break;
        }
        deadline += slice;
    }
    // Let the close handshakes and 2MSL timers drain so every connection
    // retires into the closed totals.
    engine.run(&mut world, u64::MAX);
    println!();

    for (port, total, st) in &stats {
        let s = st.borrow();
        println!(
            "transfer :{port}  {} / {} bytes, {:.2} Mb/s",
            s.bytes_received,
            total,
            s.throughput_bps().unwrap_or(0.0) / 1e6
        );
        assert_eq!(s.bytes_received, *total, "transfer on :{port} incomplete");
    }
    println!();

    // Closed connections: every one is in its host's totals; the last
    // few are also kept whole, in the order they closed.
    println!("-- closed connections: per-host totals, then the most recent --");
    println!(
        "{:<22} {:>8} {:>8} {:>9} {:>7} {:>9} {:>9} {:>10}",
        "conn", "segs_out", "segs_in", "to_app", "rexmit", "flow_hit", "scan_fb", "srtt"
    );
    let totals = world.metrics.closed();
    let totals = totals.map(|(host, c)| (format!("h{host}: {} closed", c.count), &c.sum));
    let recent = world.metrics.conns().map(|(k, c)| (k.to_string(), c));
    for (name, c) in totals.chain(recent) {
        println!(
            "{name:<22} {:>8} {:>8} {:>9} {:>7} {:>9} {:>9} {:>10}",
            c.segs_out,
            c.segs_in,
            c.bytes_to_app,
            c.bytes_rexmit,
            c.flow_hits,
            c.scan_fallbacks,
            c.srtt.map_or("-".into(), fmt_nanos),
        );
    }
    println!();

    // The kernel's per-channel counters: the recent connections again,
    // by the (host, channel id) each ran over.
    println!("-- per-channel stats --");
    for ((host, id), ch) in world.metrics.channels() {
        println!(
            "h{host} chan {id:<3} delivered {:>6}  batched {:>6}  flow hits {:>6}  scan fallbacks {:>4}",
            ch.rx_delivered, ch.rx_batched, ch.flow_hits, ch.scan_fallbacks
        );
    }
    println!();

    // Per-tenant accounting: what each tenant received, sent, and had
    // charged against its quotas.
    sync_tenant_scopes(&mut world);
    println!("-- per-tenant stats --");
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>6}",
        "tenant", "rx_frames", "tx_frames", "qdrops", "tx_rej", "ring", "chans"
    );
    for (&(host, tenant), t) in world.metrics.tenants() {
        println!(
            "h{host} t{tenant:<6} {:>9} {:>9} {:>7} {:>7} {:>9} {:>6}",
            t.rx_delivered,
            t.tx_frames,
            t.quota_drops,
            t.tx_rejections,
            format!(
                "{}/{}",
                t.ring_slots,
                if t.ring_quota == 0 {
                    "inf".into()
                } else {
                    t.ring_quota.to_string()
                }
            ),
            t.open_channels,
        );
    }
    println!();

    // The conformance monitor's verdict over the whole run: what each
    // streaming checker examined, and zero violations on this conformant
    // workload (faults and all — loss is legal, protocol lies are not).
    sync_monitor_stats(&mut world);
    let mon = unp::trace::detach_as::<Monitor>(monitor).expect("monitor still attached");
    let c = mon.checked();
    println!("-- conformance monitor --");
    println!(
        "violations {} (metrics mirror {})  recorder {} records held",
        mon.total_violations(),
        world.metrics.get(Ctr::MonitorViolations),
        mon.recorder_occupancy(),
    );
    println!(
        "checked: {} acks, {} transitions, {} rexmits, {} ring, {} pool, {} classify, {} quota",
        c.tcp_acks,
        c.transitions,
        c.rexmits,
        c.ring_events,
        c.pool_events,
        c.demux_classifies,
        c.quota_drops,
    );
    for v in mon.violations().iter().take(5) {
        println!("  {}", v.line());
    }
    println!();

    // Fault injection: what the plan did to the wire, and what the stack
    // noticed (a corrupted frame only counts as discarded once a
    // checksum actually catches it).
    println!("-- fault injection --");
    println!(
        "injected: {} dropped, {} duplicated, {} reordered, {} corrupted, {} outage-dropped",
        world.metrics.get(Ctr::FaultDrops),
        world.metrics.get(Ctr::FaultDups),
        world.metrics.get(Ctr::FaultReorders),
        world.metrics.get(Ctr::FaultCorrupts),
        world.metrics.get(Ctr::FaultOutageDrops),
    );
    let closed = world.metrics.closed();
    let rexmit: u64 = closed.map(|(_, c)| c.sum.bytes_rexmit).sum();
    println!(
        "recovered: {} corrupt frames discarded by checksum, {} bytes retransmitted",
        world.metrics.get(Ctr::FrameCorruptDiscards),
        rexmit,
    );
    for ((from, to), l) in world.metrics.links() {
        println!(
            "link h{from}->h{to}: drops {} dups {} reorders {} corrupts {} outage {}",
            l.drops, l.dups, l.reorders, l.corrupts, l.outage_drops
        );
    }
    println!();

    // The registry handoff: bindings whose deliveries kept missing the
    // flow-table fast path would be listed here.
    for h in [0usize, 1] {
        let reg = &world.hosts[h].registry;
        println!(
            "h{h} registry: {} binding reports, {} flagged as missing the fast path",
            reg.report_count(),
            reg.flagged_count()
        );
        for b in reg.flagged_bindings() {
            println!(
                "  :{} <-> {:?}:{}  scan fallbacks {} > flow hits {}",
                b.local_port, b.remote.0, b.remote.1, b.stats.scan_fallbacks, b.stats.flow_hits
            );
        }
    }
}
