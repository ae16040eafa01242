//! `top` for the user-level stack — windowed telemetry plus a post-run
//! critical-path latency profile.
//!
//! ```text
//! cargo run --release --example unp_top
//! cargo run --release --example unp_top -- --redraw   # ANSI live redraw
//! ```
//!
//! Three concurrent bulk transfers run through the user-level library
//! organization over a mildly lossy link. The simulation is stepped in
//! 100 ms slices; each slice takes a [`Snapshot`] of the metrics
//! registry and prints the *rates over the window* — packets per
//! second, retransmit rate, flow-table hit rate, ring occupancy — the
//! way `top` shows deltas rather than lifetime totals. When the
//! transfers retire it prints what the registry kept — closed-connection
//! totals per host and the most recent closes, per-channel and per-tenant
//! counters, and what the fault plan injected on each link — then joins
//! the recorded packet journal into the causal graph and prints its
//! receive copies' end-to-end latency decomposition per stage, followed
//! by folded flamegraph lines.

use std::rc::Rc;

use unp::buffers::OwnerTag;
use unp::core::app::{BulkSender, SinkApp, TransferStats};
use unp::core::faults::FaultPlan;
use unp::core::world::{build_two_hosts, connect, install_faults, listen_as, Network, OrgKind};
use unp::kernel::TenantBudget;
use unp::sim::fmt_nanos;
use unp::tcp::TcpConfig;
use unp::trace::{observe, CausalGraph, Ctr, Hist, Monitor, PathOutcome, Stage};
use unp::wire::Ipv4Addr;

fn main() {
    let redraw = std::env::args().any(|a| a == "--redraw");

    let (mut world, mut engine) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let host1_addr = Ipv4Addr::new(10, 0, 0, 2);

    // Record the journal from the very first SYN so the causal graph sees
    // every frame's full path.
    unp::trace::journal_start();

    // Conformance monitor with a bounded flight recorder rides the same
    // observer pipeline: the `viol`/`rec` columns below read it in place
    // each slice.
    let monitor = unp::trace::attach(Box::new(Monitor::with_recorder(256)));

    let transfers = [
        (80u16, 400_000u64, 4096usize),
        (81, 200_000, 1024),
        (82, 100_000, 512),
    ];
    let mut stats = Vec::new();
    for &(port, total, user_packet) in &transfers {
        let st = TransferStats::new_shared();
        let st2 = Rc::clone(&st);
        // One server-side tenant per listener, so the per-tenant columns
        // below show three distinct budgeted rows.
        listen_as(
            &mut world,
            1,
            OwnerTag(u64::from(port) - 79),
            port,
            TcpConfig::bulk_transfer(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&st2)))),
        )
        .expect("each transfer listens on its own port");
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

    // 1% seeded loss (with half-rate duplication, corruption and
    // reordering) so the retransmit columns have something to show.
    install_faults(&mut world, &mut engine, FaultPlan::lossy(7, 0.01));

    // Ring-slot budgets for the server-side tenants, so the quota-drop
    // and ring-share columns are live.
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

    let header = format!(
        "{:<9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8} {:>9} {:>5} {:>5} {:>7}",
        "sim time",
        "rx pps",
        "tx pps",
        "rexmit/s",
        "rex %",
        "flow %",
        "keyed %",
        "tbl f/l",
        "ring avg",
        "batch avg",
        "conns",
        "viol",
        "rec occ"
    );
    if !redraw {
        println!("{header}");
    }

    let slice = 100_000_000; // 100 ms of simulated time per window
    let mut deadline = slice;
    let mut prev = world.metrics.snapshot(engine.now());
    let mut prev_qdrops: std::collections::BTreeMap<(usize, u64), u64> = Default::default();
    let mut rows: Vec<String> = Vec::new();
    loop {
        engine.run_until(&mut world, deadline);
        let snap = world.metrics.snapshot(engine.now());
        let w = snap.window_since(&prev);
        // Levels are read where they are kept: the kernel's demux tables,
        // the library's connections, the attached monitor.
        let hosts = &world.hosts;
        let flow_tbl: usize = hosts.iter().map(|h| h.netio.flow_table_len()).sum();
        let listen_tbl: usize = hosts.iter().map(|h| h.netio.listen_table_len()).sum();
        let conns: usize = hosts.iter().map(|h| h.conns.len()).sum();
        let (viol, rec_occ) = observe(&monitor, |m: &Monitor| {
            (m.total_violations(), m.recorder_occupancy())
        })
        .expect("monitor still attached");
        let mut row = format!(
            "{:<9} {:>9.0} {:>9.0} {:>9.1} {:>7} {:>7} {:>7} {:>7} {:>8} {:>9} {:>5} {:>5} {:>7}",
            fmt_nanos(snap.time),
            w.per_sec(Ctr::FramesReceived),
            w.per_sec(Ctr::FramesSent),
            w.per_sec(Ctr::TcpRexmitSegs),
            w.rexmit_share()
                .map_or("-".into(), |r| format!("{:.1}", r * 100.0)),
            w.flow_hit_rate()
                .map_or("-".into(), |r| format!("{:.1}", r * 100.0)),
            w.keyed_hit_rate()
                .map_or("-".into(), |r| format!("{:.1}", r * 100.0)),
            format!("{flow_tbl}/{listen_tbl}"),
            w.hist_mean(Hist::RingDepth)
                .map_or("-".into(), |d| format!("{d:.2}")),
            w.hist_mean(Hist::WakeupBatchFrames)
                .map_or("-".into(), |b| format!("{b:.2}")),
            conns,
            viol,
            rec_occ,
        );
        // Per-tenant sub-line: windowed quota-drop rate and current
        // share of each budgeted tenant's ring quota.
        let secs = slice as f64 / 1e9;
        let mut cells = Vec::new();
        for (host, tenant, t) in world.tenants() {
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
            row.push_str(&format!("\n{:<9} {}", "  tenants", cells.join("  ")));
        }
        if redraw {
            // Home the cursor and repaint the whole table each slice, the
            // way `top` does; the scrollback stays clean.
            rows.push(row);
            print!("\x1b[2J\x1b[H{header}\n{}\n", rows.join("\n"));
        } else {
            println!("{row}");
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
    // Drain the close handshakes and 2MSL timers so the journal ends on
    // a quiet wire and every in-flight frame reaches an outcome.
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
    println!("-- per-tenant stats --");
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>6}",
        "tenant", "rx_frames", "tx_frames", "qdrops", "tx_rej", "ring", "chans"
    );
    for (host, tenant, t) in world.tenants() {
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

    // Pull the monitor back off the pipeline and report what it checked.
    // A conformant run ends at zero violations; anything else prints its
    // typed line so the postmortem has a starting point.
    let mon = unp::trace::detach_as::<Monitor>(monitor).expect("monitor still attached");
    let c = mon.checked();
    println!("-- conformance monitor --");
    println!(
        "violations {}  recorder {} records held",
        mon.total_violations(),
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
    let injected = world.metrics.link_totals();
    println!(
        "injected: {} dropped, {} duplicated, {} reordered, {} corrupted, {} outage-dropped",
        injected.drops, injected.dups, injected.reorders, injected.corrupts, injected.outage_drops,
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

    // Join the journal into the causal graph and decompose its delivered
    // receive copies' end-to-end latency by pipeline stage.
    let records = unp::trace::journal_stop();
    if records.is_empty() {
        println!("(journal empty — nothing to profile)");
        return;
    }
    let graph = CausalGraph::build(&records);
    graph
        .check_consistency()
        .expect("causal graph invariants hold");

    println!("-- path outcomes ({} frames traced) --", graph.rx().count());
    for &o in PathOutcome::ALL {
        let n = graph.outcome_count(o);
        if n > 0 {
            println!("  {:<17} {n:>7}", o.label());
        }
    }
    println!();

    let (stages, e2e) = (graph.stage_latency(), graph.rx_end_to_end());
    println!(
        "-- receive-path latency decomposition ({} delivered frames) --",
        e2e.count()
    );
    println!(
        "{:<15} {:>7} {:>12} {:>12} {:>12} {:>7}",
        "stage", "frames", "mean", "p50", "p99", "share"
    );
    let total_ns: u128 = stages.iter().map(|h| h.sum()).sum();
    for (h, stage) in stages.iter().zip(Stage::ALL) {
        if h.count() == 0 {
            continue;
        }
        println!(
            "{:<15} {:>7} {:>12} {:>12} {:>12} {:>6.1}%",
            stage.label(),
            h.count(),
            h.mean().map_or("-".into(), |m| fmt_nanos(m as u64)),
            h.quantile(0.5).map_or("-".into(), fmt_nanos),
            h.quantile(0.99).map_or("-".into(), fmt_nanos),
            100.0 * h.sum() as f64 / total_ns.max(1) as f64,
        );
    }
    println!(
        "{:<15} {:>7} {:>12} {:>12} {:>12}",
        "end-to-end",
        e2e.count(),
        e2e.mean().map_or("-".into(), |m| fmt_nanos(m as u64)),
        e2e.quantile(0.5).map_or("-".into(), fmt_nanos),
        e2e.quantile(0.99).map_or("-".into(), fmt_nanos),
    );
    println!();

    println!("-- folded stacks (flamegraph input) --");
    print!("{}", graph.folded());
}
