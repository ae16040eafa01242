//! `--isolation-gate`: the multi-tenant isolation oracle as a CI gate.
//!
//! The same scenario as `tests/isolation.rs`, run twice from one seed:
//! three innocent tenants stream to a server while a hostile tenant —
//! budgeted with per-tenant ring-slot and transmit-credit quotas — runs
//! the byzantine repertoire (ring flood, transmit flood, capability
//! storm, stale BQI, wedged crash). The baseline run disables the
//! byzantine schedules and budgets; the hostile run arms them. The gate
//! asserts the isolation envelope:
//!
//! * innocent streams complete byte-exact in both runs,
//! * innocent throughput ≥ 60% of baseline, completion ≤ 1.5x + 10 ms,
//! * innocent p99 app-deliver latency ≤ 2.5x baseline + 5 ms,
//! * every quota drop is causally attributed to the hostile tenant,
//! * zero resources leak after the hostile tenant's wedged crash.
//!
//! `BENCH_isolation.json` records the measured ratios so the summary
//! artifact (and a reviewer) can see how much headroom the envelope has.

use std::cell::RefCell;
use std::rc::Rc;

use unp_buffers::OwnerTag;
use unp_core::faults::{ByzantineKind, ByzantineSchedule, FaultPlan};
use unp_core::world::{connect_as, crash_tenant, install_faults, listen, listen_as};
use unp_core::{build_hosts, BulkSender, Network, OrgKind, SinkApp, TransferStats};
use unp_kernel::TenantBudget;
use unp_tcp::TcpConfig;
use unp_trace::causal::{CausalGraph, Loss};
use unp_trace::profile::Profile;
use unp_trace::Ctr;

/// Innocent tenants sharing the client host with the hostile one.
pub const INNOCENTS: usize = 3;
/// Bytes each innocent tenant streams.
pub const XFER: u64 = 150_000;
/// The hostile tenant id.
pub const HOSTILE: u64 = 66;
/// Fault-plan seed (RNG is unused by the byzantine schedules, but the
/// plan carries it).
pub const SEED: u64 = 21;
/// Byzantine window bounds (connection setup rides the slow registry
/// path, so the window opens well after all handshakes settle).
pub const BYZ_START: u64 = 160_000_000;
pub const CRASH_AT: u64 = 320_000_000;

/// One run's innocent-side measurements.
pub struct RunMeasure {
    /// Per-innocent (throughput bps, completion instant ns).
    pub innocents: Vec<(f64, u64)>,
    /// p99 of innocent frames' end-to-end app-deliver latency (ns).
    pub p99_ns: u64,
    /// Kernel-counted quota drops / tx credit rejections.
    pub quota_drops: u64,
    pub tx_rejections: u64,
    /// Tenants named by `Loss::QuotaExceeded` in the causal graph.
    pub quota_loss_tenants: Vec<u64>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Runs the scenario once. With `hostile` the budgets, byzantine
/// schedules, and wedged crash are armed; without it the same topology,
/// traffic, and crash instant run unimpaired.
pub fn run_scenario(hostile: bool) -> RunMeasure {
    unp_trace::journal_start();
    let (mut w, mut eng) = build_hosts(2, Network::Ethernet, OrgKind::UserLibrary);
    let server_ip = w.hosts[1].ip;
    let client_ip = w.hosts[0].ip;

    let mut sinks = Vec::new();
    for i in 0..INNOCENTS {
        let st = TransferStats::new_shared();
        let sh = Rc::clone(&st);
        listen(
            &mut w,
            1,
            81 + i as u16,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&sh)))),
        );
        eng.at(i as u64 * 10_000_000 + 1, move |w, eng| {
            connect_as(
                w,
                eng,
                0,
                Some(OwnerTag(11 + i as u64)),
                (server_ip, 81 + i as u16),
                TcpConfig::default(),
                Box::new(BulkSender::new(XFER, 4096)),
                4096,
            );
        });
        sinks.push(st);
    }

    // The hostile tenant: a held-open active connection (the flood
    // vehicle) and a listener fed by the server (the ring-flood victim).
    let hostile_rx = TransferStats::new_shared();
    let hr = Rc::clone(&hostile_rx);
    listen_as(
        &mut w,
        0,
        OwnerTag(HOSTILE),
        90,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&hr)).without_verify())),
    );
    let server_sink = TransferStats::new_shared();
    let ss = Rc::clone(&server_sink);
    listen(
        &mut w,
        1,
        80,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&ss)).without_verify())),
    );
    eng.at(31_000_000, move |w, eng| {
        connect_as(
            w,
            eng,
            0,
            Some(OwnerTag(HOSTILE)),
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

    let mut plan = FaultPlan::clean(SEED);
    if hostile {
        w.hosts[0].netio.set_tenant_budget(
            OwnerTag(HOSTILE),
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
                tenant: HOSTILE,
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
            .filter(|c| (81..81 + INNOCENTS as u16).contains(&c.tcb.local().1))
            .filter_map(|c| c.chan.as_ref().map(|ci| ci.id.0))
            .collect();
        ids.sort_unstable();
        *cm.borrow_mut() = ids;
    });
    eng.at(CRASH_AT, move |w, eng| {
        crash_tenant(w, eng, 0, OwnerTag(HOSTILE));
    });

    assert!(
        eng.run(&mut w, 2_500_000_000),
        "isolation run did not drain"
    );

    let innocent_chans = chan_ids.borrow().clone();
    assert_eq!(
        innocent_chans.len(),
        INNOCENTS,
        "handshakes missed the window"
    );
    let records = unp_trace::journal_stop();

    for (i, st) in sinks.iter().enumerate() {
        let s = st.borrow();
        assert_eq!(s.bytes_received, XFER, "innocent {i} lost bytes");
        assert!(s.peer_closed && !s.reset, "innocent {i} stream failed");
    }
    assert_eq!(w.leaks(), Vec::<String>::new());

    let profile = Profile::build(&records);
    let mut lat: Vec<u64> = profile
        .traces
        .iter()
        .filter(|t| {
            t.is_complete()
                && t.host == Some(1)
                && t.channel.is_some_and(|c| innocent_chans.contains(&c))
        })
        .filter_map(|t| t.end_to_end())
        .collect();
    lat.sort_unstable();
    assert!(!lat.is_empty(), "no innocent deliveries profiled");

    let graph = CausalGraph::build(&records);
    let quota_loss_tenants: Vec<u64> = graph
        .losses()
        .filter_map(|(_, l)| match l {
            Loss::QuotaExceeded { tenant, .. } => Some(tenant),
            _ => None,
        })
        .collect();

    RunMeasure {
        innocents: sinks
            .iter()
            .map(|s| {
                let s = s.borrow();
                (
                    s.throughput_bps().expect("throughput"),
                    s.last_byte_at.expect("completion"),
                )
            })
            .collect(),
        p99_ns: percentile(&lat, 0.99),
        quota_drops: w.metrics.get(Ctr::ChQuotaDrops),
        tx_rejections: w.metrics.get(Ctr::TxQuotaRejections),
        quota_loss_tenants,
    }
}

/// The gate: runs baseline + hostile, checks the envelope, and returns
/// the report lines (Err = gate failure text).
pub fn gate() -> Result<(Vec<String>, String), String> {
    let base = run_scenario(false);
    let hot = run_scenario(true);
    let mut lines = Vec::new();

    if base.quota_drops != 0 || base.tx_rejections != 0 {
        return Err(format!(
            "baseline run charged quotas ({} drops, {} rejections) with no budgets set",
            base.quota_drops, base.tx_rejections
        ));
    }
    if hot.quota_drops == 0 {
        return Err("hostile run produced no quota drops — the ring flood never bit".into());
    }
    if hot.tx_rejections == 0 {
        return Err("hostile run produced no tx rejections — the credit never ran out".into());
    }
    if hot.quota_loss_tenants.len() as u64 != hot.quota_drops {
        return Err(format!(
            "causal trace attributed {} quota losses, kernel counted {}",
            hot.quota_loss_tenants.len(),
            hot.quota_drops
        ));
    }
    if let Some(&t) = hot.quota_loss_tenants.iter().find(|&&t| t != HOSTILE) {
        return Err(format!(
            "quota drop attributed to tenant {t}, want {HOSTILE}"
        ));
    }
    lines.push(format!(
        "isolation gate: {} quota drops + {} tx rejections, all attributed to tenant {}",
        hot.quota_drops, hot.tx_rejections, HOSTILE
    ));

    let mut tput_ratio_min = f64::INFINITY;
    for (i, (&(tb, lb), &(th, lh))) in base.innocents.iter().zip(&hot.innocents).enumerate() {
        let ratio = th / tb;
        tput_ratio_min = tput_ratio_min.min(ratio);
        if th < 0.6 * tb {
            return Err(format!(
                "innocent {i} throughput {th:.0} bps < 60% of baseline {tb:.0}"
            ));
        }
        if lh > lb + lb / 2 + 10_000_000 {
            return Err(format!(
                "innocent {i} completion {lh} ns outside 1.5x+10ms of baseline {lb}"
            ));
        }
        lines.push(format!(
            "  innocent {i}: throughput {:.2} Mb/s vs {:.2} baseline ({:.0}%)",
            th / 1e6,
            tb / 1e6,
            ratio * 100.0
        ));
    }
    let p99_bound = 5 * base.p99_ns / 2 + 5_000_000;
    if hot.p99_ns > p99_bound {
        return Err(format!(
            "innocent p99 latency {} ns > bound {} (baseline {})",
            hot.p99_ns, p99_bound, base.p99_ns
        ));
    }
    lines.push(format!(
        "  innocent p99 app-deliver latency {:.3} ms vs {:.3} ms baseline (bound {:.3})",
        hot.p99_ns as f64 / 1e6,
        base.p99_ns as f64 / 1e6,
        p99_bound as f64 / 1e6
    ));

    let json = to_json(&base, &hot, tput_ratio_min);
    Ok((lines, json))
}

/// `BENCH_isolation.json`: the measured envelope headroom.
pub fn to_json(base: &RunMeasure, hot: &RunMeasure, tput_ratio_min: f64) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"isolation\",\n");
    out.push_str(&format!(
        "  \"innocent_tenants\": {INNOCENTS},\n  \"hostile_tenant\": {HOSTILE},\n  \"seed\": {SEED},\n"
    ));
    out.push_str(&format!(
        "  \"quota_drops\": {},\n  \"tx_rejections\": {},\n  \"quota_drops_misattributed\": {},\n",
        hot.quota_drops,
        hot.tx_rejections,
        hot.quota_loss_tenants
            .iter()
            .filter(|&&t| t != HOSTILE)
            .count()
    ));
    out.push_str(&format!(
        "  \"throughput_ratio_min\": {:.4},\n  \"p99_baseline_ns\": {},\n  \"p99_hostile_ns\": {},\n  \"p99_ratio\": {:.4},\n",
        tput_ratio_min,
        base.p99_ns,
        hot.p99_ns,
        hot.p99_ns as f64 / base.p99_ns.max(1) as f64
    ));
    out.push_str("  \"innocents\": [");
    for (i, (&(tb, _), &(th, _))) in base.innocents.iter().zip(&hot.innocents).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"baseline_bps\": {tb:.0}, \"hostile_bps\": {th:.0}}}"
        ));
    }
    out.push_str("]\n}\n");
    out
}
