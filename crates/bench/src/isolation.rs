//! `bench isolation`: the multi-tenant isolation oracle —
//! `BENCH_isolation.json`.
//!
//! [`isolation_scenario`] runs twice from one seed: three innocent
//! tenants stream to a server while a hostile tenant — budgeted with
//! per-tenant ring-slot and transmit-credit quotas — runs the byzantine
//! repertoire (ring flood, transmit flood, capability storm, stale BQI,
//! wedged crash). The baseline run disables the byzantine schedules and
//! budgets; the hostile run arms them. The report records every term of
//! the isolation envelope, and the gate table bounds each:
//!
//! * innocent throughput ≥ 60% of baseline, completion ≤ 1.5x + 10 ms,
//! * innocent p99 app-deliver latency ≤ 2.5x baseline + 5 ms — the quota
//!   layer cannot (and should not) hide shared-link and shared-CPU
//!   contention, only unbounded resource capture, hence envelopes rather
//!   than parity,
//! * both quota dimensions bit in the hostile run and neither in the
//!   baseline, every quota drop is causally attributed to the hostile
//!   tenant,
//! * zero resources leak after the hostile tenant's wedged crash.

use unp_core::experiments::{
    isolation_scenario, ISOLATION_HOSTILE, ISOLATION_INNOCENTS, ISOLATION_SEED,
};
use unp_trace::json::Value;

use crate::report::Workloads;

/// Runs baseline + hostile, prints the measured envelope and returns the
/// report.
pub fn report(_: &Workloads) -> Value {
    let (_, base) = isolation_scenario(false);
    let (_, hot) = isolation_scenario(true);

    let misattributed = hot.quota_loss_tenants.iter();
    let misattributed = misattributed.filter(|&&t| t != ISOLATION_HOSTILE).count();
    let untraced = hot
        .quota_drops
        .abs_diff(hot.quota_loss_tenants.len() as u64);
    // Per innocent: (baseline bps, hostile bps, baseline / hostile completion).
    let innocents: Vec<(f64, f64, u64, u64)> = (base.innocents.iter().zip(&hot.innocents))
        .map(|(&(tb, lb), &(th, lh))| (tb, th, lb, lh))
        .collect();
    let tput_ratio_min =
        (innocents.iter().map(|&(tb, th, ..)| th / tb)).fold(f64::INFINITY, f64::min);
    // Fraction of the completion envelope (1.5x baseline + 10 ms) the
    // worst innocent used.
    let completion_used = (innocents.iter())
        .map(|&(.., lb, lh)| lh as f64 / (lb + lb / 2 + 10_000_000) as f64)
        .fold(0.0, f64::max);
    let p99_bound = 5 * base.p99_ns / 2 + 5_000_000;

    println!(
        "isolation: {} quota drops + {} tx rejections, {misattributed} misattributed, {untraced} untraced, {} leaks",
        hot.quota_drops,
        hot.tx_rejections,
        base.leaks.len() + hot.leaks.len()
    );
    for leak in base.leaks.iter().chain(&hot.leaks) {
        eprintln!("isolation leak: {leak}");
    }
    for (i, &(tb, th, ..)) in innocents.iter().enumerate() {
        println!(
            "  innocent {i}: throughput {:.2} Mb/s vs {:.2} baseline ({:.0}%)",
            th / 1e6,
            tb / 1e6,
            th / tb * 100.0
        );
    }
    println!(
        "  innocent p99 app-deliver latency {:.3} ms vs {:.3} ms baseline (bound {:.3})",
        hot.p99_ns as f64 / 1e6,
        base.p99_ns as f64 / 1e6,
        p99_bound as f64 / 1e6
    );

    Value::obj([
        ("benchmark", "isolation".into()),
        ("innocent_tenants", ISOLATION_INNOCENTS.into()),
        ("hostile_tenant", ISOLATION_HOSTILE.into()),
        ("seed", ISOLATION_SEED.into()),
        ("baseline_quota_drops", base.quota_drops.into()),
        ("baseline_tx_rejections", base.tx_rejections.into()),
        ("quota_drops", hot.quota_drops.into()),
        ("tx_rejections", hot.tx_rejections.into()),
        ("quota_drops_misattributed", misattributed.into()),
        ("quota_drops_untraced", untraced.into()),
        ("leaks", (base.leaks.len() + hot.leaks.len()).into()),
        ("throughput_ratio_min", Value::fixed(tput_ratio_min, 4)),
        ("completion_envelope_used", Value::fixed(completion_used, 4)),
        ("p99_baseline_ns", base.p99_ns.into()),
        ("p99_hostile_ns", hot.p99_ns.into()),
        (
            "p99_ratio",
            Value::fixed(hot.p99_ns as f64 / base.p99_ns.max(1) as f64, 4),
        ),
        (
            "p99_envelope_used",
            Value::fixed(hot.p99_ns as f64 / p99_bound as f64, 4),
        ),
        (
            "innocents",
            innocents
                .iter()
                .map(|&(tb, th, ..)| {
                    Value::obj([
                        ("baseline_bps", Value::fixed(tb, 0)),
                        ("hostile_bps", Value::fixed(th, 0)),
                    ])
                })
                .collect(),
        ),
    ])
}
