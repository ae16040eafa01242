//! `bench profile`: critical-path decomposition of the traced Table-2
//! sweep — `BENCH_profile.json`.
//!
//! Each run's journal is joined by [`unp_trace::CausalGraph::build`], and
//! each delivered receive copy's end-to-end latency is decomposed into
//! per-stage components that sum exactly (no tolerance — sim time doesn't
//! jitter).
//! Signaled wakeup spans are cross-checked against the cost model by
//! [`crate::trace::wakeup_spans`]: exact, or strictly shorter when a
//! running batch continuation scooped the frame; never longer.
//!
//! The report's `gate.stage_mean_ns` pins the pooled stage means; like
//! every artifact, a change to them shows as a `git diff` to review.

use unp_sim::CostModel;
use unp_trace::json::Value;
use unp_trace::Histogram;
use unp_trace::Stage;

use crate::report::Workloads;
use crate::trace::{sweep_workload, wakeup_spans, TracedRun};

/// The pinned means: per-stage component means pooled over every run
/// (count-weighted — deterministic sim time, so these are exactly
/// reproducible for a fixed workload), plus the pooled end-to-end mean.
fn gate_value(runs: &[TracedRun]) -> Value {
    let pooled = |hists: Vec<&Histogram>| {
        let count: u64 = hists.iter().map(|h| h.count()).sum();
        let sum: u128 = hists.iter().map(|h| h.sum()).sum();
        let mean = if count > 0 {
            sum as f64 / count as f64
        } else {
            0.0
        };
        Value::fixed(mean, 1)
    };
    let per_run: Vec<_> = (runs.iter())
        .map(|r| (r.graph.stage_latency(), r.graph.rx_end_to_end()))
        .collect();
    let stages = Stage::ALL.iter().skip(1).map(|&s| {
        let hists = per_run.iter().map(|(stages, _)| &stages[s as usize]);
        (s.label(), pooled(hists.collect()))
    });
    let e2e = pooled(per_run.iter().map(|(_, e2e)| e2e).collect());
    let means = Value::obj(stages.chain([("end_to_end", e2e)]));
    Value::obj([("stage_mean_ns", means)])
}

/// Prints the decomposition of the traced sweep and returns the report.
pub fn report(w: &Workloads) -> Value {
    let costs = CostModel::calibrated_1993();
    let runs = w.traced_sweep();
    println!("== Profile: critical-path latency decomposition (journal join) ==");
    println!("   (Table-2 bulk workload, user-library org, Ethernet; sim ns)");
    println!(
        "{:<8} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "pkt (B)",
        "delivered",
        "e2e mean",
        "demux",
        "ring",
        "wakeup",
        "tcp",
        "deliver",
        "wk ex/sc/ov"
    );
    let rows: Value = runs
        .iter()
        .map(|run| {
            let (stages, e2e) = (run.graph.stage_latency(), run.graph.rx_end_to_end());
            let mean = |s: Stage| stages[s as usize].mean().unwrap_or(0.0);
            let (delivered, e2e) = (e2e.count(), e2e.mean().unwrap_or(0.0));
            let wk = wakeup_spans(&run.graph, &costs);
            println!(
                "{:<8} {:>9} {:>10.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>5}/{}/{}",
                run.user_packet,
                delivered,
                e2e,
                mean(Stage::Demux),
                mean(Stage::Ring),
                mean(Stage::Wakeup),
                mean(Stage::Tcp),
                mean(Stage::Deliver),
                wk.exact,
                wk.scooped,
                wk.over,
            );
            let stages = Stage::ALL.iter().skip(1);
            Value::obj([
                ("user_packet", run.user_packet.into()),
                ("delivered", delivered.into()),
                ("wakeup_exact", wk.exact.into()),
                ("wakeup_scooped", wk.scooped.into()),
                ("wakeup_over", wk.over.into()),
                (
                    "stage_mean_ns",
                    Value::obj(stages.map(|&s| (s.label(), Value::fixed(mean(s), 1)))),
                ),
                ("end_to_end_mean_ns", Value::fixed(e2e, 1)),
            ])
        })
        .collect();
    println!("  per-frame stage components sum exactly to the journal end-to-end");
    println!("  latency (check_consistency); signaled wakeups match the cost model");
    println!();
    Value::obj([
        ("benchmark", "critical_path_profile".into()),
        ("workload", sweep_workload(w.sizes.traced_total)),
        ("rows", rows),
        ("gate", gate_value(runs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::traced_bulk;

    #[test]
    fn profiled_run_is_self_consistent() {
        let costs = CostModel::calibrated_1993();
        let run = traced_bulk(4096, 200_000);
        let g = &run.graph;
        let delivered = g.outcome_count(unp_trace::PathOutcome::Delivered);
        assert!(delivered > 30, "bulk run must deliver many frames");
        let wk = wakeup_spans(g, &costs);
        assert_eq!(wk.over, 0);
        assert!(wk.exact > 0, "signaled path exercised");
        g.check_consistency().unwrap();
        // Every delivered frame decomposes exactly.
        for tr in g.rx().filter(|t| t.is_complete()) {
            let sum: u64 = tr.components().iter().map(|&(_, dt)| dt).sum();
            assert_eq!(Some(sum), tr.end_to_end());
        }
        // The folded output names the stages with their qualifiers.
        let folded = g.folded();
        assert!(folded.contains("rx;tcp_segment "));
        assert!(folded.contains("rx;wakeup_batch;"));
    }
}
