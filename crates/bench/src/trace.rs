//! `bench trace`: journal-driven latency breakdown of the user-library
//! receive path, cross-checked against the cost model — `BENCH_trace.json`.
//!
//! The reproduced tables are built from *modeled* costs: every hop of a
//! received frame (demux, ring placement, semaphore wakeup, protocol
//! processing) charges a constant from [`CostModel`]. The journal records
//! the same hops as timestamped events, so the per-copy
//! [`PathTrace`](unp_trace::profile::PathTrace)s that
//! [`CausalGraph::build`] joins out of it reconstruct the latency the
//! model actually produced — and the two must agree. Concretely:
//!
//! * A **signaled** delivery schedules the library wakeup at interrupt
//!   priority, which preempts rather than queues, so the span from
//!   `ring_enqueue(signal=true)` to the `wakeup_batch` that consumed the
//!   frame equals `demux + ring_op + semaphore_signal + wakeup_resched +
//!   thread_switch` *exactly* — unless a still-running library thread's
//!   batch continuation scooped the frame out of the ring first, in which
//!   case the span is strictly *shorter* (the batching win). A span can
//!   never exceed the model.
//! * Per-frame protocol processing is charged at normal priority and can
//!   queue behind other work (ACK transmission shares the CPU), so the
//!   span from a frame's batch becoming runnable to its `tcp_segment(rx)`
//!   record is bounded below by the modeled per-frame cost; the minimum
//!   observed span approaches the model on an otherwise idle CPU.
//!
//! The traced Table-2 sweep here runs once per invocation
//! ([`Workloads::traced_sweep`]) and also feeds [`crate::profile`].

use std::collections::BTreeMap;

use unp_core::experiments::Transfer;
use unp_core::{Network, OrgKind};
use unp_sim::{CostModel, DemuxPath, Nanos};
use unp_trace::json::Value;
use unp_trace::profile::Stage;
use unp_trace::{CausalGraph, Event, Histogram};

use crate::report::Workloads;
use crate::tables::T2_SIZES;

/// One Table-2 bulk run with the journal recording, joined.
pub struct TracedRun {
    /// Application write size (the table column).
    pub user_packet: usize,
    /// The run's journal, joined.
    pub graph: CausalGraph,
    /// Bytes the journal saw cross into the application.
    pub app_bytes: u64,
}

/// Runs the Table-2 bulk workload (user-library organization, Ethernet)
/// once with the journal recording and joins the result.
pub fn traced_bulk(user_packet: usize, total: u64) -> TracedRun {
    unp_trace::journal_start();
    Transfer::table2(Network::Ethernet, OrgKind::UserLibrary, user_packet, total).run(|_, _| {});
    let records = unp_trace::journal_stop();
    let graph = CausalGraph::build(&records);
    graph
        .check_consistency()
        .expect("stage decomposition must be self-consistent");
    let app_bytes = records
        .iter()
        .map(|r| match r.event {
            Event::AppDeliver { bytes, .. } => bytes as u64,
            _ => 0,
        })
        .sum();
    TracedRun {
        user_packet,
        graph,
        app_bytes,
    }
}

/// Runs the traced Table-2 sweep.
pub fn traced_sweep(total: u64) -> Vec<TracedRun> {
    T2_SIZES
        .iter()
        .map(|&size| traced_bulk(size, total))
        .collect()
}

/// The sweep's workload, as its reports describe it.
pub fn sweep_workload(total: u64) -> Value {
    Value::obj([
        ("table", 2usize.into()),
        ("org", "user_library".into()),
        ("network", "ethernet".into()),
        ("total_bytes", total.into()),
    ])
}

/// Modeled signaled-wakeup latency for a software delivery whose filter
/// scan executed `instrs` instructions.
pub fn wakeup_model(c: &CostModel, instrs: usize) -> Nanos {
    c.demux_cost(DemuxPath::FilterScan, instrs)
        + c.ring_op
        + c.semaphore_signal
        + c.wakeup_resched
        + c.thread_switch
}

/// Modeled per-frame library receive cost for `wire` bytes past the link
/// header on the Ethernet (software demux) path.
fn proc_model(c: &CostModel, wire: usize) -> Nanos {
    c.tcp_per_segment
        + c.ip_per_packet
        + c.checksum(wire)
        + c.library_call
        + c.lib_upcall_sync
        + c.lib_sw_rx_per_byte * wire as Nanos
}

/// The `ring_enqueue(signal)` → consuming `wakeup_batch` spans of one
/// run, sorted against the model.
#[derive(Default)]
pub struct WakeupSpans {
    pub spans: Histogram,
    /// Spans exactly equal to the modeled cost.
    pub exact: u64,
    /// Frames a running library thread consumed before their own
    /// semaphore wakeup fired (span < model).
    pub scooped: u64,
    /// Spans exceeding the model — must always be zero: it would mean the
    /// join or the cost charging is wrong.
    pub over: u64,
}

/// Projects the signaled copies' ring → wakeup spans.
pub fn wakeup_spans(graph: &CausalGraph, costs: &CostModel) -> WakeupSpans {
    let mut out = WakeupSpans::default();
    for tr in graph.rx() {
        if tr.signaled != Some(true) {
            continue;
        }
        let (Some(ring), Some(wake)) = (tr.stage_time(Stage::Ring), tr.stage_time(Stage::Wakeup))
        else {
            continue;
        };
        let span = wake - ring;
        out.spans.record(span);
        match span.cmp(&wakeup_model(costs, tr.filter_instrs as usize)) {
            std::cmp::Ordering::Equal => out.exact += 1,
            std::cmp::Ordering::Less => out.scooped += 1,
            std::cmp::Ordering::Greater => out.over += 1,
        }
    }
    out
}

/// Projects the per-frame processing spans: from the instant the frame's
/// batch processor became free — its wakeup, or the previous frame's
/// `tcp_segment(rx)` on the same `(host, channel)` — to its own. Returns
/// the population and how many spans sit at or above their frame's
/// modeled cost.
pub fn proc_spans(graph: &CausalGraph, costs: &CostModel) -> (Histogram, u64) {
    let mut processed: Vec<_> = (graph.rx())
        .filter_map(|tr| Some((tr.stage_time(Stage::Tcp)?, (tr.host?, tr.channel?), tr)))
        .collect();
    processed.sort_by_key(|&(tcp, ..)| tcp);
    // Channel ids are only unique within one host's net I/O module.
    let mut free_at: BTreeMap<(u16, u32), Nanos> = BTreeMap::new();
    let (mut spans, mut ge_model) = (Histogram::new(), 0);
    for (tcp, chan, tr) in processed {
        let prev = free_at.insert(chan, tcp);
        if let Some(t0) = prev.max(tr.stage_time(Stage::Wakeup)) {
            spans.record(tcp - t0);
            ge_model += u64::from(tcp - t0 >= proc_model(costs, tr.wire as usize));
        }
    }
    (spans, ge_model)
}

/// Prints the breakdown of the traced sweep and returns the report.
pub fn report(w: &Workloads) -> Value {
    let costs = CostModel::calibrated_1993();
    println!("== Trace: journaled receive-path latency vs the cost model ==");
    println!("   (Table-2 bulk workload, user-library org, Ethernet)");
    println!(
        "{:<8} {:>8} {:>9} {:>8} {:>28} {:>30}",
        "pkt (B)",
        "enqueue",
        "signaled",
        "batched",
        "wakeup ns (exact+scooped)",
        "proc ns (model/min/mean)"
    );
    let (mut over_model, mut under_model) = (0, 0);
    let rows: Value = w
        .traced_sweep()
        .iter()
        .map(|run| {
            let placed = |signal| {
                run.graph
                    .rx()
                    .filter(|t| t.signaled == Some(signal))
                    .count()
            };
            let (signaled, batched) = (placed(true), placed(false));
            let wakeup = wakeup_spans(&run.graph, &costs);
            let (proc, ge_model) = proc_spans(&run.graph, &costs);
            let mean = |h: &Histogram| h.mean().unwrap_or(0.0);
            // The dominant population of a bulk transfer: full frames.
            let proc_full = proc_model(&costs, 40 + run.user_packet.min(1460));
            println!(
                "{:<8} {:>8} {:>9} {:>8} {:>13} ({:>4}+{:<3}/{:<4}) {:>10} /{:>8} /{:>9.0}",
                run.user_packet,
                signaled + batched,
                signaled,
                batched,
                mean(&wakeup.spans).round() as u64,
                wakeup.exact,
                wakeup.scooped,
                wakeup.spans.count(),
                proc_full,
                proc.min().unwrap_or(0),
                mean(&proc),
            );
            over_model += wakeup.over;
            under_model += proc.count() - ge_model;
            Value::obj([
                ("user_packet", run.user_packet.into()),
                ("ring_enqueues", (signaled + batched).into()),
                ("signaled", signaled.into()),
                ("batched", batched.into()),
                (
                    "wakeup",
                    Value::obj([
                        ("count", wakeup.spans.count().into()),
                        ("model_matches", wakeup.exact.into()),
                        ("scooped", wakeup.scooped.into()),
                        ("min_ns", wakeup.spans.min().unwrap_or(0).into()),
                        ("mean_ns", Value::fixed(mean(&wakeup.spans), 1)),
                        ("max_ns", wakeup.spans.max().unwrap_or(0).into()),
                    ]),
                ),
                (
                    "proc",
                    Value::obj([
                        ("count", proc.count().into()),
                        ("model_full_ns", proc_full.into()),
                        ("ge_model", ge_model.into()),
                        ("min_ns", proc.min().unwrap_or(0).into()),
                        ("mean_ns", Value::fixed(mean(&proc), 1)),
                        ("max_ns", proc.max().unwrap_or(0).into()),
                    ]),
                ),
                ("app_bytes", run.app_bytes.into()),
            ])
        })
        .collect();
    println!("  every signaled wakeup span == modeled demux+ring+signal+resched+switch,");
    println!("  except frames a running batch continuation consumed early (scooped)");
    println!("  every per-frame processing span >= modeled tcp+ip+checksum+upcall cost");
    println!();
    Value::obj([
        ("benchmark", "packet_lifecycle_trace".into()),
        ("workload", sweep_workload(w.sizes.traced_total)),
        ("wakeup_over_model", over_model.into()),
        ("proc_under_model", under_model.into()),
        ("rows", rows),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_matches_the_model() {
        let costs = CostModel::calibrated_1993();
        let run = traced_bulk(4096, 200_000);
        assert_eq!(run.app_bytes, 200_000, "journal missed app deliveries");
        let placed = |signal| {
            run.graph
                .rx()
                .filter(|t| t.signaled == Some(signal))
                .count()
        };
        assert!(
            placed(true) > 0 && placed(false) > 0,
            "both paths exercised"
        );
        let wakeup = wakeup_spans(&run.graph, &costs);
        assert_eq!(wakeup.over, 0, "span exceeded the model");
        assert_eq!(wakeup.exact + wakeup.scooped, wakeup.spans.count());
        assert!(
            wakeup.exact * 10 >= wakeup.spans.count() * 9,
            "exact matches must dominate: {} exact of {}",
            wakeup.exact,
            wakeup.spans.count()
        );
        let (proc, ge_model) = proc_spans(&run.graph, &costs);
        assert_eq!(ge_model, proc.count());
        // The smallest span in the population is a pure ACK (40-byte
        // segment) on the sender side; it still pays that frame's model.
        assert!(proc.min() >= Some(proc_model(&costs, 40)), "min span sane");
    }

    #[test]
    fn json_is_shaped() {
        use crate::report::Sizes;
        crate::summary::assert_shaped("trace", &report(&Workloads::new(Sizes::SMALL)));
    }
}
