//! The ledger's promises, checked on rounds a fraction of the benchmark's
//! size (every round still runs past the 200,000-event warm-up, so its timed
//! region is not empty).

use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};

use unp_hostbench::apps::Pattern;
use unp_hostbench::ledger;
use unp_hostbench::round::{run_round_of, Round};
use unp_hostbench::span::Recorder;
use unp_hostbench::traced;
use unp_hostbench::workloads::Workload;

/// The allocation counters are process-wide and the journal is per thread:
/// rounds must not overlap.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Operations of a test-sized round: a multiple of the workload's client or
/// flow count, and enough to outlast the warm-up.
fn small(workload: Workload) -> u64 {
    match workload {
        Workload::Bulk | Workload::BulkObserved => 480,
        Workload::Rr => 30_000,
        Workload::Churn => 32 * 120,
        Workload::FaninLossy => 32 * 16,
    }
}

fn small_round(workload: Workload, seed: u64) -> Round {
    let pattern = Rc::new(Pattern::new(seed));
    run_round_of(workload, small(workload), seed, &pattern, None)
}

#[test]
fn the_same_seed_repeats_every_exact_figure() {
    let _alone = alone();
    for workload in Workload::ALL {
        let (a, b) = (small_round(workload, 7), small_round(workload, 7));
        let name = workload.name();
        assert!(a.timed_frames > 0, "{name}: the timed region is empty");
        assert_eq!(a.ops_failed(), 0, "{name}: operations failed");
        assert_eq!((a.mismatches, a.watchdog_fired), (0, false), "{name}");
        // sim_events_per_frame, sim_elapsed_ms and the operation counts.
        assert_eq!(
            a.sim_exact(),
            b.sim_exact(),
            "{name}: the sim did not repeat"
        );
        if workload == Workload::Churn {
            // `churn` grows and shrinks hash maps all round; whether one
            // rehashes in place or reallocates depends on its random hash
            // seed, so the allocation counts repeat only closely.
            let close = |x: u64, y: u64| (x as f64 / y as f64 - 1.0).abs() < 0.01;
            assert!(close(a.timed_allocs, b.timed_allocs), "{name}: allocations");
            assert!(
                close(a.timed_alloc_bytes, b.timed_alloc_bytes),
                "{name}: bytes"
            );
        } else {
            // allocs_per_frame and alloc_bytes_per_frame.
            assert_eq!(a.timed_allocs, b.timed_allocs, "{name}: allocations");
            assert_eq!(a.timed_alloc_bytes, b.timed_alloc_bytes, "{name}: bytes");
        }
    }
}

#[test]
fn another_seed_moves_the_retransmit_count_but_fails_no_operation() {
    let _alone = alone();
    let (a, b) = (
        small_round(Workload::FaninLossy, 1),
        small_round(Workload::FaninLossy, 2),
    );
    assert!(a.layers.rexmit_segs > 0 && b.layers.rexmit_segs > 0);
    assert_ne!(a.layers.rexmit_segs, b.layers.rexmit_segs);
    for r in [&a, &b] {
        assert_eq!((r.ops_failed(), r.mismatches, r.leaked_channels), (0, 0, 0));
        assert_eq!(r.ops_done, small(Workload::FaninLossy));
    }
}

#[test]
fn the_observed_round_journals_everything_and_breaks_no_rule() {
    let _alone = alone();
    let plain = small_round(Workload::Bulk, 3);
    let watched = small_round(Workload::BulkObserved, 3);
    let seen = watched.observed.expect("observers were attached");
    assert_eq!(seen.violations, 0);
    assert!(seen.records > watched.frames, "several records per frame");
    assert_eq!(
        seen.dropped,
        seen.records - 4096,
        "the journal keeps a 4096-record tail"
    );
    assert!(plain.observed.is_none());
    // Observing must not change what is observed.
    assert_eq!(plain.sim_exact(), watched.sim_exact());
}

#[test]
fn a_traced_round_retraces_the_untraced_one_and_spans_its_callbacks() {
    let _alone = alone();
    let pattern = Rc::new(Pattern::new(5));
    let mut rec = Recorder::new();
    let traced = run_round_of(
        Workload::Rr,
        small(Workload::Rr),
        5,
        &pattern,
        Some(&mut rec),
    );
    let plain = small_round(Workload::Rr, 5);
    assert_eq!(traced.sim_exact(), plain.sim_exact());

    let spans = rec.spans();
    let selfs = rec.self_ns();
    let is_slice = |i: usize| spans[i].name == "core.slice";
    let slices: Vec<usize> = (0..spans.len()).filter(|&i| is_slice(i)).collect();
    assert!(slices.len() >= traced.slices.len());
    // Callbacks are rolled up under the slice they ran in (the warm-up's
    // under none), and a slice's self time is what is left without them.
    let in_slices: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("app.") && s.parent.is_some())
        .collect();
    assert!(in_slices
        .iter()
        .all(|s| is_slice(s.parent.expect("filtered"))));
    let data_calls: u64 = in_slices
        .iter()
        .filter(|s| s.name == "app.on_data")
        .map(|s| s.calls)
        .sum();
    // One on_data at each end per round trip; the warm-up may end between.
    assert!(data_calls.abs_diff(2 * traced.timed_ops) <= 1);
    let app_busy: u64 = in_slices.iter().map(|s| s.busy_ns).sum();
    let slice_busy: u64 = slices.iter().map(|&i| spans[i].busy_ns).sum();
    let slice_self: u64 = slices.iter().map(|&i| selfs[i]).sum();
    assert!(app_busy > 0);
    assert_eq!(slice_self, slice_busy - app_busy);
}

/// `(name, unit)` of every metric a `BENCHMARK.json` section declares.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = unp_trace::json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &unp_trace::json::Value, key: &str| {
        m.get(key)
            .and_then(|v| v.as_str())
            .expect("a string")
            .to_string()
    };
    doc.get(section)
        .and_then(|v| v.items())
        .expect("a list of metrics")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn reported(report: &ledger::Report) -> Vec<(String, String)> {
    let doc = unp_trace::json::parse(&report.to_json()).expect("the result line parses");
    doc.get("metrics")
        .and_then(|m| m.entries())
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(|v| v.as_str()).expect("a unit");
            assert!(m.get("value").and_then(|v| v.as_f64()).is_some(), "{name}");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn the_result_lines_carry_exactly_what_benchmark_json_declares() {
    let _alone = alone();
    let round = small_round(Workload::FaninLossy, 11);
    let report = ledger::end_to_end(Workload::FaninLossy, &[round]);
    assert!(report.correct, "{:?}", report.problems);
    assert_eq!(reported(&report), declared("end_to_end"));
    assert!(
        report.metrics.iter().all(|m| m.value > 0.0),
        "no end-to-end metric is ever 0"
    );

    let report = traced::run_of(Workload::Bulk, small(Workload::Bulk), 11, 0.0);
    assert!(report.correct, "{:?}", report.problems);
    assert_eq!(reported(&report), declared("per_layer"));
    let spans = std::fs::read_to_string(traced::out_dir().join("spans-bulk.json"))
        .expect("the traced run wrote its spans");
    let doc = unp_trace::json::parse(&spans).expect("the span file parses");
    assert_eq!(doc.get("workload").and_then(|v| v.as_str()), Some("bulk"));
    assert!(doc
        .get("spans")
        .and_then(|v| v.items())
        .is_some_and(|s| s.len() > 100));

    let workloads: Vec<String> = {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = unp_trace::json::parse(&std::fs::read_to_string(path).expect("readable"))
            .expect("parses");
        let list = doc
            .get("workloads")
            .and_then(|v| v.items())
            .expect("workloads");
        list.iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("a name")
                    .to_string()
            })
            .collect()
    };
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
