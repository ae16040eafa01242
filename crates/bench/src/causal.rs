//! The seeded faulty Table-2 workload joined into a cross-host
//! [`CausalGraph`], with the fault-plan oracle cross-check.
//!
//! One bulk transfer runs under a fixed [`FaultPlan::lossy`] schedule
//! with the journal recording; the journal joins into per-frame
//! journeys, every retransmit gets a root cause, and — because the
//! injected schedule is known — the attribution layer is checkable
//! against ground truth:
//!
//! * every retransmit's cause must be established (coverage 1.0), and
//! * every lost data-carrying frame must be claimed by exactly one
//!   attribution, or superseded by a redundant delivery of its range.
//!
//! `repro-tables explain [f<id> | <port>]` prints the postmortem for one
//! frame or one connection (summary when no target is given). `bench
//! causal` writes `BENCH_causal.json`, which counts the oracle's failures
//! (the gate table bounds them at zero), and beside it the run's Chrome
//! trace export, [`GOLDEN_TRACE`]. The workload is deterministic, so both
//! are byte-exact and `ci.sh` checks them by `git diff`.

use unp_core::experiments::Transfer;
use unp_core::faults::FaultPlan;
use unp_core::world::install_faults;
use unp_core::{Network, OrgKind};
use unp_trace::causal::{CausalGraph, JourneyFate};
use unp_trace::json::Value;
use unp_trace::Record;

use crate::report::Workloads;

/// Transfer size of the seeded workload. Small on purpose: the golden
/// Chrome trace pins every journey of this exact run.
pub const CAUSAL_TOTAL: u64 = 60_000;
/// User packet size (one MSS per write).
pub const CAUSAL_PACKET: usize = 1460;
/// Fault-plan RNG seed.
pub const CAUSAL_SEED: u64 = 11;
/// Per-frame drop probability (dup/corrupt/reorder at half that — see
/// [`FaultPlan::lossy`]).
pub const CAUSAL_LOSS: f64 = 0.05;

/// Where `bench causal` writes the run's Chrome trace (repo-root
/// relative, like `tables_output.txt` — `bench` runs from the repo root).
pub const GOLDEN_TRACE: &str = "tests/golden/causal_trace.json";

/// Runs the seeded faulty Table-2 workload with the journal recording
/// and returns the raw records — the causal graph builds from them here,
/// and the conformance monitor replays and mutates them in
/// [`crate::monitor`].
pub fn lossy_journal() -> Vec<Record> {
    unp_trace::journal_start();
    Transfer::table2(
        Network::Ethernet,
        OrgKind::UserLibrary,
        CAUSAL_PACKET,
        CAUSAL_TOTAL,
    )
    .run(|w, eng| install_faults(w, eng, FaultPlan::lossy(CAUSAL_SEED, CAUSAL_LOSS)));
    unp_trace::journal_stop()
}

/// Joins the seeded journal into a causal graph. Panics if the
/// latency-split invariant breaks — that would invalidate every report
/// built on the graph.
pub fn causal_graph(records: &[Record]) -> CausalGraph {
    let graph = CausalGraph::build(records);
    graph
        .check_consistency()
        .expect("latency splits must telescope to end-to-end");
    graph
}

/// The fault-plan oracle: with the injected schedule as ground truth,
/// attribution must be total and every lost data frame claimed exactly
/// once or redundantly delivered. Returns one line per failure.
pub fn oracle_failures(graph: &CausalGraph) -> Vec<String> {
    let unattributed = graph.rexmits.iter().filter(|a| !a.cause.is_attributed());
    let mut failures: Vec<String> = unattributed
        .map(|a| format!("retransmit t={} seq={} has no cause", a.t, a.seq))
        .collect();
    let claims = graph.claims();
    for (j, loss) in graph.losses() {
        let Some(s) = &j.seg else { continue };
        if s.payload == 0 {
            // A lost pure ACK only matters if it stalled the peer — then
            // it is claimed as an AckLoss; otherwise a later cumulative
            // ACK covered it and there is nothing to attribute.
            continue;
        }
        match claims.get(&j.frame).copied().unwrap_or(0) {
            1 => {}
            0 if graph.superseded(j) => {}
            n => failures.push(format!(
                "lost data frame f{} ({}) claimed by {n} attributions, want 1",
                j.frame,
                loss.label()
            )),
        }
    }
    failures
}

/// Counts losses that needed no retransmit because another transmission
/// of the range arrived (the reorder+drop corner the oracle allows).
pub fn superseded_count(graph: &CausalGraph) -> usize {
    let claims = graph.claims();
    graph
        .losses()
        .filter(|(j, _)| {
            j.seg.as_ref().is_some_and(|s| s.payload > 0)
                && claims.get(&j.frame).copied().unwrap_or(0) == 0
                && graph.superseded(j)
        })
        .count()
}

/// Prints the postmortem for `target`: `f<id>` explains one frame,
/// `<port>` one connection, nothing the whole-run summary plus the
/// data connection.
pub fn print_explain(graph: &CausalGraph, target: Option<&str>) {
    match target {
        Some(t) if t.starts_with('f') => match t[1..].parse::<u64>() {
            Ok(frame) => print!("{}", graph.explain_frame(frame)),
            Err(_) => eprintln!("explain: bad frame id {t:?} (want f<number>)"),
        },
        Some(t) => match t.trim_start_matches(':').parse::<u16>() {
            Ok(port) => print!("{}", graph.explain_conn(port)),
            Err(_) => eprintln!("explain: bad target {t:?} (want f<frame>, <port> or postmortem)"),
        },
        None => {
            print!("{}", graph.summary());
            println!();
            print!("{}", graph.explain_conn(80));
        }
    }
}

/// Joins the seeded journal, runs the oracle, prints the verdict and
/// returns the report: workload parameters, journey fates, attribution
/// coverage, per-cause/per-loss counts, and the oracle's failure count.
pub fn report(w: &Workloads) -> Value {
    let graph = causal_graph(w.lossy_journal());
    let failures = oracle_failures(&graph);
    for f in &failures {
        eprintln!("causal oracle: {f}");
    }
    let fate = |f| graph.journeys.iter().filter(|j| j.fate == f).count();
    println!(
        "causal: {} journeys, {} rexmits, {} losses, coverage {:.0}%, {} oracle failures",
        graph.journeys.len(),
        graph.rexmits.len(),
        graph.losses().count(),
        graph.coverage() * 100.0,
        failures.len(),
    );
    let counts = |pairs: Vec<(&'static str, usize)>| {
        Value::obj(pairs.into_iter().map(|(label, n)| (label, n.into())))
    };
    Value::obj([
        ("benchmark", "causal_attribution".into()),
        (
            "workload",
            Value::obj([
                ("table", 2usize.into()),
                ("org", "user_library".into()),
                ("total_bytes", CAUSAL_TOTAL.into()),
                ("user_packet", CAUSAL_PACKET.into()),
                ("seed", CAUSAL_SEED.into()),
                ("loss", Value::Num(CAUSAL_LOSS)),
            ]),
        ),
        (
            "journeys",
            Value::obj([
                ("total", graph.journeys.len().into()),
                ("arrived", fate(JourneyFate::Arrived).into()),
                ("lost", graph.losses().count().into()),
                ("in_flight", fate(JourneyFate::InFlight).into()),
            ]),
        ),
        ("rexmits", graph.rexmits.len().into()),
        ("attribution_coverage", Value::fixed(graph.coverage(), 4)),
        ("superseded_losses", superseded_count(&graph).into()),
        ("oracle_failures", failures.len().into()),
        ("causes", counts(graph.cause_counts())),
        ("losses", counts(graph.loss_counts())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::lookup;

    #[test]
    fn seeded_run_passes_its_own_oracle() {
        let graph = causal_graph(&lossy_journal());
        assert!(
            graph.losses().next().is_some(),
            "the seeded plan must inject at least one loss"
        );
        assert!(!graph.rexmits.is_empty(), "losses must force retransmits");
        assert_eq!(oracle_failures(&graph), Vec::<String>::new());
        let v = report(&Workloads::new(crate::report::Sizes::SMALL));
        assert_eq!(
            lookup(&v, "attribution_coverage").and_then(Value::as_f64),
            Some(1.0)
        );
    }
}
