//! Regenerates the paper's evaluation and the repo's own artifacts.
//!
//! ```text
//! repro-tables [tables] [quick] [table1 … table5 fig1 ablations]
//!     print the paper's tables (all, or the named ones); `quick` runs
//!     smaller workloads. The bare invocation's output is the committed
//!     golden tables_output.txt.
//! repro-tables bench <name|all>
//!     run a report, print it, write its BENCH_<name>.json into the
//!     current directory (`causal` also writes the golden Chrome trace
//!     tests/golden/causal_trace.json, `all` also BENCH_summary.json, the
//!     gate table evaluated over them) and hold it to its rows of the gate
//!     table; exit 1 on any failure. Every artifact is simulated time and
//!     exact counts at one fixed size, so CI checks them by `git diff`:
//!     after a change that moves one, regenerate with `bench all` and
//!     review the diff.
//! repro-tables gate <name|all>
//!     `bench` without the writing, over one more report that has no
//!     artifact: `churn` (the one wall-clock check: 4096-vs-64-channel
//!     churn ratio).
//! repro-tables explain [f<id> | <port> | postmortem]
//!     run the seeded faulty Table-2 workload and print the causal
//!     postmortem for one frame, one connection, or the whole run;
//!     `postmortem` prints the flight-recorder window a seeded protocol
//!     violation freezes.
//! ```
//! Names: zero_copy demux trace profile demux_scale causal isolation
//! monitor.

use std::process::exit;

use unp_bench::report::{select, Sizes, Workloads};
use unp_bench::summary::{check, summary, TABLE};
use unp_bench::{causal, monitor, tables};
use unp_trace::json;

fn usage(problem: &str) -> ! {
    eprintln!("repro-tables: {problem}");
    eprintln!(
        "usage: repro-tables [tables] [quick] [table1..table5|fig1|ablations]... \
         | bench <name|all> | gate <name|all> \
         | explain [f<id>|<port>|postmortem]"
    );
    exit(2)
}

fn write_artifact(file: &str, text: &str) {
    std::fs::write(file, text).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("wrote {file}");
}

fn print_tables(selectors: &[&str]) {
    let quick = selectors.contains(&"quick");
    let (total, rounds) = if quick {
        (400_000, 10)
    } else {
        (Sizes::DEFAULT.total, Sizes::DEFAULT.rounds)
    };
    let runs = tables::runs(total, rounds);
    let named: Vec<&str> = selectors
        .iter()
        .copied()
        .filter(|s| *s != "quick")
        .collect();
    if let Some(unknown) = named
        .iter()
        .find(|s| runs.iter().all(|(name, _)| name != *s))
    {
        usage(&format!("unknown table {unknown:?}"));
    }
    println!("Reproduction of \"Implementing Network Protocols at User Level\"");
    println!("(Thekkath, Nguyen, Moy, Lazowska — SIGCOMM 1993)\n");
    for (name, run) in runs {
        if named.is_empty() || named.contains(&name) {
            run();
        }
    }
}

/// Builds each report `name` selects once, writes the artifacts when
/// `write` is set (which leaves out the reports that have none), and holds
/// every document to its rows of the gate table. The golden Chrome trace
/// is written here, not by `causal::report`, which unit tests call.
fn run_reports(name: &str, write: bool) {
    let reports = select(name, |r| !write || r.file.is_some()).unwrap_or_else(|e| usage(&e));
    let w = Workloads::new(Sizes::DEFAULT);
    let mut built = Vec::new();
    let mut failures = 0;
    for r in reports {
        let doc = (r.build)(&w);
        if write {
            write_artifact(r.file.expect("selected by file"), &json::write(&doc));
            if r.name == "causal" {
                let graph = causal::causal_graph(w.lossy_journal());
                write_artifact(causal::GOLDEN_TRACE, &graph.render_chrome_trace());
            }
        }
        let rows: Vec<_> = TABLE.iter().filter(|row| row.report == r.name).collect();
        let before = failures;
        for row in &rows {
            if let Err(failure) = check(row, &doc).outcome {
                eprintln!("gate FAILED: {failure}");
                failures += 1;
            }
        }
        let held = rows.len() - (failures - before);
        // Verdicts go to stderr so they survive `> /dev/null` on the reports.
        eprintln!("gate {}: {held} of {} rows hold", r.name, rows.len());
        built.push((r.name, doc));
    }
    if write && name == "all" {
        write_artifact("BENCH_summary.json", &json::write(&summary(&built)));
    }
    if failures > 0 {
        eprintln!("gate FAILED: {failures} row(s)");
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    match words.as_slice() {
        ["bench", name] => run_reports(name, true),
        ["gate", name] => run_reports(name, false),
        ["explain", "postmortem"] => monitor::print_postmortem_demo(&causal::lossy_journal()),
        ["explain", target @ ..] if target.len() <= 1 => {
            let graph = causal::causal_graph(&causal::lossy_journal());
            causal::print_explain(&graph, target.first().copied());
        }
        [cmd @ ("bench" | "gate" | "explain"), ..] => usage(&format!("bad arguments to {cmd}")),
        ["tables", selectors @ ..] | selectors => print_tables(selectors),
    }
}
