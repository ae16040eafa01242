//! The report registry: every `BENCH_*.json` artifact and every gated
//! measurement is one [`Report`] — a name, the file it is committed as,
//! and a function from the shared [`Workloads`] to a JSON [`Value`].
//!
//! Reports hold simulated time and exact counts only, so each artifact has
//! one possible content and `ci.sh` checks it by `git diff`. Host time is
//! `benchmark/`'s job; the single wall-clock figure left here is the
//! churn *ratio* ([`crate::scale::churn_report`]), which has no file.

use std::cell::OnceCell;

use unp_trace::json::Value;
use unp_trace::Record;

use crate::{causal, isolation, monitor, scale, timings, trace};

/// The workload sizes behind the artifacts. The committed files come from
/// [`Sizes::DEFAULT`]; tests shrink them.
#[derive(Clone, Copy)]
pub struct Sizes {
    /// Bytes per transfer in the timed tables and the pool ablation.
    pub total: u64,
    /// Ping-pong rounds per Table-3 cell.
    pub rounds: usize,
    /// Bytes per transfer of the traced Table-2 sweep.
    pub traced_total: u64,
    /// Channel populations the scale sweep visits.
    pub scale_counts: &'static [usize],
}

impl Sizes {
    pub const DEFAULT: Sizes = Sizes {
        total: 2_000_000,
        rounds: 30,
        traced_total: 1_000_000,
        scale_counts: &scale::SCALE_COUNTS,
    };

    /// Sizes that keep a debug-build test run short.
    #[cfg(test)]
    pub(crate) const SMALL: Sizes = Sizes {
        total: 100_000,
        rounds: 3,
        traced_total: 100_000,
        scale_counts: &[8, 64],
    };
}

/// The sizes every report reads, and the one journaled workload more than
/// one report reads, run at most once per invocation: the seeded lossy
/// journal feeds `causal` and `monitor`. Every other workload belongs to
/// one report, which runs it once.
pub struct Workloads {
    pub sizes: Sizes,
    lossy: OnceCell<Vec<Record>>,
}

impl Workloads {
    pub fn new(sizes: Sizes) -> Workloads {
        Workloads {
            sizes,
            lossy: OnceCell::new(),
        }
    }

    /// The seeded faulty Table-2 journal ([`causal::lossy_journal`]).
    pub fn lossy_journal(&self) -> &[Record] {
        self.lossy.get_or_init(causal::lossy_journal)
    }
}

/// One named measurement. `build` prints the human-readable report as it
/// goes and returns the machine-readable one.
pub struct Report {
    pub name: &'static str,
    /// The committed artifact, for reports `bench` writes.
    pub file: Option<&'static str>,
    pub build: fn(&Workloads) -> Value,
}

/// Every report, in `bench all` / `gate all` order.
pub const REPORTS: [Report; 7] = [
    Report {
        name: "zero_copy",
        file: Some("BENCH_zero_copy.json"),
        build: timings::report,
    },
    Report {
        name: "trace",
        file: Some("BENCH_trace.json"),
        build: trace::report,
    },
    Report {
        name: "demux_scale",
        file: Some("BENCH_demux_scale.json"),
        build: scale::report,
    },
    Report {
        name: "causal",
        file: Some("BENCH_causal.json"),
        build: causal::report,
    },
    Report {
        name: "isolation",
        file: Some("BENCH_isolation.json"),
        build: isolation::report,
    },
    Report {
        name: "monitor",
        file: Some("BENCH_monitor.json"),
        build: monitor::report,
    },
    // Wall-clock, so never an artifact.
    Report {
        name: "churn",
        file: None,
        build: scale::churn_report,
    },
];

/// The reports `name` selects (`all` = every one accepted by `keep`), or
/// an error naming the choices.
pub fn select(name: &str, keep: impl Fn(&Report) -> bool) -> Result<Vec<&'static Report>, String> {
    let picked: Vec<&Report> = REPORTS
        .iter()
        .filter(|r| keep(r) && (name == "all" || name == r.name))
        .collect();
    if picked.is_empty() {
        let names: Vec<&str> = REPORTS.iter().filter(|r| keep(r)).map(|r| r.name).collect();
        return Err(format!(
            "unknown report {name:?} (want all | {})",
            names.join(" | ")
        ));
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_are_identical_in_either_order() {
        // Every deterministic report, built forward and then — in the
        // same process, on the same thread-local frame-id mint, clock,
        // pool counters and observer list — in reverse: whatever one
        // workload leaves behind must not reach the next.
        let names = |order: Vec<&'static Report>| -> Vec<(&'static str, Value)> {
            let w = Workloads::new(Sizes::SMALL);
            order.iter().map(|r| (r.name, (r.build)(&w))).collect()
        };
        let deterministic = || REPORTS.iter().filter(|r| r.name != "churn");
        let forward = names(deterministic().collect());
        let mut backward = names(deterministic().rev().collect());
        backward.reverse();
        assert_eq!(forward.len(), REPORTS.len() - 1);
        for (f, b) in forward.iter().zip(&backward) {
            assert_eq!(f, b, "report {} depends on what ran before it", f.0);
        }
    }

    #[test]
    fn select_knows_every_report_and_rejects_strangers() {
        assert_eq!(select("all", |_| true).unwrap().len(), REPORTS.len());
        assert_eq!(select("trace", |_| true).unwrap()[0].name, "trace");
        let artifacts = select("all", |r| r.file.is_some()).unwrap();
        assert!(artifacts.iter().all(|r| r.name != "churn"));
        assert!(select("churn", |r| r.file.is_some()).is_err());
        let err = select("nonsense", |_| true).err().expect("no such report");
        assert!(err.contains("zero_copy"), "{err}");
    }

    #[test]
    fn every_artifact_has_one_report() {
        // `git diff` cannot see a committed artifact that nothing writes
        // any more: the repository root holds exactly the reports' files
        // and the summary `bench all` evaluates over them.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut found: Vec<String> = std::fs::read_dir(root)
            .expect("repository root")
            .map(|e| e.expect("directory entry").file_name())
            .filter_map(|name| name.into_string().ok())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        found.sort();
        let mut written: Vec<String> = (REPORTS.iter())
            .filter_map(|r| r.file)
            .chain(["BENCH_summary.json"])
            .map(String::from)
            .collect();
        written.sort();
        assert_eq!(found, written);
    }
}
