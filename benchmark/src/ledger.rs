//! From rounds to named metrics, and from metrics to the printed result.

use crate::round::{Round, Slice, SLICE_EVENTS};
use crate::stats::{median, percentile, ratio};
use crate::workloads::Workload;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, as measured.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one invocation reports for one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Outputs verified, no operation failed, nothing the run must keep
    /// fixed moved.
    pub correct: bool,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// The metrics `BENCHMARK.json` declares, in its order: the result line.
    pub metrics: Vec<Metric>,
    /// Metrics shown to a person but kept out of the result line.
    pub extra: Vec<Metric>,
    /// Why `correct` is false.
    pub problems: Vec<String>,
    /// Anything else worth a line: sample counts, the slice tail.
    pub notes: Vec<String>,
}

/// Median of a per-round figure.
fn over_rounds(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The run's slices with the host's interference taken out, as far as the
/// run allows: slice `k` of every round executes the *same* 2,000 events (the
/// sim is deterministic), and whatever else the machine was doing can only
/// have added to its wall time, so the least time any round took for slice
/// `k` is the best estimate of what slice `k` costs. With one round this is
/// just that round.
pub fn quietest(rounds: &[Round]) -> Vec<Slice> {
    quietest_of(rounds.iter().map(|r| r.slices.as_slice()))
}

fn quietest_of<'a>(mut rounds: impl Iterator<Item = &'a [Slice]>) -> Vec<Slice> {
    let mut slices = rounds.next().unwrap_or_default().to_vec();
    for round in rounds {
        for (best, s) in slices.iter_mut().zip(round) {
            best.wall_ns = best.wall_ns.min(s.wall_ns);
        }
    }
    slices
}

fn full(slices: &[Slice]) -> impl Iterator<Item = &Slice> {
    slices.iter().filter(|s| s.events == SLICE_EVENTS)
}

/// Median host ns per sim event over the full slices.
pub fn ns_per_event(slices: &[Slice]) -> f64 {
    let mut v: Vec<f64> = full(slices)
        .map(|s| s.wall_ns as f64 / s.events as f64)
        .collect();
    median(&mut v).unwrap_or(0.0)
}

/// Median host ns per wire frame over the full slices that sent one.
pub fn ns_per_frame(slices: &[Slice]) -> f64 {
    let mut v: Vec<f64> = full(slices)
        .filter(|s| s.frames > 0)
        .map(|s| s.wall_ns as f64 / s.frames as f64)
        .collect();
    median(&mut v).unwrap_or(0.0)
}

/// 99th-percentile host ns per sim event over every full slice of every
/// round, interference and all.
pub fn ns_per_event_p99(rounds: &[Round]) -> f64 {
    let mut v: Vec<f64> = rounds
        .iter()
        .flat_map(|r| full(&r.slices))
        .map(|s| s.wall_ns as f64 / s.events as f64)
        .collect();
    percentile(&mut v, 99.0).unwrap_or(0.0)
}

/// Checks the rounds of one run against each other and against the
/// workload's promises; returns the operation counts and what went wrong.
pub fn verify(rounds: &[Round]) -> (u64, u64, Vec<String>) {
    let mut problems = Vec::new();
    if rounds.is_empty() {
        return (0, 0, vec!["no round ran".to_string()]);
    }
    let attempted: u64 = rounds.iter().map(|r| r.ops_attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.ops_failed()).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    for (i, r) in rounds.iter().enumerate() {
        if r.watchdog_fired {
            problems.push(format!(
                "round {i}: watchdog stopped the engine after {} events",
                r.events
            ));
        }
        if r.mismatches > 0 {
            problems.push(format!(
                "round {i}: {} receives failed verification",
                r.mismatches
            ));
        }
        if r.resets > 0 {
            problems.push(format!("round {i}: {} connections reset", r.resets));
        }
        if r.leaked_channels > 0 {
            problems.push(format!(
                "round {i}: {} channels never reclaimed",
                r.leaked_channels
            ));
        }
        if let Some(o) = r.observed {
            if o.violations > 0 {
                problems.push(format!(
                    "round {i}: monitor flagged {} violations",
                    o.violations
                ));
            }
        }
        // Same workload, same seed: the sim must retrace its steps exactly.
        if r.sim_exact() != rounds[0].sim_exact() {
            problems.push(format!(
                "round {i} diverged from round 0: {:?} vs {:?}",
                r.sim_exact(),
                rounds[0].sim_exact()
            ));
        }
    }
    (attempted, failed, problems)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(workload: Workload, rounds: &[Round]) -> Report {
    let (attempted, failed, problems) = verify(rounds);
    let quiet = quietest(rounds);
    // The timed region's wall time with the interference taken out.
    let quiet_wall_s = quiet.iter().map(|s| s.wall_ns).sum::<u64>() as f64 / 1e9;
    let r0 = rounds.first();
    let notes = vec![format!(
        "{} rounds of {} slices ({} full, of {SLICE_EVENTS} events); p99 slice {:.1} ns/event over all rounds (reported, never gated)",
        rounds.len(),
        quiet.len(),
        full(&quiet).count(),
        ns_per_event_p99(rounds)
    )];
    let metrics = vec![
        // De-noised like the slices: every round sets up the same world, so
        // the least any of them took is what set-up costs.
        Metric::new(
            "setup_s",
            rounds
                .iter()
                .map(|r| r.setup_s)
                .fold(f64::INFINITY, f64::min),
            "s",
        ),
        Metric::new("host_ns_per_event", ns_per_event(&quiet), "ns"),
        Metric::new("host_ns_per_frame", ns_per_frame(&quiet), "ns"),
        Metric::new(
            "host_goodput_mbytes_per_s",
            ratio(r0.map_or(0.0, |r| r.timed_bytes as f64 / 1e6), quiet_wall_s),
            "MB/s",
        ),
        Metric::new(
            "host_ops_per_s",
            ratio(r0.map_or(0.0, |r| r.timed_ops as f64), quiet_wall_s),
            "1/s",
        ),
        Metric::new(
            "allocs_per_frame",
            over_rounds(rounds, |r| {
                ratio(r.timed_allocs as f64, r.timed_frames as f64)
            }),
            "count",
        ),
        Metric::new(
            "alloc_bytes_per_frame",
            over_rounds(rounds, |r| {
                ratio(r.timed_alloc_bytes as f64, r.timed_frames as f64)
            }),
            "B",
        ),
        Metric::new(
            "peak_heap_bytes",
            over_rounds(rounds, |r| r.peak_heap_bytes as f64),
            "B",
        ),
        Metric::new(
            "sim_events_per_frame",
            over_rounds(rounds, |r| ratio(r.events as f64, r.frames as f64)),
            "count",
        ),
    ];
    // Exact for a seed, but on `fanin_lossy` another seed's loss pattern
    // moves it by tens of percent (one lost FIN waits out an RTO back-off),
    // so no bound across seeds can hold it: it is shown here, compared
    // exactly by `selfcheck.sh`, and reported traced as `sim.elapsed_ms`.
    let extra = vec![Metric::new(
        "sim_elapsed_ms",
        over_rounds(rounds, |r| r.sim_elapsed_ns as f64 / 1e6),
        "sim_ms",
    )];
    Report {
        workload,
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        extra,
        problems,
        notes,
    }
}

impl Report {
    /// The one-line JSON result the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The table a person reads.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "== {} ==  ops_attempted {}  ops_failed {}  correct {}\n",
            self.workload.name(),
            self.attempted,
            self.failed,
            self.correct
        );
        for m in self.metrics.iter().chain(&self.extra) {
            out.push_str(&format!("  {:<34} {:>18.4} {}\n", m.name, m.value, m.unit));
        }
        for problem in &self.problems {
            out.push_str(&format!("  ! {problem}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  # {note}\n"));
        }
        out
    }
}

/// A JSON number with every digit `f64` carries; JSON has no NaN or
/// infinity, so anything non-finite is written as 0 and the run is wrong.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(wall_ns: u64, events: u64, frames: u64) -> Slice {
        Slice {
            wall_ns,
            events,
            frames,
            pending: 0,
            heap_len: 0,
            channels: 0,
            timers: 0,
        }
    }

    #[test]
    fn each_slice_keeps_its_quietest_round() {
        let rounds = [
            vec![
                slice(900, 2000, 300),
                slice(4000, 2000, 0),
                slice(50, 100, 10),
            ],
            vec![
                slice(800, 2000, 300),
                slice(5000, 2000, 0),
                slice(70, 100, 10),
            ],
            vec![
                slice(1000, 2000, 300),
                slice(3000, 2000, 0),
                slice(60, 100, 10),
            ],
        ];
        let quiet = quietest_of(rounds.iter().map(Vec::as_slice));
        let walls: Vec<u64> = quiet.iter().map(|s| s.wall_ns).collect();
        assert_eq!(walls, [800, 3000, 50]);
        // Medians are over full slices only; per frame, over those that sent one.
        assert_eq!(ns_per_event(&quiet), (0.4 + 1.5) / 2.0);
        assert_eq!(ns_per_frame(&quiet), 800.0 / 300.0);
        assert!(quietest_of(std::iter::empty()).is_empty());
    }

    #[test]
    fn result_line_parses_and_keeps_every_digit() {
        let report = Report {
            workload: Workload::Rr,
            correct: true,
            attempted: 500_000,
            failed: 0,
            metrics: vec![
                Metric::new("host_ns_per_event", 321.123_456_789, "ns"),
                Metric::new("sim.pending_depth_mean", 3.0, "count"),
                Metric::new("bad", f64::NAN, "ns"),
            ],
            extra: vec![Metric::new("sim_elapsed_ms", 1.5, "sim_ms")],
            problems: Vec::new(),
            notes: Vec::new(),
        };
        let line = report.to_json();
        assert!(!line.contains('\n'));
        let doc = unp_trace::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(500_000));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let metrics = doc.get("metrics").expect("metrics");
        let m = metrics.get("host_ns_per_event").expect("metric");
        assert_eq!(
            m.get("value").and_then(|v| v.as_f64()),
            Some(321.123_456_789)
        );
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("ns"));
        assert!(
            metrics.get("sim_elapsed_ms").is_none(),
            "extras stay out of the line"
        );
        assert!(report.to_text().contains("sim_elapsed_ms"));
        let dotted = metrics.get("sim.pending_depth_mean").expect("dotted name");
        assert_eq!(dotted.get("value").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(
            metrics
                .get("bad")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.0)
        );
    }
}
