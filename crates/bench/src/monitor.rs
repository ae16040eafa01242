//! `bench monitor`: the streaming conformance monitor exercised as a
//! benchmark artifact — `BENCH_monitor.json`.
//!
//! Two measurements, each a leg of the checker-soundness argument:
//!
//! * **golden** — the seeded lossy Table-2 journal (the causal report's
//!   workload), a clean variant, and a *live* attached bulk run must all
//!   produce zero violations while every checker validates real events
//!   (the non-vacuity counts in [`unp_trace::CheckStats`]).
//! * **mutations** — every [`mutations::BugClass`] injected into the
//!   lossy journal must surface as its expected
//!   [`unp_trace::ViolationKind`]: zero violations on conformant runs
//!   means nothing unless each checker still catches its bug class.
//!
//! The third leg, observer memory tracking the touched state rather than
//! the channel population, runs on the demux scale sweep's own modules
//! ([`crate::scale::scale_point`]) and is reported in
//! `BENCH_demux_scale.json`.
//!
//! What attaching the monitor costs in host time is the difference
//! between `benchmark/`'s `bulk_observed` and `bulk` workloads, refereed
//! there on every PR; nothing here reads a clock.

use unp_core::experiments::Transfer;
use unp_core::{Network, OrgKind};
use unp_trace::json::Value;
use unp_trace::monitor::mutations::{self, BugClass};
use unp_trace::{Monitor, Record};

use crate::causal::{CAUSAL_LOSS, CAUSAL_PACKET, CAUSAL_SEED, CAUSAL_TOTAL};
use crate::report::Workloads;

/// Bytes of the live-attached bulk transfer.
const LIVE_TOTAL: u64 = 1_000_000;
/// Flight-recorder per-host window used for the postmortem demo.
pub const DEMO_RECORDER_CAP: usize = 64;

/// The Table-2 transfer at the causal workload's write size, no faults.
fn clean_bulk(total: u64) {
    Transfer::table2(
        Network::Ethernet,
        OrgKind::UserLibrary,
        CAUSAL_PACKET,
        total,
    )
    .run(|_, _| {});
}

/// The causal workload without its fault plan: same transfer, clean
/// schedule, journal recording.
fn clean_journal() -> Vec<Record> {
    unp_trace::journal_start();
    clean_bulk(CAUSAL_TOTAL);
    unp_trace::journal_stop()
}

/// The bulk workload with the monitor attached live and the journal off;
/// returns the violations it flagged.
fn live_violations() -> u64 {
    unp_trace::reset_run();
    let h = unp_trace::attach(Box::new(Monitor::new()));
    clean_bulk(LIVE_TOTAL);
    let live = unp_trace::detach_as::<Monitor>(h).expect("live monitor");
    live.total_violations()
}

/// Replays the lossy journal through one mutant per bug class and
/// counts violations of the expected kind. Panics if the journal offers
/// no site for a class — that is a workload-coverage failure, not a
/// checker pass.
fn mutation_coverage(records: &[Record]) -> Vec<(BugClass, u64)> {
    BugClass::ALL
        .iter()
        .map(|&class| {
            let mutant = mutations::mutate(records, class, CAUSAL_SEED).unwrap_or_else(|| {
                panic!(
                    "lossy journal has no mutation site for {} — workload lost coverage",
                    class.label()
                )
            });
            let mon = Monitor::new().run_over(&mutant);
            (class, mon.count(class.expected_kind()))
        })
        .collect()
}

/// The recorder demo: ack-regression mutant replayed through
/// [`Monitor::with_recorder`] — a recorder-fed monitor freezes a window
/// around the first violation. Used by the report and by `explain
/// postmortem`.
pub fn demo_monitor(lossy: &[Record]) -> Monitor {
    let mutant = mutations::mutate(lossy, BugClass::AckRegression, CAUSAL_SEED)
        .expect("lossy journal offers an ack mutation site");
    Monitor::with_recorder(DEMO_RECORDER_CAP).run_over(&mutant)
}

/// Runs every measurement, prints the human report and returns the
/// machine one. Long phases announce themselves.
pub fn report(w: &Workloads) -> Value {
    let lossy = w.lossy_journal();
    let lossy_mon = Monitor::new().run_over(lossy);
    println!("monitor: recording clean journal");
    let clean_violations = Monitor::new().run_over(&clean_journal()).total_violations();
    println!(
        "monitor: mutation coverage ({} bug classes)",
        BugClass::ALL.len()
    );
    let muts = mutation_coverage(lossy);
    let caught = muts.iter().filter(|(_, n)| *n > 0).count();
    println!("monitor: live-attached bulk run");
    let live_violations = live_violations();
    let demo = demo_monitor(lossy);
    let postmortem_records = demo.postmortem().map(<[Record]>::len).unwrap_or(0);
    let golden_violations = lossy_mon.total_violations() + clean_violations + live_violations;
    let c = lossy_mon.checked();

    println!("== Streaming conformance monitor ==");
    println!(
        "  golden runs: lossy {} violations, clean {clean_violations}, live {live_violations}  (checked: {} acks, {} transitions, {} rexmits, {} ring, {} pool, {} classify)",
        lossy_mon.total_violations(),
        c.tcp_acks,
        c.transitions,
        c.rexmits,
        c.ring_events,
        c.pool_events,
        c.demux_classifies,
    );
    println!(
        "  mutation harness: {caught}/{} bug classes caught",
        muts.len()
    );
    for (class, n) in &muts {
        println!(
            "    {:<22} -> {n} {} violation{}",
            class.label(),
            class.expected_kind().label(),
            if *n == 1 { "" } else { "s" }
        );
    }
    println!(
        "  recorder demo: postmortem froze {postmortem_records} records (occupancy {} of {DEMO_RECORDER_CAP}/host)",
        demo.recorder_occupancy()
    );
    println!();

    Value::obj([
        ("benchmark", "monitor".into()),
        ("golden_violations", golden_violations.into()),
        (
            "workload",
            Value::obj([
                ("table", 2usize.into()),
                ("total_bytes", CAUSAL_TOTAL.into()),
                ("user_packet", CAUSAL_PACKET.into()),
                ("seed", CAUSAL_SEED.into()),
                ("loss", Value::Num(CAUSAL_LOSS)),
            ]),
        ),
        (
            "golden",
            Value::obj([
                ("lossy_violations", lossy_mon.total_violations().into()),
                ("clean_violations", clean_violations.into()),
                ("live_violations", live_violations.into()),
            ]),
        ),
        (
            "checked",
            Value::obj([
                ("tcp_acks", c.tcp_acks.into()),
                ("transitions", c.transitions.into()),
                ("rexmits", c.rexmits.into()),
                ("ring_events", c.ring_events.into()),
                ("pool_events", c.pool_events.into()),
                ("demux_classifies", c.demux_classifies.into()),
                ("quota_drops", c.quota_drops.into()),
            ]),
        ),
        (
            "mutations",
            Value::obj([
                ("classes", muts.len().into()),
                ("caught", caught.into()),
                (
                    "per_class",
                    Value::obj(muts.iter().map(|(class, n)| (class.label(), (*n).into()))),
                ),
            ]),
        ),
        (
            "recorder",
            Value::obj([
                ("capacity_per_host", DEMO_RECORDER_CAP.into()),
                ("postmortem_records", postmortem_records.into()),
                ("occupancy", demo.recorder_occupancy().into()),
            ]),
        ),
    ])
}

/// Prints the `explain postmortem` excerpt: the demo mutant's first
/// violation and the tail of its frozen flight-recorder window.
pub fn print_postmortem_demo(lossy: &[Record]) {
    let demo = demo_monitor(lossy);
    println!("== Postmortem demo: seeded ack-regression mutant ==");
    for v in demo.violations().iter().take(3) {
        println!("  violation: {}", v.line());
    }
    if let Some(window) = demo.postmortem() {
        let rendered = unp_trace::render(window);
        let lines: Vec<&str> = rendered.lines().collect();
        let tail = lines.len().saturating_sub(8);
        println!(
            "  flight recorder window: {} records; last {}:",
            window.len(),
            lines.len() - tail
        );
        for l in &lines[tail..] {
            println!("    {l}");
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::lossy_journal;
    use crate::report::Sizes;
    use crate::summary::assert_shaped;

    #[test]
    fn lossy_journal_replays_clean_and_mutations_catch() {
        let lossy = lossy_journal();
        let mon = Monitor::new().run_over(&lossy);
        assert_eq!(
            mon.total_violations(),
            0,
            "conformant lossy run must be violation-free: {:?}",
            mon.violations().first()
        );
        let c = mon.checked();
        assert!(c.tcp_acks > 0 && c.rexmits > 0 && c.ring_events > 0);
        assert!(c.pool_events > 0 && c.demux_classifies > 0 && c.transitions > 0);
        for (class, n) in mutation_coverage(&lossy) {
            assert!(n > 0, "{} not caught", class.label());
        }
        let demo = demo_monitor(&lossy);
        assert!(demo.postmortem().is_some_and(|w| !w.is_empty()));
    }

    #[test]
    fn scale_point_memory_tracks_sample_not_population() {
        use crate::scale::{scale_point, SCALE_SAMPLE};
        let small = scale_point(64);
        let big = scale_point(4096);
        assert_eq!(small.violations + big.violations, 0);
        assert!(big.ring_events >= SCALE_SAMPLE as u64);
        // 64x the population, same sample: observer state must not grow
        // with the channel count (allow slack for hash-map capacity).
        assert!(
            big.monitor_mem_bytes <= small.monitor_mem_bytes.max(1) * 4,
            "monitor memory scaled with population: {} -> {}",
            small.monitor_mem_bytes,
            big.monitor_mem_bytes
        );
    }

    #[test]
    fn report_json_is_shaped() {
        assert_shaped("monitor", &report(&Workloads::new(Sizes::SMALL)));
    }
}
