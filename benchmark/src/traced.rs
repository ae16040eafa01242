//! The traced run: where the time of a frame goes, layer by layer.
//!
//! End-to-end metrics never come from here. This run alternates untraced and
//! traced rounds (the ratio of their speeds is what tracing costs), reads the
//! layers' public counters from the untraced rounds, captures the workload's
//! frames, runs the per-layer probes over them, and writes every span to
//! `out/spans-<workload>.json`.

use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use crate::apps::Pattern;
use crate::ledger::{self, Metric, Report};
use crate::probes::{self, Capture, Sizes};
use crate::round::{self, Round, Slice};
use crate::span::Recorder;
use crate::stats::{median, ratio, residual, Part};
use crate::workloads::Workload;

/// Where span files go: `benchmark/out/`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

const APP_SPANS: [&str; 3] = ["app.on_connected", "app.on_data", "app.on_send_space"];

/// Runs `workload` traced for about `seconds` and reports the per-layer
/// metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Report {
    run_of(workload, workload.ops_per_round(), seed, seconds)
}

/// [`run`] with rounds of `ops` operations.
pub fn run_of(workload: Workload, ops: u64, seed: u64, seconds: f64) -> Report {
    let pattern = Rc::new(Pattern::new(seed));
    let mut rec = Recorder::new();
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while plain.is_empty() || started.elapsed().as_secs_f64() < seconds {
        plain.push(round::run_round_of(workload, ops, seed, &pattern, None));
        let id = rec.open("core.traced_round");
        traced.push(round::run_round_of(
            workload,
            ops,
            seed,
            &pattern,
            Some(&mut rec),
        ));
        rec.close(id, 1);
    }

    let cap = probes::capture(workload, seed, &pattern);
    let sizes = Sizes::of(&plain[0]);
    let id = rec.open("probes");
    probes::run_all(workload, &cap, &sizes, &mut rec);
    rec.close(id, 1);

    let (attempted, failed, mut problems) = ledger::verify(&plain);
    let (attempted_t, failed_t, problems_t) = ledger::verify(&traced);
    problems.extend(problems_t);
    // Tracing must not change what the sim does.
    if traced[0].sim_exact() != plain[0].sim_exact() {
        problems.push("the traced round diverged from the untraced one".to_string());
    }

    let (metrics, breakdown) = layer_metrics(workload, &plain, &traced, &cap, &rec);
    let mut notes = vec![format!(
        "{} untraced + {} traced rounds; {} spans; {} frames captured; probes sized at {:.1} channels and {:.1} timers per host, {:.2} frames per wakeup, {:.1} events queued",
        plain.len(),
        traced.len(),
        rec.spans().len(),
        cap.frames.len(),
        sizes.channels_per_host,
        sizes.timers_per_host,
        sizes.frames_per_wakeup,
        sizes.pending,
    )];
    notes.extend(breakdown);
    let path = out_dir().join(format!("spans-{}.json", workload.name()));
    match std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, rec.to_json(workload.name())))
    {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => problems.push(format!("could not write {}: {e}", path.display())),
    }
    Report {
        workload,
        correct: problems.is_empty(),
        attempted: attempted + attempted_t,
        failed: failed + failed_t,
        metrics,
        extra: Vec::new(),
        problems,
        notes,
    }
}

/// The per-layer metrics, and the lines that show how they add up to a frame.
fn layer_metrics(
    workload: Workload,
    plain: &[Round],
    traced: &[Round],
    cap: &Capture,
    rec: &Recorder,
) -> (Vec<Metric>, Vec<String>) {
    // Counts are exact, so the first untraced round speaks for all of them.
    let r = &plain[0];
    let c = &r.layers;
    let frames = r.frames as f64;
    let per_frame = |count: u64| ratio(count as f64, frames);
    let per_kframe = |count: u64| ratio(count as f64, frames / 1000.0);
    let of_demuxed = |count: u64| ratio(count as f64, c.demux.packets as f64);
    let over_slices = |f: fn(&Slice) -> f64| {
        let slices = plain.iter().flat_map(|r| &r.slices);
        ratio(slices.clone().map(f).sum(), slices.count() as f64)
    };
    // Median self time per call over the spans of a probe.
    let probe = |name: &str| median(&mut rec.self_ns_per_call(name)).unwrap_or(0.0);
    let ns = |name: &'static str| Metric::new(name, probe(name), "ns");
    let count = |name: &'static str, value: f64| Metric::new(name, value, "count");
    let share = |name: &'static str, value: f64| Metric::new(name, value, "ratio");

    // Time in the benchmark's own callbacks, per frame of the traced rounds.
    let app_ns: u64 = APP_SPANS.iter().map(|name| rec.totals(name).0).sum();
    let traced_frames: u64 = traced.iter().map(|r| r.frames).sum();
    let app_ns_per_frame = ratio(app_ns as f64, traced_frames as f64);

    // What one wire frame costs, summed from the probes (README, "The
    // sum"). Measured weights come from the counters; the 1.0s are
    // structural: each frame is built, sent, received and parsed once, is one
    // segment, and restarts about one timer. `wire.flowkey_ns`,
    // `kernel.classify_ns` and the checksum are inside the terms below.
    let emit = if workload == Workload::BulkObserved {
        "trace.emit_observed_ns"
    } else {
        "trace.emit_quiescent_ns"
    };
    let pool_frames = c.frame_stats.frames_fresh + c.frame_stats.frames_recycled;
    let mut parts: Vec<Part> = [
        ("sim.dispatch_ns", per_frame(r.events)),
        ("wire.emit_ns", 1.0),
        ("wire.parse_ns", 1.0),
        ("filter.bpf_ns", per_frame(c.demux.scan_fallbacks)),
        ("buffers.alloc_ns", per_frame(pool_frames)),
        ("netdev.nic_ns", 1.0),
        ("proto.ip_rx_ns", 1.0),
        ("kernel.deliver_consume_ns", per_frame(c.ch_deliveries)),
        ("kernel.transmit_ns", 1.0),
        ("kernel.channel_cycle_ns", per_frame(c.connections)),
        ("tcp.segment_ns", 1.0),
        ("timers.restart_ns", 1.0),
        ("registry.handshake_ns", per_frame(c.connections) / 2.0),
        (emit, cap.records_per_frame),
    ]
    .into_iter()
    .map(|(name, calls_per_frame)| Part {
        name,
        ns_per_call: probe(name),
        calls_per_frame,
    })
    .collect();
    parts.push(Part {
        name: "core.app_ns_per_frame",
        ns_per_call: app_ns_per_frame,
        calls_per_frame: 1.0,
    });
    let host_ns_per_frame = ledger::ns_per_frame(&ledger::quietest(plain));
    let (accounted, glue, accounted_share) = residual(host_ns_per_frame, &parts);
    let mut breakdown = vec![format!(
        "host_ns_per_frame {host_ns_per_frame:.0} = {accounted:.0} accounted + {glue:.0} glue:"
    )];
    breakdown.extend(parts.iter().map(|p| {
        format!(
            "  {:<26} {:>8.1} ns x {:>6.3} per frame = {:>7.1} ns",
            p.name,
            p.ns_per_call,
            p.calls_per_frame,
            p.ns_per_call * p.calls_per_frame
        )
    }));

    let metrics = vec![
        ns("sim.dispatch_ns"),
        ns("sim.cancel_ns"),
        count(
            "sim.pending_depth_mean",
            over_slices(|s| f64::from(s.pending)),
        ),
        share(
            "sim.tombstone_ratio",
            over_slices(|s| {
                ratio(
                    f64::from(s.heap_len.saturating_sub(s.pending)),
                    f64::from(s.heap_len),
                )
            }),
        ),
        Metric::new(
            "sim.slice_ns_per_event_p99",
            ledger::ns_per_event_p99(plain),
            "ns",
        ),
        Metric::new("sim.elapsed_ms", r.sim_elapsed_ns as f64 / 1e6, "sim_ms"),
        ns("wire.parse_ns"),
        ns("wire.emit_ns"),
        ns("wire.flowkey_ns"),
        Metric::new(
            "wire.checksum_ns_per_kib",
            probe("wire.checksum_ns_per_kib") * 1024.0,
            "ns/KiB",
        ),
        ns("filter.bpf_ns"),
        ns("buffers.alloc_ns"),
        count(
            "buffers.fresh_per_frame",
            per_frame(c.frame_stats.frames_fresh),
        ),
        Metric::new(
            "buffers.bytes_copied_per_frame",
            per_frame(c.frame_stats.bytes_copied),
            "B",
        ),
        count("buffers.cow_copies", c.frame_stats.cow_copies as f64),
        ns("netdev.nic_ns"),
        ns("proto.ip_rx_ns"),
        ns("timers.restart_ns"),
        ns("kernel.classify_ns"),
        ns("kernel.deliver_consume_ns"),
        ns("kernel.transmit_ns"),
        ns("kernel.channel_cycle_ns"),
        share("kernel.flow_hit_ratio", of_demuxed(c.demux.flow_hits)),
        share("kernel.listen_hit_ratio", of_demuxed(c.demux.listen_hits)),
        share(
            "kernel.scan_fallback_ratio",
            of_demuxed(c.demux.scan_fallbacks),
        ),
        count("kernel.frames_per_wakeup", c.frames_per_wakeup),
        count("kernel.ring_drops_per_kframe", per_kframe(c.ch_ring_drops)),
        ns("tcp.segment_ns"),
        count("tcp.rexmit_per_kframe", per_kframe(c.rexmit_segs)),
        count("tcp.rtt_samples_per_kframe", per_kframe(c.rtt_samples)),
        ns("registry.handshake_ns"),
        count("registry.handshake_failures", c.handshake_failures as f64),
        ns("trace.emit_quiescent_ns"),
        ns("trace.emit_observed_ns"),
        count("trace.records_per_frame", cap.records_per_frame),
        count(
            "trace.journal_dropped",
            r.observed.unwrap_or_default().dropped as f64,
        ),
        Metric::new("core.app_ns_per_frame", app_ns_per_frame, "ns"),
        Metric::new("core.glue_ns_per_frame", glue, "ns"),
        share("core.accounted_share", accounted_share),
        share(
            "bench.span_overhead_ratio",
            ratio(
                ledger::ns_per_event(&ledger::quietest(traced)),
                ledger::ns_per_event(&ledger::quietest(plain)),
            ),
        ),
    ];
    (metrics, breakdown)
}
