//! `bench zero_copy`: what the reproduction itself costs to run, in exact
//! counts — `BENCH_zero_copy.json`.
//!
//! The paper tables report *simulated* 1993 time; this report counts the
//! work behind them: discrete events executed per table and the zero-copy
//! frame path's allocation behaviour (fresh heap buffers vs. pool-recycled
//! ones, bytes memcpy'd). It also runs the Table-2 bulk workload twice,
//! with the frame pool enabled and disabled, to measure what the freelist
//! saves. How long any of it takes on the host is `benchmark/`'s
//! `host_ns_per_event`, not a field here.

use unp_buffers::{frame_stats, reset_frame_stats, FramePool, FrameStats};
use unp_core::experiments::{mbps, Transfer};
use unp_core::{Network, OrgKind};
use unp_trace::json::Value;

use crate::report::Workloads;
use crate::tables;

/// Application write size of the pool ablation's bulk workload.
const POOL_PACKET: usize = 4096;

/// Runs `f` with the frame and event counters zeroed, returning the
/// events it executed and the frame counters it left.
pub fn counted(f: impl FnOnce()) -> (u64, FrameStats) {
    reset_frame_stats();
    unp_sim::reset_events_executed();
    f();
    (unp_sim::events_executed(), frame_stats())
}

/// One side of the pooled-vs-unpooled comparison.
pub struct PoolRun {
    pub throughput_mbps: f64,
    pub stats: FrameStats,
}

impl PoolRun {
    /// Heap allocations per frame allocated.
    pub fn allocs_per_frame(&self) -> f64 {
        let frames = self.stats.frames_fresh + self.stats.frames_recycled;
        if frames == 0 {
            return 0.0;
        }
        self.stats.frames_fresh as f64 / frames as f64
    }
}

/// Runs the Table-2 bulk transfer (user-library organization, Ethernet)
/// once with the given pool policy, and returns throughput plus the frame
/// counters for the steady-state run (world construction excluded).
pub fn pool_run(total: u64, pooled: bool) -> PoolRun {
    let transfer = Transfer::table2(Network::Ethernet, OrgKind::UserLibrary, POOL_PACKET, total);
    let (_world, stats) = transfer.run(|w, _| {
        if !pooled {
            w.pool = FramePool::disabled(w.pool.buf_size());
        }
        reset_frame_stats();
    });
    PoolRun {
        throughput_mbps: mbps(&stats),
        stats: frame_stats(),
    }
}

fn frames_value(s: &FrameStats) -> Value {
    Value::obj([
        ("frames_fresh", s.frames_fresh.into()),
        ("frames_recycled", s.frames_recycled.into()),
        ("cow_copies", s.cow_copies.into()),
        ("bytes_copied", s.bytes_copied.into()),
    ])
}

/// Regenerates every table under the counters, runs the pool ablation,
/// prints both and returns the report.
pub fn report(w: &Workloads) -> Value {
    let total = w.sizes.total;
    let counts: Vec<_> = tables::runs(total, w.sizes.rounds)
        .into_iter()
        .map(|(name, run)| (name, counted(run)))
        .collect();
    let (pooled, unpooled) = (pool_run(total, true), pool_run(total, false));
    let reduction = unpooled.allocs_per_frame() / pooled.allocs_per_frame();

    println!("== Reproduction cost: events and frame allocations per table ==");
    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>8} {:>12}",
        "table", "events", "fresh", "recycled", "cow", "bytes copied"
    );
    for (name, (events, s)) in &counts {
        println!(
            "{name:<12} {events:>12} {:>10} {:>10} {:>8} {:>12}",
            s.frames_fresh, s.frames_recycled, s.cow_copies, s.bytes_copied
        );
    }
    println!();
    println!(
        "== Frame pool ablation: Table-2 bulk workload ({POOL_PACKET} B writes, {total} B total) =="
    );
    for (label, run) in [("pooled", &pooled), ("pool disabled", &unpooled)] {
        println!(
            "  {label:<14} {:>7.1} Mb/s   {:>7} fresh  {:>7} recycled  ({:.3} heap allocs/frame)",
            run.throughput_mbps,
            run.stats.frames_fresh,
            run.stats.frames_recycled,
            run.allocs_per_frame()
        );
    }
    println!("  pool cuts heap allocations {reduction:.1}x per delivered frame");
    println!();

    let side = |run: &PoolRun| {
        Value::obj([
            ("throughput_mbps", Value::fixed(run.throughput_mbps, 3)),
            ("frames", frames_value(&run.stats)),
        ])
    };
    Value::obj([
        ("benchmark", "zero_copy_frame_path".into()),
        (
            "tables",
            counts
                .iter()
                .map(|(name, (events, stats))| {
                    Value::obj([
                        ("name", (*name).into()),
                        ("events", (*events).into()),
                        ("frames", frames_value(stats)),
                    ])
                })
                .collect(),
        ),
        (
            "pool_comparison",
            Value::obj([
                (
                    "workload",
                    Value::obj([
                        ("table", 2usize.into()),
                        ("user_packet", POOL_PACKET.into()),
                        ("total_bytes", total.into()),
                    ]),
                ),
                ("pooled", side(&pooled)),
                ("unpooled", side(&unpooled)),
                (
                    "pooled_allocs_per_frame",
                    Value::fixed(pooled.allocs_per_frame(), 4),
                ),
                (
                    "unpooled_allocs_per_frame",
                    Value::fixed(unpooled.allocs_per_frame(), 4),
                ),
                ("alloc_reduction_factor", Value::fixed(reduction, 2)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_halves_allocations_on_bulk_workload() {
        // The zero-copy tentpole's acceptance bar: >= 2x fewer heap
        // allocations per frame with the pool on, same throughput result.
        let (pooled, unpooled) = (pool_run(200_000, true), pool_run(200_000, false));
        assert!(
            unpooled.allocs_per_frame() >= 2.0 * pooled.allocs_per_frame(),
            "pool saved too little: pooled {:.4} vs unpooled {:.4} allocs/frame",
            pooled.allocs_per_frame(),
            unpooled.allocs_per_frame()
        );
        assert!(
            (pooled.throughput_mbps - unpooled.throughput_mbps).abs() < 1e-9,
            "pooling must not change simulation results"
        );
    }

    #[test]
    fn json_is_shaped() {
        use crate::report::Sizes;
        crate::summary::assert_shaped("zero_copy", &report(&Workloads::new(Sizes::SMALL)));
    }
}
