//! One round: build a workload, warm it up, run it to the end in timed
//! slices, and check what came out.

use std::rc::Rc;
use std::time::Instant;

use unp_buffers::FrameStats;
use unp_core::{Host, World};
use unp_kernel::DemuxStats;
use unp_timers::TimerService;
use unp_trace::{Ctr, Hist};

use crate::alloc;
use crate::apps::Pattern;
use crate::span::{AppTimer, Recorder};
use crate::workloads::{Observed, Workload};

/// Sim events run before timing starts: frame-pool fill, hash-table growth,
/// the handshakes of the long-lived flows. All of it is set-up time.
pub const WARMUP_EVENTS: u64 = 200_000;
/// Sim events per timed slice.
pub const SLICE_EVENTS: u64 = 2_000;

/// One timed `Engine::run` of up to [`SLICE_EVENTS`] events.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Host wall time the slice took.
    pub wall_ns: u64,
    /// Sim events it executed: [`SLICE_EVENTS`], or fewer for a round's last.
    pub events: u64,
    /// Frames put on the wire during it.
    pub frames: u64,
    /// `Engine::pending()` when it ended.
    pub pending: u32,
    /// `Engine::heap_len()` when it ended (live entries plus tombstones).
    pub heap_len: u32,
    /// Most channels open on one host when it ended.
    pub channels: u32,
    /// Most timers armed on one host when it ended.
    pub timers: u32,
}

/// Everything one round measured. Fields marked *exact* depend only on the
/// workload and the seed, never on how fast the host ran.
#[derive(Debug, Clone)]
pub struct Round {
    /// Build + listen/connect + warm-up, seconds.
    pub setup_s: f64,
    /// The slices of the timed region, in order. The same seed cuts every
    /// round of a workload into the same slices.
    pub slices: Vec<Slice>,
    /// Wall time of the timed region, seconds.
    pub timed_wall_s: f64,
    /// Frames put on the wire in the timed region. *Exact.*
    pub timed_frames: u64,
    /// Heap allocations in the timed region. *Exact.*
    pub timed_allocs: u64,
    /// Heap bytes requested in the timed region. *Exact.*
    pub timed_alloc_bytes: u64,
    /// Operations completed in the timed region. *Exact.*
    pub timed_ops: u64,
    /// Payload bytes verified in the timed region. *Exact.*
    pub timed_bytes: u64,
    /// Live-heap high-water over the round, above where the round started.
    pub peak_heap_bytes: u64,
    /// `Engine::executed()` at the end. *Exact.*
    pub events: u64,
    /// `Ctr::FramesSent` at the end. *Exact.*
    pub frames: u64,
    /// `Engine::now()` at the end, sim ns. *Exact.*
    pub sim_elapsed_ns: u64,
    /// Operations the round attempted.
    pub ops_attempted: u64,
    /// Operations verified over the whole round. *Exact.*
    pub ops_done: u64,
    /// Receives that failed verification.
    pub mismatches: u64,
    /// Connections reset.
    pub resets: u64,
    /// Channels still open once the engine stopped.
    pub leaked_channels: u64,
    /// The engine still had events queued when the watchdog stopped it.
    pub watchdog_fired: bool,
    /// What the observers saw (`bulk_observed` only).
    pub observed: Option<Observed>,
    /// Public counters of the layers, read after the run.
    pub layers: LayerCounts,
}

/// Counters the layers already keep, read from outside after a round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    /// `unp_buffers::frame_stats()`.
    pub frame_stats: FrameStats,
    /// `NetIoModule::demux_stats()` summed over hosts.
    pub demux: DemuxStats,
    /// `Ctr::ChDeliveries`.
    pub ch_deliveries: u64,
    /// `Ctr::ChRingDrops`.
    pub ch_ring_drops: u64,
    /// `Ctr::TcpRexmitSegs`.
    pub rexmit_segs: u64,
    /// `Ctr::TcpRttSamples`.
    pub rtt_samples: u64,
    /// `Ctr::HandshakeFailures`.
    pub handshake_failures: u64,
    /// `Ctr::ConnectionsEstablished`.
    pub connections: u64,
    /// Mean of `Hist::WakeupBatchFrames`.
    pub frames_per_wakeup: f64,
}

impl Round {
    /// Operations that did not complete: outstanding when the engine
    /// stopped, or completed over a channel that was never reclaimed.
    pub fn ops_failed(&self) -> u64 {
        failed(self.ops_attempted, self.ops_done, self.leaked_channels)
    }

    /// What the sim did, which must be identical whenever the same workload
    /// runs with the same seed. (The allocation counts are kept apart: they
    /// are exact too, except where a `HashMap`'s per-process random hash
    /// seed decides between rehashing in place and growing — see README.)
    pub fn sim_exact(&self) -> [u64; 7] {
        [
            self.timed_frames,
            self.timed_ops,
            self.events,
            self.frames,
            self.sim_elapsed_ns,
            self.ops_done,
            self.layers.rexmit_segs,
        ]
    }
}

/// Of `attempted` operations, how many count as failed when `done` were
/// verified and `leaked` channels were never reclaimed: each leaked channel
/// takes back one completed operation.
fn failed(attempted: u64, done: u64, leaked: u64) -> u64 {
    attempted - done.saturating_sub(leaked).min(attempted)
}

/// The largest per-host figure in the world.
fn most(w: &World, per_host: impl Fn(&Host) -> usize) -> u32 {
    w.hosts.iter().map(per_host).max().unwrap_or(0) as u32
}

/// Runs untraced rounds of `workload` until their timed regions add up to
/// `seconds` of wall time.
pub fn run_for(workload: Workload, seed: u64, seconds: f64) -> Vec<Round> {
    let pattern = Rc::new(Pattern::new(seed));
    let mut rounds = Vec::new();
    let mut timed = 0.0;
    while timed < seconds {
        let round = run_round(workload, seed, &pattern, None);
        timed += round.timed_wall_s;
        rounds.push(round);
    }
    rounds
}

/// Runs one round of `workload` at its benchmark size. With a recorder, every
/// slice is a span and the apps' callbacks are spanned inside it.
pub fn run_round(
    workload: Workload,
    seed: u64,
    pattern: &Rc<Pattern>,
    recorder: Option<&mut Recorder>,
) -> Round {
    run_round_of(workload, workload.ops_per_round(), seed, pattern, recorder)
}

/// [`run_round`] at another size: `ops` operations.
pub fn run_round_of(
    workload: Workload,
    ops: u64,
    seed: u64,
    pattern: &Rc<Pattern>,
    mut recorder: Option<&mut Recorder>,
) -> Round {
    let timer = recorder
        .as_ref()
        .map_or_else(AppTimer::off, |r| r.app_timer());
    // Sized before the clock starts, so recording a slice never allocates.
    let budget = workload.event_budget(ops);
    let mut slices = Vec::with_capacity((budget / SLICE_EVENTS + 1) as usize);
    let heap_before = alloc::live_bytes();
    alloc::reset_peak();
    unp_buffers::reset_frame_stats();

    let setup_start = Instant::now();
    let mut inst = workload.build(ops, seed, pattern, timer);
    let mut drained = inst.eng.run(&mut inst.w, WARMUP_EVENTS);
    let setup_s = setup_start.elapsed().as_secs_f64();
    if let Some(r) = recorder.as_mut() {
        // The warm-up's callbacks belong to no slice.
        r.collect_app();
    }

    let allocs_before = alloc::snapshot();
    let frames_before = inst.w.metrics.get(Ctr::FramesSent);
    let ops_before = inst.tally.ops_done.get();
    let bytes_before = inst.tally.bytes_verified.get();
    let timed_start = Instant::now();
    let mut frames_seen = frames_before;
    while !drained && inst.eng.executed() < budget {
        let span = recorder.as_mut().map(|r| r.open("core.slice"));
        let events_before = inst.eng.executed();
        let t = Instant::now();
        drained = inst.eng.run(&mut inst.w, SLICE_EVENTS);
        let wall_ns = t.elapsed().as_nanos() as u64;
        let events = inst.eng.executed() - events_before;
        if let (Some(r), Some(id)) = (recorder.as_mut(), span) {
            r.collect_app();
            r.close(id, events);
        }
        let frames = inst.w.metrics.get(Ctr::FramesSent);
        slices.push(Slice {
            wall_ns,
            events,
            frames: frames - frames_seen,
            pending: inst.eng.pending() as u32,
            heap_len: inst.eng.heap_len() as u32,
            channels: most(&inst.w, |h| h.netio.channel_count()),
            timers: most(&inst.w, |h| h.wheel.pending()),
        });
        frames_seen = frames;
    }
    let timed_wall_s = timed_start.elapsed().as_secs_f64();
    let allocs = alloc::snapshot().since(allocs_before);

    let observed = inst.detach_observers();
    let m = &inst.w.metrics;
    let mut demux = DemuxStats::default();
    for host in &inst.w.hosts {
        let d = host.netio.demux_stats();
        demux.flow_hits += d.flow_hits;
        demux.listen_hits += d.listen_hits;
        demux.scan_fallbacks += d.scan_fallbacks;
        demux.packets += d.packets;
    }
    Round {
        setup_s,
        slices,
        timed_wall_s,
        timed_frames: frames_seen - frames_before,
        timed_allocs: allocs.allocs,
        timed_alloc_bytes: allocs.bytes,
        timed_ops: inst.tally.ops_done.get() - ops_before,
        timed_bytes: inst.tally.bytes_verified.get() - bytes_before,
        peak_heap_bytes: alloc::peak_bytes().saturating_sub(heap_before),
        events: inst.eng.executed(),
        frames: frames_seen,
        sim_elapsed_ns: inst.eng.now(),
        ops_attempted: ops,
        ops_done: inst.tally.ops_done.get(),
        mismatches: inst.tally.mismatches.get(),
        resets: inst.tally.resets.get(),
        leaked_channels: if drained {
            inst.open_channels() as u64
        } else {
            0
        },
        watchdog_fired: !drained,
        observed,
        layers: LayerCounts {
            frame_stats: unp_buffers::frame_stats(),
            demux,
            ch_deliveries: m.get(Ctr::ChDeliveries),
            ch_ring_drops: m.get(Ctr::ChRingDrops),
            rexmit_segs: m.get(Ctr::TcpRexmitSegs),
            rtt_samples: m.get(Ctr::TcpRttSamples),
            handshake_failures: m.get(Ctr::HandshakeFailures),
            connections: m.get(Ctr::ConnectionsEstablished),
            frames_per_wakeup: m.mean(Hist::WakeupBatchFrames).unwrap_or(0.0),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::failed;

    #[test]
    fn outstanding_and_leaked_operations_count_as_failed() {
        assert_eq!(failed(100, 100, 0), 0);
        // Still outstanding when the engine drained or the watchdog fired.
        assert_eq!(failed(100, 93, 0), 7);
        // Completed, but over a channel that was never reclaimed.
        assert_eq!(failed(100, 100, 2), 2);
        assert_eq!(failed(100, 1, 5), 100);
        // More credited than attempted is not a negative failure.
        assert_eq!(failed(100, 101, 0), 0);
    }
}
