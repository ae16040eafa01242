//! Deterministic full-stack fault injection.
//!
//! A [`FaultPlan`] is a seeded schedule of link-level faults (drop,
//! duplicate, corrupt, reorder), outage windows, per-host receive-ring
//! pressure, and application crashes, threaded through the world's link
//! delivery and host stepping by [`install_faults`]. The
//! same seed always produces the same fault sequence, so a faulted run
//! can be replayed exactly — the differential soak test depends on it.
//!
//! Every impaired run outside `unp-tcp`'s own tests goes through this
//! one model and the one delivery path in `world::link`: the fault soak,
//! the causal and isolation reports, and the congestion ablation on the
//! paper's Ethernet. An empty plan makes no RNG draw, so a world without
//! faults replays exactly as one with no fault model at all.

use unp_buffers::OwnerTag;
use unp_sim::Nanos;
use unp_wire::{SeqNum, TcpFlags, TcpRepr, IPV4_HEADER_LEN};

use crate::world::org::userlib::{note_announce, stale_cap_for};
use crate::world::tcp::{send_tcp_frame, stage_segment};
use crate::world::{crash_host, Eng, World};

/// Per-link fault probabilities (applied per delivered frame copy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability the frame is silently lost.
    pub drop: f64,
    /// Probability the frame is delivered twice.
    pub duplicate: f64,
    /// Probability one payload byte is flipped in flight.
    pub corrupt: f64,
    /// Probability a delivered copy is delayed past later traffic.
    pub reorder: f64,
    /// Maximum extra delay applied to a reordered copy (uniform draw).
    pub reorder_window: Nanos,
}

impl LinkFaults {
    /// No impairment.
    pub fn clean() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            reorder_window: 0,
        }
    }

    /// The lossy preset: loss at `loss`; duplication, corruption and
    /// reordering each at half that, a reordered copy delayed by up to
    /// 300 µs.
    pub fn lossy(loss: f64) -> Self {
        LinkFaults {
            drop: loss,
            duplicate: loss / 2.0,
            corrupt: loss / 2.0,
            reorder: loss / 2.0,
            reorder_window: 300_000,
        }
    }
}

/// A scheduled window during which matching frames are dropped outright
/// (a cable pull / switch reboot, not random loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Restrict to frames sent by this host (None = any sender).
    pub from: Option<usize>,
    /// Restrict to frames received by this host (None = any receiver).
    pub to: Option<usize>,
    /// Window start (inclusive).
    pub start: Nanos,
    /// Window end (exclusive).
    pub end: Nanos,
}

/// A window during which a host's receive rings behave as if the
/// consumer stalled: effective capacity is clamped to `cap` slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingPressure {
    /// The slow-consumer host.
    pub host: usize,
    /// Window start (inclusive).
    pub start: Nanos,
    /// Window end (exclusive).
    pub end: Nanos,
    /// Clamped ring capacity during the window.
    pub cap: usize,
}

/// A scheduled application-process crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The host whose application process dies.
    pub host: usize,
    /// Simulation time of the crash.
    pub at: Nanos,
}

/// What a hostile (byzantine) tenant does during its window. Every kind
/// is driven by the schedule alone — no RNG draws — so a plan with
/// byzantine schedules but nothing else replays byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineKind {
    /// The tenant's library never wakes up to consume: its receive
    /// rings fill until the per-tenant ring-slot quota starts dropping.
    RingFlood,
    /// Every `period` ns the tenant transmits a burst of `burst` valid
    /// frames, burning shared NIC/tx capacity until its transmit credit
    /// runs dry.
    TransmitFlood { burst: usize, period: Nanos },
    /// Every `period` ns the tenant replays a revoked capability and
    /// fires a template-violating transmit on a valid one — a storm of
    /// kernel check failures.
    CapabilityStorm { period: Nanos },
    /// Every `period` ns the tenant re-announces a stale BQI for one of
    /// its channels to the peer host.
    StaleBqi { period: Nanos },
    /// When crashed, the tenant's library sweep never runs; only the
    /// registry death notice and the kernel owner-reclaim backstop may
    /// clean up after it.
    WedgedRegistry,
}

/// One hostile tenant's scheduled behaviour window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzantineSchedule {
    /// The host whose net I/O module the tenant lives on.
    pub host: usize,
    /// The misbehaving tenant id.
    pub tenant: u64,
    /// What it does.
    pub kind: ByzantineKind,
    /// Window start (inclusive).
    pub start: Nanos,
    /// Window end (exclusive).
    pub end: Nanos,
}

impl ByzantineSchedule {
    /// Whether the window covers `now`.
    pub fn active(&self, now: Nanos) -> bool {
        now >= self.start && now < self.end
    }
}

/// What happens to one delivered copy of a frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameFate {
    /// Lost to a scheduled outage window.
    pub outage: bool,
    /// Lost to random drop.
    pub drop: bool,
    /// One payload byte is flipped before delivery.
    pub corrupt: bool,
    /// See [`FrameFate::delays`]: the first `copies` entries count.
    delays: [Nanos; 2],
    copies: u8,
}

impl FrameFate {
    /// Extra arrival delay per delivered copy: one entry normally, two
    /// when duplicated, none when the frame is lost; a nonzero entry means
    /// that copy was reordered.
    pub fn delays(&self) -> &[Nanos] {
        &self.delays[..usize::from(self.copies)]
    }

    fn push_delay(&mut self, delay: Nanos) {
        self.delays[usize::from(self.copies)] = delay;
        self.copies += 1;
    }
}

/// A seeded full-stack fault schedule. An empty plan ([`FaultPlan::none`],
/// the world default) never faults and never draws: every probability is
/// zero, and a zero-probability check returns before touching the RNG.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Fault probabilities applied to links without an override.
    pub default_link: LinkFaults,
    /// Per-(sender, receiver) overrides — asymmetric schedules.
    pub links: Vec<((usize, usize), LinkFaults)>,
    /// Scheduled outage windows.
    pub outages: Vec<Outage>,
    /// Scheduled slow-consumer windows.
    pub pressure: Vec<RingPressure>,
    /// Scheduled application crashes.
    pub crashes: Vec<Crash>,
    /// Scheduled byzantine-tenant behaviour windows.
    pub byzantine: Vec<ByzantineSchedule>,
    rng: XorShift,
}

impl FaultPlan {
    /// An empty plan (the world default).
    pub fn none() -> Self {
        FaultPlan::clean(0)
    }

    /// A plan with no impairment configured — the base for building
    /// custom schedules.
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            default_link: LinkFaults::clean(),
            links: Vec::new(),
            outages: Vec::new(),
            pressure: Vec::new(),
            crashes: Vec::new(),
            byzantine: Vec::new(),
            rng: XorShift::new(seed),
        }
    }

    /// A plan applying [`LinkFaults::lossy`] to every link.
    pub fn lossy(seed: u64, loss: f64) -> Self {
        FaultPlan {
            default_link: LinkFaults::lossy(loss),
            ..FaultPlan::clean(seed)
        }
    }

    /// Sets an asymmetric per-direction override.
    pub fn set_link(&mut self, from: usize, to: usize, faults: LinkFaults) {
        if let Some(e) = self.links.iter_mut().find(|(k, _)| *k == (from, to)) {
            e.1 = faults;
        } else {
            self.links.push(((from, to), faults));
        }
    }

    fn link_for(&self, from: usize, to: usize) -> LinkFaults {
        self.links
            .iter()
            .find(|(k, _)| *k == (from, to))
            .map(|(_, f)| *f)
            .unwrap_or(self.default_link)
    }

    fn in_outage(&self, from: usize, to: usize, now: Nanos) -> bool {
        self.outages.iter().any(|o| {
            o.from.is_none_or(|f| f == from)
                && o.to.is_none_or(|t| t == to)
                && now >= o.start
                && now < o.end
        })
    }

    /// Decides the fate of one frame sent `from` → `to` at `now`. Draw
    /// order: loss, corrupt, duplicate, then per copy a reorder draw and,
    /// only if it fires, the delay. A zero probability draws nothing.
    pub fn fate(&mut self, from: usize, to: usize, now: Nanos) -> FrameFate {
        let mut fate = FrameFate::default();
        if self.in_outage(from, to, now) {
            fate.outage = true;
            return fate;
        }
        let lf = self.link_for(from, to);
        if self.rng.chance(lf.drop) {
            fate.drop = true;
            return fate;
        }
        fate.corrupt = self.rng.chance(lf.corrupt);
        let copies = if self.rng.chance(lf.duplicate) { 2 } else { 1 };
        for _ in 0..copies {
            let delay = if self.rng.chance(lf.reorder) && lf.reorder_window > 0 {
                1 + self.rng.below(lf.reorder_window)
            } else {
                0
            };
            fate.push_delay(delay);
        }
        fate
    }

    /// A deterministic index draw in `[0, span)` — used to pick the
    /// corrupted byte.
    pub fn pick(&mut self, span: usize) -> usize {
        if span == 0 {
            return 0;
        }
        self.rng.below(span as u64) as usize
    }

    /// The clamped ring capacity for `host` at `now`, if a pressure
    /// window is active.
    pub fn ring_cap(&self, host: usize, now: Nanos) -> Option<usize> {
        self.pressure
            .iter()
            .find(|p| p.host == host && now >= p.start && now < p.end)
            .map(|p| p.cap)
    }

    /// Whether `tenant` on `host` is in an active window of `kind`.
    /// Makes no RNG draw — byzantine behaviour is schedule-driven only.
    pub fn byzantine_active(
        &self,
        host: usize,
        tenant: u64,
        kind: ByzantineKind,
        now: Nanos,
    ) -> bool {
        self.byzantine
            .iter()
            .any(|b| b.host == host && b.tenant == tenant && b.kind == kind && b.active(now))
    }

    /// Whether `tenant` on `host` is ring-flooding at `now` (its library
    /// wakeups are suppressed so rings fill).
    pub fn ring_flood_active(&self, host: usize, tenant: u64, now: Nanos) -> bool {
        self.byzantine_active(host, tenant, ByzantineKind::RingFlood, now)
    }

    /// Whether `tenant` on `host` is marked wedged: its library sweep is
    /// skipped on crash and reclamation falls to the registry/kernel
    /// backstops. Window-independent by design — wedging is a property
    /// of the process, not of a time slice.
    pub fn tenant_wedged(&self, host: usize, tenant: u64) -> bool {
        self.byzantine.iter().any(|b| {
            b.host == host && b.tenant == tenant && b.kind == ByzantineKind::WedgedRegistry
        })
    }
}

/// xorshift64*: a tiny deterministic PRNG, so a seed replays exactly.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        (self.next() as f64 / u64::MAX as f64) < p
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

impl ByzantineKind {
    /// The tick period of the kinds that act on a schedule. The
    /// window-shaped kinds (ring flood, wedged registry) are consulted in
    /// place by the data path and have none.
    fn period(self) -> Option<Nanos> {
        match self {
            ByzantineKind::TransmitFlood { period, .. }
            | ByzantineKind::CapabilityStorm { period }
            | ByzantineKind::StaleBqi { period } => Some(period),
            ByzantineKind::RingFlood | ByzantineKind::WedgedRegistry => None,
        }
    }
}

/// Installs a fault plan: stores it on the world and schedules its
/// application-crash events and, for each periodic byzantine-tenant
/// behaviour, a deterministic tick train. Call once after
/// [`crate::build_hosts`], before running the engine.
pub fn install_faults(w: &mut World, eng: &mut Eng, plan: FaultPlan) {
    for c in &plan.crashes {
        let host = c.host;
        eng.at(c.at, move |w, eng| crash_host(w, eng, host));
    }
    for &b in &plan.byzantine {
        if let Some(period) = b.kind.period() {
            assert!(period > 0, "byzantine period must be positive");
            eng.at(b.start, move |w, eng| byzantine_tick(w, eng, b, period));
        }
    }
    w.faults = plan;
}

/// One firing of a periodic byzantine behaviour; reschedules itself until
/// the window closes. Every action is resource-bounded by the tenant's
/// own budget — that containment is precisely what the isolation oracle
/// measures.
fn byzantine_tick(w: &mut World, eng: &mut Eng, b: ByzantineSchedule, period: Nanos) {
    let ByzantineSchedule {
        host,
        tenant,
        kind,
        end,
        ..
    } = b;
    let now = eng.now();
    if now >= end {
        return;
    }
    // The hostile tenant abuses its own established connection — the
    // lowest-numbered one, so the pick is deterministic across runs.
    let target = w.hosts[host]
        .conns
        .iter()
        .filter_map(|(&cid, c)| {
            let ci = c.chan.as_ref()?;
            (w.hosts[host].netio.channel_owner(ci.id) == Some(OwnerTag(tenant))).then(|| {
                (
                    cid,
                    ci.send_cap,
                    ci.peer_bqi.unwrap_or(0),
                    c.local_port(),
                    c.remote(),
                )
            })
        })
        .min_by_key(|&(cid, ..)| cid)
        .map(|(_, cap, bqi, l, r)| (cap, bqi, l, r));
    if let Some((send_cap, bqi, local_port, remote)) = target {
        // What the tenant transmits raw: an empty ACK claiming `src_port`,
        // built by no TCB (so journaled as fabricated).
        let raw_ack = |w: &mut World, eng: &mut Eng, src_port: u16| {
            let repr = TcpRepr {
                src_port,
                dst_port: remote.1,
                seq: SeqNum(0),
                ack_num: SeqNum(0),
                flags: TcpFlags::ack(),
                window: 0,
                mss: None,
            };
            let (cap, payload) = (Some(send_cap), stage_segment(w, host, &repr, &[]));
            send_tcp_frame(w, eng, host, &repr, payload, remote.0, bqi, 0, cap, true);
        };
        match kind {
            ByzantineKind::TransmitFlood { burst, .. } => {
                // A burst of template-valid empty ACKs: each passes the
                // kernel's checks and burns wire + CPU + tx credit until
                // the tenant's per-window allowance runs dry.
                for _ in 0..burst {
                    raw_ack(w, eng, local_port);
                }
            }
            ByzantineKind::CapabilityStorm { .. } => {
                // A replayed revoked capability (BadCapability) plus a
                // template-violating transmit on the real one (spoofed
                // source port): both die inside the kernel, charged to
                // the tenant's credit, never reaching the wire.
                let stale = stale_cap_for(w, host, tenant);
                let frame_len = w.hosts[host].link_header_len() + IPV4_HEADER_LEN + 20;
                let junk = vec![0u8; frame_len];
                let _ = w.hosts[host].netio.transmit(stale, &junk);
                w.hosts[host].netio.advance_tx_window(now);
                raw_ack(w, eng, local_port.wrapping_add(1));
                let c = w.costs.trap;
                w.hosts[host].cpu.charge(now, c);
            }
            ByzantineKind::StaleBqi { .. } => {
                // Replay a stale BQI announcement at the peer host.
                // Announcements are only taken by a handshake in flight,
                // so a post-establishment replay must change nothing for
                // anyone — the oracle's baseline comparison proves it.
                if let Some(peer) = w.hosts.iter().position(|p| p.ip == remote.0) {
                    let local_ip = w.hosts[host].ip;
                    note_announce(w, peer, (remote.1, local_ip, local_port), bqi);
                }
            }
            // `install_faults` starts a tick train only for a kind that
            // has a period, which these two do not.
            ByzantineKind::RingFlood | ByzantineKind::WedgedRegistry => unreachable!(),
        }
    }
    let next = now + period;
    if next < end {
        eng.at(next, move |w, eng| byzantine_tick(w, eng, b, period));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_faults() {
        let mut p = FaultPlan::none();
        let rng_before = format!("{:?}", p.rng);
        for t in 0..1000 {
            let f = p.fate(0, 1, t * 1000);
            assert!(!f.outage && !f.drop && !f.corrupt);
            assert_eq!(f.delays(), [0]);
        }
        assert_eq!(p.ring_cap(0, 0), None);
        // An empty plan replays exactly: it never advanced the RNG.
        assert_eq!(format!("{:?}", p.rng), rng_before);
    }

    #[test]
    fn same_seed_same_fates() {
        let run = || {
            let mut p = FaultPlan::lossy(42, 0.2);
            (0..500).map(|t| p.fate(0, 1, t)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // A different seed produces a different sequence.
        let mut q = FaultPlan::lossy(43, 0.2);
        let other: Vec<_> = (0..500).map(|t| q.fate(0, 1, t)).collect();
        assert_ne!(run(), other);
    }

    #[test]
    fn lossy_plan_exercises_every_fault_kind() {
        let mut p = FaultPlan::lossy(7, 0.3);
        let fates: Vec<_> = (0..2000).map(|t| p.fate(0, 1, t)).collect();
        assert!(fates.iter().any(|f| f.drop));
        assert!(fates.iter().any(|f| f.corrupt));
        assert!(fates.iter().any(|f| f.delays().len() == 2));
        assert!(fates.iter().any(|f| f.delays().iter().any(|&d| d > 0)));
        assert!(fates.iter().any(|f| !f.drop && f.delays() == [0]));
    }

    #[test]
    fn outage_window_beats_link_probabilities() {
        let mut p = FaultPlan::clean(1);
        p.outages.push(Outage {
            from: Some(0),
            to: None,
            start: 100,
            end: 200,
        });
        assert!(!p.fate(0, 1, 99).outage);
        assert!(p.fate(0, 1, 100).outage);
        assert!(p.fate(0, 1, 199).outage);
        assert!(!p.fate(0, 1, 200).outage);
        // Other senders are unaffected.
        assert!(!p.fate(1, 0, 150).outage);
    }

    #[test]
    fn asymmetric_override_applies_one_direction_only() {
        let mut p = FaultPlan::clean(9);
        p.set_link(0, 1, LinkFaults::lossy(1.0));
        assert!(p.fate(0, 1, 0).drop, "forward direction fully lossy");
        let back = p.fate(1, 0, 0);
        assert!(!back.drop && !back.corrupt, "reverse direction clean");
    }

    #[test]
    fn byzantine_windows_are_schedule_driven_and_rng_free() {
        let mut p = FaultPlan::clean(11);
        p.byzantine.push(ByzantineSchedule {
            host: 0,
            tenant: 7,
            kind: ByzantineKind::RingFlood,
            start: 1_000,
            end: 5_000,
        });
        p.byzantine.push(ByzantineSchedule {
            host: 0,
            tenant: 7,
            kind: ByzantineKind::WedgedRegistry,
            start: 0,
            end: 0,
        });
        let rng_before = format!("{:?}", p.rng);
        assert!(!p.ring_flood_active(0, 7, 999));
        assert!(p.ring_flood_active(0, 7, 1_000));
        assert!(p.ring_flood_active(0, 7, 4_999));
        assert!(!p.ring_flood_active(0, 7, 5_000));
        // Other tenants and hosts are unaffected.
        assert!(!p.ring_flood_active(0, 8, 2_000));
        assert!(!p.ring_flood_active(1, 7, 2_000));
        // Wedging ignores the window entirely.
        assert!(p.tenant_wedged(0, 7));
        assert!(!p.tenant_wedged(0, 8));
        // None of the queries advanced the RNG.
        assert_eq!(format!("{:?}", p.rng), rng_before);
    }

    #[test]
    fn ring_pressure_window_clamps_capacity() {
        let mut p = FaultPlan::clean(3);
        p.pressure.push(RingPressure {
            host: 1,
            start: 1000,
            end: 2000,
            cap: 4,
        });
        assert_eq!(p.ring_cap(1, 999), None);
        assert_eq!(p.ring_cap(1, 1000), Some(4));
        assert_eq!(p.ring_cap(1, 1999), Some(4));
        assert_eq!(p.ring_cap(1, 2000), None);
        assert_eq!(p.ring_cap(0, 1500), None);
    }
}
