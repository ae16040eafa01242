//! Property test: the hierarchical timing wheel and the sorted-list
//! baseline are observationally equivalent under arbitrary interleavings
//! of start / stop / advance — the wheel is an optimization, never a
//! semantic change. Every op is followed by a comparison of `pending` and
//! `next_deadline`, so the wheel's occupancy-word shortcuts are refereed
//! at every state the script reaches, not only when something fires.
//! Stops include ids that fired or were stopped long ago — some of whose
//! slab nodes a later timer holds, which the runs count — and ids the
//! wheel never issued.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use unp_timers::{SortedTimerList, TimerId, TimerService, TimerWheel};

/// log2 of the wheel's tick in nanoseconds, and of its slots per level.
const TICK_SHIFT: u32 = 20;
const SLOT_SHIFT: u32 = 6;

/// The slab node a wheel id names: its low 32 bits.
fn node_of(id: TimerId) -> u32 {
    id.0 as u32
}

/// The two services driven in lockstep, with the token → id map that
/// lets a script stop any timer it ever started, fired ones included.
struct Pair {
    wheel: TimerWheel<u64>,
    list: SortedTimerList<u64>,
    now: u64,
    /// `ids[token]` for every timer ever started.
    ids: Vec<(TimerId, TimerId)>,
    /// Tokens neither stopped nor fired.
    live: Vec<u64>,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            wheel: TimerWheel::new(0),
            list: SortedTimerList::new(),
            now: 0,
            ids: Vec::new(),
            live: Vec::new(),
        }
    }

    fn start(&mut self, deadline: u64) -> Result<u64, TestCaseError> {
        let token = self.ids.len() as u64;
        let ids = (
            self.wheel.start(deadline, token),
            self.list.start(deadline, token),
        );
        self.ids.push(ids);
        self.live.push(token);
        self.check()?;
        Ok(token)
    }

    fn stop(&mut self, token: u64) -> Result<(), TestCaseError> {
        let (wid, lid) = self.ids[token as usize];
        let stopped = self.wheel.stop(wid);
        prop_assert_eq!(stopped, self.list.stop(lid), "stop results diverged");
        prop_assert_eq!(stopped.is_some(), self.live.contains(&token));
        self.live.retain(|&t| t != token);
        self.check()
    }

    /// Whether a timer started after `token` was given `token`'s node.
    fn reused(&self, token: u64) -> bool {
        let node = node_of(self.ids[token as usize].0);
        self.ids[token as usize + 1..]
            .iter()
            .any(|&(wid, _)| node_of(wid) == node)
    }

    /// Stops `forged` on the wheel alone, unless the wheel issued it: it
    /// must stop nothing and leave the wheel as the oracle is.
    fn stop_forged(&mut self, forged: u64) -> Result<(), TestCaseError> {
        if self.ids.iter().any(|&(wid, _)| wid.0 == forged) {
            return Ok(());
        }
        prop_assert_eq!(
            self.wheel.stop(TimerId(forged)),
            None,
            "forged id {:#x}",
            forged
        );
        self.check()
    }

    fn advance_to(&mut self, now: u64) -> Result<(), TestCaseError> {
        self.now = now;
        let (mut fw, mut fl) = (Vec::new(), Vec::new());
        self.wheel.advance(now, &mut fw);
        self.list.advance(now, &mut fl);
        prop_assert_eq!(&fw, &fl, "fired sequences diverged at t={}", now);
        self.live.retain(|t| !fw.contains(t));
        self.check()
    }

    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.wheel.pending(), self.live.len());
        prop_assert_eq!(self.list.pending(), self.live.len());
        prop_assert_eq!(
            self.wheel.next_deadline(),
            self.list.next_deadline(),
            "next deadline diverged at t={}",
            self.now
        );
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Start a timer `delay` from now (0 = due within the current tick).
    Start {
        delay: u64,
    },
    /// Start a timer at the far edge of `level`'s reach, `back` short of
    /// where the next level takes over: it lands in (or next to) the slot
    /// the level's cursor is on, a whole rotation ahead of it.
    StartAtEdge {
        level: u32,
        back: u64,
    },
    /// Start a timer whose deadline has already passed.
    StartPast {
        ago: u64,
    },
    /// Stop the nth live timer.
    StopLive(usize),
    /// Stop the nth timer ever started, which may have fired or been
    /// stopped already.
    StopAny(usize),
    /// Stop an id the wheel never issued: a random generation on one of
    /// the first 16 nodes, which may or may not exist yet.
    StopForged(u64),
    Advance {
        by: u64,
    },
    /// Advance to exactly the earliest deadline, as an event loop does.
    AdvanceToNext,
    /// Advance onto the next boundary of `level`, then `rotations` whole
    /// turns of that level further.
    AdvanceToBoundary {
        level: u32,
        rotations: u64,
    },
}

/// A span of `2^e .. 2^(e+1)` ns with `e` uniform in `0..=max_exp`, so
/// every level of the wheel (and the overflow list past 2⁴⁴ ns) is as
/// likely as any other.
fn arb_span(max_exp: u32) -> impl Strategy<Value = u64> {
    (0..=max_exp, any::<u64>()).prop_map(|(e, r)| (1u64 << e) + r % (1u64 << e))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Thrice: a script should arm more timers than it disturbs.
        arb_span(46).prop_map(|delay| Op::Start { delay }),
        arb_span(46).prop_map(|delay| Op::Start { delay }),
        arb_span(46).prop_map(|delay| Op::Start { delay }),
        Just(Op::Start { delay: 0 }),
        (0u32..4, arb_span(25)).prop_map(|(level, back)| Op::StartAtEdge { level, back }),
        arb_span(30).prop_map(|ago| Op::StartPast { ago }),
        any::<usize>().prop_map(Op::StopLive),
        any::<usize>().prop_map(Op::StopAny),
        (any::<u64>(), 0u64..16)
            .prop_map(|(generation, node)| Op::StopForged(generation << 32 | node)),
        arb_span(40).prop_map(|by| Op::Advance { by }),
        Just(Op::AdvanceToNext),
        (0u32..4, 0u64..3)
            .prop_map(|(level, rotations)| Op::AdvanceToBoundary { level, rotations }),
    ]
}

/// Runs `ops` against both services in lockstep, counting the stops of
/// an old id whose node a later timer was given.
fn wheel_is_its_oracle(ops: Vec<Op>, reused_stops: &mut usize) -> Result<(), TestCaseError> {
    let mut p = Pair::new();
    for op in ops {
        match op {
            Op::Start { delay } => {
                p.start(p.now + delay)?;
            }
            Op::StartAtEdge { level, back } => {
                let reach = 1u64 << (TICK_SHIFT + SLOT_SHIFT * (level + 1));
                p.start(p.now + reach - back.min(reach))?;
            }
            Op::StartPast { ago } => {
                p.start(p.now.saturating_sub(ago))?;
            }
            Op::StopLive(n) => {
                if !p.live.is_empty() {
                    p.stop(p.live[n % p.live.len()])?;
                }
            }
            Op::StopAny(n) => {
                if !p.ids.is_empty() {
                    let token = (n % p.ids.len()) as u64;
                    *reused_stops += usize::from(p.reused(token));
                    p.stop(token)?;
                }
            }
            Op::StopForged(forged) => p.stop_forged(forged)?,
            Op::Advance { by } => p.advance_to(p.now + by)?,
            Op::AdvanceToNext => {
                if let Some(next) = p.list.next_deadline() {
                    p.advance_to(next.max(p.now))?;
                }
            }
            Op::AdvanceToBoundary { level, rotations } => {
                let shift = TICK_SHIFT + SLOT_SHIFT * level;
                let boundary = ((p.now >> shift) + 1) << shift;
                p.advance_to(boundary + (rotations << (shift + SLOT_SHIFT)))?;
            }
        }
    }
    Ok(())
}

#[test]
fn wheel_equals_sorted_list() {
    let cases = if cfg!(debug_assertions) { 64 } else { 512 };
    let script = proptest::collection::vec(arb_op(), 1..120);
    let mut reused_stops = 0;
    for case in 0..cases {
        let seed = 0x7133_e1e1 ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let ops = script.generate(&mut TestRng::from_seed(seed));
        if let Err(e) = wheel_is_its_oracle(ops, &mut reused_stops) {
            panic!("case {}/{cases} (seed {seed:#x}): {e}", case + 1);
        }
    }
    // The scripts reach the stale id only a slab has: one whose node a
    // later timer holds.
    assert!(
        reused_stops >= 1,
        "{reused_stops} stops of a reused node over {cases} cases"
    );
}

/// The two orderings `next_deadline` must not get wrong, spelled out: a
/// coarser level's cursor slot holds only timers a rotation ahead (so it
/// is that level's *last* slot, not its first), and a timer parked one
/// level up can precede everything in level 0.
#[test]
fn the_earliest_timer_is_not_always_in_the_first_slot_or_the_finest_level(
) -> Result<(), TestCaseError> {
    let tick = |t: u64| t << TICK_SHIFT;
    let mut p = Pair::new();
    p.advance_to(tick(10))?;
    // 64 ≤ delta < 4096, so level 1 — slot 0, where level 1's cursor is.
    p.start(tick(64 * 64 + 5))?;
    p.start(tick(200))?;
    assert_eq!(p.wheel.next_deadline(), Some(tick(200)));

    let mut p = Pair::new();
    p.start(tick(64))?;
    p.advance_to(tick(63))?;
    p.start(tick(126))?;
    assert_eq!(p.wheel.next_deadline(), Some(tick(64)));
    p.advance_to(tick(64))?;
    assert_eq!(p.live.len(), 1);
    Ok(())
}

/// The shape that made `next_deadline` and `advance` expensive: a host
/// holding well over a hundred TIME_WAIT timers seconds away while one
/// connection's retransmit timer is restarted on every segment, the wheel
/// advanced only now and then, and each TIME_WAIT expiry preceded by
/// hundreds of empty ticks.
#[test]
fn one_busy_timer_among_many_long_ones() -> Result<(), TestCaseError> {
    const RTO: u64 = 200_000_000;
    const TIME_WAIT: u64 = 4_000_000_000;
    const STEP: u64 = 1_300_007;

    let mut p = Pair::new();
    for i in 0..192u64 {
        p.start(TIME_WAIT / 192 * (i + 1) + i * 7)?;
    }
    let mut rto = p.start(RTO)?;
    for i in 1..=10_000u64 {
        p.stop(rto)?;
        rto = p.start(p.now + i * STEP % 977 + RTO)?;
        if i % 16 == 0 {
            // A connection closes about as often as an old one expires.
            p.start(i * STEP + TIME_WAIT)?;
        }
        if i % 64 == 0 {
            p.advance_to(i * STEP)?;
        }
    }
    assert!(p.live.len() >= 128, "{} timers left", p.live.len());
    // Run dry: every remaining expiry is an `advance` across empty time.
    while let Some(next) = p.list.next_deadline() {
        p.advance_to(next)?;
    }
    assert!(p.live.is_empty());
    Ok(())
}
