//! The five workloads: what each builds, and why it exists.
//!
//! Every workload drives the paper's contribution, `OrgKind::UserLibrary`,
//! through `unp_core`'s public API only. Each is a closed loop in *sim* time
//! (a TCP window, a ping-pong, one connection in flight per client): there is
//! no offered rate, because what is measured is how much *host* time the
//! stack takes to carry a fixed input. Input size per round is fixed, so
//! every count a round produces repeats exactly; `--seconds` only decides how
//! many rounds a run makes.

use std::cell::RefCell;
use std::rc::Rc;

use unp_core::world::{connect, listen};
use unp_core::{build_hosts, install_faults, Eng, FaultPlan, Network, OrgKind, World};
use unp_tcp::TcpConfig;
use unp_trace::{Monitor, ObserverHandle};
use unp_wire::Ipv4Addr;

use crate::apps::{
    AppCtx, Echo, OneShot, Pattern, PatternSender, PingPong, ReadyQueue, Rng, Tally, VerifyingSink,
    BLOCK,
};
use crate::span::AppTimer;

/// The server is always host 0.
const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 80);

/// `bulk`: blocks per round (240 MiB in 4096-byte writes).
const BULK_BLOCKS: u64 = 3_840;
/// `rr`: round trips per round.
const RR_ROUND_TRIPS: u64 = 500_000;
/// `churn`: client hosts, and connections each makes per round. A host never
/// releases an ephemeral port after a normal close, so its 3,978th `connect`
/// panics; 700 stays far below that.
const CHURN_CLIENTS: usize = 32;
const CHURN_PER_CLIENT: u64 = 700;
/// `churn`: how often (sim time) the launcher looks for idle clients.
const CHURN_POLL_NS: u64 = 1_000_000;
/// `fanin_lossy`: clients, flows per client, blocks per flow, frame loss.
const FANIN_CLIENTS: usize = 8;
const FANIN_FLOWS: u8 = 4;
const FANIN_FLOW_COUNT: u64 = FANIN_CLIENTS as u64 * FANIN_FLOWS as u64;
const FANIN_BLOCKS_PER_FLOW: u64 = 57;
const FANIN_LOSS: f64 = 0.02;
/// `bulk_observed`: journal tail and per-host flight-recorder capacity.
const JOURNAL_TAIL: usize = 4096;
const RECORDER_CAP: usize = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One long flow of full-sized segments.
    Bulk,
    /// One flow of one-byte round trips on AN1.
    Rr,
    /// Many short connections from many hosts.
    Churn,
    /// Many flows into one host over a lossy link.
    FaninLossy,
    /// `Bulk` with a journal and a conformance monitor attached.
    BulkObserved,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::Bulk,
        Workload::Rr,
        Workload::Churn,
        Workload::FaninLossy,
        Workload::BulkObserved,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Rr => "rr",
            Workload::Churn => "churn",
            Workload::FaninLossy => "fanin_lossy",
            Workload::BulkObserved => "bulk_observed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Which network the hosts share.
    pub fn network(self) -> Network {
        match self {
            Workload::Rr => Network::An1,
            _ => Network::Ethernet,
        }
    }

    /// Operations one round of the benchmark attempts.
    pub fn ops_per_round(self) -> u64 {
        match self {
            Workload::Bulk | Workload::BulkObserved => BULK_BLOCKS,
            Workload::Rr => RR_ROUND_TRIPS,
            Workload::Churn => CHURN_CLIENTS as u64 * CHURN_PER_CLIENT,
            Workload::FaninLossy => FANIN_FLOW_COUNT * FANIN_BLOCKS_PER_FLOW,
        }
    }

    /// Sim events one operation takes, rounded up from the first ledger.
    /// The watchdog stops a round at four times what its operations should
    /// need (plus the handshakes and the TIME_WAIT tail of a tiny round).
    fn events_per_op(self) -> u64 {
        match self {
            Workload::Bulk | Workload::BulkObserved => 600,
            Workload::Rr => 17,
            Workload::Churn => 85,
            Workload::FaninLossy => 560,
        }
    }

    /// The most sim events a round of `ops` operations may execute.
    pub fn event_budget(self, ops: u64) -> u64 {
        4 * (ops * self.events_per_op() + 10_000)
    }

    /// Builds one instance attempting `ops` operations (a multiple of the
    /// workload's flow or client count): hosts, listeners, and the first
    /// connections queued on the engine. Nothing has run yet.
    pub fn build(self, ops: u64, seed: u64, pattern: &Rc<Pattern>, timer: AppTimer) -> Instance {
        let observers = (self == Workload::BulkObserved).then(|| {
            // Before the world exists, so two runs mint identical frame ids.
            unp_trace::journal_start_bounded(JOURNAL_TAIL);
            unp_trace::attach(Box::new(Monitor::with_recorder(RECORDER_CAP)))
        });
        if observers.is_none() {
            unp_trace::reset_run();
        }
        let tally = Rc::new(Tally::default());
        let ctx = AppCtx {
            pattern: Rc::clone(pattern),
            tally: Rc::clone(&tally),
            timer,
        };
        let mut rng = Rng::new(seed ^ 0x756e_705f_6862);
        let hosts = match self {
            Workload::Churn => CHURN_CLIENTS + 1,
            Workload::FaninLossy => FANIN_CLIENTS + 1,
            _ => 2,
        };
        let (mut w, mut eng) = build_hosts(hosts, self.network(), OrgKind::UserLibrary);
        // The seed also sets the phase between the first connect and every
        // periodic timer (under 1 ms); nothing else in `bulk` and `rr`
        // would let it reach the sim clock.
        eng.run_until(&mut w, rng.below(1_000_000));
        match self {
            Workload::Bulk | Workload::BulkObserved => build_bulk(&mut w, &mut eng, ctx, ops),
            Workload::Rr => build_rr(&mut w, &mut eng, ctx, ops),
            Workload::Churn => {
                assert_eq!(ops % CHURN_CLIENTS as u64, 0, "equal work per client");
                build_churn(&mut w, &mut eng, ctx, rng, ops / CHURN_CLIENTS as u64);
            }
            Workload::FaninLossy => {
                assert_eq!(ops % FANIN_FLOW_COUNT, 0, "equal work per flow");
                let blocks = ops / FANIN_FLOW_COUNT;
                build_fanin(&mut w, &mut eng, ctx, rng.next_u64(), blocks);
            }
        }
        Instance {
            w,
            eng,
            tally,
            observers,
        }
    }
}

/// A built workload, ready to run.
pub struct Instance {
    /// The simulated world.
    pub w: World,
    /// Its engine.
    pub eng: Eng,
    /// What the apps have verified so far.
    pub tally: Rc<Tally>,
    observers: Option<ObserverHandle>,
}

/// What the observers of `bulk_observed` saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observed {
    /// Conformance violations the monitor flagged (must be zero).
    pub violations: u64,
    /// Records emitted: the journal's tail plus what it evicted.
    pub records: u64,
    /// Records the bounded journal evicted.
    pub dropped: u64,
}

impl Instance {
    /// Detaches whatever `build` attached and reports what it saw. Must be
    /// called once the round is over, before the next `build`.
    pub fn detach_observers(&mut self) -> Option<Observed> {
        let handle = self.observers.take()?;
        let violations =
            unp_trace::detach_as::<Monitor>(handle).map_or(0, |monitor| monitor.total_violations());
        let tail = unp_trace::journal_stop().len() as u64;
        let dropped = unp_trace::journal_dropped();
        Some(Observed {
            violations,
            records: tail + dropped,
            dropped,
        })
    }

    /// Channels still open on any host.
    pub fn open_channels(&self) -> usize {
        self.w.hosts.iter().map(|h| h.netio.channel_count()).sum()
    }
}

fn build_bulk(w: &mut World, eng: &mut Eng, ctx: AppCtx, blocks: u64) {
    let cfg = TcpConfig::bulk_transfer();
    let sink = ctx.clone();
    listen(
        w,
        0,
        SERVER.1,
        cfg.clone(),
        Box::new(move || Box::new(VerifyingSink::new(sink.clone(), 0))),
    );
    let sender = PatternSender::new(ctx, Pattern::flow_start(2, 0), blocks * BLOCK, 4096);
    connect(w, eng, 1, SERVER, cfg, Box::new(sender), 4096);
}

fn build_rr(w: &mut World, eng: &mut Eng, ctx: AppCtx, round_trips: u64) {
    let cfg = TcpConfig::default();
    let start = Pattern::flow_start(2, 0);
    let server = ctx.clone();
    listen(
        w,
        0,
        SERVER.1,
        cfg.clone(),
        Box::new(move || Box::new(Echo::new(server.clone(), Some(start)))),
    );
    let pinger = PingPong::new(ctx, start, 1, round_trips);
    connect(w, eng, 1, SERVER, cfg, Box::new(pinger), 1);
}

/// Keeps one connection in flight per `churn` client.
struct Launcher {
    ctx: AppCtx,
    rng: Rng,
    ready: ReadyQueue,
    /// Connections each client has still to start, by host index.
    left: Vec<u64>,
}

fn build_churn(w: &mut World, eng: &mut Eng, ctx: AppCtx, rng: Rng, per_client: u64) {
    let server = ctx.clone();
    listen(
        w,
        0,
        SERVER.1,
        TcpConfig::default(),
        Box::new(move || Box::new(Echo::new(server.clone(), None))),
    );
    let mut left = vec![per_client; CHURN_CLIENTS + 1];
    left[0] = 0;
    let launcher = Rc::new(RefCell::new(Launcher {
        ctx,
        rng,
        ready: Rc::new(RefCell::new((1..=CHURN_CLIENTS).collect())),
        left,
    }));
    launch_ready(w, eng, launcher);
}

/// Starts the next connection of every idle client, then looks again one
/// poll interval later for as long as any client has connections to start.
/// An `AppLogic` callback cannot reach the engine, so the clients' "loop" is
/// this sim-clock poll; it adds under 1 % to the events executed.
fn launch_ready(w: &mut World, eng: &mut Eng, launcher: Rc<RefCell<Launcher>>) {
    let more = {
        let mut l = launcher.borrow_mut();
        let idle = std::mem::take(&mut *l.ready.borrow_mut());
        for client in idle {
            if l.left[client] == 0 {
                continue;
            }
            l.left[client] -= 1;
            let start = l.rng.below(Pattern::LEN as u64);
            let len = 32 + l.rng.below(97) as usize;
            let app = OneShot::new(l.ctx.clone(), client, Rc::clone(&l.ready), start, len);
            connect(
                w,
                eng,
                client,
                SERVER,
                TcpConfig::default(),
                Box::new(app),
                len,
            );
        }
        l.left.iter().any(|&n| n > 0)
    };
    if more {
        eng.after(CHURN_POLL_NS, move |w, eng| launch_ready(w, eng, launcher));
    }
}

fn build_fanin(w: &mut World, eng: &mut Eng, ctx: AppCtx, fault_seed: u64, blocks: u64) {
    install_faults(w, eng, FaultPlan::lossy(fault_seed, FANIN_LOSS));
    let cfg = TcpConfig::bulk_transfer();
    for flow in 0..FANIN_FLOWS {
        let sink = ctx.clone();
        listen(
            w,
            0,
            SERVER.1 + u16::from(flow),
            cfg.clone(),
            Box::new(move || Box::new(VerifyingSink::new(sink.clone(), flow))),
        );
    }
    for client in 1..=FANIN_CLIENTS {
        for flow in 0..FANIN_FLOWS {
            let start = Pattern::flow_start(client as u8 + 1, flow);
            let sender = PatternSender::new(ctx.clone(), start, blocks * BLOCK, 512);
            let remote = (SERVER.0, SERVER.1 + u16::from(flow));
            connect(w, eng, client, remote, cfg.clone(), Box::new(sender), 512);
        }
    }
}
