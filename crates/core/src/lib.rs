//! `unp-core` — the paper's system, assembled.
//!
//! This crate wires the substrate crates into complete simulated hosts and
//! implements **all** the protocol organizations of the paper's Figure 1:
//!
//! * [`OrgKind::InKernel`] — the monolithic in-kernel stack (Ultrix 4.2A in
//!   the paper's measurements);
//! * [`OrgKind::SingleServer`] — the Mach 3.0 + UX single-server stack with
//!   the network device mapped into the server;
//! * [`OrgKind::SingleServerMsg`] — the variant with in-kernel device
//!   management behind a message interface ("the performance of this
//!   variant is lower than the one with the mapped device");
//! * [`OrgKind::DedicatedServer`] — a separate server per protocol stack
//!   (the organization the paper argues is worst: "the critical
//!   send/receive path ... could incur excessive domain-switching
//!   overheads");
//! * [`OrgKind::UserLibrary`] — **the paper's contribution**: the protocol
//!   library linked into the application, the trusted registry server, and
//!   the in-kernel network I/O module, with the registry bypassed on the
//!   data path.
//!
//! Every organization runs the *same* `unp-tcp`/`unp-proto` protocol code —
//! the property that makes the paper's comparison "apples to apples"; they
//! differ only in which structural costs (traps, IPCs, copies, signals,
//! context switches) the [`unp_sim::CostModel`] charges along the path, and
//! in which *mechanisms* (packet filters, BQI rings, header templates,
//! shared regions) the data path actually exercises.

pub mod app;
pub mod experiments;
pub mod faults;
pub mod pcap;
pub mod rrp;
pub mod world;

pub use app::{AppLogic, AppOp, AppView, BulkSender, EchoApp, PingPongApp, SinkApp, TransferStats};
pub use faults::{
    ByzantineKind, ByzantineSchedule, Crash, FaultPlan, LinkFaults, Outage, RingPressure,
};
pub use world::{
    build_hosts, build_two_hosts, crash_host, crash_tenant, install_faults, Eng, Event, Host,
    Network, OrgKind, World,
};
