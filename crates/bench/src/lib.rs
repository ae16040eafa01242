//! `unp-bench` — benchmark harness and paper-table reproduction.
//!
//! * `cargo run -p unp-bench --release --bin repro-tables` regenerates
//!   every table of the paper's §4 (plus the Figure 1 organization sweep
//!   and the ablation studies) on the simulated testbed; its `bench` and
//!   `gate` commands regenerate and check the `BENCH_*.json` artifacts
//!   ([`report`], [`summary`]) — simulated time and exact counts only.
//! * `cargo bench -p unp-bench` runs the Criterion micro-benchmarks over
//!   the real hot-path code (checksum, filter VMs, demux at scale, timing
//!   wheel, TCP segment processing) on the host machine.
//! * Host time end to end and per layer is `benchmark/`'s job.

pub mod causal;
pub mod demux;
pub mod isolation;
pub mod monitor;
pub mod profile;
pub mod report;
pub mod scale;
pub mod summary;
pub mod tables;
pub mod timings;
pub mod trace;
