//! `unp-hostbench` — the host-time ledger of the `unp` reproduction.
//!
//! The paper's argument is a cost ledger on the *sim* clock; this package is
//! the ledger for the *host* clock: how fast the Rust itself runs, end to end
//! and layer by layer, measured strictly from outside the twelve crates it
//! depends on. `README.md` defines every workload and metric.

pub mod alloc;
pub mod apps;
pub mod ledger;
pub mod pipe;
pub mod probes;
pub mod round;
pub mod span;
pub mod stats;
pub mod traced;
pub mod workloads;

/// Every allocation of every run is counted, traced or not: it is what lets
/// `allocs_per_frame` see all ~15 allocations a frame costs, not just the
/// pooled frame buffer the stack's own counter sees.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
