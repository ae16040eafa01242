//! Observability must be optional: built without the `trace` feature,
//! every journal emission site is an inert no-op. This only holds if
//! nothing in the build graph turns `unp-trace/journal` back on — cargo
//! unifies features across a workspace build, so `ci.sh` excludes
//! `unp-bench` (which needs the journal) from its feature-off pass, and
//! this test fails if that exclusion is ever lost.
#![cfg(not(feature = "trace"))]

use unp::core::experiments::Transfer;
use unp::core::world::{Network, OrgKind};

#[test]
fn journal_is_inert_without_the_trace_feature() {
    unp::trace::journal_start();
    assert!(!unp::trace::journal_enabled());
    Transfer::table2(Network::Ethernet, OrgKind::UserLibrary, 4096, 100_000).run(|_, _| {});
    assert!(
        unp::trace::journal_stop().is_empty(),
        "a transfer journaled records in a build without the trace feature"
    );
}
