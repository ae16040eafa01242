//! `bench demux`: what the flow-table fast path decides on the
//! reproduction's own traffic — `BENCH_demux.json`.
//!
//! A Table-2 bulk run with the software-demux organization, reporting how
//! many frames each tier decided (exact flow table, listen table, filter
//! scan) and the average modeled filter instructions per packet — what
//! the cost model charged, unchanged by the fast path by design (see
//! `unp_kernel` docs). How classify scales with the channel population on
//! the host is `cargo bench -p unp-bench demux_scale`.

use unp_core::experiments::Transfer;
use unp_core::{Network, OrgKind};
use unp_kernel::DemuxStats;
use unp_trace::json::Value;

use crate::report::Workloads;

/// Runs the Table-2 bulk workload under the user-library organization on
/// Ethernet (software demux) and returns the demux counters, summed over
/// both hosts.
pub fn workload_stats(total: u64) -> DemuxStats {
    let transfer = Transfer::table2(Network::Ethernet, OrgKind::UserLibrary, 4096, total);
    let (w, _) = transfer.run(|_, _| {});
    let mut sum = DemuxStats::default();
    for h in &w.hosts {
        let s = h.netio.demux_stats();
        sum.flow_hits += s.flow_hits;
        sum.listen_hits += s.listen_hits;
        sum.scan_fallbacks += s.scan_fallbacks;
        sum.packets += s.packets;
        sum.filter_instrs += s.filter_instrs;
    }
    sum
}

/// Runs the workload, prints the counters and returns the report.
pub fn report(w: &Workloads) -> Value {
    let d = workload_stats(w.sizes.total);
    println!("== Demux fast path: Table-2 bulk workload (software demux) ==");
    println!(
        "  {} packets: {} flow-table hits, {} listen-table hits, {} scan fallbacks ({:.1}% keyed fast path)",
        d.packets,
        d.flow_hits,
        d.listen_hits,
        d.scan_fallbacks,
        d.keyed_hit_rate() * 100.0
    );
    println!(
        "  avg modeled filter instructions per packet: {:.1} (scan-equivalent; unchanged by the fast path)",
        d.avg_filter_instrs()
    );
    println!();
    Value::obj([
        ("benchmark", "flow_table_demux".into()),
        (
            "workload",
            Value::obj([
                ("table", 2usize.into()),
                ("packets", d.packets.into()),
                ("flow_hits", d.flow_hits.into()),
                ("listen_hits", d.listen_hits.into()),
                ("scan_fallbacks", d.scan_fallbacks.into()),
                ("flow_hit_rate", Value::fixed(d.flow_hit_rate(), 4)),
                ("keyed_hit_rate", Value::fixed(d.keyed_hit_rate(), 4)),
                ("avg_filter_instrs", Value::fixed(d.avg_filter_instrs(), 2)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_mostly_flow_hits() {
        // The bulk transfer's data packets all carry a fully-specified
        // 5-tuple for an installed connection binding: the flow table must
        // decide the overwhelming majority of them.
        let w = workload_stats(100_000);
        assert!(w.packets > 0, "workload moved no packets");
        assert!(
            w.flow_hit_rate() > 0.5,
            "fast path decided only {:.1}% of {} packets",
            w.flow_hit_rate() * 100.0,
            w.packets
        );
    }

    #[test]
    fn json_is_shaped() {
        use crate::report::Sizes;
        crate::summary::assert_shaped("demux", &report(&Workloads::new(Sizes::SMALL)));
    }
}
