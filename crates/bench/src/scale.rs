//! Million-channel demux scale sweep — `BENCH_demux_scale.json` — and
//! the churn-scaling gate.
//!
//! At each N the module holds a mixed population (exact connection
//! bindings, fully-wildcard listen bindings, and half-specified residual
//! bindings, in the ratios a busy server would see), and the report
//! records what is exact about it: the table populations and
//! [`NetIoModule::demux_mem_bytes`], the demux-structure footprint
//! excluding ring payload memory. What classify and churn *cost* at each
//! N on the host is `cargo bench -p unp-bench demux_scale` (and, on the
//! live stack, `benchmark/`'s `kernel.classify_ns` /
//! `kernel.channel_cycle_ns`).
//!
//! The one wall-clock check left in this crate lives here:
//! [`churn_report`] times a create→activate→destroy cycle at 64 and at
//! 4096 channels and the gate bounds their *ratio* — a complexity-class
//! test, not a speed measurement.

use std::time::Instant;

use unp_buffers::OwnerTag;
use unp_filter::programs::DemuxSpec;
use unp_kernel::template::HeaderTemplate;
use unp_kernel::{DemuxPath, NetIoModule};
use unp_trace::json::Value;
use unp_wire::Ipv4Repr;
use unp_wire::{EtherType, EthernetRepr, IpProtocol, Ipv4Addr, MacAddr, SeqNum, TcpFlags, TcpRepr};

use crate::report::Workloads;

/// The channel counts the scale sweep visits (8 → 10^6).
pub const SCALE_COUNTS: [usize; 7] = [8, 64, 512, 4096, 65_536, 262_144, 1_000_000];

/// Out of every [`MIX_PERIOD`] channels, one is a listen binding and one a
/// residual (half-specified) binding; the rest are exact connections.
const MIX_PERIOD: usize = 64;

const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// The exact connection binding for index `i`.
fn spec_for(i: usize) -> DemuxSpec {
    // Unique (remote ip, remote port) per index without u8/u16 overflow up
    // to well past 10^6 channels: the low 60 000 indices cycle the port
    // space, the high bits land in the second IP octet.
    let (hi, lo) = (i / 60_000, i % 60_000);
    DemuxSpec {
        link_header_len: 14,
        protocol: IpProtocol::Tcp,
        local_ip: LOCAL,
        local_port: 80,
        remote_ip: Some(Ipv4Addr::new(
            10,
            1 + hi as u8,
            (lo / 250) as u8,
            (lo % 250) as u8,
        )),
        remote_port: Some(1024 + lo as u16),
    }
}

/// The spec for slot `i` of the mixed population. Every [`MIX_PERIOD`]th
/// pair of slots is a listen binding and a residual binding; each
/// category owns a disjoint local-address space so a frame aimed at one
/// tier can never be stolen by another.
pub fn mixed_spec(i: usize) -> DemuxSpec {
    let k = i / MIX_PERIOD;
    let (a, b) = ((k / 250) as u8, (k % 250) as u8);
    match i % MIX_PERIOD {
        // Listen binding: local fully specified, remote fully wildcard.
        // Slots 2/3 (not the period's tail) so even the smallest sweep
        // point (8 channels) holds every tier.
        2 => DemuxSpec {
            link_header_len: 14,
            protocol: IpProtocol::Tcp,
            local_ip: Ipv4Addr::new(10, 2, a, b),
            local_port: 81,
            remote_ip: None,
            remote_port: None,
        },
        // Residual binding: half-specified remote, undistillable.
        3 => DemuxSpec {
            link_header_len: 14,
            protocol: IpProtocol::Tcp,
            local_ip: Ipv4Addr::new(10, 3, a, b),
            local_port: 82,
            remote_ip: Some(Ipv4Addr::new(10, 9, 0, 1)),
            remote_port: None,
        },
        // Exact connection binding (the common case).
        _ => spec_for(i),
    }
}

/// A TCP frame from `remote` to `local`.
pub fn frame_to(local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16)) -> Vec<u8> {
    let seg = TcpRepr {
        src_port: remote.1,
        dst_port: local.1,
        seq: SeqNum(1),
        ack_num: SeqNum(0),
        flags: TcpFlags::ack(),
        window: 8192,
        mss: None,
    }
    .build_segment(remote.0, local.0, &[0u8; 64]);
    let ip = Ipv4Repr::simple(remote.0, local.0, IpProtocol::Tcp, seg.len());
    EthernetRepr {
        dst: MacAddr::from_host_index(2),
        src: MacAddr::from_host_index(1),
        ethertype: EtherType::Ipv4,
    }
    .build_frame(&ip.build_packet(&seg))
}

/// Builds the mixed-population module at size `n` (one-slot rings so the
/// measured footprint is the demux structures, not ring capacity) plus
/// one probe frame per tier.
///
/// The keyed probes target the *first*-installed exact and listen
/// bindings (ids 0 and 2, below the first residual id 3): first-match
/// semantics make any keyed hit verify no lower-id residual binding
/// shadows it, so probing early ids keeps that shadow window empty and
/// the measurement isolates pure tier cost. The scan probe targets the
/// *last* residual binding — the filter scan's worst case, walking the
/// entire residual set.
pub fn scale_module(n: usize) -> (NetIoModule, Vec<u8>, Vec<u8>, Vec<u8>) {
    assert!(n >= 4, "population must include every tier");
    let mut m = NetIoModule::new();
    let mut last_residual = 3usize;
    for i in 0..n {
        let spec = mixed_spec(i);
        let (id, ..) = m.create_channel(OwnerTag(1), &spec, template_for(&spec), 1, 2048);
        m.activate(id);
        if i % MIX_PERIOD == 3 {
            last_residual = i;
        }
    }
    let exact = mixed_spec(0);
    let flow_frame = frame_to(
        (exact.local_ip, exact.local_port),
        (
            exact.remote_ip.expect("exact spec"),
            exact.remote_port.expect("exact spec"),
        ),
    );
    let listen = mixed_spec(2);
    // From a remote no exact binding names: only the listen table matches.
    let listen_frame = frame_to(
        (listen.local_ip, listen.local_port),
        (Ipv4Addr::new(10, 8, 0, 1), 9999),
    );
    let residual = mixed_spec(last_residual);
    // Matches the last residual binding's filter and nothing keyed: the
    // classify walks the whole residual set before deciding.
    let scan_frame = frame_to(
        (residual.local_ip, residual.local_port),
        (residual.remote_ip.expect("residual spec"), 9999),
    );
    (m, flow_frame, listen_frame, scan_frame)
}

/// The header template matching `spec` (wildcard remotes allowed).
fn template_for(spec: &DemuxSpec) -> HeaderTemplate {
    HeaderTemplate {
        link_header_len: 14,
        src_mac: None,
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: spec.local_ip,
        dst_ip: spec.remote_ip.unwrap_or(Ipv4Addr::new(0, 0, 0, 0)),
        src_port: spec.local_port,
        dst_port: spec.remote_port,
        bqi: None,
    }
}

/// Builds the population at each of the sweep's sizes, checks that every
/// tier resolves, prints the footprint table and returns the report.
pub fn report(w: &Workloads) -> Value {
    println!("== Demux at scale: mixed population, table sizes and footprint ==");
    println!("   (mem = demux structures, not ring payloads)");
    println!(
        "  {:>9} {:>10} {:>9} {:>10}",
        "channels", "flow tbl", "lstn tbl", "mem (MB)"
    );
    let points: Value = w
        .sizes
        .scale_counts
        .iter()
        .map(|&n| {
            let (m, flow_frame, listen_frame, scan_frame) = scale_module(n);
            // Each probe frame resolves on its intended tier and agrees
            // with the linear-scan oracle.
            for (frame, want) in [
                (&flow_frame, DemuxPath::FlowTable),
                (&listen_frame, DemuxPath::ListenTable),
                (&scan_frame, DemuxPath::FilterScan),
            ] {
                let (t, i, path) = m.classify(frame);
                assert_eq!(path, want, "probe frame must hit its tier at n={n}");
                assert!(t.is_some(), "probe frame must match at n={n}");
                assert_eq!((t, i), m.classify_scan_reference(frame));
            }
            println!(
                "  {n:>9} {:>10} {:>9} {:>10.2}",
                m.flow_table_len(),
                m.listen_table_len(),
                m.demux_mem_bytes() as f64 / 1e6
            );
            Value::obj([
                ("channels", n.into()),
                ("flow_table_len", m.flow_table_len().into()),
                ("listen_table_len", m.listen_table_len().into()),
                ("demux_mem_bytes", m.demux_mem_bytes().into()),
            ])
        })
        .collect();
    println!();
    Value::obj([
        ("benchmark", "demux_scale".into()),
        (
            "mix",
            Value::obj([
                ("period", MIX_PERIOD.into()),
                ("listen_per_period", 1usize.into()),
                ("residual_per_period", 1usize.into()),
            ]),
        ),
        ("points", points),
    ])
}

/// Best-of-`reps` ns/op — the minimum is the least-noise estimator for a
/// deterministic operation.
fn time_ns(mut f: impl FnMut(), iters: u64, reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// One create→activate→destroy cycle against a population of `n`.
pub fn churn_cycle(m: &mut NetIoModule, n: usize) {
    let spec = spec_for(n);
    let (id, ..) = m.create_channel(OwnerTag(1), &spec, template_for(&spec), 1, 2048);
    m.activate(id);
    assert!(m.destroy_channel(id, OwnerTag(1)));
}

/// The churn-scaling measurement: channel activate/teardown is maintained
/// incrementally (O(log N) per event), so a churn cycle at 4096 channels
/// must stay within a constant factor of the same cycle at 64. The seed's
/// O(N) rebuild-per-event was ~56x here; the gate table's bound sits
/// between that and the noise of timing two sub-microsecond loops on a
/// loaded CI host.
pub fn churn_report(_: &Workloads) -> Value {
    let at = |n: usize| {
        let (mut m, ..) = scale_module(n);
        time_ns(|| churn_cycle(&mut m, n), 20_000, 5)
    };
    let (at_64, at_4096) = (at(64), at(4096));
    println!(
        "churn: create+activate+destroy {at_64:.1} ns @ 64 channels, {at_4096:.1} ns @ 4096 ({:.2}x)",
        at_4096 / at_64
    );
    Value::obj([
        ("cycle_ns_at_64", Value::fixed(at_64, 1)),
        ("cycle_ns_at_4096", Value::fixed(at_4096, 1)),
        ("ratio_4096_over_64", Value::fixed(at_4096 / at_64, 2)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Sizes;
    use crate::summary::assert_shaped;

    #[test]
    fn scale_module_tiers_resolve_and_agree() {
        for n in [64usize, 256] {
            let (m, flow_frame, listen_frame, scan_frame) = scale_module(n);
            let (t, i, path) = m.classify(&flow_frame);
            assert_eq!(path, DemuxPath::FlowTable);
            assert_eq!((t, i), m.classify_scan_reference(&flow_frame));
            let (t, i, path) = m.classify(&listen_frame);
            assert_eq!(path, DemuxPath::ListenTable);
            assert_eq!((t, i), m.classify_scan_reference(&listen_frame));
            let (t, i, path) = m.classify(&scan_frame);
            assert_eq!(path, DemuxPath::FilterScan);
            assert_eq!((t, i), m.classify_scan_reference(&scan_frame));
            assert!(m.caches_match_rebuild());
        }
    }

    #[test]
    fn scale_module_populates_every_tier() {
        let (m, ..) = scale_module(256);
        assert_eq!(m.flow_table_len(), 256 - 2 * (256 / MIX_PERIOD));
        assert_eq!(m.listen_table_len(), 256 / MIX_PERIOD);
        assert!(m.demux_mem_bytes() > 0);
    }

    #[test]
    fn churn_cycle_restores_the_flow_table() {
        let (mut m, ..) = scale_module(8);
        let before = m.flow_table_len();
        let spec = spec_for(8);
        let (id, ..) = m.create_channel(OwnerTag(1), &spec, template_for(&spec), 1, 2048);
        m.activate(id);
        assert_eq!(m.flow_table_len(), before + 1);
        assert!(m.destroy_channel(id, OwnerTag(1)));
        assert_eq!(m.flow_table_len(), before);
        churn_cycle(&mut m, 8);
        assert_eq!(m.flow_table_len(), before);
        assert!(m.caches_match_rebuild());
    }

    #[test]
    fn json_is_shaped() {
        assert_shaped("demux_scale", &report(&Workloads::new(Sizes::SMALL)));
    }
}
