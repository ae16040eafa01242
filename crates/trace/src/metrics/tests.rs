use super::histogram::{bucket_floor, bucket_index, EXACT, NBUCKETS};
use super::*;

#[test]
fn counters_are_typed_and_cheap() {
    let mut m = Metrics::new();
    m.bump(Ctr::FramesSent);
    m.add(Ctr::FramesSent, 4);
    assert_eq!(m.get(Ctr::FramesSent), 5);
    assert_eq!(m.get(Ctr::FramesReceived), 0);
    let touched: Vec<_> = m.counters().collect();
    assert_eq!(touched, vec![("frames_sent", 5)]);
}

#[test]
fn counter_labels_are_sorted_and_unique() {
    // `counters()` reports in declaration order; keep that order
    // alphabetical so reports read like the old BTreeMap output.
    let names: Vec<_> = Ctr::ALL.iter().map(|c| c.name()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(names, sorted, "declare Ctr variants in label order");
}

#[test]
fn hist_labels_are_sorted_and_unique() {
    let names: Vec<_> = Hist::ALL.iter().map(|h| h.name()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(names, sorted, "declare Hist variants in label order");
}

#[test]
fn nearest_rank_quantiles() {
    // Values below 256 are binned exactly, so the pre-rework answers
    // still hold to the digit.
    let mut m = Metrics::new();
    for v in [10, 20, 30, 40] {
        m.sample(Hist::ConnSrtt, v);
    }
    assert_eq!(m.mean(Hist::ConnSrtt), Some(25.0));
    let srtt = &m.hists[Hist::ConnSrtt as usize];
    assert_eq!(srtt.quantile(0.5), Some(20));
    assert_eq!(srtt.quantile(1.0), Some(40));
    assert_eq!(srtt.quantile(0.0), Some(10));
    assert_eq!(m.mean(Hist::WakeupBatchFrames), None);
    assert_eq!(
        m.hists[Hist::WakeupBatchFrames as usize].quantile(0.5),
        None
    );
}

#[test]
fn quantile_edge_cases() {
    // Empty.
    let h = Histogram::new();
    assert_eq!(h.quantile(0.5), None);
    assert_eq!(h.mean(), None);
    assert_eq!(h.min(), None);
    assert_eq!(h.max(), None);

    // Single sample: every quantile is that sample, exactly, even in
    // the log-bucketed range.
    let mut h = Histogram::new();
    h.record(1_000_003);
    for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
        assert_eq!(h.quantile(p), Some(1_000_003));
    }
    assert_eq!(h.mean(), Some(1_000_003.0));

    // p = 0.0 and 1.0 are exact min/max regardless of bucketing.
    let mut h = Histogram::new();
    for v in [977, 35_001, 12_345_679] {
        h.record(v);
    }
    assert_eq!(h.quantile(0.0), Some(977));
    assert_eq!(h.quantile(1.0), Some(12_345_679));

    // Heavy duplicates: the repeated value dominates every interior
    // rank; 300 falls in a log bucket whose floor is within the
    // documented 1/32 bound.
    let mut h = Histogram::new();
    for _ in 0..1000 {
        h.record(300);
    }
    h.record(1);
    h.record(100_000);
    let q = h.quantile(0.5).unwrap();
    assert!(
        q <= 300 && 300 - q <= 300 / 32 + 1,
        "p50 {q} outside the 1/32 error band around 300"
    );
    assert_eq!(h.quantile(0.0), Some(1));
    assert_eq!(h.quantile(1.0), Some(100_000));
}

#[test]
fn quantile_ranks_survive_float_boundary_products() {
    // 0.001 * 7000 rounds to 7.0000000000000001 in f64, so a bare
    // ceil lands on rank 8. With values 1..=7000 (rank k holds value
    // k, all in the exact bucket range below the log-linear split for
    // the first 255) the 0.001-quantile must be rank 7's value.
    let mut h = Histogram::new();
    for v in 1..=7000u64 {
        h.record(v);
    }
    assert_eq!(h.quantile(0.001), Some(7));
    // Exact-boundary and out-of-range p clamp to the observed
    // extremes without touching the rank math.
    assert_eq!(h.quantile(0.0), Some(1));
    assert_eq!(h.quantile(-0.5), Some(1));
    assert_eq!(h.quantile(1.0), Some(7000));
    assert_eq!(h.quantile(1.5), Some(7000));
    assert_eq!(h.quantile(f64::NAN), Some(1), "NaN reads as p=0");
    // An exactly-representable product must not slip a rank down:
    // 3500 is log-bucketed, so the answer is its bucket floor, within
    // the documented 1/32 band and never above the true rank value.
    let q = h.quantile(0.5).unwrap();
    assert!(
        q <= 3500 && 3500 - q <= 3500 / 32 + 1,
        "p50 {q} outside the 1/32 band around 3500"
    );
}

#[test]
fn histogram_memory_is_bounded_and_error_banded() {
    // A million spread-out samples must not grow storage past the
    // fixed bucket array, and every quantile must respect the 1/32
    // relative error bound against a sorted reference.
    let mut h = Histogram::new();
    let mut reference = Vec::new();
    let mut x = 1u64;
    for _ in 0..1_000_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = x % 50_000_000;
        h.record(v);
        reference.push(v);
    }
    assert_eq!(h.count(), 1_000_000);
    assert!(h.buckets.len() == NBUCKETS, "storage must stay fixed");
    reference.sort_unstable();
    for p in [0.1, 0.5, 0.9, 0.99] {
        let approx = h.quantile(p).unwrap() as f64;
        let idx = ((p * reference.len() as f64).ceil() as usize).clamp(1, reference.len()) - 1;
        let exact = reference[idx] as f64;
        // The reported value is the exact quantile's bucket floor: at
        // most 1/32 below it, never above.
        assert!(
            approx <= exact && (exact - approx) / exact.max(1.0) <= 1.0 / 32.0,
            "quantile p={p}: {approx} vs exact {exact}"
        );
    }
}

#[test]
fn bucket_round_trip_preserves_order_and_bound() {
    for v in [0, 1, 255, 256, 257, 1000, 65_535, 1 << 20, u64::MAX / 3] {
        let idx = bucket_index(v);
        let floor = bucket_floor(idx);
        assert!(floor <= v, "floor {floor} above value {v}");
        if v >= EXACT {
            assert!(
                (v - floor) as f64 / v as f64 <= 1.0 / 32.0,
                "bucket floor {floor} more than 1/32 below {v}"
            );
        } else {
            assert_eq!(floor, v);
        }
    }
}

#[test]
fn snapshot_windows_do_delta_arithmetic() {
    let mut m = Metrics::new();
    let s0 = m.snapshot(0);
    m.add(Ctr::FramesReceived, 100);
    m.add(Ctr::FramesSent, 50);
    m.add(Ctr::TcpRexmitSegs, 5);
    m.add(Ctr::ChFlowHits, 90);
    m.add(Ctr::ChScanFallbacks, 10);
    m.sample(Hist::RingDepth, 2);
    m.sample(Hist::RingDepth, 4);
    let s1 = m.snapshot(1_000_000_000); // 1 s of sim time
    let w = s1.window_since(&s0);
    assert_eq!(w.duration(), 1_000_000_000);
    assert_eq!(w.delta(Ctr::FramesReceived), 100);
    assert_eq!(w.rx_pps(), 100.0);
    assert_eq!(w.tx_pps(), 50.0);
    assert_eq!(w.rexmit_per_sec(), 5.0);
    assert_eq!(w.rexmit_share(), Some(0.1));
    assert_eq!(w.flow_hit_rate(), Some(0.9));
    assert_eq!(w.mean_ring_depth(), Some(3.0));

    // The second window sees only the second slice's activity.
    m.add(Ctr::FramesReceived, 20);
    let s2 = m.snapshot(3_000_000_000);
    let w2 = s2.window_since(&s1);
    assert_eq!(w2.duration(), 2_000_000_000);
    assert_eq!(w2.delta(Ctr::FramesReceived), 20);
    assert_eq!(w2.rx_pps(), 10.0);
    assert_eq!(w2.rexmit_share(), None, "nothing sent this window");
    assert_eq!(w2.flow_hit_rate(), None);
    assert_eq!(w2.mean_ring_depth(), None);
    // Windows compose: (s0 -> s2) equals the sum of the two slices.
    let total = s2.window_since(&s0);
    assert_eq!(
        total.delta(Ctr::FramesReceived),
        w.delta(Ctr::FramesReceived) + w2.delta(Ctr::FramesReceived)
    );

    // Reversed snapshots saturate rather than wrap.
    let rev = s0.window_since(&s2);
    assert_eq!(rev.delta(Ctr::FramesReceived), 0);
}

#[test]
fn zero_length_window_has_zero_rates() {
    let m = Metrics::new();
    let s = m.snapshot(500);
    let w = s.window_since(&s);
    assert_eq!(w.duration(), 0);
    assert_eq!(w.rx_pps(), 0.0);
    assert_eq!(w.per_sec(Ctr::FramesSent), 0.0);
}

fn key(host: u16, local_port: u16) -> ConnKey {
    ConnKey {
        host,
        local_port,
        remote_ip: [10, 0, 0, 2],
        remote_port: 80,
    }
}

#[test]
fn closed_connections_sum_per_host_and_stay_whole_in_the_tail() {
    let mut m = Metrics::new();
    assert_eq!(key(0, 2000).to_string(), "h0:2000 <-> 10.0.0.2:80");
    // Every summable field distinct, so a dropped one shows.
    let scope = |n: u64| ConnScope {
        segs_out: n,
        segs_in: 2 * n,
        bytes_rexmit: 3 * n,
        rto_fires: 4 * n,
        fast_rexmit: 5 * n,
        dup_acks_in: 6 * n,
        probes: 7 * n,
        srtt: Some(n),
        rx_delivered: 8 * n,
        rx_batched: 9 * n,
        flow_hits: 10 * n,
        listen_hits: 11 * n,
        scan_fallbacks: 12 * n,
        bytes_to_app: 13 * n,
    };
    let sum = |n| ConnScope {
        srtt: None,
        ..scope(n)
    };
    // A client whose ephemeral allocator wrapped closes the same
    // 4-tuple again: two connections, not one overwritten scope.
    m.retire_conn(key(0, 2000), Some(7), scope(1));
    m.retire_conn(key(0, 2000), None, scope(100));
    m.retire_conn(key(1, 80), Some(9), scope(5));
    let closed: Vec<_> = m.closed().map(|(h, c)| (h, c.count, c.sum)).collect();
    assert_eq!(closed, [(0, 2, sum(101)), (1, 1, sum(5))]);
    // Both incarnations are in the tail, in close order.
    let kept: Vec<_> = m.conns().map(|(k, c)| (k.local_port, *c)).collect();
    assert_eq!(kept, [(2000, scope(1)), (2000, scope(100)), (80, scope(5))]);
    // Channels are the tail's connections that ran over one.
    let chans: Vec<_> = m.channels().map(|(id, c)| (id, c.rx_delivered)).collect();
    assert_eq!(chans, [((0, 7), 8), ((1, 9), 40)]);
}
