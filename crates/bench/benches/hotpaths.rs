//! Criterion micro-benchmarks over the real hot-path code (run on the host
//! machine — these measure our Rust implementation, complementing the
//! modeled 1993 costs the table reproductions use).
//!
//! * Internet checksum throughput;
//! * the three packet-demultiplexing generations (CSPF interpreter, BPF
//!   VM, compiled match) — the modern-hardware analogue of Table 5;
//! * hierarchical timing wheel vs. the sorted-list baseline — the
//!   Varghese & Lauck ablation;
//! * TCP segment build/parse.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use unp_buffers::FramePool;
use unp_filter::programs::{bpf_demux, cspf_demux, DemuxSpec};
use unp_filter::{CompiledDemux, Demux};
use unp_timers::{SortedTimerList, TimerService, TimerWheel};
use unp_wire::{
    checksum, EtherType, EthernetRepr, IpProtocol, Ipv4Addr, Ipv4Repr, MacAddr, SeqNum, TcpFlags,
    TcpPacket, TcpRepr, IPV4_HEADER_LEN,
};

fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum");
    for size in [64usize, 512, 1460] {
        let data: Vec<u8> = (0..size).map(|i| i as u8).collect();
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("rfc1071_{size}"), |b| {
            b.iter(|| checksum(black_box(&data)))
        });
    }
    // The one's-complement word sum itself: the u64 8-byte-folding loop
    // against the straightforward 2-byte loop, at a full MTU payload. The
    // wide loop must not lose (acceptance bar for the checksum satellite).
    let data: Vec<u8> = (0..1500).map(|i| i as u8).collect();
    g.throughput(Throughput::Bytes(1500));
    g.bench_function("sum_be_words_wide_1500", |b| {
        b.iter(|| unp_wire::checksum::sum_be_words(black_box(&data)))
    });
    g.bench_function("sum_be_words_naive_1500", |b| {
        b.iter(|| unp_wire::checksum::sum_be_words_reference(black_box(&data)))
    });
    g.finish();
}

fn demux_frame() -> Vec<u8> {
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let t = TcpRepr {
        src_port: 4000,
        dst_port: 80,
        seq: SeqNum(1),
        ack_num: SeqNum(2),
        flags: TcpFlags::ack(),
        window: 8192,
        mss: None,
    };
    let seg = t.build_segment(src, dst, &[0u8; 512]);
    let ip = Ipv4Repr::simple(src, dst, IpProtocol::Tcp, seg.len());
    EthernetRepr {
        dst: MacAddr::from_host_index(2),
        src: MacAddr::from_host_index(1),
        ethertype: EtherType::Ipv4,
    }
    .build_frame(&ip.build_packet(&seg))
}

fn bench_demux(c: &mut Criterion) {
    let spec = DemuxSpec {
        link_header_len: 14,
        protocol: IpProtocol::Tcp,
        local_ip: Ipv4Addr::new(10, 0, 0, 2),
        local_port: 80,
        remote_ip: Some(Ipv4Addr::new(10, 0, 0, 1)),
        remote_port: Some(4000),
    };
    let frame = demux_frame();
    let bpf = bpf_demux(&spec);
    let cspf = cspf_demux(&spec);
    let compiled = CompiledDemux::from_spec(&spec);
    assert!(bpf.matches(&frame) && cspf.matches(&frame) && compiled.matches(&frame));

    let mut g = c.benchmark_group("demux");
    g.bench_function("cspf_interpreter", |b| {
        b.iter(|| cspf.matches(black_box(&frame)))
    });
    g.bench_function("bpf_vm", |b| b.iter(|| bpf.matches(black_box(&frame))));
    g.bench_function("compiled", |b| {
        b.iter(|| compiled.matches(black_box(&frame)))
    });
    // The miss path matters as much: every foreign packet runs the filter.
    let mut other = frame.clone();
    other[37] ^= 1; // different dst port
    g.bench_function("bpf_vm_miss", |b| b.iter(|| bpf.matches(black_box(&other))));
    g.finish();
}

fn bench_demux_scale(c: &mut Criterion) {
    // The one channel-count sweep: a mixed population of N bindings
    // (exact, listen, residual), one probe frame per demux tier. The
    // keyed tiers should be flat in N and a churn cycle O(log N); the
    // residual scan, the 1993-style linear reference and the from-scratch
    // rebuild grow with it. The largest populations the committed
    // BENCH_demux_scale.json sizes are left out: building 10^6 channels
    // per run is the footprint report's job, not a micro-benchmark's.
    let mut g = c.benchmark_group("demux_scale");
    for n in [8usize, 64, 512, 4096, 65_536] {
        let (mut m, flow, listen, scan) = unp_bench::scale::scale_module(n);
        g.bench_function(format!("flow_table_{n}"), |b| {
            b.iter(|| m.classify(black_box(&flow)))
        });
        g.bench_function(format!("listen_table_{n}"), |b| {
            b.iter(|| m.classify(black_box(&listen)))
        });
        g.bench_function(format!("residual_scan_{n}"), |b| {
            b.iter(|| m.classify(black_box(&scan)))
        });
        // The 1993-style scan over every binding, on the frame whose
        // match is the last one installed: its worst case.
        g.bench_function(format!("linear_reference_{n}"), |b| {
            b.iter(|| m.classify_scan_reference(black_box(&scan)))
        });
        // Rebuild before churn: every churn cycle mints a fresh channel
        // id, which would grow the id space the O(N) rebuild walks.
        g.bench_function(format!("rebuild_active_{n}"), |b| {
            b.iter(|| m.force_rebuild_active())
        });
        g.bench_function(format!("churn_cycle_{n}"), |b| {
            b.iter(|| unp_bench::scale::churn_cycle(&mut m, n))
        });
    }
    g.finish();
}

fn bench_timers(c: &mut Criterion) {
    let mut g = c.benchmark_group("timers");
    for n in [32u64, 1024] {
        g.bench_function(format!("wheel_start_stop_{n}"), |b| {
            b.iter(|| {
                let mut w: TimerWheel<u64> = TimerWheel::new(0);
                let ids: Vec<_> = (0..n).map(|i| w.start(i * 1_000_000, i)).collect();
                for id in ids {
                    black_box(w.stop(id));
                }
            })
        });
        g.bench_function(format!("list_start_stop_{n}"), |b| {
            b.iter(|| {
                let mut l: SortedTimerList<u64> = SortedTimerList::new();
                let ids: Vec<_> = (0..n).map(|i| l.start(i * 1_000_000, i)).collect();
                for id in ids {
                    black_box(l.stop(id));
                }
            })
        });
    }
    // The TCP pattern: constant restart of one timer among many pending.
    g.bench_function("wheel_tcp_restart_pattern", |b| {
        b.iter(|| {
            let mut w: TimerWheel<u64> = TimerWheel::new(0);
            let _guards: Vec<_> = (0..256u64)
                .map(|i| w.start((i + 10) * 2_000_000, i))
                .collect();
            let mut id = w.start(1_000_000, 999);
            for i in 0..100u64 {
                w.stop(id);
                id = w.start(1_000_000 + i * 10_000, 999);
            }
            black_box(w.pending())
        })
    });
    g.finish();
}

fn bench_tcp_wire(c: &mut Criterion) {
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let repr = TcpRepr {
        src_port: 4000,
        dst_port: 80,
        seq: SeqNum(100),
        ack_num: SeqNum(200),
        flags: TcpFlags::ack(),
        window: 8192,
        mss: None,
    };
    let payload = vec![0xa5u8; 1460];
    let mut g = c.benchmark_group("tcp_wire");
    g.throughput(Throughput::Bytes(1460));
    g.bench_function("build_segment_1460", |b| {
        b.iter(|| repr.build_segment(black_box(src), black_box(dst), black_box(&payload)))
    });
    let seg = repr.build_segment(src, dst, &payload);
    g.bench_function("parse_verify_1460", |b| {
        b.iter(|| {
            let p = TcpPacket::new_checked(black_box(&seg[..])).unwrap();
            assert!(p.verify_checksum(src, dst));
            TcpRepr::parse(&p)
        })
    });
    g.finish();
}

fn bench_frame_path(c: &mut Criterion) {
    // End-to-end frame construction for one full-MSS TCP segment on
    // Ethernet, the data path's innermost loop: the zero-copy way (one
    // pooled buffer, headers emitted into headroom — what
    // `core::world::emit_tcp_segment` does) against the allocating way
    // (nested build_segment → build_packet → build_frame, one Vec and one
    // copy per layer — what the path did before the frame refactor).
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let repr = TcpRepr {
        src_port: 4000,
        dst_port: 80,
        seq: SeqNum(100),
        ack_num: SeqNum(200),
        flags: TcpFlags::ack(),
        window: 8192,
        mss: None,
    };
    let eth = EthernetRepr {
        dst: MacAddr::from_host_index(2),
        src: MacAddr::from_host_index(1),
        ethertype: EtherType::Ipv4,
    };
    let payload = vec![0xa5u8; 1460];
    let hlen = repr.header_len();
    let lhl = 14;
    let pool = FramePool::new(lhl + IPV4_HEADER_LEN + hlen + payload.len(), 64);

    let mut g = c.benchmark_group("frame_path");
    g.throughput(Throughput::Bytes(1460));
    g.bench_function("pooled_headroom_build_1460", |b| {
        b.iter(|| {
            let mut f = pool.alloc(lhl + IPV4_HEADER_LEN + hlen, black_box(&payload));
            f.prepend(hlen);
            repr.emit_into(f.as_mut_slice(), src, dst).unwrap();
            let ip = Ipv4Repr::simple(src, dst, IpProtocol::Tcp, hlen + payload.len());
            ip.emit(f.prepend(IPV4_HEADER_LEN)).unwrap();
            eth.emit(f.prepend(lhl)).unwrap();
            black_box(f.len())
            // Frame drops here; its buffer goes back to the pool freelist.
        })
    });
    g.bench_function("vec_nested_build_1460", |b| {
        b.iter(|| {
            let seg = repr.build_segment(src, dst, black_box(&payload));
            let ip = Ipv4Repr::simple(src, dst, IpProtocol::Tcp, seg.len());
            let frame = eth.build_frame(&ip.build_packet(&seg));
            black_box(frame.len())
        })
    });
    // Sanity outside the timed loops: the two paths emit identical bytes.
    let mut f = pool.alloc(lhl + IPV4_HEADER_LEN + hlen, &payload);
    f.prepend(hlen);
    repr.emit_into(f.as_mut_slice(), src, dst).unwrap();
    let ip = Ipv4Repr::simple(src, dst, IpProtocol::Tcp, hlen + payload.len());
    ip.emit(f.prepend(IPV4_HEADER_LEN)).unwrap();
    eth.emit(f.prepend(lhl)).unwrap();
    let seg = repr.build_segment(src, dst, &payload);
    let ipr = Ipv4Repr::simple(src, dst, IpProtocol::Tcp, seg.len());
    assert_eq!(&f[..], &eth.build_frame(&ipr.build_packet(&seg))[..]);
    g.finish();
}

fn bench_trace_overhead(c: &mut Criterion) {
    // The disabled-mode guarantee: with the journal quiescent, every emit
    // site in the hot path reduces to one relaxed atomic load and the
    // event constructor closure is never run. `classify` carries a real
    // `demux_classify` emission, so comparing it quiescent vs recording —
    // and against `demux_scale`'s `flow_table_64` — shows the
    // instrumentation costs nothing when off.
    let (m, frame, ..) = unp_bench::scale::scale_module(64);
    assert!(!unp_trace::journal_enabled());
    let mut g = c.benchmark_group("trace_overhead");
    g.throughput(Throughput::Elements(256));
    g.bench_function("classify_quiescent_x256", |b| {
        b.iter(|| {
            for _ in 0..256 {
                black_box(m.classify(black_box(&frame)));
            }
        })
    });
    g.bench_function("classify_recording_x256", |b| {
        b.iter(|| {
            unp_trace::journal_start();
            for _ in 0..256 {
                black_box(m.classify(black_box(&frame)));
            }
            unp_trace::journal_stop().len()
        })
    });
    g.finish();
    assert!(!unp_trace::journal_enabled());

    let mut g = c.benchmark_group("trace_emit");
    g.bench_function("emit_quiescent", |b| {
        b.iter(|| {
            unp_trace::emit(black_box(Some(1)), || unp_trace::Event::NicTx {
                len: black_box(1500),
            })
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_checksum,
    bench_demux,
    bench_demux_scale,
    bench_timers,
    bench_tcp_wire,
    bench_frame_path,
    bench_trace_overhead
);
criterion_main!(benches);
