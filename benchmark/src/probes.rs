//! Per-layer probes: the workload's own frames, replayed through one layer's
//! public functions at a time.
//!
//! An untimed pass runs the workload with a capture tap and keeps its first
//! [`CAPTURE_FRAMES`] wire frames, together with what the layers' working
//! sets looked like (channels and timers per host, frames per wakeup, engine
//! queue depth, journal records per frame). Each probe then rebuilds one
//! layer's state at that size, feeds it those frames, and records a span per
//! batch of calls; the metric is the median span self time per call. The
//! probes run hot, one layer at a time, so each is a *lower* bound on what
//! that layer costs in the full system, where every layer's working set
//! competes for the same caches — the gap is part of `core.glue_ns_per_frame`.

use std::collections::HashMap;
use std::hint::black_box;
use std::ops::Range;
use std::rc::Rc;

use unp_buffers::{Frame, FramePool, OwnerTag, RingId};
use unp_core::Network;
use unp_filter::programs::bpf_demux;
use unp_filter::{BpfInstr, BpfProgram, Demux};
use unp_kernel::{Capability, Delivery, HeaderTemplate, NetIoModule};
use unp_netdev::{An1Nic, LanceNic, Link, StationId};
use unp_proto::IpEndpoint;
use unp_registry::{connection_demux_spec, RegistryAction, RegistryServer};
use unp_sim::{Engine, LinkParams};
use unp_tcp::TcpConfig;
use unp_timers::{TimerService, TimerWheel};
use unp_trace::{Event, Monitor};
use unp_wire::{
    An1Repr, EtherType, EthernetRepr, FlowKey, IpProtocol, Ipv4Addr, Ipv4Packet, Ipv4Repr, MacAddr,
    TcpPacket, TcpRepr, AN1_HEADER_LEN, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN,
};

use crate::apps::Pattern;
use crate::pipe::{Pipe, Script};
use crate::round::{Round, Slice, SLICE_EVENTS};
use crate::span::{AppTimer, Recorder};
use crate::workloads::Workload;

/// Wire frames the capture pass keeps.
pub const CAPTURE_FRAMES: usize = 20_000;
/// Most calls one probe span covers.
const BATCH: usize = 256;
/// Spans each probe records.
const SPANS: usize = 64;
/// Calls per span for probes that need no captured input.
const LOOP_CALLS: u64 = 2_000;

/// What the capture pass kept.
pub struct Capture {
    /// Which network the frames crossed.
    pub network: Network,
    /// The workload's first wire frames, in order.
    pub frames: Vec<Frame>,
    /// Size of the world's frame-pool buffers.
    pub pool_buf_size: usize,
    /// Journal records emitted per wire frame.
    pub records_per_frame: f64,
}

/// How big the layers' working sets are on this workload: means over the
/// slices of an untraced round, so a probe works at the size the layer
/// typically has, not the size it happened to have when the capture ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Events queued on the engine.
    pub pending: f64,
    /// Frames consumed per library wakeup.
    pub frames_per_wakeup: f64,
    /// Channels open on the busiest host.
    pub channels_per_host: f64,
    /// Timers armed on the busiest host.
    pub timers_per_host: f64,
}

impl Sizes {
    /// The working-set sizes `round` saw.
    pub fn of(round: &Round) -> Sizes {
        let n = round.slices.len().max(1) as f64;
        let mean =
            |f: fn(&Slice) -> u32| round.slices.iter().map(|s| f64::from(f(s))).sum::<f64>() / n;
        Sizes {
            pending: mean(|s| s.pending),
            frames_per_wakeup: round.layers.frames_per_wakeup,
            channels_per_host: mean(|s| s.channels),
            timers_per_host: mean(|s| s.timers),
        }
    }
}

impl Capture {
    fn link_header_len(&self) -> usize {
        match self.network {
            Network::Ethernet => ETHERNET_HEADER_LEN,
            Network::An1 => AN1_HEADER_LEN,
        }
    }

    fn link_params(&self) -> LinkParams {
        match self.network {
            Network::Ethernet => LinkParams::ethernet_10mbps(),
            Network::An1 => LinkParams::an1_100mbps(),
        }
    }
}

/// Runs `workload` untimed until it has put [`CAPTURE_FRAMES`] frames on the
/// wire, with a capture tap and a record-counting journal attached.
pub fn capture(workload: Workload, seed: u64, pattern: &Rc<Pattern>) -> Capture {
    if workload != Workload::BulkObserved {
        // `bulk_observed` attaches its own journal; the others get one here
        // only to count records — the sim does not depend on observers.
        unp_trace::journal_start_bounded(64);
    }
    let mut inst = workload.build(workload.ops_per_round(), seed, pattern, AppTimer::off());
    let accept_all = BpfProgram::new(vec![BpfInstr::Ret(u32::MAX)]).expect("one valid return");
    let tap = inst.w.add_capture_tap("hostbench", accept_all);
    let mut drained = false;
    while !drained && inst.w.tap_frames(tap).len() < CAPTURE_FRAMES {
        drained = inst.eng.run(&mut inst.w, SLICE_EVENTS);
    }
    let records = match inst.detach_observers() {
        Some(observed) => observed.records,
        None => unp_trace::journal_stop().len() as u64 + unp_trace::journal_dropped(),
    };
    let on_wire = inst.w.tap_frames(tap).len();
    Capture {
        network: workload.network(),
        frames: inst
            .w
            .tap_frames(tap)
            .iter()
            .take(CAPTURE_FRAMES)
            .map(|(_, f)| f.clone())
            .collect(),
        pool_buf_size: inst.w.pool.buf_size(),
        records_per_frame: records as f64 / on_wire.max(1) as f64,
    }
}

/// One captured TCP/IP frame, taken apart once so probes need not.
#[derive(Clone)]
struct Parsed {
    frame: Frame,
    src: (Ipv4Addr, u16),
    dst: (Ipv4Addr, u16),
    repr: TcpRepr,
    /// Where the TCP payload sits in the frame (link padding excluded).
    payload: Range<usize>,
}

impl Parsed {
    fn payload(&self) -> &[u8] {
        &self.frame[self.payload.clone()]
    }
}

fn parse(frame: &Frame, lhl: usize) -> Option<Parsed> {
    let ip = Ipv4Packet::new_checked(frame.get(lhl..)?).ok()?;
    if ip.protocol() != IpProtocol::Tcp {
        return None;
    }
    let tcp = TcpPacket::new_checked(ip.payload()).ok()?;
    Some(Parsed {
        frame: frame.clone(),
        src: (ip.src(), tcp.src_port()),
        dst: (ip.dst(), tcp.dst_port()),
        repr: TcpRepr::parse(&tcp),
        payload: lhl + IPV4_HEADER_LEN + tcp.header_len()..lhl + ip.total_len(),
    })
}

/// One connection as the probed host's kernel module knows it.
struct Chan {
    send_cap: Capability,
    recv_cap: Capability,
    ring: RingId,
}

/// `(remote ip, remote port, local port)` of a connection at the probed host.
type FlowId = (Ipv4Addr, u16, u16);

/// The probed host: whichever address the capture sends most frames to (the
/// server of `churn` and `fanin_lossy`, the receiver of `bulk`), with the
/// frames and connections that concern it.
struct Probed {
    lhl: usize,
    ip: Ipv4Addr,
    mac: MacAddr,
    /// Every captured TCP frame, whoever sent it: each was built once and
    /// taken apart once, so the per-frame probes run over all of them.
    all: Vec<Parsed>,
    /// Frames addressed to the host, over its first `channels_per_host`
    /// connections.
    rx: Vec<Parsed>,
    /// Frames the host sent over those connections.
    tx: Vec<Parsed>,
    /// Those connections, in the order the capture first shows them.
    flows: Vec<FlowId>,
}

fn probed_host(cap: &Capture, sizes: &Sizes) -> Option<Probed> {
    let lhl = cap.link_header_len();
    let parsed: Vec<Parsed> = cap.frames.iter().filter_map(|f| parse(f, lhl)).collect();
    let mut received: HashMap<Ipv4Addr, usize> = HashMap::new();
    for p in &parsed {
        *received.entry(p.dst.0).or_default() += 1;
    }
    // Most frames first; the lower address breaks a tie, so the choice does
    // not depend on hash order.
    let ip = received
        .into_iter()
        .max_by_key(|&(ip, n)| (n, std::cmp::Reverse(ip.0)))?
        .0;
    let mac = parsed
        .iter()
        .find(|p| p.dst.0 == ip)
        .map(|p| MacAddr(p.frame[0..6].try_into().expect("six bytes")))?;
    let mut flows: Vec<FlowId> = Vec::new();
    for p in parsed.iter().filter(|p| p.dst.0 == ip) {
        let id = (p.src.0, p.src.1, p.dst.1);
        if flows.len() < (sizes.channels_per_host.round() as usize).max(1) && !flows.contains(&id) {
            flows.push(id);
        }
    }
    let (mut rx, mut tx) = (Vec::new(), Vec::new());
    for p in &parsed {
        if p.dst.0 == ip && flows.contains(&(p.src.0, p.src.1, p.dst.1)) {
            rx.push(p.clone());
        } else if p.src.0 == ip && flows.contains(&(p.dst.0, p.dst.1, p.src.1)) {
            tx.push(p.clone());
        }
    }
    Some(Probed {
        lhl,
        ip,
        mac,
        all: parsed,
        rx,
        tx,
        flows,
    })
}

/// Records [`SPANS`] spans named `name`, each one batch of `call` over
/// `items`, cycling through them. Every batch is run once untimed first: in
/// the full system a frame is parsed moments after it was built and is still
/// in cache, whereas 20,000 captured frames are not.
fn replay<T>(rec: &mut Recorder, name: &'static str, items: &[T], mut call: impl FnMut(&T)) {
    if items.is_empty() {
        return;
    }
    for batch in items.chunks(BATCH).cycle().take(SPANS) {
        batch.iter().for_each(&mut call);
        rec.time(name, batch.len() as u64, || {
            batch.iter().for_each(&mut call)
        });
    }
}

/// Records [`SPANS`] spans of `calls` calls of `call` each, after one
/// untimed span's worth.
fn repeat(rec: &mut Recorder, name: &'static str, calls: u64, mut call: impl FnMut()) {
    (0..calls).for_each(|_| call());
    for _ in 0..SPANS {
        rec.time(name, calls, || (0..calls).for_each(|_| call()));
    }
}

/// Runs every probe for `workload` over `cap`, recording into `rec`.
pub fn run_all(workload: Workload, cap: &Capture, sizes: &Sizes, rec: &mut Recorder) {
    sim(sizes, rec);
    trace(rec);
    tcp(workload, rec);
    registry(rec);
    timers(sizes, rec);
    let Some(host) = probed_host(cap, sizes) else {
        return;
    };
    wire(cap, &host, rec);
    filter(&host, rec);
    buffers(cap, &host, rec);
    netdev(cap, &host, rec);
    proto(&host, rec);
    kernel(cap, sizes, &host, rec);
}

/// `sim`: schedule + pop + call, and schedule + cancel, with the workload's
/// mean number of events already queued. The closure carries 32 bytes, as the
/// world's do (a host index, a connection id, a frame handle), so the engine
/// boxes it on the heap; an empty closure would be boxed for free.
fn sim(sizes: &Sizes, rec: &mut Recorder) {
    let mut eng: Engine<u64> = Engine::new();
    let mut world = 0u64;
    for i in 0..sizes.pending.round() as u64 {
        eng.at(u64::MAX / 2 + i, |w: &mut u64, _| *w += 1);
    }
    let carried = [1u64, 2, 3, 4];
    repeat(rec, "sim.dispatch_ns", LOOP_CALLS, || {
        eng.after(1, move |w: &mut u64, _| *w += black_box(carried)[0]);
        eng.step(&mut world);
    });
    repeat(rec, "sim.cancel_ns", LOOP_CALLS, || {
        let id = eng.after(1_000_000, move |w: &mut u64, _| *w += black_box(carried)[0]);
        black_box(eng.cancel(id));
    });
    black_box(world);
}

/// `wire`: parse + checksum verify, header emit into a pooled frame, flow-key
/// extraction, and the checksum alone per KiB.
fn wire(cap: &Capture, host: &Probed, rec: &mut Recorder) {
    let lhl = host.lhl;
    replay(rec, "wire.parse_ns", &host.all, |p| {
        let Ok(ip) = Ipv4Packet::new_checked(&p.frame[lhl..]) else {
            return;
        };
        let ip_repr = Ipv4Repr::parse(&ip);
        let Ok(seg) = TcpPacket::new_checked(ip.payload()) else {
            return;
        };
        let valid = seg.verify_checksum(ip_repr.src, ip_repr.dst);
        black_box((valid, TcpRepr::parse(&seg)));
    });
    replay(rec, "wire.flowkey_ns", &host.all, |p| {
        black_box(FlowKey::extract(&p.frame, lhl));
    });

    // Emit: the payload is staged into pooled frames before the span opens
    // (that copy is `buffers.alloc_ns`); the span covers the three header
    // emits, TCP checksum included.
    let pool = FramePool::new(cap.pool_buf_size, BATCH);
    let an1 = cap.network == Network::An1;
    for batch in host.all.chunks(BATCH).cycle().take(SPANS) {
        let mut staged: Vec<(Frame, &Parsed)> = batch
            .iter()
            .map(|p| {
                let headroom = lhl + IPV4_HEADER_LEN + p.repr.header_len();
                (pool.alloc(headroom, p.payload()), p)
            })
            .collect();
        rec.time("wire.emit_ns", batch.len() as u64, || {
            for (f, p) in &mut staged {
                let hlen = p.repr.header_len();
                f.prepend(hlen);
                let _ = p.repr.emit_into(f.as_mut_slice(), p.src.0, p.dst.0);
                let seg_len = f.len();
                let ip = Ipv4Repr::simple(p.src.0, p.dst.0, IpProtocol::Tcp, seg_len);
                let _ = ip.emit(f.prepend(IPV4_HEADER_LEN));
                let (dst, src) = (host.mac, host.mac);
                let _ = if an1 {
                    An1Repr {
                        dst,
                        src,
                        ethertype: EtherType::Ipv4,
                        bqi: 1,
                        announce: 0,
                    }
                    .emit(f.prepend(lhl))
                } else {
                    EthernetRepr {
                        dst,
                        src,
                        ethertype: EtherType::Ipv4,
                    }
                    .emit(f.prepend(lhl))
                };
            }
        });
        black_box(&staged);
    }

    // Checksum per KiB: a span's "calls" are the bytes it summed.
    for batch in cap.frames.chunks(BATCH).cycle().take(SPANS) {
        let sum = || {
            for f in batch {
                black_box(unp_wire::checksum(f));
            }
        };
        sum();
        let bytes: usize = batch.iter().map(|f| f.len()).sum();
        rec.time("wire.checksum_ns_per_kib", bytes as u64, sum);
    }
}

/// `filter`: the compiled BPF program of the host's first connection, run
/// over every frame addressed to the host.
fn filter(host: &Probed, rec: &mut Recorder) {
    let Some(&(rip, rport, lport)) = host.flows.first() else {
        return;
    };
    let program = bpf_demux(&connection_demux_spec(
        host.lhl,
        (host.ip, lport),
        (rip, rport),
    ));
    replay(rec, "filter.bpf_ns", &host.rx, |p| {
        black_box(program.matches(&p.frame));
    });
}

/// `buffers`: one pooled allocation (payload copy-in included) and its
/// release, at the captured payload sizes.
fn buffers(cap: &Capture, host: &Probed, rec: &mut Recorder) {
    let pool = FramePool::new(cap.pool_buf_size, BATCH);
    replay(rec, "buffers.alloc_ns", &host.all, |p| {
        black_box(pool.alloc(p.payload.start, p.payload()));
    });
}

/// `netdev`: link reservation plus the interface's receive step — staging
/// and hand-off on the Lance, BQI classification on the AN1.
fn netdev(cap: &Capture, host: &Probed, rec: &mut Recorder) {
    let mut link = Link::new(cap.link_params());
    link.attach(StationId(0), MacAddr::from_host_index(1));
    link.attach(StationId(1), host.mac);
    let mut now = 0u64;
    match cap.network {
        Network::Ethernet => {
            let mut nic = LanceNic::new(host.mac);
            replay(rec, "netdev.nic_ns", &host.all, |p| {
                now += 2_000_000;
                black_box(link.reserve(StationId(0), now, p.frame.len()));
                nic.frame_arrived(p.frame.clone(), now);
                black_box(nic.host_take_frame());
            });
        }
        Network::An1 => {
            let mut nic = An1Nic::new(host.mac, 64, RingId(0));
            replay(rec, "netdev.nic_ns", &host.all, |p| {
                now += 2_000_000;
                black_box(link.reserve(StationId(0), now, p.frame.len()));
                black_box(nic.classify_frame(&p.frame));
            });
        }
    }
}

/// `proto`: the IP input the library runs on every ring frame, each frame at
/// the endpoint it is addressed to (hosts are `10.0.0.<octet>`).
fn proto(host: &Probed, rec: &mut Recorder) {
    let mut endpoints: Vec<IpEndpoint> = (0..=u8::MAX)
        .map(|octet| IpEndpoint::new(Ipv4Addr::new(10, 0, 0, octet), 24, None))
        .collect();
    let mut now = 0u64;
    replay(rec, "proto.ip_rx_ns", &host.all, |p| {
        now += 1_000;
        let endpoint = &mut endpoints[usize::from(p.dst.0 .0[3])];
        black_box(endpoint.receive_in_place(&p.frame[host.lhl..], now));
    });
}

/// `timers`: the retransmission-timer restart as the world performs it —
/// stop the old timer, start the new one, ask the wheel for its next
/// deadline, and advance now and then — with the workload's number of timers
/// armed on the wheel.
fn timers(sizes: &Sizes, rec: &mut Recorder) {
    const RTO: u64 = 200_000_000;
    let mut wheel: TimerWheel<u32> = TimerWheel::new(0);
    for i in 0..sizes.timers_per_host.round() as u64 {
        wheel.start(60_000_000_000 + i * 1_000_000, 0);
    }
    let mut now = 0u64;
    let mut armed = wheel.start(RTO, 1);
    let mut fired = Vec::new();
    let mut calls = 0u64;
    repeat(rec, "timers.restart_ns", LOOP_CALLS, || {
        now += 50_000;
        calls += 1;
        black_box(wheel.stop(armed));
        armed = wheel.start(now + RTO, 1);
        black_box(wheel.next_deadline());
        if calls.is_multiple_of(64) {
            wheel.advance(now, &mut fired);
        }
    });
    black_box(fired);
}

fn template(host: &Probed, lport: u16, remote: (Ipv4Addr, u16)) -> HeaderTemplate {
    HeaderTemplate {
        link_header_len: host.lhl,
        src_mac: Some(host.mac),
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: host.ip,
        dst_ip: remote.0,
        src_port: lport,
        dst_port: Some(remote.1),
        bqi: None,
    }
}

/// `kernel`: a network I/O module holding the host's connections, fed the
/// host's frames — classify alone, deliver + consume at the observed wakeup
/// batch size, the transmit template check, and a channel's whole life.
fn kernel(cap: &Capture, sizes: &Sizes, host: &Probed, rec: &mut Recorder) {
    let slot_size = cap.link_params().mtu + host.lhl + 8;
    let owner = OwnerTag(1);
    let mut netio = NetIoModule::new();
    let mut chans: HashMap<FlowId, Chan> = HashMap::new();
    for &(rip, rport, lport) in &host.flows {
        let spec = connection_demux_spec(host.lhl, (host.ip, lport), (rip, rport));
        let (id, send_cap, recv_cap, ring) = netio.create_channel(
            owner,
            &spec,
            template(host, lport, (rip, rport)),
            768,
            slot_size,
        );
        netio.activate(id);
        chans.insert(
            (rip, rport, lport),
            Chan {
                send_cap,
                recv_cap,
                ring,
            },
        );
    }

    replay(rec, "kernel.classify_ns", &host.rx, |p| {
        black_box(netio.classify(&p.frame));
    });

    // Deliver + consume: each connection's frames in wakeup-sized groups.
    let per_wakeup = sizes.frames_per_wakeup.round().max(1.0) as usize;
    let mut by_flow: Vec<(&Chan, Vec<&Parsed>)> = Vec::new();
    for id in &host.flows {
        let frames: Vec<&Parsed> = host
            .rx
            .iter()
            .filter(|p| (p.src.0, p.src.1, p.dst.1) == *id)
            .collect();
        by_flow.push((&chans[id], frames));
    }
    let wakeups: Vec<(&Chan, &[&Parsed])> = by_flow
        .iter()
        .flat_map(|(chan, frames)| frames.chunks(per_wakeup).map(move |group| (*chan, group)))
        .collect();
    let hardware = cap.network == Network::An1;
    let per_span = (BATCH / per_wakeup).max(1);
    for batch in wakeups
        .chunks(per_span)
        .cycle()
        .take(if wakeups.is_empty() { 0 } else { SPANS })
    {
        let frames: usize = batch.iter().map(|(_, group)| group.len()).sum();
        let mut wake = || {
            for (chan, group) in batch {
                for p in *group {
                    let delivery = if hardware {
                        netio.deliver_hardware(chan.ring, &p.frame)
                    } else {
                        netio.deliver_software(&p.frame)
                    };
                    debug_assert!(matches!(delivery, Delivery::Channel { .. }));
                    black_box(delivery);
                }
                black_box(netio.consume_batch(chan.recv_cap).map(|got| got.len()).ok());
                black_box(netio.end_wakeup(chan.recv_cap).ok());
            }
        };
        wake();
        rec.time("kernel.deliver_consume_ns", frames as u64, wake);
    }

    let mut now = 0u64;
    replay(rec, "kernel.transmit_ns", &host.tx, |p| {
        now += 1_000;
        netio.advance_tx_window(now);
        let chan = &chans[&(p.dst.0, p.dst.1, p.src.1)];
        let sent = netio.transmit_frame(chan.send_cap, &p.frame);
        debug_assert!(sent.is_ok(), "a captured frame passes its own template");
        black_box(sent.is_ok());
    });

    // Channel life cycle at this population: a fresh connection from a host
    // the capture never saw, so it collides with nothing. Few calls per span:
    // channel ids only ever grow, and a debug build re-derives the demux
    // caches over the whole id range after every one of them.
    let stranger = Ipv4Addr::new(10, 0, 1, 1);
    let mut port = 1024u16;
    repeat(rec, "kernel.channel_cycle_ns", LOOP_CALLS / 10, || {
        port = if port == u16::MAX { 1024 } else { port + 1 };
        let spec = connection_demux_spec(host.lhl, (host.ip, 80), (stranger, port));
        let (id, ..) = netio.create_channel(
            owner,
            &spec,
            template(host, 80, (stranger, port)),
            768,
            slot_size,
        );
        netio.activate(id);
        black_box(netio.destroy_channel(id, OwnerTag(0)));
    });
}

/// `tcp`: two real TCBs joined by [`Pipe`], moving the workload's kind of
/// traffic; a span is one script and its calls are the segments the two ends
/// produced.
fn tcp(workload: Workload, rec: &mut Recorder) {
    let (script, cfg, drop_every, per_span) = match workload {
        Workload::Bulk | Workload::BulkObserved => (
            Script::Stream {
                total: 1 << 20,
                write: 4096,
            },
            TcpConfig::bulk_transfer(),
            None,
            1,
        ),
        Workload::FaninLossy => (
            Script::Stream {
                total: 1 << 20,
                write: 512,
            },
            TcpConfig::bulk_transfer(),
            Some(50),
            1,
        ),
        Workload::Rr => (
            Script::PingPong { rounds: 500 },
            TcpConfig::default(),
            None,
            1,
        ),
        Workload::Churn => (Script::OneShot { len: 80 }, TcpConfig::default(), None, 100),
    };
    // The first span only warms up: it is recorded as covering no calls,
    // which keeps it out of every per-call figure.
    for i in 0..=SPANS {
        let id = rec.open("tcp.segment_ns");
        let mut segments = 0;
        for _ in 0..per_span {
            let mut pipe = Pipe::new(script, cfg.clone(), drop_every);
            if pipe.run() {
                segments += pipe.segments;
            }
        }
        rec.close(id, if i == 0 { 0 } else { segments });
    }
}

/// `registry`: two registry servers completing a three-way handshake by
/// handing each other's segments across, as the world does for them.
fn registry(rec: &mut Recorder) {
    const PER_SPAN: u64 = 200;
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    for i in 0..SPANS as u64 / 4 + 1 {
        // A fresh pair per span: a server never gives back an ephemeral
        // port, so one pair could not serve every span.
        let mut a = RegistryServer::new(ip_a);
        let mut b = RegistryServer::new(ip_b);
        b.listen(OwnerTag(2), 80, TcpConfig::default())
            .expect("fresh server, free port");
        let id = rec.open("registry.handshake_ns");
        let mut completed = 0u64;
        for n in 0..PER_SPAN {
            let now = n * 1_000_000;
            let Ok((_, actions)) = a.connect(OwnerTag(1), (ip_b, 80), TcpConfig::default(), now)
            else {
                break;
            };
            // (true = from a to b, actions to route)
            let mut queue = vec![(true, actions)];
            let mut done = 0;
            while let Some((from_a, actions)) = queue.pop() {
                for action in actions {
                    match action {
                        RegistryAction::Send { repr, payload, .. } => {
                            let replies = if from_a {
                                b.on_segment(ip_a, &repr, &payload, now)
                            } else {
                                a.on_segment(ip_b, &repr, &payload, now)
                            };
                            queue.push((!from_a, replies));
                        }
                        RegistryAction::Complete { .. } => done += 1,
                        _ => {}
                    }
                }
            }
            completed += u64::from(done == 2);
        }
        debug_assert_eq!(
            completed, PER_SPAN,
            "every handshake completes at both ends"
        );
        rec.close(id, if i == 0 { 0 } else { completed });
    }
}

/// `trace`: one emission with nobody listening, and one with the observers
/// of `bulk_observed` attached.
fn trace(rec: &mut Recorder) {
    let mut frame = 0u64;
    let mut emit = || {
        frame += 1;
        unp_trace::emit(Some(frame), || Event::NicTx {
            len: black_box(1514),
        });
    };
    repeat(rec, "trace.emit_quiescent_ns", LOOP_CALLS, &mut emit);
    unp_trace::journal_start_bounded(4096);
    let monitor = unp_trace::attach(Box::new(Monitor::with_recorder(64)));
    repeat(rec, "trace.emit_observed_ns", LOOP_CALLS, &mut emit);
    drop(unp_trace::detach(monitor));
    drop(unp_trace::journal_stop());
}
