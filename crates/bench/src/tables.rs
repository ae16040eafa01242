//! Table generators: each function prints one paper table with the paper's
//! published values alongside the reproduction's measurements.

use unp_core::experiments as exp;
use unp_core::world::Ablation::{Batching, ZeroCopy};
use unp_core::{Network, OrgKind};
use unp_sim::CostModel;
use unp_tcp::CongestionControl;

/// User packet sizes of Table 2.
pub const T2_SIZES: [usize; 4] = [512, 1024, 2048, 4096];
/// Payload sizes of Table 3.
pub const T3_SIZES: [usize; 3] = [1, 512, 1460];

/// Paper values for Table 2 (Mb/s): (system, network, [sizes...]).
pub const T2_PAPER: [(&str, Network, OrgKind, [f64; 4]); 5] = [
    (
        "Ultrix 4.2A",
        Network::Ethernet,
        OrgKind::InKernel,
        [5.8, 7.6, 7.6, 7.6],
    ),
    (
        "Mach 3.0/UX (mapped)",
        Network::Ethernet,
        OrgKind::SingleServer,
        [2.1, 2.5, 3.2, 3.5],
    ),
    (
        "Our (Mach) Implementation",
        Network::Ethernet,
        OrgKind::UserLibrary,
        [4.3, 4.6, 4.8, 5.0],
    ),
    (
        "Ultrix 4.2A",
        Network::An1,
        OrgKind::InKernel,
        [4.8, 10.2, 11.9, 11.9],
    ),
    (
        "Our (Mach) Implementation",
        Network::An1,
        OrgKind::UserLibrary,
        [6.7, 8.1, 9.4, 11.9],
    ),
];

/// Paper values for Table 3 (ms RTT).
pub const T3_PAPER: [(&str, Network, OrgKind, [f64; 3]); 5] = [
    (
        "Ultrix 4.2A",
        Network::Ethernet,
        OrgKind::InKernel,
        [1.6, 3.5, 6.2],
    ),
    (
        "Mach 3.0/UX (mapped)",
        Network::Ethernet,
        OrgKind::SingleServer,
        [7.8, 10.8, 16.0],
    ),
    (
        "Our (Mach) Implementation",
        Network::Ethernet,
        OrgKind::UserLibrary,
        [2.8, 5.2, 9.9],
    ),
    (
        "Ultrix 4.2A",
        Network::An1,
        OrgKind::InKernel,
        [1.8, 2.7, 3.2],
    ),
    (
        "Our (Mach) Implementation",
        Network::An1,
        OrgKind::UserLibrary,
        [2.7, 3.4, 4.7],
    ),
];

/// Paper values for Table 4 (ms): (system, network, setup time).
pub const T4_PAPER: [(&str, Network, OrgKind, f64); 4] = [
    (
        "Ultrix 4.2A / Ethernet",
        Network::Ethernet,
        OrgKind::InKernel,
        2.6,
    ),
    (
        "Ultrix 4.2A / DEC SRC AN1",
        Network::An1,
        OrgKind::InKernel,
        2.9,
    ),
    (
        "Mach 3.0/UX / Ethernet (mapped)",
        Network::Ethernet,
        OrgKind::SingleServer,
        6.8,
    ),
    (
        "Ours / Ethernet",
        Network::Ethernet,
        OrgKind::UserLibrary,
        11.9,
    ),
];

/// Extra Table-4 row: ours on AN1 (paper: 12.3).
pub const T4_OURS_AN1: (&str, Network, OrgKind, f64) = (
    "Ours / DEC SRC AN1",
    Network::An1,
    OrgKind::UserLibrary,
    12.3,
);

fn net_label(n: Network) -> &'static str {
    match n {
        Network::Ethernet => "Ethernet",
        Network::An1 => "DEC SRC AN1",
    }
}

/// A named table generator, ready to run.
pub type TableRun = (&'static str, Box<dyn FnOnce()>);

/// Every table of the reproduction, in print order, at the given
/// throughput byte budget and Table-3 round count.
pub fn runs(total: u64, rounds: usize) -> Vec<TableRun> {
    vec![
        ("table1", Box::new(table1)),
        ("table2", Box::new(move || table2(total))),
        ("table3", Box::new(move || table3(rounds))),
        ("table4", Box::new(table4)),
        ("table5", Box::new(table5)),
        ("fig1", Box::new(move || fig1_sweep(total))),
        ("ablations", Box::new(move || ablations(total))),
    ]
}

/// Prints Table 1: impact of the mechanisms on raw throughput.
pub fn table1() {
    println!("== Table 1: Impact of Our Mechanisms on Throughput ==");
    println!("(raw data exchange, max-sized packets, no transport protocol)");
    println!(
        "{:<14} {:>18} {:>18} {:>10}",
        "Network", "Mechanisms (Mb/s)", "Standalone (Mb/s)", "Fraction"
    );
    for net in [Network::Ethernet, Network::An1] {
        let (mech, standalone) = exp::table1_mechanisms(net);
        println!(
            "{:<14} {:>18.2} {:>18.2} {:>9.0}%",
            net_label(net),
            mech,
            standalone,
            mech / standalone * 100.0
        );
    }
    println!();
}

/// Prints Table 2: throughput measurements.
pub fn table2(total_bytes: u64) {
    println!("== Table 2: Throughput Measurements (megabits/second) ==");
    println!(
        "{:<42} {:>7} {:>7} {:>7} {:>7}   (paper: ...)",
        "System", 512, 1024, 2048, 4096
    );
    for (name, net, org, paper) in T2_PAPER {
        let mut row = Vec::new();
        for &size in &T2_SIZES {
            row.push(exp::throughput_mbps(net, org, size, total_bytes));
        }
        println!(
            "{:<42} {:>7.1} {:>7.1} {:>7.1} {:>7.1}   (paper: {:.1} {:.1} {:.1} {:.1})",
            format!("{} / {}", name, net_label(net)),
            row[0],
            row[1],
            row[2],
            row[3],
            paper[0],
            paper[1],
            paper[2],
            paper[3]
        );
    }
    println!();
}

/// Prints Table 3: round-trip latencies.
pub fn table3(rounds: usize) {
    println!("== Table 3: Round Trip Latencies (milliseconds) ==");
    println!(
        "{:<42} {:>7} {:>7} {:>7}   (paper: ...)",
        "System", 1, 512, 1460
    );
    for (name, net, org, paper) in T3_PAPER {
        let mut row = Vec::new();
        for &size in &T3_SIZES {
            row.push(exp::latency_ms(net, org, size, rounds));
        }
        println!(
            "{:<42} {:>7.1} {:>7.1} {:>7.1}   (paper: {:.1} {:.1} {:.1})",
            format!("{} / {}", name, net_label(net)),
            row[0],
            row[1],
            row[2],
            paper[0],
            paper[1],
            paper[2]
        );
    }
    println!();
}

/// Prints Table 4: connection setup cost plus the paper's breakdown of the
/// user-library Ethernet case.
pub fn table4() {
    println!("== Table 4: Connection Setup Cost (milliseconds) ==");
    for (name, net, org, paper) in T4_PAPER.iter().chain(std::iter::once(&T4_OURS_AN1)) {
        let measured = exp::setup_ms(*net, *org);
        println!("{:<42} {:>7.1}   (paper: {:.1})", name, measured, paper);
    }
    println!();
    println!("-- Breakdown of the user-library setup (model components) --");
    let costs = CostModel::calibrated_1993();
    let parts = exp::setup_breakdown(&costs);
    let mut total = 0.0;
    for (label, ms) in &parts {
        println!("  {:<38} {:>6.1} ms", label, ms);
        total += ms;
    }
    println!("  {:<38} {:>6.1} ms", "total (components)", total);
    println!();
}

/// Prints Table 5: demultiplexing cost comparison.
pub fn table5() {
    println!("== Table 5: Hardware/Software Demultiplexing Tradeoffs ==");
    let (sw, hw) = exp::table5_demux_us();
    println!("{:<38} {:>8}   (paper)", "Network Interface", "us/pkt");
    println!("{:<38} {:>8.0}   (52)", "Lance Ethernet (software BPF)", sw);
    println!("{:<38} {:>8.0}   (50)", "AN1 (hardware BQI)", hw);
    println!();
}

/// Prints the Figure 1 organization sweep: Table-2 workload at 4 KB across
/// *all five* organizations (the paper measures three; the dedicated-server
/// and message-variant rows quantify its qualitative claims).
pub fn fig1_sweep(total_bytes: u64) {
    println!("== Figure 1 sweep: all organizations, Ethernet, 4 KB writes ==");
    let orgs = [
        OrgKind::InKernel,
        OrgKind::SingleServer,
        OrgKind::SingleServerMsg,
        OrgKind::DedicatedServer,
        OrgKind::UserLibrary,
    ];
    println!(
        "{:<32} {:>12} {:>12} {:>10}",
        "Organization", "Tput (Mb/s)", "RTT (ms)", "Setup (ms)"
    );
    for org in orgs {
        let tput = exp::throughput_mbps(Network::Ethernet, org, 4096, total_bytes);
        let rtt = exp::latency_ms(Network::Ethernet, org, 512, 20);
        let setup = exp::setup_ms(Network::Ethernet, org);
        println!(
            "{:<32} {:>12.1} {:>12.1} {:>10.1}",
            org.label(),
            tput,
            rtt,
            setup
        );
    }
    println!();
}

/// Prints the ablation studies: what each mechanism of the design buys.
pub fn ablations(total_bytes: u64) {
    println!("== Ablations: contribution of each mechanism (user-level library) ==");
    println!();
    println!("-- Notification batching (Ethernet, 4 kB writes) --");
    let with = exp::ablation_throughput(Network::Ethernet, 4096, total_bytes, None);
    let without = exp::ablation_throughput(Network::Ethernet, 4096, total_bytes, Some(Batching));
    println!("  batching on            {with:>8.2} Mb/s");
    println!(
        "  signal every packet    {without:>8.2} Mb/s   ({:+.0}%)",
        (without / with - 1.0) * 100.0
    );
    println!();
    println!("-- Copy-eliminating buffer organization (AN1, 512 B writes) --");
    let with = exp::ablation_throughput(Network::An1, 512, total_bytes, None);
    let without = exp::ablation_throughput(Network::An1, 512, total_bytes, Some(ZeroCopy));
    println!("  zero-copy region       {with:>8.2} Mb/s");
    println!(
        "  with copies            {without:>8.2} Mb/s   ({:+.0}%)",
        (without / with - 1.0) * 100.0
    );
    println!();
    println!("-- Nagle coalescing (Ethernet, 128 B application writes) --");
    let (t_on, f_on) = exp::ablation_nagle(total_bytes / 4, true);
    let (t_off, f_off) = exp::ablation_nagle(total_bytes / 4, false);
    println!("  nagle on               {t_on:>8.2} Mb/s  ({f_on} frames)");
    println!("  nagle off              {t_off:>8.2} Mb/s  ({f_off} frames)");
    println!();
    println!("-- Congestion control under 5% loss (loopback, 200 kB, real loss) --");
    println!("   (on a fast low-RTT LAN, loss recovery needs no window collapse:");
    println!("    the 1993 stacks' choice to run without congestion control was");
    println!("    right for their environment — Tahoe pays full slow-start restarts)");
    for (name, cc) in [
        ("off (1993 LAN stacks)", CongestionControl::Off),
        ("Tahoe", CongestionControl::Tahoe),
        ("Reno", CongestionControl::Reno),
    ] {
        let (ms, segs, rexmit) = exp::ablation_congestion(200_000, 0.05, 7, cc);
        println!("  {name:<22} {ms:>9.0} ms  {segs:>5} segments  {rexmit:>7} bytes rexmit");
    }
    println!();
    println!("-- Protocol specialization: rrp (request/response) vs TCP --");
    let (rrp_lat, tcp_lat, rrp_tput, tcp_tput) = exp::ablation_rrp_vs_tcp(512);
    println!("  512 B transaction:  rrp {rrp_lat:>6.2} ms   TCP {tcp_lat:>6.2} ms");
    println!("  bulk throughput:    rrp {rrp_tput:>6.2} Mb/s TCP {tcp_tput:>6.2} Mb/s");
    println!("  (the paper's motivation: latency-specialized transports win");
    println!("   transactions, windowed byte streams win bulk — both coexist");
    println!("   as user-level libraries)");
    println!();
}
