//! Quickstart: two simulated workstations, the paper's user-level library
//! organization, one TCP connection, a greeting each way.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks through exactly what the paper's Figure 2 shows: the application
//! calls its linked protocol library; the library asks the registry server
//! for a connection; the registry runs the three-way handshake and installs
//! the demultiplexing binding + header template with the network I/O
//! module; then all data flows through the shared-memory channel with the
//! registry out of the loop.

use std::cell::RefCell;
use std::rc::Rc;

use unp::core::app::{AppLogic, AppOp, AppView};
use unp::core::world::{build_two_hosts, connect, listen, Network, OrgKind};
use unp::sim::fmt_nanos;
use unp::tcp::TcpConfig;
use unp::wire::Ipv4Addr;

/// The client: sends a greeting, prints the reply, closes.
struct Greeter {
    reply: Rc<RefCell<Vec<u8>>>,
}

impl AppLogic for Greeter {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        println!(
            "[{}] client: connected, sending greeting",
            fmt_nanos(view.now)
        );
        vec![AppOp::Send(b"hello from the user-level library!".to_vec())]
    }

    fn on_data(&mut self, data: &[u8], view: &AppView) -> Vec<AppOp> {
        println!(
            "[{}] client: got reply: {:?}",
            fmt_nanos(view.now),
            String::from_utf8_lossy(data)
        );
        self.reply.borrow_mut().extend_from_slice(data);
        vec![AppOp::Close]
    }
}

/// The server: replies to whatever arrives, then closes after EOF.
struct Replier;

impl AppLogic for Replier {
    fn on_data(&mut self, data: &[u8], view: &AppView) -> Vec<AppOp> {
        println!(
            "[{}] server: got {:?}",
            fmt_nanos(view.now),
            String::from_utf8_lossy(data)
        );
        vec![AppOp::Send(b"hello back from the other library!".to_vec())]
    }

    fn on_peer_closed(&mut self, _view: &AppView) -> Vec<AppOp> {
        vec![AppOp::Close]
    }
}

fn main() {
    // Two DECstation-class hosts on a 10 Mb/s Ethernet.
    let (mut world, mut engine) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);

    listen(
        &mut world,
        1,
        23,
        TcpConfig::default(),
        Box::new(|| Box::new(Replier)),
    );

    let reply = Rc::new(RefCell::new(Vec::new()));
    connect(
        &mut world,
        &mut engine,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 23),
        TcpConfig::default(),
        Box::new(Greeter {
            reply: Rc::clone(&reply),
        }),
        64,
    );

    engine.run(&mut world, 1_000_000);

    println!();
    println!("-- world counters --");
    for (name, v) in world.metrics.counters() {
        println!("  {name:<28} {v}");
    }
    assert!(!reply.borrow().is_empty(), "should have received a reply");
    println!("\nconnection ran through the shared-memory channel; the");
    println!("registry served only the handshake (kernel-default deliveries:");
    println!(
        "  host0: {}, host1: {})",
        world.hosts[0].netio.default_deliveries(),
        world.hosts[1].netio.default_deliveries()
    );
}
