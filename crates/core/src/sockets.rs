//! A BSD-flavored socket facade over the event-driven core.
//!
//! The paper (§3.2): "users of the protocol library continue to create
//! sockets with `socket`, call `bind` to bind to sockets, and use
//! `connect`, `listen`, and `accept` to establish connections over
//! sockets. Data transfer on connected sockets ... is done as usual with
//! `read` and `write` calls. The library handles all the bookkeeping
//! details." Like the paper's layer, this provides "some but not all the
//! functionality of the BSD socket layer".
//!
//! The facade is poll-style rather than thread-blocking (the simulation is
//! single-threaded): operations queue work, and [`SocketSet::pump`] +
//! `Engine::step/run` advance the world. A typical loop:
//!
//! ```ignore
//! let mut socks = SocketSet::new();
//! let listener = socks.listen(&mut w, 1, 80, TcpConfig::default());
//! let client = socks.connect(&mut w, &mut eng, 0, (server_ip, 80), TcpConfig::default());
//! client.write(b"hello");
//! while eng.step(&mut w) {
//!     socks.pump(&mut w, &mut eng);
//!     if let Some(peer) = listener.accept() { /* ... */ }
//!     let data = client.read(usize::MAX);
//! }
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use unp_tcp::TcpConfig;
use unp_wire::Ipv4Addr;

use crate::app::{AppLogic, AppOp, AppView};
use crate::world::{self, Eng, World};

/// Connection state visible through a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketState {
    /// Connection establishment in progress.
    Connecting,
    /// Established; data may flow.
    Connected,
    /// The peer closed its direction (EOF after buffered data).
    PeerClosed,
    /// Fully closed.
    Closed,
    /// Reset by the peer or setup failure.
    Reset,
}

#[derive(Debug)]
struct SocketCore {
    host: usize,
    local_port: Option<u16>,
    remote: Option<(Ipv4Addr, u16)>,
    state: SocketState,
    rx: VecDeque<u8>,
    tx: Vec<u8>,
    close_requested: bool,
    /// Set when `tx`/close changed outside an upcall; cleared by `pump`.
    needs_kick: bool,
}

/// A connected (or connecting) socket handle. Clonable; all clones refer
/// to the same connection.
#[derive(Clone)]
pub struct Socket {
    core: Rc<RefCell<SocketCore>>,
}

impl Socket {
    fn new(host: usize) -> Socket {
        Socket {
            core: Rc::new(RefCell::new(SocketCore {
                host,
                local_port: None,
                remote: None,
                state: SocketState::Connecting,
                rx: VecDeque::new(),
                tx: Vec::new(),
                close_requested: false,
                needs_kick: false,
            })),
        }
    }

    /// Current connection state.
    pub fn state(&self) -> SocketState {
        self.core.borrow().state
    }

    /// The local port, once known.
    pub fn local_port(&self) -> Option<u16> {
        self.core.borrow().local_port
    }

    /// The remote endpoint, once known.
    pub fn peer(&self) -> Option<(Ipv4Addr, u16)> {
        self.core.borrow().remote
    }

    /// Queues bytes for transmission (`write`). Returns the number
    /// accepted (everything, unless the socket is closing).
    pub fn write(&self, data: &[u8]) -> usize {
        let mut c = self.core.borrow_mut();
        if c.close_requested || matches!(c.state, SocketState::Closed | SocketState::Reset) {
            return 0;
        }
        c.tx.extend_from_slice(data);
        c.needs_kick = true;
        data.len()
    }

    /// Reads up to `max` buffered bytes (`read`). Empty result means "no
    /// data right now" — check [`Socket::state`] for EOF.
    pub fn read(&self, max: usize) -> Vec<u8> {
        let mut c = self.core.borrow_mut();
        let n = max.min(c.rx.len());
        let data = unp_tcp::copy_range(&c.rx, 0, n);
        c.rx.drain(..n);
        data
    }

    /// Bytes currently buffered for reading.
    pub fn readable(&self) -> usize {
        self.core.borrow().rx.len()
    }

    /// True once the peer has closed and every buffered byte was read.
    pub fn at_eof(&self) -> bool {
        let c = self.core.borrow();
        matches!(c.state, SocketState::PeerClosed | SocketState::Closed) && c.rx.is_empty()
    }

    /// Requests an orderly close once queued data drains.
    pub fn close(&self) {
        let mut c = self.core.borrow_mut();
        c.close_requested = true;
        c.needs_kick = true;
    }
}

/// The `AppLogic` adapter living inside the connection, sharing state with
/// the handle.
struct SocketApp {
    core: Rc<RefCell<SocketCore>>,
}

impl SocketApp {
    fn drain(&self, view: &AppView) -> Vec<AppOp> {
        let mut c = self.core.borrow_mut();
        // Learn our addresses from the upcall context so pump() can find
        // the connection later.
        if let Some((_, port)) = view.local {
            c.local_port = Some(port);
        }
        if c.remote.is_none() {
            c.remote = view.remote;
        }
        let mut ops = Vec::new();
        if !c.tx.is_empty() {
            ops.push(AppOp::Send(std::mem::take(&mut c.tx)));
        }
        if c.close_requested && !matches!(c.state, SocketState::Closed | SocketState::Reset) {
            ops.push(AppOp::Close);
            c.close_requested = false;
        }
        ops
    }
}

impl AppLogic for SocketApp {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        self.core.borrow_mut().state = SocketState::Connected;
        self.drain(view)
    }

    fn on_data(&mut self, data: &[u8], view: &AppView) -> Vec<AppOp> {
        self.core.borrow_mut().rx.extend(data);
        self.drain(view)
    }

    fn on_send_space(&mut self, view: &AppView) -> Vec<AppOp> {
        self.drain(view)
    }

    fn on_peer_closed(&mut self, view: &AppView) -> Vec<AppOp> {
        self.core.borrow_mut().state = SocketState::PeerClosed;
        self.drain(view)
    }

    fn on_reset(&mut self, _view: &AppView) {
        self.core.borrow_mut().state = SocketState::Reset;
    }
}

/// A listening socket: accepted connections queue here.
#[derive(Clone)]
pub struct ListenSocket {
    accepted: Rc<RefCell<VecDeque<Socket>>>,
    port: u16,
}

impl ListenSocket {
    /// Pops the next accepted connection, if any.
    pub fn accept(&self) -> Option<Socket> {
        self.accepted.borrow_mut().pop_front()
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }
}

/// The socket layer for one world: tracks handles so queued writes can be
/// pushed into their connections between engine steps.
#[derive(Default)]
pub struct SocketSet {
    sockets: Vec<Socket>,
    /// Accepted-socket trackers from listeners, folded into `sockets` on
    /// each pump.
    pending_accepts: Vec<Rc<RefCell<Vec<Socket>>>>,
}

impl SocketSet {
    /// Creates an empty set.
    pub fn new() -> SocketSet {
        SocketSet::default()
    }

    /// `socket` + `connect`: opens a connection from `host` to `remote`.
    pub fn connect(
        &mut self,
        w: &mut World,
        eng: &mut Eng,
        host: usize,
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
    ) -> Socket {
        let sock = Socket::new(host);
        {
            let mut c = sock.core.borrow_mut();
            c.remote = Some(remote);
        }
        let app = SocketApp {
            core: Rc::clone(&sock.core),
        };
        world::connect(w, eng, host, remote, cfg, Box::new(app), 4096);
        self.sockets.push(sock.clone());
        sock
    }

    /// `socket` + `bind` + `listen`: every accepted connection appears on
    /// the returned [`ListenSocket`].
    pub fn listen(
        &mut self,
        w: &mut World,
        host: usize,
        port: u16,
        cfg: TcpConfig,
    ) -> ListenSocket {
        let accepted: Rc<RefCell<VecDeque<Socket>>> = Rc::new(RefCell::new(VecDeque::new()));
        let acc = Rc::clone(&accepted);
        // Track accepted sockets in the set as they appear.
        let tracked: Rc<RefCell<Vec<Socket>>> = Rc::new(RefCell::new(Vec::new()));
        let tracked2 = Rc::clone(&tracked);
        world::listen(
            w,
            host,
            port,
            cfg,
            Box::new(move || {
                let sock = Socket::new(host);
                sock.core.borrow_mut().local_port = Some(port);
                sock.core.borrow_mut().state = SocketState::Connected;
                acc.borrow_mut().push_back(sock.clone());
                tracked2.borrow_mut().push(sock.clone());
                Box::new(SocketApp {
                    core: Rc::clone(&sock.core),
                })
            }),
        );
        // The tracked list is folded into the set lazily on pump.
        self.pending_accepts.push(tracked);
        ListenSocket { accepted, port }
    }

    /// Pushes queued writes/closes into their connections. Call once per
    /// engine iteration (cheap when nothing changed).
    pub fn pump(&mut self, w: &mut World, eng: &mut Eng) {
        for tracked in &self.pending_accepts {
            for s in tracked.borrow_mut().drain(..) {
                self.sockets.push(s);
            }
        }
        for sock in &self.sockets {
            let (host, kick, key) = {
                let mut c = sock.core.borrow_mut();
                if !c.needs_kick {
                    continue;
                }
                c.needs_kick = false;
                (c.host, true, c.local_port.zip(c.remote))
            };
            if !kick {
                continue;
            }
            let Some((port, remote)) = key else {
                // Active socket pre-establishment: the Connected upcall
                // will drain the queue; re-mark so pump retries later.
                sock.core.borrow_mut().needs_kick = true;
                continue;
            };
            if let Some(cid) = world::find_conn(w, host, port, remote) {
                world::poke_conn(w, eng, host, cid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{build_two_hosts, Network, OrgKind};

    fn run_pumped(
        w: &mut World,
        eng: &mut Eng,
        socks: &mut SocketSet,
        steps: usize,
        mut done: impl FnMut() -> bool,
    ) -> bool {
        for _ in 0..steps {
            socks.pump(w, eng);
            if done() {
                return true;
            }
            if !eng.step(w) {
                socks.pump(w, eng);
                return done();
            }
        }
        false
    }

    #[test]
    fn socket_api_echo_session() {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
        let mut socks = SocketSet::new();
        let listener = socks.listen(&mut w, 1, 7, TcpConfig::default());
        let client = socks.connect(
            &mut w,
            &mut eng,
            0,
            (Ipv4Addr::new(10, 0, 0, 2), 7),
            TcpConfig::default(),
        );
        client.write(b"marco");

        // Wait for the server side to appear and answer.
        let mut server: Option<Socket> = None;
        assert!(run_pumped(&mut w, &mut eng, &mut socks, 1_000_000, || {
            if server.is_none() {
                server = listener.accept();
            }
            if let Some(s) = &server {
                if s.readable() >= 5 {
                    let got = s.read(usize::MAX);
                    assert_eq!(got, b"marco");
                    s.write(b"polo");
                    return true;
                }
            }
            false
        }));
        assert!(run_pumped(&mut w, &mut eng, &mut socks, 1_000_000, || {
            client.readable() >= 4
        }));
        assert_eq!(client.read(usize::MAX), b"polo");
        assert_eq!(client.state(), SocketState::Connected);

        // Orderly close both ways.
        client.close();
        assert!(run_pumped(&mut w, &mut eng, &mut socks, 1_000_000, || {
            server.as_ref().map(|s| s.at_eof()).unwrap_or(false)
        }));
        server.as_ref().unwrap().close();
        assert!(run_pumped(&mut w, &mut eng, &mut socks, 1_000_000, || {
            client.at_eof()
        }));
    }

    #[test]
    fn write_before_establishment_is_buffered() {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
        let mut socks = SocketSet::new();
        let listener = socks.listen(&mut w, 1, 9, TcpConfig::default());
        let client = socks.connect(
            &mut w,
            &mut eng,
            0,
            (Ipv4Addr::new(10, 0, 0, 2), 9),
            TcpConfig::default(),
        );
        // Written immediately, long before the handshake completes.
        client.write(b"early");
        let mut server = None;
        assert!(run_pumped(&mut w, &mut eng, &mut socks, 1_000_000, || {
            if server.is_none() {
                server = listener.accept();
            }
            server.as_ref().map(|s| s.readable() == 5).unwrap_or(false)
        }));
        assert_eq!(server.unwrap().read(10), b"early");
    }

    #[test]
    fn connect_to_dead_port_resets() {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
        let mut socks = SocketSet::new();
        let client = socks.connect(
            &mut w,
            &mut eng,
            0,
            (Ipv4Addr::new(10, 0, 0, 2), 4444),
            TcpConfig::default(),
        );
        let mut steps = 0;
        while eng.step(&mut w) && steps < 2_000_000 {
            socks.pump(&mut w, &mut eng);
            steps += 1;
        }
        assert_eq!(client.state(), SocketState::Reset);
    }
}
