//! The UDP library: port table, datagram build/dispatch.
//!
//! UDP is deliberately simple — the paper notes that "UDP is an unreliable
//! datagram service, and is easier to implement than a protocol like TCP",
//! which is why it alone was insufficient to prove the user-level thesis.
//! It is still a first-class protocol library here (protocol coexistence
//! is one of the paper's motivations).

use std::collections::{HashMap, VecDeque};

use unp_wire::{Ipv4Addr, UdpPacket, UdpRepr, WireError};

/// A datagram delivered to a bound port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Sender address.
    pub src: Ipv4Addr,
    /// Sender port.
    pub src_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Outcome of a received UDP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpRecv {
    /// Queued on a bound port.
    Delivered {
        /// The receiving local port.
        port: u16,
    },
    /// No listener: the caller should emit ICMP port unreachable.
    PortUnreachable,
    /// Parse or checksum failure; dropped.
    Bad(WireError),
}

/// Per-endpoint UDP state: bound ports and their receive queues.
#[derive(Debug, Default)]
pub struct UdpLayer {
    bound: HashMap<u16, VecDeque<UdpDatagram>>,
}

impl UdpLayer {
    /// Creates an empty layer.
    pub fn new() -> UdpLayer {
        UdpLayer::default()
    }

    /// Binds a port. Returns false if already bound.
    pub fn bind(&mut self, port: u16) -> bool {
        if self.bound.contains_key(&port) {
            return false;
        }
        self.bound.insert(port, VecDeque::new());
        true
    }

    /// Releases a port and its queued datagrams.
    pub fn unbind(&mut self, port: u16) -> bool {
        self.bound.remove(&port).is_some()
    }

    /// Builds an outgoing datagram (UDP header + payload) with checksum.
    pub fn send(
        &self,
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        UdpRepr { src_port, dst_port }.build_datagram(src, dst, payload)
    }

    /// Processes a received UDP packet (the IP payload).
    pub fn receive(&mut self, src: Ipv4Addr, dst: Ipv4Addr, bytes: &[u8]) -> UdpRecv {
        let pkt = match UdpPacket::new_checked(bytes) {
            Ok(p) => p,
            Err(e) => return UdpRecv::Bad(e),
        };
        if !pkt.verify_checksum(src, dst) {
            return UdpRecv::Bad(WireError::BadChecksum);
        }
        let port = pkt.dst_port();
        match self.bound.get_mut(&port) {
            Some(q) => {
                q.push_back(UdpDatagram {
                    src,
                    src_port: pkt.src_port(),
                    payload: pkt.payload().to_vec(),
                });
                UdpRecv::Delivered { port }
            }
            None => UdpRecv::PortUnreachable,
        }
    }

    /// Dequeues the next datagram for `port`.
    pub fn recv_from(&mut self, port: u16) -> Option<UdpDatagram> {
        self.bound.get_mut(&port)?.pop_front()
    }

    /// Number of datagrams queued on `port`.
    pub fn queued(&self, port: u16) -> usize {
        self.bound.get(&port).map_or(0, VecDeque::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn bind_send_receive() {
        let tx = UdpLayer::new();
        let mut rx = UdpLayer::new();
        assert!(rx.bind(53));
        let dgram = tx.send(A, 4000, B, 53, b"query");
        assert_eq!(rx.receive(A, B, &dgram), UdpRecv::Delivered { port: 53 });
        let d = rx.recv_from(53).expect("queued");
        assert_eq!(d.src, A);
        assert_eq!(d.src_port, 4000);
        assert_eq!(d.payload, b"query");
        assert!(rx.recv_from(53).is_none());
    }

    #[test]
    fn double_bind_refused() {
        let mut l = UdpLayer::new();
        assert!(l.bind(9));
        assert!(!l.bind(9));
        assert!(l.unbind(9));
        assert!(!l.unbind(9));
        assert!(l.bind(9));
    }

    #[test]
    fn unbound_port_unreachable() {
        let tx = UdpLayer::new();
        let mut rx = UdpLayer::new();
        let dgram = tx.send(A, 1, B, 7, b"x");
        assert_eq!(rx.receive(A, B, &dgram), UdpRecv::PortUnreachable);
    }

    #[test]
    fn corrupt_datagram_dropped() {
        let tx = UdpLayer::new();
        let mut rx = UdpLayer::new();
        rx.bind(7);
        let mut dgram = tx.send(A, 1, B, 7, b"x");
        let n = dgram.len();
        dgram[n - 1] ^= 0xff;
        assert_eq!(
            rx.receive(A, B, &dgram),
            UdpRecv::Bad(WireError::BadChecksum)
        );
        assert_eq!(rx.queued(7), 0);
    }

    #[test]
    fn fifo_queueing_per_port() {
        let tx = UdpLayer::new();
        let mut rx = UdpLayer::new();
        rx.bind(7);
        for i in 0..3u8 {
            let d = tx.send(A, 1, B, 7, &[i]);
            rx.receive(A, B, &d);
        }
        assert_eq!(rx.queued(7), 3);
        for i in 0..3u8 {
            assert_eq!(rx.recv_from(7).unwrap().payload, vec![i]);
        }
    }
}
