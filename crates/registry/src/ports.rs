//! The TCP port namespace: machine-wide unique names with post-connection
//! quarantine.
//!
//! "Connection end-points act as names of the communicating entities and
//! are therefore unique across a machine for a particular protocol. Thus,
//! having untrusted user libraries allocate these names is a security and
//! administrative concern" (paper §3.4).

use std::collections::hash_map::{Entry, HashMap};

use unp_wire::Ipv4Addr;

use crate::Nanos;

/// First ephemeral port (the 4.3BSD range starts at 1024).
pub const EPHEMERAL_BASE: u16 = 1024;
/// Last ephemeral port in the classic BSD range.
pub const EPHEMERAL_LIMIT: u16 = 5000;

/// Machine-wide TCP port allocation state.
#[derive(Debug)]
pub struct PortAllocator {
    /// Bound ports, each with how many endpoints hold it: a listener and
    /// every connection accepted through it share one port, and it stays
    /// bound until the last of them lets go.
    bound: HashMap<u16, usize>,
    next_ephemeral: u16,
    /// (local_port, (remote_ip, remote_port)) pairs under quarantine, with
    /// their release times.
    quarantined: HashMap<(u16, Ipv4Addr, u16), Nanos>,
}

impl Default for PortAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl PortAllocator {
    /// Creates an empty allocator.
    pub fn new() -> PortAllocator {
        PortAllocator {
            bound: HashMap::new(),
            next_ephemeral: EPHEMERAL_BASE,
            quarantined: HashMap::new(),
        }
    }

    /// Binds a specific port. Returns false if taken.
    pub fn bind(&mut self, port: u16) -> bool {
        match self.bound.entry(port) {
            Entry::Occupied(_) => false,
            Entry::Vacant(free) => {
                free.insert(1);
                true
            }
        }
    }

    /// Adds a holder to `port` — a connection accepted on a listener's
    /// port — binding it if nothing held it.
    pub fn share(&mut self, port: u16) {
        *self.bound.entry(port).or_insert(0) += 1;
    }

    /// Lets go of one hold on `port`; the port is free again when its
    /// last holder has. Returns false if it was not bound.
    pub fn release(&mut self, port: u16) -> bool {
        let Entry::Occupied(mut holders) = self.bound.entry(port) else {
            return false;
        };
        *holders.get_mut() -= 1;
        if *holders.get() == 0 {
            holders.remove();
        }
        true
    }

    /// True if `port` may be bound at `now` (not bound, and not the local
    /// half of any quarantined pair).
    pub fn is_free(&self, port: u16, now: Nanos) -> bool {
        if self.bound.contains_key(&port) {
            return false;
        }
        !self
            .quarantined
            .iter()
            .any(|(&(p, _, _), &until)| p == port && until > now)
    }

    /// Allocates an ephemeral port for a connection to `remote`, skipping
    /// bound ports and pairs quarantined against this exact remote.
    pub fn alloc_ephemeral(&mut self, remote: (Ipv4Addr, u16), now: Nanos) -> Option<u16> {
        let span = EPHEMERAL_LIMIT - EPHEMERAL_BASE;
        for _ in 0..=span {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p >= EPHEMERAL_LIMIT {
                EPHEMERAL_BASE
            } else {
                p + 1
            };
            let pair_quarantined = self
                .quarantined
                .get(&(p, remote.0, remote.1))
                .is_some_and(|&until| until > now);
            if !pair_quarantined && self.bind(p) {
                return Some(p);
            }
        }
        None
    }

    /// Quarantines a (local port, remote) pair until `until` — the 2·MSL
    /// rule enforced by the registry on behalf of exited applications.
    pub fn quarantine(&mut self, port: u16, remote: (Ipv4Addr, u16), until: Nanos) {
        self.quarantined.insert((port, remote.0, remote.1), until);
    }

    /// Drops expired quarantine entries (housekeeping).
    pub fn expire(&mut self, now: Nanos) {
        self.quarantined.retain(|_, &mut until| until > now);
    }

    /// Number of live quarantine entries.
    pub fn quarantined_pairs(&self) -> usize {
        self.quarantined.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 80);

    #[test]
    fn bind_release_cycle() {
        let mut a = PortAllocator::new();
        assert!(a.bind(80));
        assert!(!a.bind(80));
        assert!(!a.is_free(80, 0));
        assert!(a.release(80));
        assert!(a.is_free(80, 0));
    }

    #[test]
    fn a_shared_port_is_free_when_the_last_holder_releases() {
        let mut a = PortAllocator::new();
        assert!(a.bind(80));
        a.share(80);
        assert!(a.release(80));
        assert!(!a.is_free(80, 0) && !a.bind(80));
        assert!(a.release(80));
        assert!(a.is_free(80, 0));
        assert!(!a.release(80), "nothing left to release");
    }

    #[test]
    fn ephemeral_ports_unique_and_in_range() {
        let mut a = PortAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let p = a.alloc_ephemeral(R, 0).unwrap();
            assert!((EPHEMERAL_BASE..=EPHEMERAL_LIMIT).contains(&p));
            assert!(seen.insert(p), "duplicate ephemeral {p}");
        }
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = PortAllocator::new();
        let total = (EPHEMERAL_LIMIT - EPHEMERAL_BASE + 1) as usize;
        for _ in 0..total {
            assert!(a.alloc_ephemeral(R, 0).is_some());
        }
        assert!(a.alloc_ephemeral(R, 0).is_none());
    }

    #[test]
    fn quarantine_blocks_same_pair_only() {
        let mut a = PortAllocator::new();
        let p = a.alloc_ephemeral(R, 0).unwrap();
        a.release(p);
        a.quarantine(p, R, 1000);
        // Reset the rotor so the same port comes up first.
        a.next_ephemeral = p;
        // Same remote: the quarantined pair is skipped.
        let p2 = a.alloc_ephemeral(R, 500).unwrap();
        assert_ne!(p2, p);
        a.release(p2);
        // Different remote: the pair rule does not apply.
        a.next_ephemeral = p;
        let other = (Ipv4Addr::new(10, 0, 0, 3), 80);
        assert_eq!(a.alloc_ephemeral(other, 500), Some(p));
    }

    #[test]
    fn quarantine_expires() {
        let mut a = PortAllocator::new();
        a.quarantine(2000, R, 1000);
        assert!(!a.is_free(2000, 500));
        assert!(a.is_free(2000, 1001));
        a.expire(1001);
        assert_eq!(a.quarantined_pairs(), 0);
    }
}
