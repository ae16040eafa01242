//! The UDP registry server.
//!
//! "There is a dedicated registry server for each protocol" (paper §3.1).
//! UDP's registry is far simpler than TCP's — no handshake, no TIME_WAIT
//! inheritance — but the *naming* concern is identical: "connection
//! end-points act as names of the communicating entities and are therefore
//! unique across a machine for a particular protocol. Thus, having
//! untrusted user libraries allocate these names is a security and
//! administrative concern."
//!
//! Connectionless protocols can still use hardware demultiplexing by
//! "discovering the index value of their peer by examining the link-level
//! headers of incoming messages" (paper §2.2); the owner bookkeeping here
//! is what the network I/O module consults when installing those bindings.

use std::collections::HashMap;

use unp_buffers::OwnerTag;

/// Errors from UDP port registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpRegistryError {
    /// Another application owns the port.
    PortInUse,
    /// No ephemeral ports remain.
    Exhausted,
    /// The requester does not own the port.
    NotOwner,
}

/// Machine-wide UDP port ownership.
#[derive(Debug, Default)]
pub struct UdpRegistry {
    owners: HashMap<u16, OwnerTag>,
    next_ephemeral: u16,
}

impl UdpRegistry {
    /// Creates an empty registry.
    pub fn new() -> UdpRegistry {
        UdpRegistry {
            owners: HashMap::new(),
            next_ephemeral: 1024,
        }
    }

    /// Registers a specific port to `owner`. Re-binding one's own port is
    /// idempotent; another owner's port is refused.
    pub fn bind(&mut self, owner: OwnerTag, port: u16) -> Result<(), UdpRegistryError> {
        match self.owners.get(&port) {
            Some(&o) if o != owner => Err(UdpRegistryError::PortInUse),
            _ => {
                self.owners.insert(port, owner);
                Ok(())
            }
        }
    }

    /// Allocates an ephemeral port for `owner`.
    pub fn bind_ephemeral(&mut self, owner: OwnerTag) -> Result<u16, UdpRegistryError> {
        for _ in 0..=(5000u16 - 1024) {
            let p = if self.next_ephemeral >= 5000 {
                self.next_ephemeral = 1024;
                5000
            } else {
                let p = self.next_ephemeral;
                self.next_ephemeral += 1;
                p
            };
            if let std::collections::hash_map::Entry::Vacant(e) = self.owners.entry(p) {
                e.insert(owner);
                return Ok(p);
            }
        }
        Err(UdpRegistryError::Exhausted)
    }

    /// Releases a port; only its owner (or the kernel) may.
    pub fn release(&mut self, owner: OwnerTag, port: u16) -> Result<(), UdpRegistryError> {
        match self.owners.get(&port) {
            Some(&o) if o == owner || owner == OwnerTag(0) => {
                self.owners.remove(&port);
                Ok(())
            }
            Some(_) => Err(UdpRegistryError::NotOwner),
            None => Ok(()),
        }
    }

    /// The owner of `port`, if registered.
    pub fn owner(&self, port: u16) -> Option<OwnerTag> {
        self.owners.get(&port).copied()
    }

    /// Releases every port owned by an exiting application and returns
    /// them in ascending order, for the caller to unbind (the UDP analogue
    /// of connection inheritance — datagram state needs no quarantine).
    pub fn app_exit(&mut self, owner: OwnerTag) -> Vec<u16> {
        let mut freed = Vec::new();
        self.owners.retain(|&port, &mut o| {
            if o == owner {
                freed.push(port);
            }
            o != owner
        });
        freed.sort_unstable();
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP1: OwnerTag = OwnerTag(1);
    const APP2: OwnerTag = OwnerTag(2);

    #[test]
    fn bind_conflicts_refused() {
        let mut r = UdpRegistry::new();
        assert_eq!(r.bind(APP1, 53), Ok(()));
        assert_eq!(r.bind(APP2, 53), Err(UdpRegistryError::PortInUse));
        assert_eq!(r.bind(APP1, 53), Ok(()), "idempotent rebind by owner");
        assert_eq!(r.owner(53), Some(APP1));
    }

    #[test]
    fn release_requires_ownership() {
        let mut r = UdpRegistry::new();
        r.bind(APP1, 53).unwrap();
        assert_eq!(r.release(APP2, 53), Err(UdpRegistryError::NotOwner));
        assert_eq!(r.release(OwnerTag(0), 53), Ok(()), "kernel may reap");
        r.bind(APP1, 53).unwrap();
        assert_eq!(r.release(APP1, 53), Ok(()));
        assert_eq!(r.owner(53), None);
    }

    #[test]
    fn ephemeral_allocation_skips_taken_ports() {
        let mut r = UdpRegistry::new();
        r.bind(APP1, 1024).unwrap();
        r.bind(APP1, 1025).unwrap();
        let p = r.bind_ephemeral(APP2).unwrap();
        assert!(p > 1025);
        assert_eq!(r.owner(p), Some(APP2));
    }

    #[test]
    fn app_exit_reclaims_all_ports() {
        let mut r = UdpRegistry::new();
        r.bind(APP1, 53).unwrap();
        r.bind(APP1, 514).unwrap();
        r.bind(APP2, 69).unwrap();
        assert_eq!(r.app_exit(APP1), vec![53, 514]);
        assert_eq!(r.owner(53), None);
        assert_eq!(r.owner(69), Some(APP2), "others untouched");
    }
}
