//! Mach-port-like transferable rights.
//!
//! "Of particular benefit are Mach's 'ports', which form the basis for
//! secure and trusted communication channels between the library, the
//! server, and the network I/O module", and "once a connection is
//! established, it can be passed by the application to other applications
//! without involving the registry server or the network I/O module. The
//! port abstractions provided by the Mach kernel are sufficient for this"
//! — the `inetd` hand-off pattern (paper §3.2).
//!
//! [`PortSpace<T>`] is a kernel-maintained table of rights: each port names
//! a payload `T` (a connection record, a channel capability set) and has
//! exactly one holder. Holders can transfer their right; non-holders can
//! do nothing, and port ids are not guessable-by-construction within the
//! simulation (lookups always verify the holder).

use std::collections::HashMap;

use unp_buffers::OwnerTag;

/// A port right identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(u64);

/// Errors from port operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortError {
    /// Unknown port.
    NoSuchPort,
    /// The requester does not hold the right.
    NotHolder,
}

struct Entry<T> {
    holder: OwnerTag,
    payload: T,
}

/// A table of single-holder transferable rights. See module docs.
pub struct PortSpace<T> {
    entries: HashMap<u64, Entry<T>>,
    next: u64,
}

impl<T> Default for PortSpace<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PortSpace<T> {
    /// Creates an empty space.
    pub fn new() -> PortSpace<T> {
        PortSpace {
            entries: HashMap::new(),
            next: 0x7000_0000_0000_0001,
        }
    }

    /// Allocates a port holding `payload` on behalf of `holder`.
    pub fn allocate(&mut self, holder: OwnerTag, payload: T) -> PortId {
        let id = PortId(self.next);
        self.next += 0x1_0001;
        self.entries.insert(id.0, Entry { holder, payload });
        id
    }

    /// Reads the payload; only the holder may.
    pub fn get(&self, id: PortId, requester: OwnerTag) -> Result<&T, PortError> {
        let e = self.entries.get(&id.0).ok_or(PortError::NoSuchPort)?;
        if e.holder != requester {
            return Err(PortError::NotHolder);
        }
        Ok(&e.payload)
    }

    /// Transfers the right to `to`; only the current holder may.
    pub fn transfer(&mut self, id: PortId, from: OwnerTag, to: OwnerTag) -> Result<(), PortError> {
        let e = self.entries.get_mut(&id.0).ok_or(PortError::NoSuchPort)?;
        if e.holder != from {
            return Err(PortError::NotHolder);
        }
        e.holder = to;
        Ok(())
    }

    /// Destroys the port, returning the payload; only the holder may.
    pub fn destroy(&mut self, id: PortId, requester: OwnerTag) -> Result<T, PortError> {
        self.get(id, requester)?;
        let e = self.entries.remove(&id.0).ok_or(PortError::NoSuchPort)?;
        Ok(e.payload)
    }

    /// The current holder of a port (the kernel can see this).
    pub fn holder(&self, id: PortId) -> Option<OwnerTag> {
        self.entries.get(&id.0).map(|e| e.holder)
    }

    /// Number of live ports.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no ports exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALICE: OwnerTag = OwnerTag(1);
    const BOB: OwnerTag = OwnerTag(2);

    #[test]
    fn holder_can_read_others_cannot() {
        let mut ps: PortSpace<&str> = PortSpace::new();
        let p = ps.allocate(ALICE, "conn-42");
        assert_eq!(ps.get(p, ALICE), Ok(&"conn-42"));
        assert_eq!(ps.get(p, BOB), Err(PortError::NotHolder));
    }

    #[test]
    fn transfer_moves_the_right_exclusively() {
        let mut ps: PortSpace<u32> = PortSpace::new();
        let p = ps.allocate(ALICE, 7);
        assert_eq!(ps.transfer(p, BOB, BOB), Err(PortError::NotHolder));
        assert_eq!(ps.transfer(p, ALICE, BOB), Ok(()));
        assert_eq!(ps.get(p, ALICE), Err(PortError::NotHolder));
        assert_eq!(ps.get(p, BOB), Ok(&7));
        assert_eq!(ps.holder(p), Some(BOB));
    }

    #[test]
    fn destroy_requires_holding() {
        let mut ps: PortSpace<u32> = PortSpace::new();
        let p = ps.allocate(ALICE, 9);
        assert_eq!(ps.destroy(p, BOB), Err(PortError::NotHolder));
        assert_eq!(ps.destroy(p, ALICE), Ok(9));
        assert_eq!(ps.destroy(p, ALICE), Err(PortError::NoSuchPort));
        assert!(ps.is_empty());
    }
}
