//! The AN1 controller's buffer-queue-index table and the ids it is keyed
//! and access-controlled by.

/// Identifier of a receive ring registered in a [`BqiTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingId(pub u32);

/// A tenant identity: the unit of access control *and* resource
/// accounting. Every channel, BQI entry, and port right is owned by a
/// tenant (a process/library id), and the kernel's per-tenant budgets
/// (ring-slot quota, transmit credit, channel cap) are charged against
/// this id. `OwnerTag(0)` is the kernel itself and is exempt from budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerTag(pub u64);

/// The AN1 controller's buffer-queue-index table.
///
/// "A single field (called the buffer queue index, BQI) in the link-level
/// packet header provides a level of indirection into a table kept in the
/// controller... Strict access control to the index is maintained through
/// memory protection." BQI 0 is reserved and "refers to protected memory
/// within the kernel."
#[derive(Debug)]
pub struct BqiTable {
    entries: Vec<Option<(OwnerTag, RingId)>>,
}

impl BqiTable {
    /// Owner tag representing the kernel itself.
    pub const KERNEL_OWNER: OwnerTag = OwnerTag(0);

    /// Creates a table with `size` entries; entry 0 is pre-bound to the
    /// kernel's default ring (`kernel_ring`).
    pub fn new(size: usize, kernel_ring: RingId) -> BqiTable {
        assert!(size >= 1);
        let mut entries = vec![None; size];
        entries[0] = Some((Self::KERNEL_OWNER, kernel_ring));
        BqiTable { entries }
    }

    /// Allocates a fresh non-zero BQI bound to `ring` on behalf of `owner`.
    /// Returns `None` when the table is full.
    pub fn allocate(&mut self, owner: OwnerTag, ring: RingId) -> Option<u16> {
        let idx = self.entries.iter().skip(1).position(Option::is_none)? + 1;
        self.entries[idx] = Some((owner, ring));
        Some(idx as u16)
    }

    /// Resolves a BQI from an incoming packet to its ring. Unknown indexes
    /// fall back to BQI 0's kernel ring, as the hardware would deliver
    /// unmatched traffic to protected kernel memory.
    pub fn resolve(&self, bqi: u16) -> RingId {
        match self.entries.get(bqi as usize).copied().flatten() {
            Some((_, ring)) => ring,
            None => self.entries[0].expect("entry 0 always bound").1,
        }
    }

    /// Frees a BQI. Only the owner (or the kernel) may free it; returns
    /// false otherwise, enforcing the protection model.
    pub fn free(&mut self, bqi: u16, owner: OwnerTag) -> bool {
        if bqi == 0 {
            return false; // the kernel entry is permanent
        }
        match self.entries.get(bqi as usize).copied().flatten() {
            Some((o, _)) if o == owner || owner == Self::KERNEL_OWNER => {
                self.entries[bqi as usize] = None;
                true
            }
            _ => false,
        }
    }

    /// Frees every entry bound to `owner` (the kernel's sweep after a
    /// process death). Returns the freed indexes, ascending.
    pub fn reclaim_owner(&mut self, owner: OwnerTag) -> Vec<u16> {
        let mut freed = Vec::new();
        for (i, e) in self.entries.iter_mut().enumerate().skip(1) {
            if matches!(e, Some((o, _)) if *o == owner) {
                *e = None;
                freed.push(i as u16);
            }
        }
        freed
    }

    /// Number of bound entries (including the permanent kernel entry 0).
    pub fn bound_entries(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// The owner of a BQI, if bound.
    pub fn owner(&self, bqi: u16) -> Option<OwnerTag> {
        self.entries
            .get(bqi as usize)
            .copied()
            .flatten()
            .map(|(o, _)| o)
    }
}
