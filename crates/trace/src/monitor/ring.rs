//! The ring-conservation checker: per channel ring, enqueues = delivers +
//! drops + resident, so each `ring_enqueue` depth is the tracked
//! residency plus one and no `wakeup_batch` drains more than resides.

use super::FxMap;

/// (host, channel id): one channel ring.
pub(super) type RingKey = (Option<u16>, u32);

#[derive(Debug, Clone, Copy, Default)]
struct RingState {
    resident: u64,
    seeded: bool,
}

/// Tracked residency of every ring seen.
#[derive(Default)]
pub(super) struct Rings {
    rings: FxMap<RingKey, RingState>,
}

impl Rings {
    /// A `ring_enqueue` that left the ring `depth` deep.
    #[inline]
    pub(super) fn enqueue(&mut self, ring: RingKey, depth: u32) -> Option<String> {
        let st = self.rings.entry(ring).or_default();
        let seeded = st.seeded;
        let want = st.resident + 1;
        st.seeded = true;
        st.resident = u64::from(depth);
        (seeded && u64::from(depth) != want).then(|| {
            format!(
                "ch={} enqueue depth {depth}, expected {want} (resident+1)",
                ring.1
            )
        })
    }

    /// A `wakeup_batch` that drained `frames` from the ring.
    #[inline]
    pub(super) fn wakeup(&mut self, ring: RingKey, frames: u32) -> Option<String> {
        let st = self.rings.entry(ring).or_default();
        let over = st.seeded && u64::from(frames) > st.resident;
        let resident = st.resident;
        st.seeded = true;
        st.resident = st.resident.saturating_sub(u64::from(frames));
        over.then(|| {
            format!(
                "ch={} wakeup drained {frames} frames with only {resident} resident",
                ring.1
            )
        })
    }

    /// A channel was destroyed; its id is never reused.
    pub(super) fn reclaim(&mut self, ring: RingKey) {
        self.rings.remove(&ring);
    }

    /// Bytes of tracked state.
    pub(super) fn bytes(&self) -> usize {
        self.rings.len() * (size_of::<RingKey>() + size_of::<RingState>())
    }
}
