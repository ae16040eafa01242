//! The frame-pool accounting checker: consecutive `frame_alloc` /
//! `frame_free` records chain their `live` counts (±1), so a leaked or
//! double-freed backing breaks the chain online; optionally the pool
//! must drain back to the baseline it was first seen at.

/// The pool's live-count chain, from the first pool event seen.
#[derive(Debug, Default)]
pub(super) struct Pool {
    /// Live count after the last pool event.
    count: u64,
    /// Inferred live count just before the first pool event seen.
    base: u64,
    seen: bool,
}

impl Pool {
    /// A `frame_alloc` (or, if not `alloc`, a `frame_free`) that left
    /// `live` backings live. A free with none live in the chain is a
    /// double free, whatever count it reports. The first event seen only
    /// seeds the chain and its baseline.
    #[inline]
    pub(super) fn event(&mut self, live: u64, alloc: bool) -> Option<String> {
        let (what, want, before) = if alloc {
            ("frame_alloc", Some(self.count + 1), live.saturating_sub(1))
        } else {
            ("frame_free", self.count.checked_sub(1), live + 1)
        };
        self.count = live;
        if !self.seen {
            self.seen = true;
            self.base = before;
            return None;
        }
        match want {
            Some(want) if want == live => None,
            Some(want) => Some(format!(
                "{what} reported {live} live backings, chain expected {want}"
            )),
            None => Some(format!(
                "{what} reported {live} live backings with none live in the chain"
            )),
        }
    }

    /// Whether the pool is off the baseline it was first seen at, as a
    /// breach to report at detach.
    pub(super) fn undrained(&self) -> Option<String> {
        (self.seen && self.count != self.base).then(|| {
            format!(
                "pool finished with {} live backings, baseline was {}",
                self.count, self.base
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::Pool;

    #[test]
    fn a_free_with_none_live_is_a_double_free() {
        // frame_alloc live=1, frame_free live=0, frame_free live=0: the
        // second free reports a count the saturating `LIVE_FRAMES` would
        // also read, but nothing was live to free.
        let mut pool = Pool::default();
        assert_eq!(pool.event(1, true), None);
        assert_eq!(pool.event(0, false), None);
        let found = pool.event(0, false).expect("a double free at zero");
        assert!(found.contains("none live"), "{found}");
        // The chain is back at its baseline: nothing more at detach.
        assert_eq!(pool.undrained(), None);
    }
}
