//! Out-of-order reassembly for the TCP receive path: which sequence
//! ranges beyond `rcv_nxt` have arrived. The bytes themselves sit in the
//! receive ring at their offset (`Delivery`'s `recv_buf`); this list only
//! says which of them are there, so a held byte is written once and never
//! moved again.

use unp_wire::SeqNum;

/// The held ranges `[start, end)`: sorted, disjoint and never adjacent
/// (touching ranges merge). All lie within one receive window above
/// `rcv_nxt`, so sequence comparisons between them cannot wrap.
#[derive(Debug, Default)]
pub(crate) struct HeldRanges(Vec<(SeqNum, SeqNum)>);

impl HeldRanges {
    /// True if nothing is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// How many ranges the list has room for.
    pub(crate) fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Forgets every range, keeping the room.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    /// Holds `[start, end)` (`start` before `end`): calls `fill(lo, hi)`
    /// for each sub-range not already held — existing data wins, the first
    /// arrival is kept — then merges it with every range it overlaps or
    /// touches.
    pub(crate) fn insert(
        &mut self,
        start: SeqNum,
        end: SeqNum,
        mut fill: impl FnMut(SeqNum, SeqNum),
    ) {
        debug_assert!(start.lt(end), "an empty range");
        // The first range that ends at or after `start`: everything before
        // it lies wholly below.
        let first = self.0.partition_point(|&(_, e)| e.lt(start));
        let (mut lo, mut past) = (start, first);
        // Each range that overlaps or touches `[start, end)`: the gap in
        // front of it is new.
        while let Some(&(s, e)) = self.0.get(past).filter(|&&(s, _)| s.le(end)) {
            if lo.lt(s) {
                fill(lo, s);
            }
            lo = lo.max(e);
            past += 1;
        }
        if lo.lt(end) {
            fill(lo, end);
        }
        if first == past {
            self.0.insert(first, (start, end));
        } else {
            self.0[first] = (self.0[first].0.min(start), lo.max(end));
            self.0.drain(first + 1..past);
        }
    }

    /// The in-order edge has reached `edge`: forgets every range below it
    /// and returns the new edge — the end of a held range `edge` reaches,
    /// or `edge` itself.
    pub(crate) fn advance(&mut self, edge: SeqNum) -> SeqNum {
        let reached = self.0.partition_point(|&(s, _)| s.le(edge));
        let new_edge = match reached.checked_sub(1).map(|i| self.0[i].1) {
            Some(end) if end.gt(edge) => end,
            _ => edge,
        };
        self.0.drain(..reached);
        new_edge
    }
}

#[cfg(test)]
mod tests;
