//! The demux tier-attribution checker: a keyed-tier (`flow`/`listen`)
//! classify must report a match, and a matched classify must be followed
//! at once, on its host, by exactly one ring placement of the same frame.

use crate::{Event, PathKind};

/// (host, frame id) of a record.
type At = (Option<u16>, Option<u64>);

/// Matched classifies awaiting their adjacent ring placement.
#[derive(Default)]
pub(super) struct Demux {
    /// One live entry per host at most — a vec so the per-record fast
    /// path is one emptiness check, not a hash probe.
    pending: Vec<At>,
}

impl Demux {
    /// Whether a matched classify awaits its placement.
    #[inline]
    pub(super) fn awaiting(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Resolves any classify pending on `host` against the record that
    /// follows it, *before* the record is folded in anywhere else.
    #[inline]
    pub(super) fn resolve(&mut self, (host, frame): At, event: &Event) -> Option<String> {
        let i = self.pending.iter().position(|(h, _)| *h == host)?;
        let pending = self.pending.swap_remove(i).1?;
        let placed = matches!(
            event,
            Event::RingEnqueue { .. } | Event::RingDrop { .. } | Event::QuotaDrop { .. }
        ) && frame == Some(pending);
        (!placed).then(|| {
            format!(
                "matched classify of f{pending} not followed by ring placement (next: {})",
                event.name()
            )
        })
    }

    /// A `demux_classify` of a frame on a host.
    #[inline]
    pub(super) fn classify(&mut self, at: At, path: PathKind, matched: bool) -> Option<String> {
        if matched {
            self.pending.push(at);
        }
        (matches!(path, PathKind::FlowTable | PathKind::ListenTable) && !matched)
            .then(|| format!("keyed-tier ({}) classify reported no match", path.label()))
    }

    /// Bytes of tracked state.
    pub(super) fn bytes(&self) -> usize {
        self.pending.len() * (size_of::<Option<u16>>() + size_of::<Option<u64>>())
    }
}
