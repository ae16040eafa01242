//! Demultiplexing: which channel's ring a received frame belongs to
//! (DESIGN §8, §12). Software demultiplexing is three-tiered. At channel installation each
//! [`DemuxSpec`] is *distilled*: fully-specified connection bindings (the
//! common case the registry installs at connection setup) become entries in
//! an exact-match flow table keyed by the frame's 5-tuple; fully-wildcard
//! bindings (listening sockets, unconnected UDP) become entries in a
//! 3-tuple listen table keyed by the frame's local projection. Either way
//! delivery is one [`FlowKey::extract`] parse plus hash lookups — O(1) in
//! the number of bindings. Only the residual — half-wildcard specs,
//! mismatched link framing, and frames with no keyed identity (fragments,
//! non-IP) — falls back to the paper-era filter scan. Correctness
//! invariant: the tiers always agree with a pure linear scan — a keyed hit
//! is only taken after any lower-id residual binding has had its filter
//! run (scan order is id order, first match wins), the cross-table winner
//! is the lower id (the tiers partition the channels), and a distilled
//! binding can never match a frame whose key differs from its own
//! (`DemuxSpec::distill`/`distill_listen`'s iff guarantees).
//!
//! Tier maintenance is **incremental**: activation and teardown patch the
//! tables, the id order, and the scan-cost accounting in place (O(log n)
//! point updates on [`InstrFenwick`]) rather than rebuilding O(n) caches
//! per connection event, so churn stays flat into the 10⁵–10⁶-channel
//! range. `force_rebuild` (`testing` feature) remains the from-scratch
//! oracle the incremental structures are validated against. On AN1 the
//! NIC has already classified a frame by its BQI: the hardware tier is the
//! ring-id index.
//!
//! The tables hold channel ids; a channel's own part is its [`Binding`],
//! which callers lend back by id (`bindings`) for the decisions that read
//! other channels' filters or activation.

use std::collections::{BTreeSet, HashMap};

use unp_buffers::{Frame, RingId};
use unp_filter::programs::DemuxSpec;
use unp_filter::{CompiledDemux, Demux as _};
use unp_wire::{FlowKey, ListenKey};

use crate::{ChannelId, DemuxPath};

/// Which demultiplexing tier a channel's spec distilled into at
/// installation. Each channel lives in exactly one tier, so the keyed
/// tables and the residual scan set partition the active population —
/// which is what lets the cross-tier winner be picked by id comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowSlot {
    /// Fully-specified connection binding: exact-match 5-tuple table.
    Exact(FlowKey),
    /// Fully-wildcard remote (listening/unconnected-UDP): 3-tuple table.
    Listen(ListenKey),
    /// No keyed identity (half-wildcard remote, mismatched link framing):
    /// residual filter scan.
    Scan,
}

/// Fenwick (binary-indexed) tree over channel ids holding each **active**
/// channel's filter instruction count. `prefix(id + 1)` is exactly the
/// instructions a linear scan interprets through channel `id` inclusive,
/// so the scan-equivalent cost accounting survives with activation and
/// teardown as O(log n) point updates instead of an O(n) rebuild of
/// prefix-sum arrays.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct InstrFenwick {
    /// Standard 1-based Fenwick layout stored 0-based: `tree[i - 1]`
    /// covers the `lowbit(i)` positions ending at 1-based position `i`.
    tree: Vec<usize>,
}

impl InstrFenwick {
    /// Extends coverage to `n` positions; new positions hold zero. An
    /// appended node spans `lowbit` *existing* positions, so it must be
    /// seeded with their sum — zero-filling would corrupt later prefixes.
    /// Channel ids mint monotonically, so growth is always an append.
    fn grow_to(&mut self, n: usize) {
        while self.tree.len() < n {
            let i = self.tree.len() + 1; // 1-based index of the new node
            let lowbit = i & i.wrapping_neg();
            let seed = self.prefix(i - 1) - self.prefix(i - lowbit);
            self.tree.push(seed);
        }
    }

    /// Adds `delta` to the value at 0-based position `pos`.
    fn add(&mut self, pos: usize, delta: isize) {
        let mut i = pos + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = (self.tree[i - 1] as isize + delta) as usize;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of the values at 0-based positions `0..n`.
    fn prefix(&self, n: usize) -> usize {
        let mut i = n.min(self.tree.len());
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i - 1];
            i &= i - 1;
        }
        sum
    }
}

/// Takes `id` out of `table[key]` — entries hold ascending ids, so a
/// binary-search remove — and removes the entry with its last binding,
/// keeping its emptied bucket in `spare` for the next key installed.
/// Returns how many bindings went (1, or 0 if `id` was not there).
fn unbind<K: Eq + std::hash::Hash>(
    table: &mut HashMap<K, Vec<u32>>,
    spare: &mut Vec<Vec<u32>>,
    key: &K,
    id: u32,
) -> usize {
    let Some(ids) = table.get_mut(key) else {
        return 0;
    };
    let found = ids.binary_search(&id).map(|pos| ids.remove(pos));
    if ids.is_empty() {
        spare.extend(table.remove(key));
    }
    usize::from(found.is_ok())
}

/// Appends `id` to `table[key]`, a new entry starting from a spare bucket.
fn bind<K: Eq + std::hash::Hash>(
    table: &mut HashMap<K, Vec<u32>>,
    spare: &mut Vec<Vec<u32>>,
    key: K,
    id: u32,
) {
    let ids = table
        .entry(key)
        .or_insert_with(|| spare.pop().unwrap_or_default());
    ids.push(id);
}

/// A channel's demux part: its compiled filter, the tier it distilled
/// into, and whether the binding is live.
pub(crate) struct Binding {
    demux: CompiledDemux,
    /// Fixed at installation.
    slot: FlowSlot,
    /// Software demux only fires once the registry activates the binding
    /// at connection-establishment completion; until then, traffic for the
    /// endpoint still flows to the kernel default path (the registry).
    active: bool,
}

/// The AN1 ring a channel's frames arrive on — the id to register in the
/// NIC's BQI table. `RingId(0)` is the kernel default, so channel `n`'s
/// ring is `n + 1`.
pub(crate) fn ring_of(id: ChannelId) -> RingId {
    RingId(id.0 + 1)
}

/// Software-demultiplexing counters, reported by
/// [`crate::NetIoModule::demux_stats`] for the `repro-tables` demux
/// section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemuxStats {
    /// Frames whose delivery was decided by the exact-match flow table.
    pub flow_hits: u64,
    /// Frames whose delivery was decided by the 3-tuple listen table.
    pub listen_hits: u64,
    /// Frames decided by the filter scan (half-wildcard bindings,
    /// fragments, non-IP frames, and kernel-default misses).
    pub scan_fallbacks: u64,
    /// Total frames through [`crate::NetIoModule::deliver_software`].
    pub packets: u64,
    /// Total modeled filter instructions across those frames (what the
    /// 1993 scan interprets — the cost-model input).
    pub filter_instrs: u64,
}

impl DemuxStats {
    /// `n` per packet (0 before the first).
    fn per_packet(&self, n: u64) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        n as f64 / self.packets as f64
    }

    /// Modeled filter instructions per packet.
    pub fn avg_filter_instrs(&self) -> f64 {
        self.per_packet(self.filter_instrs)
    }

    /// Fraction of software-demuxed frames the flow table decided.
    pub fn flow_hit_rate(&self) -> f64 {
        self.per_packet(self.flow_hits)
    }

    /// Fraction decided by either keyed table (flow or listen) — the
    /// frames that skipped filter interpretation entirely.
    pub fn keyed_hit_rate(&self) -> f64 {
        self.per_packet(self.flow_hits + self.listen_hits)
    }
}

/// The demux tiers, their incremental caches and their counters.
#[derive(Default)]
pub(crate) struct Demux {
    /// Hardware tier: the AN1 ring ids the NIC's BQI table names.
    ring_index: HashMap<RingId, ChannelId>,
    /// Exact-match tier: 5-tuple → ids of channels distilled to that key,
    /// ascending (duplicates possible; the scan-equivalent winner is the
    /// lowest *active* id).
    flow_table: HashMap<FlowKey, Vec<u32>>,
    /// Wildcard tier: 3-tuple → ids of fully-wildcard channels distilled
    /// to that key, ascending.
    listen_table: HashMap<ListenKey, Vec<u32>>,
    /// Bindings in `flow_table` and in `listen_table` (ids, not keys),
    /// counted where one is pushed or removed so reading them never walks
    /// a table.
    flow_entries: usize,
    listen_entries: usize,
    /// Emptied buckets of removed keys, in either table: a channel's
    /// teardown leaves one for the next connection's key.
    bucket_spare: Vec<Vec<u32>>,
    /// Link-header length the keyed tables extract keys with, fixed by the
    /// first distillable channel (one module serves one device, so all its
    /// channels share framing; a mismatched spec stays on the scan tier).
    flow_lhl: Option<usize>,
    /// All channel ids, ascending — the scan order, maintained on
    /// install/teardown instead of collected and sorted per packet.
    scan_order: Vec<u32>,
    /// Per-id active filter instruction counts as a Fenwick tree:
    /// `instr_fen.prefix(id + 1)` is the scan-equivalent cost through
    /// `id`, maintained by point updates on activation and teardown.
    instr_fen: InstrFenwick,
    /// Total filter instructions across all active channels — what a scan
    /// interprets on a miss — maintained incrementally.
    total_active_instrs: usize,
    /// Active channels on *neither* keyed table, ascending — the only
    /// filters a keyed decision must still consult.
    residual: BTreeSet<u32>,
    stats: DemuxStats,
    /// Frames that fell through to the kernel default path.
    default_deliveries: u64,
}

impl Demux {
    /// Installs channel `id`, minted above every live id, so pushing keeps
    /// each table entry and the scan order sorted. The first distillable
    /// channel (either tier) pins the module's key-extraction framing;
    /// later specs with different framing stay on the scan tier.
    pub(crate) fn install(&mut self, id: ChannelId, spec: &DemuxSpec) -> Binding {
        let lhl = spec.link_header_len;
        let slot = match (spec.distill(), spec.distill_listen()) {
            (Some(key), _) if *self.flow_lhl.get_or_insert(lhl) == lhl => {
                bind(&mut self.flow_table, &mut self.bucket_spare, key, id.0);
                self.flow_entries += 1;
                FlowSlot::Exact(key)
            }
            (None, Some(key)) if *self.flow_lhl.get_or_insert(lhl) == lhl => {
                bind(&mut self.listen_table, &mut self.bucket_spare, key, id.0);
                self.listen_entries += 1;
                FlowSlot::Listen(key)
            }
            _ => FlowSlot::Scan,
        };
        self.scan_order.push(id.0);
        self.instr_fen.grow_to(id.0 as usize + 1);
        self.ring_index.insert(ring_of(id), id);
        Binding {
            demux: CompiledDemux::from_spec(spec),
            slot,
            active: false,
        }
    }

    /// Point-adds a newly active binding to the caches. Idempotent.
    pub(crate) fn activate(&mut self, id: ChannelId, b: &mut Binding) {
        if b.active {
            return;
        }
        b.active = true;
        let n = b.demux.instruction_count();
        self.instr_fen.add(id.0 as usize, n as isize);
        self.total_active_instrs += n;
        if b.slot == FlowSlot::Scan {
            self.residual.insert(id.0);
        }
    }

    /// Takes a destroyed channel's binding out of every tier and cache.
    pub(crate) fn remove(&mut self, id: ChannelId, b: &Binding) {
        self.ring_index.remove(&ring_of(id));
        match b.slot {
            FlowSlot::Exact(key) => {
                let spare = &mut self.bucket_spare;
                self.flow_entries -= unbind(&mut self.flow_table, spare, &key, id.0);
            }
            FlowSlot::Listen(key) => {
                let spare = &mut self.bucket_spare;
                self.listen_entries -= unbind(&mut self.listen_table, spare, &key, id.0);
            }
            FlowSlot::Scan => {}
        }
        if b.active {
            let n = b.demux.instruction_count();
            self.instr_fen.add(id.0 as usize, -(n as isize));
            self.total_active_instrs -= n;
            self.residual.remove(&id.0);
        }
        // `scan_order` is ascending, so the O(n) retain sweep is a
        // binary-search remove.
        if let Ok(pos) = self.scan_order.binary_search(&id.0) {
            self.scan_order.remove(pos);
        }
    }

    /// The incremental caches — instruction Fenwick, active-instruction
    /// total, residual set — computed from scratch: the oracle.
    fn compute_caches<'a>(
        &self,
        bindings: impl Fn(u32) -> &'a Binding,
    ) -> (InstrFenwick, usize, BTreeSet<u32>) {
        let mut fen = InstrFenwick::default();
        fen.grow_to(self.instr_fen.tree.len());
        let mut total = 0usize;
        let mut residual = BTreeSet::new();
        for &id in &self.scan_order {
            let b = bindings(id);
            if !b.active {
                continue;
            }
            let n = b.demux.instruction_count();
            fen.add(id as usize, n as isize);
            total += n;
            if b.slot == FlowSlot::Scan {
                residual.insert(id);
            }
        }
        (fen, total, residual)
    }

    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn force_rebuild<'a>(&mut self, bindings: impl Fn(u32) -> &'a Binding) {
        let (fen, total, residual) = self.compute_caches(bindings);
        self.instr_fen = fen;
        self.total_active_instrs = total;
        self.residual = residual;
    }

    pub(crate) fn caches_match_rebuild<'a>(&self, bindings: impl Fn(u32) -> &'a Binding) -> bool {
        let (fen, total, residual) = self.compute_caches(bindings);
        fen == self.instr_fen
            && total == self.total_active_instrs
            && residual == self.residual
            && self.flow_entries == self.flow_table.values().map(Vec::len).sum::<usize>()
            && self.listen_entries == self.listen_table.values().map(Vec::len).sum::<usize>()
    }

    /// Debug builds check each churn event against the oracle, on small
    /// populations only: the check is O(n).
    pub(crate) fn debug_validate<'a>(&self, bindings: impl Fn(u32) -> &'a Binding) {
        if self.scan_order.len() <= 64 {
            debug_assert!(
                self.caches_match_rebuild(bindings),
                "incremental demux caches diverged from a fresh rebuild"
            );
        }
    }

    /// The filter instructions a linear scan interprets before `id`
    /// accepts: every earlier active binding's full program plus `id`'s.
    fn scan_equiv_instrs(&self, id: u32) -> usize {
        self.instr_fen.prefix(id as usize + 1)
    }

    pub(crate) fn classify<'a>(
        &self,
        frame: &[u8],
        bindings: impl Fn(u32) -> &'a Binding,
    ) -> (Option<ChannelId>, usize, DemuxPath) {
        // Keyed tiers: one 5-tuple parse serves both tables (the listen
        // key is its local projection). Per table the winner is the lowest
        // active id distilled to the frame's key (ties between duplicate
        // bindings resolve exactly as the scan would); across tables the
        // candidate is the lower of the two — each channel lives in
        // exactly one tier, so that is the scan's first keyed match.
        let key = self.flow_lhl.and_then(|lhl| FlowKey::extract(frame, lhl));
        let lowest_active = |ids: &Vec<u32>| ids.iter().copied().find(|&id| bindings(id).active);
        let flow_hit: Option<u32> = key
            .and_then(|k| self.flow_table.get(&k))
            .and_then(lowest_active);
        let listen_hit: Option<u32> = key
            .and_then(|k| self.listen_table.get(&k.local()))
            .and_then(lowest_active);
        let (candidate, keyed_path) = match (flow_hit, listen_hit) {
            (Some(f), Some(l)) if l < f => (Some(l), DemuxPath::ListenTable),
            (Some(f), _) => (Some(f), DemuxPath::FlowTable),
            (None, Some(l)) => (Some(l), DemuxPath::ListenTable),
            (None, None) => (None, DemuxPath::FilterScan),
        };
        // Residual tier: a lower-id unkeyed binding shadows the keyed hit
        // (the scan runs filters in id order and first match wins), so
        // those — and only those — filters must still run. On a keyed
        // miss no distilled binding can match (the distill/extract iff
        // guarantees), so the scan reduces to the residual subset.
        let limit = candidate.unwrap_or(u32::MAX);
        for &id in self.residual.range(..limit) {
            if bindings(id).demux.matches(frame) {
                return (
                    Some(ChannelId(id)),
                    self.scan_equiv_instrs(id),
                    DemuxPath::FilterScan,
                );
            }
        }
        match candidate {
            Some(id) => (Some(ChannelId(id)), self.scan_equiv_instrs(id), keyed_path),
            None => (None, self.total_active_instrs, DemuxPath::FilterScan),
        }
    }

    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn classify_scan_reference<'a>(
        &self,
        frame: &[u8],
        bindings: impl Fn(u32) -> &'a Binding,
    ) -> (Option<ChannelId>, usize) {
        let mut instrs = 0;
        for &id in &self.scan_order {
            let b = bindings(id);
            if !b.active {
                continue;
            }
            instrs += b.demux.instruction_count();
            if b.demux.matches(frame) {
                return (Some(ChannelId(id)), instrs);
            }
        }
        (None, instrs)
    }

    /// The software path's decision, counted and journaled.
    pub(crate) fn software<'a>(
        &mut self,
        frame: &Frame,
        bindings: impl Fn(u32) -> &'a Binding,
    ) -> (Option<ChannelId>, usize, DemuxPath) {
        let (target, instrs, path) = self.classify(frame, bindings);
        self.stats.packets += 1;
        self.stats.filter_instrs += instrs as u64;
        match path {
            DemuxPath::FlowTable => self.stats.flow_hits += 1,
            DemuxPath::ListenTable => self.stats.listen_hits += 1,
            _ => self.stats.scan_fallbacks += 1,
        }
        unp_trace::emit(Some(frame.id()), || unp_trace::Event::DemuxClassify {
            path,
            filter_instrs: instrs as u32,
            matched: target.is_some(),
        });
        (target, instrs, path)
    }

    /// The hardware path's decision, journaled.
    pub(crate) fn hardware(&self, ring: RingId, frame: &Frame) -> Option<ChannelId> {
        let target = self.ring_index.get(&ring).copied();
        unp_trace::emit(Some(frame.id()), || unp_trace::Event::DemuxClassify {
            path: DemuxPath::Hardware,
            filter_instrs: 0,
            matched: target.is_some(),
        });
        target
    }

    pub(crate) fn count_default(&mut self) {
        self.default_deliveries += 1;
    }

    pub(crate) fn default_deliveries(&self) -> u64 {
        self.default_deliveries
    }

    pub(crate) fn stats(&self) -> DemuxStats {
        self.stats
    }

    pub(crate) fn flow_table_len(&self) -> usize {
        self.flow_entries
    }

    pub(crate) fn listen_table_len(&self) -> usize {
        self.listen_entries
    }

    pub(crate) fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        fn ids<'a>(buckets: impl Iterator<Item = &'a Vec<u32>>) -> usize {
            buckets.map(|v| v.capacity() * size_of::<u32>()).sum()
        }
        fn table<K>(t: &HashMap<K, Vec<u32>>) -> usize {
            t.capacity() * (size_of::<K>() + size_of::<Vec<u32>>()) + ids(t.values())
        }
        let spare =
            self.bucket_spare.capacity() * size_of::<Vec<u32>>() + ids(self.bucket_spare.iter());
        // BTreeSet nodes carry roughly two words of overhead per element
        // at our sizes; close enough for a footprint column.
        let residual = self.residual.len() * (size_of::<u32>() + 2 * size_of::<usize>());
        table(&self.flow_table)
            + table(&self.listen_table)
            + self.scan_order.capacity() * size_of::<u32>()
            + self.instr_fen.tree.capacity() * size_of::<usize>()
            + residual
            + spare
    }
}
