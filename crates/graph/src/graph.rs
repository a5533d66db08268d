//! The incremental heap-graph (dense-slab hot path).
//!
//! Object ids are interned into dense `u32` slot indexes the moment a
//! vertex is allocated; every per-vertex structure (degrees, start
//! address, out-slots, inbound adjacency) then lives in one flat
//! [`Vec`] of [`NodeSlot`]s indexed by slot, with freed slots recycled
//! through a free list (their `Vec` capacity is retained, so a steady
//! alloc/free workload stops allocating entirely).
//!
//! Two structures keep the per-event cost flat regardless of live-set
//! size:
//!
//! * **Pointer resolution** uses a [`ShadowMap`] — a radix page table
//!   with one slot value per 8-byte address granule — so resolving an
//!   interior pointer is three dependent loads, and alloc/free mark or
//!   clear O(size/8) granules. The sorted-vector index this replaced
//!   paid an O(live) memmove every time the allocator recycled an
//!   address into the middle of the span, which dominated ingest on
//!   churn-heavy traces. Objects the shadow map refuses (unaligned
//!   starts, overlaps, addresses ≥ 2^40) fall back to a small sorted
//!   spill vector, preserving exact semantics for irregular streams.
//! * **Id interning** uses a dense `Vec` indexed by the raw object id
//!   (ids are handed out monotonically) with an FxHash spill map for
//!   ids beyond [`DENSE_ID_CAP`], replacing a hash lookup per event
//!   with an array index on the common path.

use crate::histogram::DegreeHistogram;
use crate::metrics::{ExtendedMetrics, MetricVector};
use crate::node::NodeInfo;
use fxhash::FxHashMap;
use serde::{Deserialize, Serialize};
use sim_heap::{Addr, HeapEvent, ObjectId, ShadowMap, SHADOW_EMPTY};

/// An event the heap graph cannot apply: it names an object the
/// stream never allocated (or already freed), allocates a live object
/// again, allocates over the bytes of a live object, or allocates past
/// the end of the address space. The graph finds it before changing
/// anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// A free of an object that is not live.
    FreeOfUnknown(ObjectId),
    /// A pointer store into an object that is not live.
    WriteIntoUnknown(ObjectId),
    /// An allocation of an object that is already live.
    DuplicateAlloc(ObjectId),
    /// An allocation whose end lies past the last address.
    AddressOverflow(ObjectId),
    /// An allocation overlapping a live object (an empty object
    /// occupies its first byte).
    OverlappingAlloc(ObjectId),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::FreeOfUnknown(id) => write!(f, "free of unknown {id}"),
            ApplyError::WriteIntoUnknown(id) => write!(f, "write into unknown {id}"),
            ApplyError::DuplicateAlloc(id) => write!(f, "duplicate allocation of {id}"),
            ApplyError::AddressOverflow(id) => {
                write!(f, "allocation of {id} ends past the last address")
            }
            ApplyError::OverlappingAlloc(id) => {
                write!(f, "allocation of {id} overlaps a live object")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// Ids below this index into the dense intern vector; ids at or above
/// it (only reachable after ~4M allocations) go to the spill hash map.
/// The dense vector tops out at 16 MiB and only materializes as far as
/// the largest id actually seen.
const DENSE_ID_CAP: u64 = 1 << 22;

/// Intern map: object id → dense slot.
///
/// Ids are unbounded monotonic `u64`s. The dense vector holds `slot`
/// (or [`SHADOW_EMPTY`] for dead/unseen ids) for the first
/// [`DENSE_ID_CAP`] ids — one predictable array access instead of a
/// hash probe on the hot path — and an FxHash map catches the long
/// tail.
#[derive(Debug, Clone, Default)]
struct IdIndex {
    dense: Vec<u32>,
    spill: FxHashMap<u64, u32>,
    live: usize,
}

impl IdIndex {
    #[inline]
    fn get(&self, id: ObjectId) -> Option<u32> {
        if id.0 < DENSE_ID_CAP {
            match self.dense.get(id.0 as usize) {
                Some(&s) if s != SHADOW_EMPTY => Some(s),
                _ => None,
            }
        } else {
            self.spill.get(&id.0).copied()
        }
    }

    /// Inserts a mapping, returning the previous slot if `id` was live.
    fn insert(&mut self, id: ObjectId, slot: u32) -> Option<u32> {
        debug_assert_ne!(slot, SHADOW_EMPTY, "slot index clashes with sentinel");
        let prev = if id.0 < DENSE_ID_CAP {
            let i = id.0 as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, SHADOW_EMPTY);
            }
            std::mem::replace(&mut self.dense[i], slot)
        } else {
            self.spill.insert(id.0, slot).unwrap_or(SHADOW_EMPTY)
        };
        if prev == SHADOW_EMPTY {
            self.live += 1;
            None
        } else {
            Some(prev)
        }
    }

    fn remove(&mut self, id: ObjectId) -> Option<u32> {
        let prev = if id.0 < DENSE_ID_CAP {
            match self.dense.get_mut(id.0 as usize) {
                Some(s) => std::mem::replace(s, SHADOW_EMPTY),
                None => SHADOW_EMPTY,
            }
        } else {
            self.spill.remove(&id.0).unwrap_or(SHADOW_EMPTY)
        };
        if prev == SHADOW_EMPTY {
            None
        } else {
            self.live -= 1;
            Some(prev)
        }
    }

    #[inline]
    /// Forgets every mapping while retaining the dense vector's
    /// allocation (refilled with the sentinel) and the spill map's
    /// buckets.
    fn clear(&mut self) {
        self.dense.fill(SHADOW_EMPTY);
        self.spill.clear();
        self.live = 0;
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Live `(id, slot)` pairs, in no particular order. O(ids ever seen):
    /// fine for snapshots, validation, and forensics, not for hot paths.
    fn iter(&self) -> impl Iterator<Item = (ObjectId, u32)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != SHADOW_EMPTY)
            .map(|(i, &s)| (ObjectId(i as u64), s))
            .chain(self.spill.iter().map(|(&i, &s)| (ObjectId(i), s)))
    }
}

/// One pointer slot's state as the graph sees it.
///
/// `target` holds the *dense slot index* of the live object the raw
/// address currently resolves to — never a stale index: every structure
/// referencing a slot is unlinked before the slot enters the free list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotState {
    /// Raw stored address.
    raw: u64,
    /// Dense slot of the live object it currently resolves to, if any.
    target: Option<u32>,
}

/// Per-vertex storage, indexed by dense slot.
#[derive(Debug, Clone)]
struct NodeSlot {
    /// The object id this slot currently represents (stale once freed).
    id: ObjectId,
    /// Cached degrees.
    info: NodeInfo,
    /// Start address, for shadow clearing on free and resolution
    /// bounds checks.
    start: u64,
    /// One past the last address of the object.
    end: u64,
    /// `true` when the shadow map refused this object and it lives in
    /// the sorted spill index instead.
    spilled: bool,
    /// Outgoing pointer slots, sorted by offset.
    out: Vec<(u64, SlotState)>,
    /// Reverse edges: `(source slot, offset)`, unordered. Degrees are
    /// small at object granularity (paper §2.2), so removal is a linear
    /// scan + `swap_remove`.
    inbound: Vec<(u32, u64)>,
}

/// One live allocation in the sorted spill index (shadow-map refusals
/// only).
#[derive(Debug, Clone, Copy)]
struct Range {
    start: u64,
    end: u64,
    slot: u32,
}

/// One past the last byte an object `[start, end)` occupies when
/// allocations are checked for overlap: an empty object still occupies
/// its first byte, so no two live objects share a start.
#[inline]
pub(crate) fn footprint_end(start: u64, end: u64) -> u64 {
    end.max(start.saturating_add(1))
}

/// Whether `[start, end)` overlaps an entry of a spill index, which is
/// sorted by start and, since overlapping allocations are refused,
/// pairwise disjoint: only the last entry starting before `end` can.
#[inline]
fn spill_overlaps(spill: &[Range], start: u64, end: u64) -> bool {
    let i = spill.partition_point(|r| r.start < end);
    i.checked_sub(1)
        .is_some_and(|i| footprint_end(spill[i].start, spill[i].end) > start)
}

/// Dangling slots sharing one raw address, in the sorted unresolved
/// index.
#[derive(Debug, Clone, Default)]
struct Bucket {
    raw: u64,
    entries: Vec<(u32, u64)>,
}

/// A serializable summary of the graph at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphSnapshot {
    /// Live vertexes.
    pub nodes: u64,
    /// Resolved edges.
    pub edges: u64,
    /// Dangling (unresolved) pointer slots.
    pub dangling: u64,
    /// The seven paper metrics.
    pub metrics: MetricVector,
}

/// The object-granularity heap-graph, updated incrementally from the
/// instrumentation event stream.
///
/// See the [crate docs](crate) for the model. The three mutating entry
/// points mirror the events the paper's instrumentation exposes:
/// [`on_alloc`](Self::on_alloc), [`on_free`](Self::on_free), and
/// [`on_ptr_write`](Self::on_ptr_write) /
/// [`on_scalar_write`](Self::on_scalar_write); or feed raw events
/// through [`apply`](Self::apply) or, for recorded streams,
/// [`apply_batch`](Self::apply_batch).
///
/// # Invariants (checked by [`validate`](Self::validate))
///
/// * a slot is an edge iff its raw address lies inside a live object;
/// * per-node degrees equal the counts implied by the slot table;
/// * the degree histogram equals a from-scratch recount;
/// * the intern map, slab, free list, and sorted indexes are mutually
///   consistent.
#[derive(Debug, Clone, Default)]
pub struct HeapGraph {
    /// Intern map: object id → dense slot (dense vec + spill hash).
    index: IdIndex,
    /// The slab. Slots on `free` are dead but keep their capacity.
    slots: Vec<NodeSlot>,
    free: Vec<u32>,
    /// O(1) pointer resolution: address granule → dense slot.
    shadow: ShadowMap,
    /// Objects the shadow map refused (unaligned / overlapping /
    /// out-of-range starts), sorted by start address. Almost always
    /// empty; checked only after a shadow miss.
    spill: Vec<Range>,
    /// Dangling slots sorted by raw address, so allocations can re-bind
    /// them with one binary search + drain.
    unresolved: Vec<Bucket>,
    histogram: DegreeHistogram,
    edge_count: u64,
    dangling: u64,
}

impl HeapGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        HeapGraph::default()
    }

    /// Returns the graph to its empty state while retaining the
    /// dominant allocations — the slot slab, free list, id index, and
    /// materialized shadow pages — so pooled consumers (the serve
    /// daemon's replayer pool) can recycle one warmed graph across many
    /// tenant streams.
    pub fn reset(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.shadow.clear();
        self.spill.clear();
        self.unresolved.clear();
        self.histogram = DegreeHistogram::new();
        self.edge_count = 0;
        self.dangling = 0;
    }

    /// Live vertexes.
    pub fn node_count(&self) -> u64 {
        self.histogram.nodes()
    }

    /// Resolved heap-to-heap edges (with multiplicity).
    pub fn edge_count(&self) -> u64 {
        self.edge_count
    }

    /// Pointer slots currently dangling (stored address resolves to no
    /// live object).
    pub fn dangling_count(&self) -> u64 {
        self.dangling
    }

    /// Degree information for a live vertex.
    pub fn node(&self, id: ObjectId) -> Option<NodeInfo> {
        self.index.get(id).map(|s| self.slots[s as usize].info)
    }

    /// Returns `true` if `id` is a live vertex.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.index.get(id).is_some()
    }

    /// The degree histogram (O(1) reads for every paper metric).
    pub fn histogram(&self) -> &DegreeHistogram {
        &self.histogram
    }

    /// Computes the seven paper metrics for the current graph.
    pub fn metrics(&self) -> MetricVector {
        let _t = heapmd_obs::timer!("heap_graph_metrics_ns");
        MetricVector::from_histogram(&self.histogram)
    }

    /// The seven paper metrics again. Kept only for the benchmark
    /// ledger (`ledger/src/layers.rs:126`), which times it beside
    /// [`metrics`](Self::metrics); delete it when the ledger moves off
    /// the library (ROADMAP items 1 and 13).
    #[doc(hidden)]
    pub fn candidates(&self) -> MetricVector {
        self.metrics()
    }

    /// The structural counters of the current graph.
    pub fn extended_metrics(&self) -> ExtendedMetrics {
        ExtendedMetrics {
            nodes: self.node_count(),
            edges: self.edge_count,
            dangling_slots: self.dangling,
        }
    }

    /// The structural counters and the seven paper metrics, computed
    /// once per metric computation point.
    pub fn measure(&self) -> (ExtendedMetrics, MetricVector) {
        let _t = heapmd_obs::timer!("heap_graph_metrics_ns");
        (
            self.extended_metrics(),
            MetricVector::from_histogram(&self.histogram),
        )
    }

    /// A serializable summary of the current instant.
    pub fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot {
            nodes: self.node_count(),
            edges: self.edge_count,
            dangling: self.dangling,
            metrics: self.metrics(),
        }
    }

    /// Applies one instrumentation event.
    ///
    /// Reads and function entries/exits do not change the graph.
    ///
    /// # Panics
    ///
    /// Panics on an event the graph cannot apply (see
    /// [`try_apply`](Self::try_apply)).
    #[inline]
    pub fn apply(&mut self, event: &HeapEvent) {
        self.try_apply(event).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Applies one instrumentation event, or leaves the graph as it was
    /// and reports why the event cannot apply.
    ///
    /// # Errors
    ///
    /// The [`ApplyError`] the event's object lookup found.
    #[inline]
    pub fn try_apply(&mut self, event: &HeapEvent) -> Result<(), ApplyError> {
        match *event {
            HeapEvent::Alloc {
                obj, addr, size, ..
            } => self.try_alloc(obj, addr, size),
            HeapEvent::Free { obj, .. } => self.try_free(obj),
            HeapEvent::PtrWrite {
                src, offset, value, ..
            } => self.try_ptr_write(src, offset, value),
            HeapEvent::ScalarWrite { src, offset, .. } => {
                self.on_scalar_write(src, offset);
                Ok(())
            }
            HeapEvent::Read { .. } | HeapEvent::FnEnter { .. } | HeapEvent::FnExit { .. } => Ok(()),
        }
    }

    /// Applies a recorded event slice in one call, amortizing dispatch.
    /// Replay calls this once per span between two function entries,
    /// so it carries no instrument of its own: callers time whole
    /// batches.
    ///
    /// Equivalent to calling [`apply`](Self::apply) per event.
    pub fn apply_batch(&mut self, events: &[HeapEvent]) {
        for event in events {
            self.apply(event);
        }
    }

    /// Adds a vertex for a fresh allocation and re-binds any dangling
    /// slots whose address falls inside it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already live, the object overlaps a live one,
    /// or it ends past the last address (the event stream is corrupt).
    pub fn on_alloc(&mut self, id: ObjectId, addr: Addr, size: usize) {
        self.try_alloc(id, addr, size)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn try_alloc(&mut self, id: ObjectId, addr: Addr, size: usize) -> Result<(), ApplyError> {
        let start = addr.get();
        let end = start
            .checked_add(size as u64)
            .ok_or(ApplyError::AddressOverflow(id))?;
        if self.index.get(id).is_some() {
            return Err(ApplyError::DuplicateAlloc(id));
        }
        // Claim the shadow for the slot the object will take before
        // anything else changes; a shadow refusal is searched exactly,
        // since it may only mean an irregular object.
        let footprint = footprint_end(start, end);
        let slot = match self.free.last() {
            Some(&s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("slab overflow");
                assert_ne!(s, u32::MAX, "slab overflow");
                s
            }
        };
        if spill_overlaps(&self.spill, start, footprint) {
            return Err(ApplyError::OverlappingAlloc(id));
        }
        let spilled = !self.shadow.insert(start, end, slot);
        if spilled
            && self.shadow.any_claim(start, footprint, |s| {
                let o = &self.slots[s as usize];
                o.start < footprint && start < o.end
            })
        {
            return Err(ApplyError::OverlappingAlloc(id));
        }
        if let Some(s) = self.free.pop() {
            let ns = &mut self.slots[s as usize];
            debug_assert!(ns.out.is_empty() && ns.inbound.is_empty());
            ns.id = id;
            ns.info = NodeInfo::new();
            ns.start = start;
            ns.end = end;
            ns.spilled = spilled;
        } else {
            self.slots.push(NodeSlot {
                id,
                info: NodeInfo::new(),
                start,
                end,
                spilled,
                out: Vec::new(),
                inbound: Vec::new(),
            });
        }
        let prev = self.index.insert(id, slot);
        debug_assert!(prev.is_none(), "checked above");
        if spilled {
            let pos = self.spill.partition_point(|r| r.start < start);
            self.spill.insert(pos, Range { start, end, slot });
        }
        self.histogram.add_node();

        // Re-bind dangling slots now covered by this object.
        let lo = self.unresolved.partition_point(|b| b.raw < start);
        let hi = self.unresolved.partition_point(|b| b.raw < end);
        if lo < hi {
            let buckets: Vec<Bucket> = self.unresolved.drain(lo..hi).collect();
            for bucket in buckets {
                for (src, off) in bucket.entries {
                    let st = Self::slot_mut(&mut self.slots, src, off)
                        .expect("unresolved slot must exist in slot table");
                    debug_assert_eq!(st.target, None);
                    st.target = Some(slot);
                    self.dangling -= 1;
                    self.edge_count += 1;
                    self.slots[slot as usize].inbound.push((src, off));
                    if src == slot {
                        self.adjust(slot, 1, 1);
                    } else {
                        self.adjust(src, 0, 1);
                        self.adjust(slot, 1, 0);
                    }
                }
            }
        }
        Ok(())
    }

    /// Removes a vertex: its out-slots vanish, and every in-edge's source
    /// slot becomes dangling (retaining its raw address for later
    /// re-binding).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn on_free(&mut self, id: ObjectId) {
        self.try_free(id).unwrap_or_else(|e| panic!("{e}"));
    }

    fn try_free(&mut self, id: ObjectId) -> Result<(), ApplyError> {
        let slot = self.index.remove(id).ok_or(ApplyError::FreeOfUnknown(id))?;
        let s = slot as usize;
        let info = self.slots[s].info;
        self.histogram.remove_node(info.indegree, info.outdegree);
        let (start, end) = (self.slots[s].start, self.slots[s].end);
        if self.slots[s].spilled {
            let pos = self.spill.partition_point(|r| r.start < start);
            debug_assert_eq!(self.spill[pos].slot, slot);
            self.spill.remove(pos);
        } else {
            self.shadow.remove(start, end);
        }

        // Outgoing slots disappear with the object. Take the vec so the
        // borrow checker allows touching other slots, then hand its
        // capacity back to the dead slot for reuse.
        let mut out = std::mem::take(&mut self.slots[s].out);
        for &(off, st) in &out {
            match st.target {
                Some(t) => {
                    self.edge_count -= 1;
                    if t != slot {
                        let inb = &mut self.slots[t as usize].inbound;
                        if let Some(p) = inb.iter().position(|&e| e == (slot, off)) {
                            inb.swap_remove(p);
                        }
                        self.adjust(t, -1, 0);
                    }
                    // Self-edge: both endpoints die with the node.
                }
                None => {
                    self.remove_unresolved(st.raw, slot, off);
                    self.dangling -= 1;
                }
            }
        }
        out.clear();
        self.slots[s].out = out;

        // Incoming edges become dangling slots of their sources.
        let mut inbound = std::mem::take(&mut self.slots[s].inbound);
        for &(src, off) in &inbound {
            if src == slot {
                continue; // handled with the out-slots above
            }
            let st =
                Self::slot_mut(&mut self.slots, src, off).expect("inbound edge has a source slot");
            debug_assert_eq!(st.target, Some(slot));
            st.target = None;
            let raw = st.raw;
            self.edge_count -= 1;
            self.dangling += 1;
            self.insert_unresolved(raw, src, off);
            self.adjust(src, 0, -1);
        }
        inbound.clear();
        self.slots[s].inbound = inbound;
        self.free.push(slot);
        Ok(())
    }

    /// Records a pointer store: slot `(src, offset)` now holds `value`.
    ///
    /// A null `value` clears the slot. A non-null value that resolves to
    /// a live object creates an edge; otherwise the slot is tracked as
    /// dangling.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a live vertex.
    pub fn on_ptr_write(&mut self, src: ObjectId, offset: u64, value: Addr) {
        self.try_ptr_write(src, offset, value)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn try_ptr_write(&mut self, src: ObjectId, offset: u64, value: Addr) -> Result<(), ApplyError> {
        let src_slot = self
            .index
            .get(src)
            .ok_or(ApplyError::WriteIntoUnknown(src))?;
        self.drop_slot(src_slot, offset);
        if value.is_null() {
            return Ok(());
        }
        let raw = value.get();
        let target = self.resolve(raw);
        let out = &mut self.slots[src_slot as usize].out;
        let pos = out.partition_point(|&(o, _)| o < offset);
        out.insert(pos, (offset, SlotState { raw, target }));
        match target {
            Some(t) => {
                self.edge_count += 1;
                self.slots[t as usize].inbound.push((src_slot, offset));
                if t == src_slot {
                    self.adjust(src_slot, 1, 1);
                } else {
                    self.adjust(src_slot, 0, 1);
                    self.adjust(t, 1, 0);
                }
            }
            None => {
                self.dangling += 1;
                self.insert_unresolved(raw, src_slot, offset);
            }
        }
        Ok(())
    }

    /// Records a non-pointer store, clearing any pointer in the slot.
    pub fn on_scalar_write(&mut self, src: ObjectId, offset: u64) {
        if let Some(s) = self.index.get(src) {
            self.drop_slot(s, offset);
        }
    }

    /// Iterates over resolved edges as `(source, offset, target)`.
    pub fn edges(&self) -> impl Iterator<Item = (ObjectId, u64, ObjectId)> + '_ {
        self.index.iter().flat_map(move |(src, s)| {
            self.slots[s as usize]
                .out
                .iter()
                .filter_map(move |&(off, st)| {
                    st.target.map(|t| (src, off, self.slots[t as usize].id))
                })
        })
    }

    /// Iterates over live vertex ids.
    pub fn node_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.index.iter().map(|(id, _)| id)
    }

    /// Checks the incremental bookkeeping for consistency.
    ///
    /// In debug builds, under test, or with the `full-validate` feature,
    /// this recomputes all degree state from the slot table and checks
    /// the slab/index/sorted-vec invariants — O(nodes + slots). Release
    /// builds without the feature only run O(1) structural checks, so
    /// the hot path never pays for the recount accidentally.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.index.len() as u64 != self.histogram.nodes() {
            return Err(format!(
                "intern map has {} entries but histogram counts {} nodes",
                self.index.len(),
                self.histogram.nodes()
            ));
        }
        if self.index.len() + self.free.len() != self.slots.len() {
            return Err(format!(
                "slab accounting broken: {} live + {} free != {} slots",
                self.index.len(),
                self.free.len(),
                self.slots.len()
            ));
        }
        if self.spill.len() > self.index.len() {
            return Err(format!(
                "spill index has {} entries for {} live nodes",
                self.spill.len(),
                self.index.len()
            ));
        }
        #[cfg(any(debug_assertions, test, feature = "full-validate"))]
        self.validate_full()?;
        Ok(())
    }

    /// The O(n) recount behind [`validate`](Self::validate).
    #[cfg(any(debug_assertions, test, feature = "full-validate"))]
    fn validate_full(&self) -> Result<(), String> {
        let n = self.slots.len();
        let mut live = vec![false; n];
        for (id, s) in self.index.iter() {
            let slot = &self.slots[s as usize];
            if slot.id != id {
                return Err(format!("index maps {id} to slot {s} holding {}", slot.id));
            }
            live[s as usize] = true;
        }
        for &f in &self.free {
            if live[f as usize] {
                return Err(format!("slot {f} is both live and on the free list"));
            }
        }
        if self.spill.windows(2).any(|w| w[0].start >= w[1].start) {
            return Err("spill index out of order".to_string());
        }
        if self.unresolved.windows(2).any(|w| w[0].raw >= w[1].raw) {
            return Err("unresolved index out of order".to_string());
        }
        // Every live node must resolve through exactly the structure its
        // `spilled` flag names.
        for (id, s) in self.index.iter() {
            let slot = &self.slots[s as usize];
            if slot.spilled {
                if !self.spill.iter().any(|r| r.slot == s) {
                    return Err(format!("{id} marked spilled but missing from spill index"));
                }
            } else if slot.start < slot.end && self.shadow.lookup(slot.start) != Some(s) {
                return Err(format!("{id} not resolvable through the shadow map"));
            }
        }

        let mut indeg = vec![0u32; n];
        let mut outdeg = vec![0u32; n];
        let mut inbound_seen = vec![0u32; n];
        let mut edges = 0u64;
        let mut dangling = 0u64;
        for s in 0..n {
            if !live[s] {
                let slot = &self.slots[s];
                if !slot.out.is_empty() || !slot.inbound.is_empty() {
                    return Err(format!("dead slot {s} still has adjacency"));
                }
                continue;
            }
            let slot = &self.slots[s];
            if slot.out.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(format!("slot {s} out-slots unsorted"));
            }
            for &(off, st) in &slot.out {
                let resolved = self.resolve(st.raw);
                if resolved != st.target {
                    return Err(format!(
                        "slot ({},{off}) cached target {:?} but resolves to {:?}",
                        slot.id, st.target, resolved
                    ));
                }
                match st.target {
                    Some(t) => {
                        edges += 1;
                        outdeg[s] += 1;
                        indeg[t as usize] += 1;
                        let tgt = &self.slots[t as usize];
                        if !tgt.inbound.contains(&(s as u32, off)) {
                            return Err(format!(
                                "edge ({},{off})→{} missing from inbound adjacency",
                                slot.id, tgt.id
                            ));
                        }
                        inbound_seen[t as usize] += 1;
                    }
                    None => {
                        dangling += 1;
                        let bucket = self
                            .unresolved
                            .binary_search_by_key(&st.raw, |b| b.raw)
                            .ok()
                            .map(|i| &self.unresolved[i]);
                        if !bucket.is_some_and(|b| b.entries.contains(&(s as u32, off))) {
                            return Err(format!(
                                "dangling slot ({},{off}) missing from unresolved index",
                                slot.id
                            ));
                        }
                    }
                }
            }
        }
        for s in 0..n {
            if live[s] && self.slots[s].inbound.len() as u32 != inbound_seen[s] {
                return Err(format!(
                    "slot {s} has {} inbound entries but {} matching edges",
                    self.slots[s].inbound.len(),
                    inbound_seen[s]
                ));
            }
        }
        if edges != self.edge_count {
            return Err(format!("edge count {} != {}", self.edge_count, edges));
        }
        if dangling != self.dangling {
            return Err(format!("dangling count {} != {}", self.dangling, dangling));
        }
        let mut scratch = DegreeHistogram::new();
        for (s, &is_live) in live.iter().enumerate() {
            if !is_live {
                continue;
            }
            let info = self.slots[s].info;
            if info.indegree != indeg[s] || info.outdegree != outdeg[s] {
                return Err(format!(
                    "{} degrees ({},{}) != recomputed ({},{})",
                    self.slots[s].id, info.indegree, info.outdegree, indeg[s], outdeg[s]
                ));
            }
            scratch.add_node();
            scratch.change_degrees(0, indeg[s], 0, outdeg[s]);
        }
        if scratch != self.histogram {
            return Err("histogram mismatch".to_string());
        }
        Ok(())
    }

    /// Resolves a raw address to the dense slot of the live object
    /// containing it: one shadow-map lookup (bounds-verified, since the
    /// tail granule is claimed conservatively), then the spill index
    /// for objects the shadow map refused.
    #[inline]
    fn resolve(&self, raw: u64) -> Option<u32> {
        if let Some(s) = self.shadow.lookup(raw) {
            let slot = &self.slots[s as usize];
            if slot.start <= raw && raw < slot.end {
                return Some(s);
            }
        }
        if self.spill.is_empty() {
            return None;
        }
        let idx = self.spill.partition_point(|r| r.start <= raw);
        let i = idx.checked_sub(1)?;
        let r = self.spill.get(i)?;
        (raw < r.end).then_some(r.slot)
    }

    /// Mutable access to out-slot `(src, off)`, by binary search.
    fn slot_mut(slots: &mut [NodeSlot], src: u32, off: u64) -> Option<&mut SlotState> {
        let out = &mut slots[src as usize].out;
        let pos = out.binary_search_by_key(&off, |&(o, _)| o).ok()?;
        Some(&mut out[pos].1)
    }

    /// Adjusts a live node's degrees by the given deltas, keeping the
    /// histogram consistent.
    fn adjust(&mut self, slot: u32, din: i32, dout: i32) {
        let info = &mut self.slots[slot as usize].info;
        let (old_in, old_out) = (info.indegree, info.outdegree);
        info.indegree = info
            .indegree
            .checked_add_signed(din)
            .expect("indegree underflow");
        info.outdegree = info
            .outdegree
            .checked_add_signed(dout)
            .expect("outdegree underflow");
        let (new_in, new_out) = (info.indegree, info.outdegree);
        self.histogram
            .change_degrees(old_in, new_in, old_out, new_out);
    }

    /// Removes the slot `(src, offset)` if present, undoing its edge or
    /// dangling registration.
    fn drop_slot(&mut self, src: u32, offset: u64) {
        let out = &mut self.slots[src as usize].out;
        let Ok(pos) = out.binary_search_by_key(&offset, |&(o, _)| o) else {
            return;
        };
        let (_, st) = out.remove(pos);
        match st.target {
            Some(t) => {
                self.edge_count -= 1;
                let inb = &mut self.slots[t as usize].inbound;
                if let Some(p) = inb.iter().position(|&e| e == (src, offset)) {
                    inb.swap_remove(p);
                }
                if t == src {
                    self.adjust(src, -1, -1);
                } else {
                    self.adjust(src, 0, -1);
                    self.adjust(t, -1, 0);
                }
            }
            None => {
                self.dangling -= 1;
                self.remove_unresolved(st.raw, src, offset);
            }
        }
    }

    fn insert_unresolved(&mut self, raw: u64, src: u32, off: u64) {
        match self.unresolved.binary_search_by_key(&raw, |b| b.raw) {
            Ok(i) => self.unresolved[i].entries.push((src, off)),
            Err(i) => self.unresolved.insert(
                i,
                Bucket {
                    raw,
                    entries: vec![(src, off)],
                },
            ),
        }
    }

    fn remove_unresolved(&mut self, raw: u64, src: u32, off: u64) {
        if let Ok(i) = self.unresolved.binary_search_by_key(&raw, |b| b.raw) {
            let entries = &mut self.unresolved[i].entries;
            if let Some(p) = entries.iter().position(|&e| e == (src, off)) {
                entries.swap_remove(p);
            }
            if entries.is_empty() {
                self.unresolved.remove(i);
            }
        }
    }
}

/// Kept for `ledger/src/layers.rs:188` only; ROADMAP item 1 deletes it.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct ShardedGraph(HeapGraph);
impl ShardedGraph {
    pub fn new(_shards: usize) -> Self {
        ShardedGraph::default()
    }
    pub fn apply_batch(&mut self, events: &[HeapEvent]) {
        self.0.apply_batch(events);
    }
    pub fn node_count(&self) -> u64 {
        self.0.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_heap::{AllocSite, SimHeap};

    /// A heap+graph pair kept in lockstep.
    struct Rig {
        heap: SimHeap,
        graph: HeapGraph,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                heap: SimHeap::new(),
                graph: HeapGraph::new(),
            }
        }

        fn alloc(&mut self, size: usize) -> Addr {
            let eff = self.heap.alloc(size, AllocSite(0)).unwrap();
            self.graph.on_alloc(eff.id, eff.addr, eff.size);
            eff.addr
        }

        fn free(&mut self, addr: Addr) {
            let eff = self.heap.free(addr).unwrap();
            self.graph.on_free(eff.id);
        }

        fn link(&mut self, slot: Addr, target: Addr) {
            let w = self.heap.write_ptr(slot, target).unwrap();
            self.graph.on_ptr_write(w.src, w.offset, target);
        }

        fn check(&self) {
            self.graph.validate().expect("graph invariants");
        }
    }

    #[test]
    fn single_edge_degrees() {
        let mut r = Rig::new();
        let a = r.alloc(24);
        let b = r.alloc(24);
        r.link(a, b);
        r.check();
        assert_eq!(r.graph.edge_count(), 1);
        let ia = r.heap.object_at(a).unwrap().id();
        let ib = r.heap.object_at(b).unwrap().id();
        assert_eq!(r.graph.node(ia).unwrap().outdegree, 1);
        assert_eq!(r.graph.node(ib).unwrap().indegree, 1);
    }

    #[test]
    fn overwrite_moves_edge() {
        let mut r = Rig::new();
        let a = r.alloc(24);
        let b = r.alloc(24);
        let c = r.alloc(24);
        r.link(a, b);
        r.link(a, c); // same slot, new target
        r.check();
        assert_eq!(r.graph.edge_count(), 1);
        let ib = r.heap.object_at(b).unwrap().id();
        let ic = r.heap.object_at(c).unwrap().id();
        assert_eq!(r.graph.node(ib).unwrap().indegree, 0);
        assert_eq!(r.graph.node(ic).unwrap().indegree, 1);
    }

    #[test]
    fn null_store_clears_edge() {
        let mut r = Rig::new();
        let a = r.alloc(24);
        let b = r.alloc(24);
        r.link(a, b);
        r.link(a, sim_heap::NULL);
        r.check();
        assert_eq!(r.graph.edge_count(), 0);
        assert_eq!(r.graph.dangling_count(), 0);
    }

    #[test]
    fn free_target_dangles_then_rebinds() {
        let mut r = Rig::new();
        let a = r.alloc(24);
        let b = r.alloc(24);
        r.link(a, b);
        r.free(b);
        r.check();
        assert_eq!(r.graph.edge_count(), 0);
        assert_eq!(r.graph.dangling_count(), 1);
        // Same size class ⇒ same address comes back; slot re-binds.
        let c = r.alloc(24);
        assert_eq!(c, b, "address recycled");
        r.check();
        assert_eq!(r.graph.edge_count(), 1);
        assert_eq!(r.graph.dangling_count(), 0);
        let ic = r.heap.object_at(c).unwrap().id();
        assert_eq!(r.graph.node(ic).unwrap().indegree, 1);
    }

    /// An object longer than the shadow map's bound lives in the spill
    /// index: a pointer into its interior still makes an edge to it,
    /// and its span materializes no shadow.
    #[test]
    fn interior_pointers_into_huge_objects_resolve_through_the_spill_index() {
        let mut g = HeapGraph::new();
        let (small, huge) = (ObjectId(1), ObjectId(2));
        let base = 1u64 << 36;
        g.on_alloc(small, Addr::new(0x1000), 16);
        g.on_alloc(huge, Addr::new(base), 1 << 38);
        g.on_ptr_write(small, 0, Addr::new(base + (1 << 37)));
        g.validate().expect("graph invariants");
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node(huge).unwrap().indegree, 1);
        assert!(g.shadow.shadow_bytes() < 1 << 20);
        g.on_free(huge);
        g.validate().expect("graph invariants");
        assert_eq!((g.edge_count(), g.dangling_count()), (0, 1));
    }

    #[test]
    fn interior_pointers_make_edges() {
        let mut r = Rig::new();
        let a = r.alloc(24);
        let b = r.alloc(64);
        r.link(a, b.offset(32));
        r.check();
        assert_eq!(r.graph.edge_count(), 1);
        let ib = r.heap.object_at(b).unwrap().id();
        assert_eq!(r.graph.node(ib).unwrap().indegree, 1);
    }

    #[test]
    fn self_edges_count_both_degrees() {
        let mut r = Rig::new();
        let a = r.alloc(24);
        r.link(a, a);
        r.check();
        let ia = r.heap.object_at(a).unwrap().id();
        let info = r.graph.node(ia).unwrap();
        assert_eq!(info.indegree, 1);
        assert_eq!(info.outdegree, 1);
        assert!(info.is_balanced());
        r.free(a);
        r.check();
        assert_eq!(r.graph.node_count(), 0);
        assert_eq!(r.graph.edge_count(), 0);
        assert_eq!(r.graph.dangling_count(), 0);
    }

    #[test]
    fn free_source_drops_outgoing_edges() {
        let mut r = Rig::new();
        let a = r.alloc(24);
        let b = r.alloc(24);
        r.link(a, b);
        r.free(a);
        r.check();
        let ib = r.heap.object_at(b).unwrap().id();
        assert_eq!(r.graph.node(ib).unwrap().indegree, 0);
        assert_eq!(r.graph.edge_count(), 0);
        assert_eq!(r.graph.dangling_count(), 0);
    }

    #[test]
    fn parallel_edges_count_with_multiplicity() {
        let mut r = Rig::new();
        let a = r.alloc(32);
        let b = r.alloc(24);
        r.link(a, b);
        r.link(a.offset(8), b);
        r.check();
        assert_eq!(r.graph.edge_count(), 2);
        let ib = r.heap.object_at(b).unwrap().id();
        assert_eq!(r.graph.node(ib).unwrap().indegree, 2);
    }

    #[test]
    fn linked_list_metrics() {
        // A 10-node singly linked list: head has indeg 0, tail outdeg 0.
        let mut r = Rig::new();
        let nodes: Vec<Addr> = (0..10).map(|_| r.alloc(16)).collect();
        for w in nodes.windows(2) {
            r.link(w[0].offset(8), w[1]);
        }
        r.check();
        let m = r.graph.metrics();
        assert_eq!(m.get(crate::MetricKind::Roots), 10.0);
        assert_eq!(m.get(crate::MetricKind::Indeg1), 90.0);
        assert_eq!(m.get(crate::MetricKind::Leaves), 10.0);
        assert_eq!(m.get(crate::MetricKind::Outdeg1), 90.0);
        // 8 interior nodes have in=out=1 — plus neither endpoint.
        assert_eq!(m.get(crate::MetricKind::InEqOut), 80.0);
    }

    #[test]
    fn scalar_write_clears_slot() {
        let mut r = Rig::new();
        let a = r.alloc(24);
        let b = r.alloc(24);
        r.link(a, b);
        let w = r.heap.write_scalar(a).unwrap();
        r.graph.on_scalar_write(w.src, w.offset);
        r.check();
        assert_eq!(r.graph.edge_count(), 0);
    }

    #[test]
    fn slots_recycle_after_free() {
        // alloc/free churn must reuse slab slots instead of growing it.
        let mut r = Rig::new();
        for _ in 0..64 {
            let a = r.alloc(24);
            let b = r.alloc(24);
            r.link(a, b);
            r.free(a);
            r.free(b);
        }
        r.check();
        assert_eq!(r.graph.node_count(), 0);
        assert!(
            r.graph.slots.len() <= 4,
            "slab grew to {} slots under churn",
            r.graph.slots.len()
        );
    }

    #[test]
    fn apply_event_stream_equivalent_to_direct_calls() {
        let mut heap = SimHeap::new();
        let mut g = HeapGraph::new();
        let a = heap.alloc(24, AllocSite(0)).unwrap();
        let b = heap.alloc(24, AllocSite(0)).unwrap();
        g.apply(&HeapEvent::Alloc {
            obj: a.id,
            addr: a.addr,
            size: a.size,
            site: AllocSite(0),
        });
        g.apply(&HeapEvent::Alloc {
            obj: b.id,
            addr: b.addr,
            size: b.size,
            site: AllocSite(0),
        });
        g.apply(&HeapEvent::PtrWrite {
            src: a.id,
            offset: 0,
            value: b.addr,
            old_value: None,
        });
        g.apply(&HeapEvent::Read { obj: a.id });
        g.apply(&HeapEvent::FnEnter { func: 1 });
        assert_eq!(g.edge_count(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn apply_batch_equivalent_to_per_event_apply() {
        let mut heap = SimHeap::new();
        let a = heap.alloc(24, AllocSite(0)).unwrap();
        let b = heap.alloc(24, AllocSite(0)).unwrap();
        let events = vec![
            HeapEvent::Alloc {
                obj: a.id,
                addr: a.addr,
                size: a.size,
                site: AllocSite(0),
            },
            HeapEvent::Alloc {
                obj: b.id,
                addr: b.addr,
                size: b.size,
                site: AllocSite(0),
            },
            HeapEvent::PtrWrite {
                src: a.id,
                offset: 8,
                value: b.addr,
                old_value: None,
            },
            HeapEvent::Free {
                obj: b.id,
                addr: b.addr,
                size: 24,
            },
        ];
        let mut one_by_one = HeapGraph::new();
        for ev in &events {
            one_by_one.apply(ev);
        }
        let mut batched = HeapGraph::new();
        batched.apply_batch(&events);
        batched.validate().unwrap();
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
        assert_eq!(batched.dangling_count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate allocation")]
    fn duplicate_alloc_panics() {
        let mut g = HeapGraph::new();
        g.on_alloc(ObjectId(1), Addr::new(0x100), 16);
        g.on_alloc(ObjectId(1), Addr::new(0x200), 16);
    }

    #[test]
    fn snapshot_reflects_state() {
        let mut r = Rig::new();
        let a = r.alloc(24);
        let b = r.alloc(24);
        r.link(a, b);
        let s = r.graph.snapshot();
        assert_eq!(s.nodes, 2);
        assert_eq!(s.edges, 1);
        assert_eq!(s.dangling, 0);
        assert_eq!(s.metrics, r.graph.metrics());
    }

    #[test]
    fn extended_metrics_count_nodes_and_edges() {
        let mut r = Rig::new();
        let a = r.alloc(32);
        let b = r.alloc(32);
        r.link(a, b);
        r.link(a.offset(8), b);
        let e = r.graph.extended_metrics();
        assert_eq!(e.nodes, 2);
        assert_eq!(e.edges, 2);
        assert_eq!(e.dangling_slots, 0);
    }

    #[test]
    fn overlapping_allocations_are_refused_as_the_reference_refuses_them() {
        use crate::ReferenceGraph;
        let alloc = |obj, addr, size| HeapEvent::Alloc {
            obj: ObjectId(obj),
            addr: Addr::new(addr),
            size,
            site: AllocSite(0),
        };
        let store = |src, offset, value| HeapEvent::PtrWrite {
            src: ObjectId(src),
            offset,
            value: Addr::new(value),
            old_value: None,
        };
        let free = |obj| HeapEvent::Free {
            obj: ObjectId(obj),
            addr: Addr::new(0),
            size: 0,
        };
        // Objects over 1 MiB live in the spill index; the first eight
        // events once underflowed a degree.
        let big = 1_048_640;
        let events = [
            (alloc(0, 4144, big), None),
            (store(0, 8, 4176), None),
            (
                alloc(1, 4144, big),
                Some(ApplyError::OverlappingAlloc(ObjectId(1))),
            ),
            (free(0), None),
            (
                store(1, 8, 4144),
                Some(ApplyError::WriteIntoUnknown(ObjectId(1))),
            ),
            (alloc(2, 4128, 32), None),
            (free(1), Some(ApplyError::FreeOfUnknown(ObjectId(1)))),
            (free(2), None),
            // Shadow-held, empty and unaligned objects.
            (alloc(3, 0x2000, 32), None),
            (
                alloc(4, 0x2010, 8),
                Some(ApplyError::OverlappingAlloc(ObjectId(4))),
            ),
            (alloc(5, 0x2020, 0), None),
            (
                alloc(6, 0x2020, 16),
                Some(ApplyError::OverlappingAlloc(ObjectId(6))),
            ),
            (
                alloc(7, 0x1ff8, 0x30),
                Some(ApplyError::OverlappingAlloc(ObjectId(7))),
            ),
            (alloc(8, 0x2024, 4), None),
            (store(3, 8, 0x2024), None),
            (store(8, 0, 0x2000), None),
            (alloc(9, 0x4000_0000, big), None),
            (
                alloc(10, 0x4000_0000 + big as u64 - 8, 8),
                Some(ApplyError::OverlappingAlloc(ObjectId(10))),
            ),
            (free(5), None),
            (alloc(11, 0x2020, 4), None),
        ];
        let mut refg = ReferenceGraph::new();
        let mut graph = HeapGraph::new();
        for (ev, err) in events {
            assert_eq!(refg.try_apply(&ev).err(), err, "reference on {ev:?}");
            assert_eq!(graph.try_apply(&ev).err(), err, "{ev:?}");
            assert_eq!(graph.snapshot(), refg.snapshot(), "after {ev:?}");
        }
        graph.validate().expect("graph invariants");
        assert_eq!(refg.edge_count(), 2);
    }
}
