//! Address-range-sharded heap-graph with cross-shard reconciliation.
//!
//! [`ShardedGraph`] partitions [`HeapGraph`]'s *storage* — the node
//! slab, free list, and degree histogram — across N shards keyed by the
//! owning object's start address (`shard_of(start, n)`, region
//! granularity). The *relational* state stays sequential: the shadow
//! map, spill index, id intern map, and unresolved-slot buckets are
//! global, because pointer resolution and address re-binding couple
//! every shard to every other through address reuse (an allocation in
//! shard 2 can re-bind a dangling slot whose source node lives in shard
//! 5). Partitioning the counting state while keeping one sequential
//! resolver is what makes shard count *invisible*: every observable —
//! snapshots, histograms, the seven paper metrics, verdicts — is
//! bit-identical to the single-shard graph by construction, which the
//! differential suites assert over shard sweeps.
//!
//! Cross-shard edges are tracked in an N×N edge table indexed by
//! `(source shard, target shard)`; the table's diagonal holds
//! intra-shard edges, so the total edge count is the table sum and the
//! table is *reconciled* — summed, and the per-shard histograms merged
//! (exact, since every histogram counter is additive over the disjoint
//! node partition) — at metric computation points rather than on every
//! event.
//!
//! Node references are packed `u32`s: the high [`SHARD_BITS`] bits name
//! the shard, the low bits the slot within its slab. The
//! [`SHADOW_EMPTY`] sentinel (`u32::MAX`) unpacks to shard 255, which
//! [`MAX_SHARDS`] keeps unreachable, so packed refs drop into the
//! shadow map unchanged.

use crate::graph::{
    footprint_end, spill_overlaps, ApplyError, Bucket, GraphSnapshot, HeapGraph, IdIndex, NodeSlot,
    Range, SlotState,
};
use crate::histogram::DegreeHistogram;
use crate::metrics::{ExtendedMetrics, MetricVector};
use crate::node::NodeInfo;
use sim_heap::{shard_of, Addr, HeapEvent, ObjectId, ShadowMap};

/// High bits of a packed node reference that carry the shard index.
pub const SHARD_BITS: u32 = 8;
/// Low bits carrying the slot index within a shard's slab.
pub const SLOT_BITS: u32 = 32 - SHARD_BITS;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// Upper bound on the shard count (power-of-two headroom below the 255
/// sentinel shard that [`sim_heap::SHADOW_EMPTY`] unpacks to).
pub const MAX_SHARDS: usize = 64;

#[inline]
fn pack(shard: usize, slot: u32) -> u32 {
    debug_assert!(shard < MAX_SHARDS);
    debug_assert!(slot <= SLOT_MASK);
    ((shard as u32) << SLOT_BITS) | slot
}

#[inline]
fn shard_of_ref(r: u32) -> usize {
    (r >> SLOT_BITS) as usize
}

#[inline]
fn slot_of_ref(r: u32) -> usize {
    (r & SLOT_MASK) as usize
}

/// Storage owned by one shard: the slab for nodes whose start address
/// hashes here, plus the partitioned counters.
#[derive(Debug, Clone, Default)]
struct Shard {
    slots: Vec<NodeSlot>,
    free: Vec<u32>,
    /// Degree histogram over this shard's live nodes.
    histogram: DegreeHistogram,
    /// Live nodes owned by this shard.
    live: u64,
    /// Dangling pointer slots whose *source* node lives here.
    dangling: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            histogram: DegreeHistogram::new(),
            ..Shard::default()
        }
    }
}

/// The sharded heap-graph image.
///
/// Same event semantics as [`HeapGraph`] — the differential test suites
/// assert bit-identical snapshots, histograms, and metrics across shard
/// counts — with storage partitioned for pipelined ingestion.
///
/// # Example
///
/// ```
/// use heap_graph::{HeapGraph, ShardedGraph};
/// use sim_heap::{AllocSite, SimHeap};
///
/// # fn main() -> Result<(), sim_heap::HeapError> {
/// let mut heap = SimHeap::new();
/// let mut single = HeapGraph::new();
/// let mut sharded = ShardedGraph::new(4);
/// let a = heap.alloc(24, AllocSite(0))?;
/// let b = heap.alloc(24, AllocSite(0))?;
/// for g in [&mut single] { g.on_alloc(a.id, a.addr, a.size); g.on_alloc(b.id, b.addr, b.size); }
/// sharded.on_alloc(a.id, a.addr, a.size);
/// sharded.on_alloc(b.id, b.addr, b.size);
/// let w = heap.write_ptr(a.addr, b.addr)?;
/// single.on_ptr_write(w.src, w.offset, b.addr);
/// sharded.on_ptr_write(w.src, w.offset, b.addr);
/// assert_eq!(sharded.snapshot(), single.snapshot());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    /// Sequential resolver state (shared across shards).
    index: IdIndex,
    shadow: ShadowMap,
    spill: Vec<Range>,
    unresolved: Vec<Bucket>,
    /// Partitioned storage.
    shards: Vec<Shard>,
    /// N×N edge counts indexed `src_shard * n + tgt_shard`; diagonal =
    /// intra-shard.
    xshard: Vec<u64>,
    /// Last reconciled histogram (see [`reconcile`](Self::reconcile)).
    merged: DegreeHistogram,
}

impl ShardedGraph {
    /// Creates an empty graph over `n` shards (clamped to
    /// `1..=`[`MAX_SHARDS`]).
    pub fn new(n: usize) -> Self {
        let n = n.clamp(1, MAX_SHARDS);
        ShardedGraph {
            index: IdIndex::default(),
            shadow: ShadowMap::new(),
            spill: Vec::new(),
            unresolved: Vec::new(),
            shards: (0..n).map(|_| Shard::new()).collect(),
            xshard: vec![0; n * n],
            merged: DegreeHistogram::new(),
        }
    }

    /// Returns the graph to its empty state while retaining the
    /// dominant allocations in every shard (slot slabs, free lists)
    /// plus the shared resolver state (id index, shadow pages) — the
    /// sharded counterpart of [`HeapGraph::reset`].
    pub fn reset(&mut self) {
        self.index.clear();
        self.shadow.clear();
        self.spill.clear();
        self.unresolved.clear();
        for shard in &mut self.shards {
            shard.slots.clear();
            shard.free.clear();
            shard.histogram = DegreeHistogram::new();
            shard.live = 0;
            shard.dangling = 0;
        }
        self.xshard.fill(0);
        self.merged = DegreeHistogram::new();
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live vertexes (exact at any time).
    pub fn node_count(&self) -> u64 {
        self.shards.iter().map(|s| s.live).sum()
    }

    /// Resolved edges (sum of the cross-shard edge table).
    pub fn edge_count(&self) -> u64 {
        self.xshard.iter().sum()
    }

    /// Edges whose endpoints live in different shards (off-diagonal sum
    /// of the edge table).
    pub fn cross_shard_edges(&self) -> u64 {
        let n = self.shards.len();
        let mut total = 0;
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    total += self.xshard[s * n + t];
                }
            }
        }
        total
    }

    /// Dangling pointer slots.
    pub fn dangling_count(&self) -> u64 {
        self.shards.iter().map(|s| s.dangling).sum()
    }

    /// Per-shard live-node counts (observability).
    pub fn shard_loads(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.live).collect()
    }

    /// Degree information for a live vertex.
    pub fn node(&self, id: ObjectId) -> Option<NodeInfo> {
        self.index.get(id).map(|r| self.slot(r).info)
    }

    /// Returns `true` if `id` is a live vertex.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.index.get(id).is_some()
    }

    /// The histogram as of the last [`reconcile`](Self::reconcile).
    pub fn histogram(&self) -> &DegreeHistogram {
        &self.merged
    }

    /// Merges the per-shard degree histograms into one. Exact, not
    /// approximate: shards partition the node set and every histogram
    /// counter is additive over disjoint sets.
    fn merged_now(&self) -> DegreeHistogram {
        let mut merged = DegreeHistogram::new();
        for shard in &self.shards {
            merged.merge(&shard.histogram);
        }
        merged
    }

    /// Refreshes the cached reconciled histogram served by
    /// [`histogram`](Self::histogram). Called at metric computation
    /// points.
    pub fn reconcile(&mut self) {
        self.merged = self.merged_now();
    }

    /// Computes the seven paper metrics from the reconciled histogram.
    pub fn metrics(&self) -> MetricVector {
        MetricVector::from_histogram(&self.merged_now())
    }

    /// The structural counters.
    pub fn extended_metrics(&self) -> ExtendedMetrics {
        ExtendedMetrics {
            nodes: self.node_count(),
            edges: self.edge_count(),
            dangling_slots: self.dangling_count(),
        }
    }

    /// A serializable summary of the current instant.
    pub fn snapshot(&self) -> GraphSnapshot {
        let metrics = self.metrics();
        GraphSnapshot {
            nodes: self.node_count(),
            edges: self.edge_count(),
            dangling: self.dangling_count(),
            metrics,
        }
    }

    /// Applies one instrumentation event (same contract as
    /// [`HeapGraph::apply`]).
    pub fn apply(&mut self, event: &HeapEvent) {
        self.try_apply(event).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Applies one instrumentation event or reports why it cannot (same
    /// contract as [`HeapGraph::try_apply`]).
    ///
    /// # Errors
    ///
    /// The [`ApplyError`] the event's object lookup found.
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

    /// Applies a recorded event slice (same contract as
    /// [`HeapGraph::apply_batch`]).
    pub fn apply_batch(&mut self, events: &[HeapEvent]) {
        for event in events {
            self.apply(event);
        }
    }

    /// Adds a vertex, re-binding dangling slots it covers. Mirrors
    /// [`HeapGraph::on_alloc`] with packed refs.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already live or the object ends past the last
    /// address.
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
        let n = self.shards.len();
        let owner = shard_of(start, n);
        // As in `HeapGraph`: claim the shadow before anything changes.
        let footprint = footprint_end(start, end);
        let local = match self.shards[owner].free.last() {
            Some(&s) => s,
            None => {
                let s = u32::try_from(self.shards[owner].slots.len()).expect("slab overflow");
                assert!(s <= SLOT_MASK, "shard slab overflow");
                s
            }
        };
        let r = pack(owner, local);
        if spill_overlaps(&self.spill, start, footprint) {
            return Err(ApplyError::OverlappingAlloc(id));
        }
        let spilled = !self.shadow.insert(start, end, r);
        if spilled
            && self.shadow.any_claim(start, footprint, |x| {
                let o = self.slot(x);
                o.start < footprint && start < o.end
            })
        {
            return Err(ApplyError::OverlappingAlloc(id));
        }
        if let Some(s) = self.shards[owner].free.pop() {
            let ns = &mut self.shards[owner].slots[s as usize];
            debug_assert!(ns.out.is_empty() && ns.inbound.is_empty());
            ns.id = id;
            ns.info = NodeInfo::new();
            ns.start = start;
            ns.end = end;
            ns.spilled = spilled;
        } else {
            self.shards[owner].slots.push(NodeSlot {
                id,
                info: NodeInfo::new(),
                start,
                end,
                spilled,
                out: Vec::new(),
                inbound: Vec::new(),
            });
        }
        let prev = self.index.insert(id, r);
        debug_assert!(prev.is_none(), "checked above");
        if spilled {
            let pos = self.spill.partition_point(|x| x.start < start);
            self.spill.insert(
                pos,
                Range {
                    start,
                    end,
                    slot: r,
                },
            );
        }
        self.shards[owner].live += 1;
        self.shards[owner].histogram.add_node();

        // Re-bind dangling slots now covered by this object.
        let lo = self.unresolved.partition_point(|b| b.raw < start);
        let hi = self.unresolved.partition_point(|b| b.raw < end);
        if lo < hi {
            let buckets: Vec<Bucket> = self.unresolved.drain(lo..hi).collect();
            for bucket in buckets {
                for (src, off) in bucket.entries {
                    let st = Self::slot_state_mut(&mut self.shards, src, off)
                        .expect("unresolved slot must exist in slot table");
                    debug_assert_eq!(st.target, None);
                    st.target = Some(r);
                    let src_sh = shard_of_ref(src);
                    self.shards[src_sh].dangling -= 1;
                    self.xshard[src_sh * n + owner] += 1;
                    self.shards[owner].slots[local as usize]
                        .inbound
                        .push((src, off));
                    if src == r {
                        self.adjust(r, 1, 1);
                    } else {
                        self.adjust(src, 0, 1);
                        self.adjust(r, 1, 0);
                    }
                }
            }
        }
        Ok(())
    }

    /// Removes a vertex. Mirrors [`HeapGraph::on_free`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn on_free(&mut self, id: ObjectId) {
        self.try_free(id).unwrap_or_else(|e| panic!("{e}"));
    }

    fn try_free(&mut self, id: ObjectId) -> Result<(), ApplyError> {
        let r = self.index.remove(id).ok_or(ApplyError::FreeOfUnknown(id))?;
        let (sh, sl) = (shard_of_ref(r), slot_of_ref(r));
        let n = self.shards.len();
        let info = self.shards[sh].slots[sl].info;
        self.shards[sh].live -= 1;
        self.shards[sh]
            .histogram
            .remove_node(info.indegree, info.outdegree);
        let (start, end) = (
            self.shards[sh].slots[sl].start,
            self.shards[sh].slots[sl].end,
        );
        if self.shards[sh].slots[sl].spilled {
            let pos = self.spill.partition_point(|x| x.start < start);
            debug_assert_eq!(self.spill[pos].slot, r);
            self.spill.remove(pos);
        } else {
            self.shadow.remove(start, end);
        }

        // Outgoing slots disappear with the object.
        let mut out = std::mem::take(&mut self.shards[sh].slots[sl].out);
        for &(off, st) in &out {
            match st.target {
                Some(t) => {
                    self.xshard[sh * n + shard_of_ref(t)] -= 1;
                    if t != r {
                        let inb = &mut self.shards[shard_of_ref(t)].slots[slot_of_ref(t)].inbound;
                        if let Some(p) = inb.iter().position(|&e| e == (r, off)) {
                            inb.swap_remove(p);
                        }
                        self.adjust(t, -1, 0);
                    }
                    // Self-edge: both endpoints die with the node.
                }
                None => {
                    self.remove_unresolved(st.raw, r, off);
                    self.shards[sh].dangling -= 1;
                }
            }
        }
        out.clear();
        self.shards[sh].slots[sl].out = out;

        // Incoming edges become dangling slots of their sources.
        let mut inbound = std::mem::take(&mut self.shards[sh].slots[sl].inbound);
        for &(src, off) in &inbound {
            if src == r {
                continue; // handled with the out-slots above
            }
            let st = Self::slot_state_mut(&mut self.shards, src, off)
                .expect("inbound edge has a source slot");
            debug_assert_eq!(st.target, Some(r));
            st.target = None;
            let raw = st.raw;
            let src_sh = shard_of_ref(src);
            self.xshard[src_sh * n + sh] -= 1;
            self.shards[src_sh].dangling += 1;
            self.insert_unresolved(raw, src, off);
            self.adjust(src, 0, -1);
        }
        inbound.clear();
        self.shards[sh].slots[sl].inbound = inbound;
        self.shards[sh].free.push(sl as u32);
        Ok(())
    }

    /// Records a pointer store. Mirrors [`HeapGraph::on_ptr_write`].
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a live vertex.
    pub fn on_ptr_write(&mut self, src: ObjectId, offset: u64, value: Addr) {
        self.try_ptr_write(src, offset, value)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn try_ptr_write(&mut self, src: ObjectId, offset: u64, value: Addr) -> Result<(), ApplyError> {
        let src_ref = self
            .index
            .get(src)
            .ok_or(ApplyError::WriteIntoUnknown(src))?;
        self.drop_slot(src_ref, offset);
        if value.is_null() {
            return Ok(());
        }
        let raw = value.get();
        let target = self.resolve(raw);
        let (src_sh, src_sl) = (shard_of_ref(src_ref), slot_of_ref(src_ref));
        let out = &mut self.shards[src_sh].slots[src_sl].out;
        let pos = out.partition_point(|&(o, _)| o < offset);
        out.insert(pos, (offset, SlotState { raw, target }));
        match target {
            Some(t) => {
                let n = self.shards.len();
                self.xshard[src_sh * n + shard_of_ref(t)] += 1;
                self.shards[shard_of_ref(t)].slots[slot_of_ref(t)]
                    .inbound
                    .push((src_ref, offset));
                if t == src_ref {
                    self.adjust(src_ref, 1, 1);
                } else {
                    self.adjust(src_ref, 0, 1);
                    self.adjust(t, 1, 0);
                }
            }
            None => {
                self.shards[src_sh].dangling += 1;
                self.insert_unresolved(raw, src_ref, offset);
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
        self.index.iter().flat_map(move |(src, r)| {
            self.slot(r)
                .out
                .iter()
                .filter_map(move |&(off, st)| st.target.map(|t| (src, off, self.slot(t).id)))
        })
    }

    /// Iterates over live vertex ids.
    pub fn node_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.index.iter().map(|(id, _)| id)
    }

    /// Checks the incremental bookkeeping for consistency (O(1)
    /// structural checks; full recount in debug/test builds or with the
    /// `full-validate` feature, as in [`HeapGraph::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.index.len() as u64 != self.node_count() {
            return Err(format!(
                "intern map has {} entries but shards count {} live nodes",
                self.index.len(),
                self.node_count()
            ));
        }
        let mut slab_live = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.free.len() > shard.slots.len() {
                return Err(format!(
                    "shard {i}: {} free slots for {} allocated",
                    shard.free.len(),
                    shard.slots.len()
                ));
            }
            slab_live += shard.slots.len() - shard.free.len();
        }
        if slab_live != self.index.len() {
            return Err(format!(
                "slab accounting broken: {} live across shards, {} interned",
                slab_live,
                self.index.len()
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

    /// O(n) recount: per-shard degree/dangling/edge-table recomputation
    /// from the slot tables.
    #[cfg(any(debug_assertions, test, feature = "full-validate"))]
    fn validate_full(&self) -> Result<(), String> {
        let n = self.shards.len();
        let mut xshard = vec![0u64; n * n];
        let mut dangling = vec![0u64; n];
        let mut hists: Vec<DegreeHistogram> = (0..n).map(|_| DegreeHistogram::new()).collect();
        for (id, r) in self.index.iter() {
            let (sh, sl) = (shard_of_ref(r), slot_of_ref(r));
            let slot = &self.shards[sh].slots[sl];
            if slot.id != id {
                return Err(format!("index maps {id} to ref {r:#x} holding {}", slot.id));
            }
            let mut outdeg = 0u32;
            for &(_, st) in &slot.out {
                match st.target {
                    Some(t) => {
                        xshard[sh * n + shard_of_ref(t)] += 1;
                        outdeg += 1;
                    }
                    None => dangling[sh] += 1,
                }
            }
            let indeg = u32::try_from(slot.inbound.len()).expect("indegree overflow");
            if slot.info.outdegree != outdeg || slot.info.indegree != indeg {
                return Err(format!(
                    "degrees of {id} are {:?}, recount gives in={indeg} out={outdeg}",
                    slot.info
                ));
            }
            hists[sh].add_node();
            hists[sh].change_degrees(0, indeg, 0, outdeg);
        }
        if xshard != self.xshard {
            return Err("cross-shard edge table mismatch".to_string());
        }
        for (i, shard) in self.shards.iter().enumerate() {
            if dangling[i] != shard.dangling {
                return Err(format!(
                    "shard {i} dangling count {} vs recount {}",
                    shard.dangling, dangling[i]
                ));
            }
            if hists[i] != shard.histogram {
                return Err(format!("shard {i} histogram mismatch"));
            }
        }
        Ok(())
    }

    #[inline]
    fn slot(&self, r: u32) -> &NodeSlot {
        &self.shards[shard_of_ref(r)].slots[slot_of_ref(r)]
    }

    /// Resolves a raw address to the packed ref of the live object
    /// containing it (shadow map, then spill index).
    #[inline]
    fn resolve(&self, raw: u64) -> Option<u32> {
        if let Some(r) = self.shadow.lookup(raw) {
            let slot = self.slot(r);
            if slot.start <= raw && raw < slot.end {
                return Some(r);
            }
        }
        if self.spill.is_empty() {
            return None;
        }
        let idx = self.spill.partition_point(|x| x.start <= raw);
        let i = idx.checked_sub(1)?;
        let x = self.spill.get(i)?;
        (raw < x.end).then_some(x.slot)
    }

    /// Mutable access to out-slot `(src, off)`, by binary search.
    fn slot_state_mut(shards: &mut [Shard], src: u32, off: u64) -> Option<&mut SlotState> {
        let out = &mut shards[shard_of_ref(src)].slots[slot_of_ref(src)].out;
        let pos = out.binary_search_by_key(&off, |&(o, _)| o).ok()?;
        Some(&mut out[pos].1)
    }

    /// Adjusts a live node's degrees, keeping its shard's histogram
    /// consistent.
    fn adjust(&mut self, r: u32, din: i32, dout: i32) {
        let sh = shard_of_ref(r);
        let info = &mut self.shards[sh].slots[slot_of_ref(r)].info;
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
        self.shards[sh]
            .histogram
            .change_degrees(old_in, new_in, old_out, new_out);
    }

    /// Removes the slot `(src, offset)` if present, undoing its edge or
    /// dangling registration.
    fn drop_slot(&mut self, src: u32, offset: u64) {
        let src_sh = shard_of_ref(src);
        let out = &mut self.shards[src_sh].slots[slot_of_ref(src)].out;
        let Ok(pos) = out.binary_search_by_key(&offset, |&(o, _)| o) else {
            return;
        };
        let (_, st) = out.remove(pos);
        match st.target {
            Some(t) => {
                let n = self.shards.len();
                self.xshard[src_sh * n + shard_of_ref(t)] -= 1;
                let inb = &mut self.shards[shard_of_ref(t)].slots[slot_of_ref(t)].inbound;
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
                self.shards[src_sh].dangling -= 1;
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

/// One heap-graph image, single-slab or sharded, behind a uniform
/// surface.
///
/// The replay and monitoring layers hold a `GraphImage` so a `--shards`
/// flag can switch storage layouts without touching any observer: both
/// variants produce bit-identical snapshots, histograms, and metrics
/// for the same event stream. `metrics`/`snapshot` take `&mut self`
/// because the sharded variant reconciles its per-shard state at these
/// metric computation points; the single variant reads are unchanged.
#[derive(Debug, Clone)]
pub enum GraphImage {
    /// The classic single-slab [`HeapGraph`].
    Single(HeapGraph),
    /// The address-range-sharded variant.
    Sharded(ShardedGraph),
}

impl GraphImage {
    /// Creates an image with the given shard count: `1` (or `0`) gives
    /// the single-slab graph — the legacy path, byte-for-byte — and
    /// anything larger the sharded one.
    pub fn new(shards: usize) -> Self {
        if shards <= 1 {
            GraphImage::Single(HeapGraph::new())
        } else {
            GraphImage::Sharded(ShardedGraph::new(shards))
        }
    }

    /// Shard count (1 for the single-slab variant).
    pub fn shard_count(&self) -> usize {
        match self {
            GraphImage::Single(_) => 1,
            GraphImage::Sharded(s) => s.shard_count(),
        }
    }

    /// Applies one instrumentation event, or leaves the image as it was
    /// and reports why the event cannot apply (see
    /// [`HeapGraph::try_apply`]).
    ///
    /// # Errors
    ///
    /// The [`ApplyError`] the event's object lookup found.
    #[inline]
    pub fn try_apply(&mut self, event: &HeapEvent) -> Result<(), ApplyError> {
        match self {
            GraphImage::Single(g) => g.try_apply(event),
            GraphImage::Sharded(s) => s.try_apply(event),
        }
    }

    /// Applies a recorded event slice.
    pub fn apply_batch(&mut self, events: &[HeapEvent]) {
        match self {
            GraphImage::Single(g) => g.apply_batch(events),
            GraphImage::Sharded(s) => s.apply_batch(events),
        }
    }

    /// Adds a vertex (see [`HeapGraph::on_alloc`]).
    pub fn on_alloc(&mut self, id: ObjectId, addr: Addr, size: usize) {
        match self {
            GraphImage::Single(g) => g.on_alloc(id, addr, size),
            GraphImage::Sharded(s) => s.on_alloc(id, addr, size),
        }
    }

    /// Removes a vertex (see [`HeapGraph::on_free`]).
    pub fn on_free(&mut self, id: ObjectId) {
        match self {
            GraphImage::Single(g) => g.on_free(id),
            GraphImage::Sharded(s) => s.on_free(id),
        }
    }

    /// Records a pointer store (see [`HeapGraph::on_ptr_write`]).
    pub fn on_ptr_write(&mut self, src: ObjectId, offset: u64, value: Addr) {
        match self {
            GraphImage::Single(g) => g.on_ptr_write(src, offset, value),
            GraphImage::Sharded(s) => s.on_ptr_write(src, offset, value),
        }
    }

    /// Records a non-pointer store (see [`HeapGraph::on_scalar_write`]).
    pub fn on_scalar_write(&mut self, src: ObjectId, offset: u64) {
        match self {
            GraphImage::Single(g) => g.on_scalar_write(src, offset),
            GraphImage::Sharded(s) => s.on_scalar_write(src, offset),
        }
    }

    /// Live vertexes.
    pub fn node_count(&self) -> u64 {
        match self {
            GraphImage::Single(g) => g.node_count(),
            GraphImage::Sharded(s) => s.node_count(),
        }
    }

    /// Resolved edges.
    pub fn edge_count(&self) -> u64 {
        match self {
            GraphImage::Single(g) => g.edge_count(),
            GraphImage::Sharded(s) => s.edge_count(),
        }
    }

    /// Dangling pointer slots.
    pub fn dangling_count(&self) -> u64 {
        match self {
            GraphImage::Single(g) => g.dangling_count(),
            GraphImage::Sharded(s) => s.dangling_count(),
        }
    }

    /// The seven paper metrics.
    pub fn metrics(&self) -> MetricVector {
        match self {
            GraphImage::Single(g) => g.metrics(),
            GraphImage::Sharded(s) => s.metrics(),
        }
    }

    /// The structural counters and the seven paper metrics of the
    /// reconciled histogram, computed once: call
    /// [`reconcile`](Self::reconcile) first.
    pub fn measure(&self) -> (ExtendedMetrics, MetricVector) {
        let _t = heapmd_obs::timer!("heap_graph_metrics_ns");
        let ext = match self {
            GraphImage::Single(g) => g.extended_metrics(),
            GraphImage::Sharded(s) => s.extended_metrics(),
        };
        (ext, MetricVector::from_histogram(self.histogram()))
    }

    /// A serializable summary of the current instant.
    pub fn snapshot(&self) -> GraphSnapshot {
        match self {
            GraphImage::Single(g) => g.snapshot(),
            GraphImage::Sharded(s) => s.snapshot(),
        }
    }

    /// Refreshes the sharded variant's cached reconciled histogram (a
    /// no-op for the single-slab variant, whose histogram is always
    /// live). Call at metric computation points before handing the
    /// image to observers that read [`histogram`](Self::histogram).
    pub fn reconcile(&mut self) {
        if let GraphImage::Sharded(s) = self {
            s.reconcile();
        }
    }

    /// Returns the image to its empty state while retaining the
    /// variant's dominant allocations (see [`HeapGraph::reset`] /
    /// [`ShardedGraph::reset`]).
    pub fn reset(&mut self) {
        match self {
            GraphImage::Single(g) => g.reset(),
            GraphImage::Sharded(s) => s.reset(),
        }
    }

    /// Degree information for a live vertex.
    pub fn node(&self, id: ObjectId) -> Option<NodeInfo> {
        match self {
            GraphImage::Single(g) => g.node(id),
            GraphImage::Sharded(s) => s.node(id),
        }
    }

    /// Returns `true` if `id` is a live vertex.
    pub fn contains(&self, id: ObjectId) -> bool {
        match self {
            GraphImage::Single(g) => g.contains(id),
            GraphImage::Sharded(s) => s.contains(id),
        }
    }

    /// The degree histogram: live for the single variant, as of the
    /// last reconcile for the sharded one. Observers read this at
    /// metric computation points, which reconcile first.
    pub fn histogram(&self) -> &DegreeHistogram {
        match self {
            GraphImage::Single(g) => g.histogram(),
            GraphImage::Sharded(s) => s.histogram(),
        }
    }

    /// Checks internal bookkeeping for consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            GraphImage::Single(g) => g.validate(),
            GraphImage::Sharded(s) => s.validate(),
        }
    }

    /// The single-slab graph, if that's the active variant.
    pub fn as_single(&self) -> Option<&HeapGraph> {
        match self {
            GraphImage::Single(g) => Some(g),
            GraphImage::Sharded(_) => None,
        }
    }

    /// The sharded graph, if that's the active variant.
    pub fn as_sharded(&self) -> Option<&ShardedGraph> {
        match self {
            GraphImage::Single(_) => None,
            GraphImage::Sharded(s) => Some(s),
        }
    }
}

impl Default for GraphImage {
    fn default() -> Self {
        GraphImage::Single(HeapGraph::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_heap::{AllocSite, SimHeap};

    /// A heap driving a single and a sharded graph in lockstep.
    struct Rig {
        heap: SimHeap,
        single: HeapGraph,
        sharded: ShardedGraph,
    }

    impl Rig {
        fn new(shards: usize) -> Self {
            Rig {
                heap: SimHeap::new(),
                single: HeapGraph::new(),
                sharded: ShardedGraph::new(shards),
            }
        }

        fn alloc(&mut self, size: usize) -> Addr {
            let eff = self.heap.alloc(size, AllocSite(0)).unwrap();
            self.single.on_alloc(eff.id, eff.addr, eff.size);
            self.sharded.on_alloc(eff.id, eff.addr, eff.size);
            eff.addr
        }

        fn free(&mut self, addr: Addr) {
            let eff = self.heap.free(addr).unwrap();
            self.single.on_free(eff.id);
            self.sharded.on_free(eff.id);
        }

        fn link(&mut self, slot: Addr, target: Addr) {
            let w = self.heap.write_ptr(slot, target).unwrap();
            self.single.on_ptr_write(w.src, w.offset, target);
            self.sharded.on_ptr_write(w.src, w.offset, target);
        }

        fn check(&mut self) {
            self.single.validate().unwrap();
            self.sharded.validate().unwrap();
            assert_eq!(self.sharded.snapshot(), self.single.snapshot());
            self.sharded.reconcile();
            assert_eq!(self.sharded.histogram(), self.single.histogram());
            assert_eq!(self.sharded.metrics(), self.single.metrics());
        }
    }

    #[test]
    fn lockstep_chain_build_and_teardown() {
        for shards in [1, 2, 3, 8] {
            let mut rig = Rig::new(shards);
            let mut nodes = Vec::new();
            let mut prev: Option<Addr> = None;
            for i in 0..200 {
                let a = rig.alloc(16 + (i % 5) * 8);
                if let Some(p) = prev {
                    rig.link(a, p);
                }
                prev = Some(a);
                nodes.push(a);
                if i % 7 == 6 {
                    let victim = nodes.remove(i % nodes.len());
                    if Some(victim) != prev {
                        rig.free(victim);
                    }
                    rig.check();
                }
            }
            rig.check();
            // Dangling + re-bind churn: free half, then reallocate.
            let survivors: Vec<Addr> = nodes.drain(..nodes.len() / 2).collect();
            for a in survivors {
                if Some(a) != prev {
                    rig.free(a);
                }
            }
            rig.check();
            for _ in 0..40 {
                let a = rig.alloc(24);
                nodes.push(a);
            }
            rig.check();
        }
    }

    #[test]
    fn cross_shard_edges_are_counted() {
        let mut rig = Rig::new(4);
        let mut addrs = Vec::new();
        for _ in 0..64 {
            addrs.push(rig.alloc(4096)); // spread across regions
        }
        for pair in addrs.windows(2) {
            rig.link(pair[0], pair[1]);
        }
        rig.check();
        assert_eq!(rig.sharded.edge_count(), 63);
        assert!(
            rig.sharded.cross_shard_edges() > 0,
            "4096-byte objects must land in multiple regions/shards"
        );
    }

    #[test]
    fn events_on_unknown_objects_are_refused_and_change_nothing() {
        let (obj, addr) = (ObjectId(3), Addr::new(0x1000));
        let alloc = |obj, addr, size| HeapEvent::Alloc {
            obj,
            addr,
            size,
            site: AllocSite(0),
        };
        for mut img in [GraphImage::new(1), GraphImage::new(3)] {
            img.try_apply(&alloc(obj, addr, 32)).unwrap();
            let before = img.snapshot();
            let stray = ObjectId(564);
            let refused = [
                (
                    HeapEvent::PtrWrite {
                        src: stray,
                        offset: 0,
                        value: addr,
                        old_value: None,
                    },
                    ApplyError::WriteIntoUnknown(stray),
                ),
                (
                    HeapEvent::Free {
                        obj: stray,
                        addr,
                        size: 32,
                    },
                    ApplyError::FreeOfUnknown(stray),
                ),
                (
                    alloc(obj, Addr::new(0x2000), 32),
                    ApplyError::DuplicateAlloc(obj),
                ),
                (
                    alloc(stray, Addr::new(u64::MAX - 8), 32),
                    ApplyError::AddressOverflow(stray),
                ),
            ];
            for (ev, err) in refused {
                assert_eq!(img.try_apply(&ev), Err(err));
                assert_eq!(img.snapshot(), before);
            }
        }
        assert_eq!(
            ApplyError::WriteIntoUnknown(ObjectId(564)).to_string(),
            "write into unknown obj#564"
        );
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
        let mut images = [GraphImage::new(1), GraphImage::new(3)];
        for (ev, err) in events {
            assert_eq!(refg.try_apply(&ev).err(), err, "reference on {ev:?}");
            for img in &mut images {
                assert_eq!(img.try_apply(&ev).err(), err, "{ev:?}");
                assert_eq!(img.snapshot(), refg.snapshot(), "after {ev:?}");
            }
        }
        assert_eq!(refg.edge_count(), 2);
    }

    #[test]
    fn graph_image_variants_agree() {
        let mut heap = SimHeap::new();
        let mut images = [GraphImage::new(1), GraphImage::new(3)];
        let mut prev: Option<Addr> = None;
        for _ in 0..100 {
            let eff = heap.alloc(32, AllocSite(0)).unwrap();
            for img in &mut images {
                img.try_apply(&HeapEvent::Alloc {
                    obj: eff.id,
                    addr: eff.addr,
                    size: eff.size,
                    site: AllocSite(0),
                })
                .unwrap();
            }
            if let Some(p) = prev {
                let w = heap.write_ptr(eff.addr, p).unwrap();
                for img in &mut images {
                    img.try_apply(&HeapEvent::PtrWrite {
                        src: w.src,
                        offset: w.offset,
                        value: p,
                        old_value: None,
                    })
                    .unwrap();
                }
            }
            prev = Some(eff.addr);
        }
        let [a, mut b] = images;
        assert_eq!(a.shard_count(), 1);
        assert_eq!(b.shard_count(), 3);
        assert_eq!(a.snapshot(), b.snapshot());
        b.reconcile();
        assert_eq!(a.histogram(), b.histogram());
        a.validate().unwrap();
        b.validate().unwrap();
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(ShardedGraph::new(0).shard_count(), 1);
        assert_eq!(ShardedGraph::new(1000).shard_count(), MAX_SHARDS);
    }
}
