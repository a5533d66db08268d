//! The original map-based heap-graph, retained as a differential-testing
//! oracle for the dense-slab [`HeapGraph`](crate::HeapGraph).
//!
//! This is the implementation the crate shipped before the hot-path
//! overhaul: `HashMap`/`HashSet`/`BTreeMap` storage keyed directly by
//! [`ObjectId`], with no interning and no flat adjacency. It is simple
//! enough to audit by eye, which is exactly what an oracle needs to be.
//! Property tests drive identical event streams through both graphs and
//! assert that snapshots, histograms, and all seven metrics agree.
//!
//! Compiled only for tests or under the `reference-graph` feature; it
//! never ships in the release hot path.

use crate::graph::{footprint_end, ApplyError};
use crate::histogram::DegreeHistogram;
use crate::metrics::MetricVector;
use crate::GraphSnapshot;
use sim_heap::{Addr, HeapEvent, ObjectId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One pointer slot's state as the graph sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotState {
    /// Raw stored address.
    raw: u64,
    /// The live object it currently resolves to, if any.
    target: Option<ObjectId>,
}

/// The pre-optimization map-based heap-graph (differential oracle).
///
/// Mirrors the mutating and observing API of
/// [`HeapGraph`](crate::HeapGraph) exactly; see that type for the
/// semantics. Kept deliberately naive — every container is a std map
/// keyed by `ObjectId` or address.
#[derive(Debug, Clone, Default)]
pub struct ReferenceGraph {
    nodes: HashMap<ObjectId, NodeState>,
    /// Live objects keyed by start address, for pointer resolution.
    ranges: BTreeMap<u64, (ObjectId, usize)>,
    /// Reverse map: vertex → start address (for O(log n) frees).
    starts: HashMap<ObjectId, u64>,
    /// Per-source pointer slots: offset → state.
    out_slots: HashMap<ObjectId, BTreeMap<u64, SlotState>>,
    /// Reverse edges: target → set of (source, offset).
    inbound: HashMap<ObjectId, HashSet<(ObjectId, u64)>>,
    /// Slots whose raw address resolves to no live object, keyed by that
    /// address so allocations can re-bind them by range scan.
    unresolved: BTreeMap<u64, HashSet<(ObjectId, u64)>>,
    histogram: DegreeHistogram,
    edge_count: u64,
    dangling: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    indegree: u32,
    outdegree: u32,
}

impl ReferenceGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        ReferenceGraph::default()
    }

    /// Live vertexes.
    pub fn node_count(&self) -> u64 {
        self.histogram.nodes()
    }

    /// Resolved heap-to-heap edges (with multiplicity).
    pub fn edge_count(&self) -> u64 {
        self.edge_count
    }

    /// Pointer slots currently dangling.
    pub fn dangling_count(&self) -> u64 {
        self.dangling
    }

    /// In/out degree for a live vertex as `(indegree, outdegree)`.
    pub fn degrees(&self, id: ObjectId) -> Option<(u32, u32)> {
        self.nodes.get(&id).map(|n| (n.indegree, n.outdegree))
    }

    /// Returns `true` if `id` is a live vertex.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// The degree histogram.
    pub fn histogram(&self) -> &DegreeHistogram {
        &self.histogram
    }

    /// Computes the seven paper metrics for the current graph.
    pub fn metrics(&self) -> MetricVector {
        MetricVector::from_histogram(&self.histogram)
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
    /// # Panics
    ///
    /// Panics on an event the graph cannot apply (see
    /// [`try_apply`](Self::try_apply)).
    pub fn apply(&mut self, event: &HeapEvent) {
        self.try_apply(event).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Applies one instrumentation event, or leaves the graph as it was
    /// and reports why the event cannot apply: the refusals of
    /// [`HeapGraph::try_apply`](crate::HeapGraph::try_apply), decided
    /// here from the maps.
    ///
    /// # Errors
    ///
    /// The [`ApplyError`] naming the event's object.
    pub fn try_apply(&mut self, event: &HeapEvent) -> Result<(), ApplyError> {
        match *event {
            HeapEvent::Alloc {
                obj, addr, size, ..
            } => {
                let start = addr.get();
                let end = start
                    .checked_add(size as u64)
                    .ok_or(ApplyError::AddressOverflow(obj))?;
                if self.nodes.contains_key(&obj) {
                    return Err(ApplyError::DuplicateAlloc(obj));
                }
                // Live objects are disjoint, so only the last one
                // starting before this one's end can overlap it.
                let footprint = footprint_end(start, end);
                if let Some((&s, &(_, len))) = self.ranges.range(..footprint).next_back() {
                    if footprint_end(s, s + len as u64) > start {
                        return Err(ApplyError::OverlappingAlloc(obj));
                    }
                }
            }
            HeapEvent::Free { obj, .. } if !self.nodes.contains_key(&obj) => {
                return Err(ApplyError::FreeOfUnknown(obj));
            }
            HeapEvent::PtrWrite { src, .. } if !self.nodes.contains_key(&src) => {
                return Err(ApplyError::WriteIntoUnknown(src));
            }
            _ => {}
        }
        match *event {
            HeapEvent::Alloc {
                obj, addr, size, ..
            } => self.on_alloc(obj, addr, size),
            HeapEvent::Free { obj, .. } => self.on_free(obj),
            HeapEvent::PtrWrite {
                src, offset, value, ..
            } => self.on_ptr_write(src, offset, value),
            HeapEvent::ScalarWrite { src, offset, .. } => self.on_scalar_write(src, offset),
            HeapEvent::Read { .. } | HeapEvent::FnEnter { .. } | HeapEvent::FnExit { .. } => {}
        }
        Ok(())
    }

    /// Adds a vertex for a fresh allocation and re-binds dangling slots.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already live.
    pub fn on_alloc(&mut self, id: ObjectId, addr: Addr, size: usize) {
        let prev = self.nodes.insert(id, NodeState::default());
        assert!(prev.is_none(), "duplicate allocation of {id}");
        self.ranges.insert(addr.get(), (id, size));
        self.starts.insert(id, addr.get());
        self.histogram.add_node();

        let start = addr.get();
        let end = start + size as u64;
        let hits: Vec<u64> = self.unresolved.range(start..end).map(|(&a, _)| a).collect();
        for raw in hits {
            let slots = self.unresolved.remove(&raw).expect("key just seen");
            for (src, off) in slots {
                let st = self
                    .out_slots
                    .get_mut(&src)
                    .and_then(|m| m.get_mut(&off))
                    .expect("unresolved slot must exist in slot table");
                debug_assert_eq!(st.target, None);
                st.target = Some(id);
                self.dangling -= 1;
                self.edge_count += 1;
                self.inbound.entry(id).or_default().insert((src, off));
                if src == id {
                    self.adjust(id, 1, 1);
                } else {
                    self.adjust(src, 0, 1);
                    self.adjust(id, 1, 0);
                }
            }
        }
    }

    /// Removes a vertex; in-edges become dangling slots of their sources.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn on_free(&mut self, id: ObjectId) {
        let info = self
            .nodes
            .remove(&id)
            .unwrap_or_else(|| panic!("free of unknown {id}"));
        self.histogram.remove_node(info.indegree, info.outdegree);
        let start = self.starts.remove(&id).expect("live vertex has a range");
        self.ranges.remove(&start);

        if let Some(slots) = self.out_slots.remove(&id) {
            for (off, st) in slots {
                match st.target {
                    Some(t) => {
                        self.edge_count -= 1;
                        if t != id {
                            if let Some(set) = self.inbound.get_mut(&t) {
                                set.remove(&(id, off));
                            }
                            self.adjust(t, -1, 0);
                        }
                        // Self-edge: both endpoints die with the node.
                    }
                    None => {
                        self.remove_unresolved(st.raw, id, off);
                        self.dangling -= 1;
                    }
                }
            }
        }

        if let Some(srcs) = self.inbound.remove(&id) {
            for (src, off) in srcs {
                if src == id {
                    continue; // handled with the out-slots above
                }
                let st = self
                    .out_slots
                    .get_mut(&src)
                    .and_then(|m| m.get_mut(&off))
                    .expect("inbound edge has a source slot");
                debug_assert_eq!(st.target, Some(id));
                st.target = None;
                self.edge_count -= 1;
                self.dangling += 1;
                let raw = st.raw;
                self.unresolved.entry(raw).or_default().insert((src, off));
                self.adjust(src, 0, -1);
            }
        }
    }

    /// Records a pointer store: slot `(src, offset)` now holds `value`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a live vertex.
    pub fn on_ptr_write(&mut self, src: ObjectId, offset: u64, value: Addr) {
        assert!(self.nodes.contains_key(&src), "write into unknown {src}");
        self.drop_slot(src, offset);
        if value.is_null() {
            return;
        }
        let raw = value.get();
        let target = self.resolve(raw);
        self.out_slots
            .entry(src)
            .or_default()
            .insert(offset, SlotState { raw, target });
        match target {
            Some(t) => {
                self.edge_count += 1;
                self.inbound.entry(t).or_default().insert((src, offset));
                if t == src {
                    self.adjust(src, 1, 1);
                } else {
                    self.adjust(src, 0, 1);
                    self.adjust(t, 1, 0);
                }
            }
            None => {
                self.dangling += 1;
                self.unresolved
                    .entry(raw)
                    .or_default()
                    .insert((src, offset));
            }
        }
    }

    /// Records a non-pointer store, clearing any pointer in the slot.
    pub fn on_scalar_write(&mut self, src: ObjectId, offset: u64) {
        if self.nodes.contains_key(&src) {
            self.drop_slot(src, offset);
        }
    }

    fn resolve(&self, raw: u64) -> Option<ObjectId> {
        let (&start, &(id, size)) = self.ranges.range(..=raw).next_back()?;
        (raw < start + size as u64).then_some(id)
    }

    fn adjust(&mut self, id: ObjectId, din: i32, dout: i32) {
        let info = self.nodes.get_mut(&id).expect("adjust on live node");
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

    fn drop_slot(&mut self, src: ObjectId, offset: u64) {
        let Some(slots) = self.out_slots.get_mut(&src) else {
            return;
        };
        let Some(st) = slots.remove(&offset) else {
            return;
        };
        if slots.is_empty() {
            self.out_slots.remove(&src);
        }
        match st.target {
            Some(t) => {
                self.edge_count -= 1;
                if let Some(set) = self.inbound.get_mut(&t) {
                    set.remove(&(src, offset));
                    if set.is_empty() {
                        self.inbound.remove(&t);
                    }
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

    fn remove_unresolved(&mut self, raw: u64, src: ObjectId, off: u64) {
        if let Some(set) = self.unresolved.get_mut(&raw) {
            set.remove(&(src, off));
            if set.is_empty() {
                self.unresolved.remove(&raw);
            }
        }
    }
}
