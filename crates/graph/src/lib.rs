//! # heap-graph — the incremental object-granularity heap-graph
//!
//! HeapMD's execution logger "maintains an image of the heap-graph, and
//! updates this image when the program allocates, frees, or writes to an
//! object" (§2.1). This crate is that image: a directed graph whose
//! vertexes are live heap objects and whose edges `u → v` exist when a
//! pointer slot inside `u` holds an address inside `v`.
//!
//! Three properties drive the design:
//!
//! * **Object granularity** (paper Figure 3): edges connect whole
//!   objects, so field layout does not perturb the metrics and no type
//!   information is required.
//! * **Incrementality**: the graph applies each [`sim_heap::HeapEvent`]
//!   in O(log n) and maintains degree histograms, so the seven paper
//!   metrics read out in O(1) at every metric computation point — this
//!   is what makes the 1/100 000-function-entry sampling cheap enough
//!   for a 2–3× slowdown.
//! * **Address re-binding**: a pointer slot whose target is freed stops
//!   being an edge (its vertex vanished), but the raw value is retained;
//!   if a later allocation covers that address, the slot becomes an edge
//!   to the *new* object. This mirrors what a heap walk over a real
//!   process would observe and is what makes dangling-pointer bugs
//!   visible to degree metrics.
//!
//! # Example
//!
//! ```
//! use heap_graph::{HeapGraph, MetricKind};
//! use sim_heap::{AllocSite, SimHeap};
//!
//! # fn main() -> Result<(), sim_heap::HeapError> {
//! let mut heap = SimHeap::new();
//! let mut graph = HeapGraph::new();
//!
//! let a = heap.alloc(24, AllocSite(0))?;
//! let b = heap.alloc(24, AllocSite(0))?;
//! graph.on_alloc(a.id, a.addr, a.size);
//! graph.on_alloc(b.id, b.addr, b.size);
//!
//! let w = heap.write_ptr(a.addr, b.addr)?;
//! graph.on_ptr_write(w.src, w.offset, b.addr);
//!
//! assert_eq!(graph.node_count(), 2);
//! assert_eq!(graph.edge_count(), 1);
//! // One leaf (b), one root (a)… and both metrics are percentages.
//! let m = graph.metrics();
//! assert_eq!(m.get(MetricKind::Leaves), 50.0);
//! assert_eq!(m.get(MetricKind::Roots), 50.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod histogram;
mod metrics;
mod node;
#[cfg(any(test, feature = "reference-graph"))]
mod reference;

pub use graph::{ApplyError, GraphSnapshot, HeapGraph, ShardedGraph};
pub use histogram::{DegreeHistogram, DEGREE_SATURATION};
pub use metrics::{ExtendedMetrics, MetricKind, MetricVector, METRIC_COUNT};
pub use node::NodeInfo;
#[cfg(any(test, feature = "reference-graph"))]
pub use reference::ReferenceGraph;
