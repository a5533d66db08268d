//! Umbrella crate for the HeapMD reproduction workspace.
//!
//! Re-exports the workspace members so examples and integration tests can
//! use a single dependency root.

#![forbid(unsafe_code)]

pub use faults;
pub use heap_graph;
pub use heapmd;
pub use sim_ds;
pub use sim_heap;
pub use swat;
pub use workloads;
