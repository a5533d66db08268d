//! # sim-heap — simulated process heap
//!
//! The HeapMD paper instruments x86 binaries (via Vulcan) so that every
//! allocator call and every pointer store into the heap is exposed to an
//! execution logger. This crate is the reproduction's substitute for the
//! real process heap: a deterministic, instrumentable heap that mutator
//! programs (see the `workloads` crate) allocate from, write pointers
//! into, and free.
//!
//! The design goals mirror what HeapMD's analysis actually depends on:
//!
//! * **object identity** — every allocation is a distinct [`ObjectId`];
//! * **interior pointers** — any address inside a live object resolves to
//!   that object ([`SimHeap::resolve`]);
//! * **address reuse** — freed addresses are recycled (size-class free
//!   lists), so dangling pointers can re-bind to new objects exactly as
//!   they do on a real allocator, which is what makes shared-state bugs
//!   visible to degree metrics;
//! * **pointer-slot tracking** — stores of pointer-sized values into heap
//!   objects are recorded per slot, producing the event stream
//!   ([`HeapEvent`]) that the heap-graph and all monitors consume.
//!
//! # Example
//!
//! ```
//! use sim_heap::{AllocSite, SimHeap};
//!
//! # fn main() -> Result<(), sim_heap::HeapError> {
//! let mut heap = SimHeap::new();
//! let site = AllocSite(1);
//! let a = heap.alloc(32, site)?.addr;
//! let b = heap.alloc(32, site)?.addr;
//! // Store a pointer to `b` in the first slot of `a`.
//! heap.write_ptr(a, b)?;
//! assert_eq!(heap.read_ptr(a)?.1, Some(b));
//! heap.free(b)?;
//! heap.free(a)?;
//! assert_eq!(heap.live_objects(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod alloc;
mod error;
mod event;
mod heap;
mod object;
mod shadow;
mod stats;

pub use addr::{Addr, NULL};
pub use alloc::{AddressAllocator, AllocatorConfig};
pub use error::HeapError;
pub use event::{AllocEffect, FreeEffect, HeapEvent, ReallocEffect, WriteEffect};
pub use heap::{HeapConfig, SimHeap};
pub use object::{AllocSite, ObjectId, ObjectRecord};
pub use shadow::{ShadowMap, EMPTY as SHADOW_EMPTY, GRANULE_BITS};
pub use stats::HeapStats;
