//! The instrumentation event stream.
//!
//! In the paper, Vulcan-inserted instrumentation "exposes the addition,
//! modification and removal of objects in the heap to the execution
//! logger": allocator entry points report address and size; every store
//! instruction reports the written address and value. [`HeapEvent`] is
//! that wire format. [`SimHeap`](crate::SimHeap) operations return richer
//! *effect* structs (old slot values, freed slots) so downstream
//! consumers — the heap-graph, the anomaly detector, the SWAT baseline —
//! can update incrementally without re-scanning the heap.

use crate::addr::Addr;
use crate::object::{AllocSite, ObjectId};

/// One record in the instrumentation stream.
///
/// This is the record of the offline (post-mortem) mode: the execution
/// logger appends events to a trace, and the checker replays them
/// against a previously constructed model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapEvent {
    /// An object was allocated.
    Alloc {
        /// Identity of the new object.
        obj: ObjectId,
        /// Start address of the new object.
        addr: Addr,
        /// Requested size in bytes.
        size: usize,
        /// Allocation call-site.
        site: AllocSite,
    },
    /// An object was freed.
    Free {
        /// Identity of the freed object.
        obj: ObjectId,
        /// Its start address (now recyclable).
        addr: Addr,
        /// Its size in bytes.
        size: usize,
    },
    /// A pointer-sized value was stored into a heap object.
    PtrWrite {
        /// Object containing the written slot.
        src: ObjectId,
        /// Byte offset of the slot within `src`.
        offset: u64,
        /// The stored pointer value (possibly null or non-heap).
        value: Addr,
        /// The slot's previous pointer value, if it held one.
        old_value: Option<Addr>,
    },
    /// A non-pointer store overwrote a slot (clearing any pointer in it).
    ScalarWrite {
        /// Object containing the written slot.
        src: ObjectId,
        /// Byte offset of the slot within `src`.
        offset: u64,
        /// The slot's previous pointer value, if it held one.
        old_value: Option<Addr>,
    },
    /// A read touched a heap object (consumed by staleness trackers).
    Read {
        /// The object read from.
        obj: ObjectId,
    },
    /// The mutator entered a function — a potential metric computation
    /// point in HeapMD's design.
    FnEnter {
        /// Interned function identifier (see the `heapmd` crate).
        func: u32,
    },
    /// The mutator returned from a function.
    FnExit {
        /// Interned function identifier.
        func: u32,
    },
}

impl HeapEvent {
    /// Returns `true` for events that change the heap-graph (allocations,
    /// frees, and pointer-slot mutations).
    pub fn mutates_graph(&self) -> bool {
        matches!(
            self,
            HeapEvent::Alloc { .. }
                | HeapEvent::Free { .. }
                | HeapEvent::PtrWrite { .. }
                | HeapEvent::ScalarWrite { .. }
        )
    }
}

/// Result of a successful [`SimHeap::alloc`](crate::SimHeap::alloc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocEffect {
    /// Identity of the new object.
    pub id: ObjectId,
    /// Its start address.
    pub addr: Addr,
    /// Requested size in bytes.
    pub size: usize,
    /// Whether the address was recycled from a freed block.
    pub recycled: bool,
}

/// Result of a successful [`SimHeap::free`](crate::SimHeap::free).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeEffect {
    /// Identity of the freed object.
    pub id: ObjectId,
    /// Its start address.
    pub addr: Addr,
    /// Its size in bytes.
    pub size: usize,
    /// Pointer slots the object held at the time of the free, as
    /// `(offset, target)` pairs. The heap-graph drops these out-edges.
    pub slots: Vec<(u64, Addr)>,
}

/// Result of a successful pointer or scalar store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEffect {
    /// Object containing the written slot.
    pub src: ObjectId,
    /// Byte offset of the slot within the object.
    pub offset: u64,
    /// Previous pointer value in the slot, if any.
    pub old_value: Option<Addr>,
}

/// Result of a successful [`SimHeap::realloc`](crate::SimHeap::realloc).
///
/// Realloc is modelled as free + alloc + memcpy of surviving slots,
/// which is both what the C library does and how the paper's logger
/// would observe it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReallocEffect {
    /// The free of the old block.
    pub freed: FreeEffect,
    /// The allocation of the new block.
    pub alloc: AllocEffect,
    /// Pointer slots copied into the new block, as `(offset, target)`.
    pub moved_slots: Vec<(u64, Addr)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutates_graph_classification() {
        let alloc = HeapEvent::Alloc {
            obj: ObjectId(1),
            addr: Addr::new(0x10),
            size: 8,
            site: AllocSite(0),
        };
        assert!(alloc.mutates_graph());
        assert!(!HeapEvent::Read { obj: ObjectId(1) }.mutates_graph());
        assert!(!HeapEvent::FnEnter { func: 0 }.mutates_graph());
        assert!(HeapEvent::PtrWrite {
            src: ObjectId(1),
            offset: 0,
            value: Addr::new(0x20),
            old_value: None,
        }
        .mutates_graph());
    }
}
