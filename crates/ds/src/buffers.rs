//! A FIFO pool of large leaf buffers (the gzip/multimedia allocation
//! pattern).

use heapmd::{Addr, AllocSite, HeapError, Process};
use std::collections::VecDeque;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        acquire: func("BufferPool::acquire"),
        touch_all: func("BufferPool::touch_all"),
        drain: func("BufferPool::drain"),
    }
}

/// A bounded FIFO of plain data buffers.
///
/// Buffers carry no pointers, so they are pure *leaves* (and *roots*)
/// of the heap-graph. Programs dominated by this pattern — gzip's
/// compression windows, a multimedia app's frame buffers — are the ones
/// whose *Leaves* percentage the paper finds stable in the high 80s to
/// 90s (Figure 7A).
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use sim_ds::BufferPool;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(100).build()?);
/// let mut pool = BufferPool::new(&mut p, 4, "frames");
/// for i in 0..10 {
///     pool.acquire(&mut p, 1024 + i)?; // rolls over at capacity 4
/// }
/// assert_eq!(pool.len(), 4);
/// pool.drain(&mut p)?;
/// assert_eq!(p.heap().live_objects(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BufferPool {
    buffers: VecDeque<Addr>,
    capacity: usize,
    site: AllocSite,
    fns: Fns,
}

impl BufferPool {
    /// Creates a pool that retains at most `capacity` buffers,
    /// interning its names in `p`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(p: &mut Process, capacity: usize, site: &str) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        BufferPool {
            buffers: VecDeque::with_capacity(capacity),
            capacity,
            site: p.site(&format!("{site}::buffer")),
            fns: Fns::new(p),
        }
    }

    /// Buffers currently held.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Returns `true` when the pool holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Allocates a buffer of `size` bytes, evicting (freeing) the
    /// oldest buffer when the pool is full.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn acquire(&mut self, p: &mut Process, size: usize) -> Result<Addr, HeapError> {
        p.enter(self.fns.acquire);
        if self.buffers.len() == self.capacity {
            let oldest = self.buffers.pop_front().expect("non-empty at capacity");
            p.free(oldest)?;
        }
        let buf = p.malloc(size, self.site)?;
        // Fill a few words: plain data stores, no pointers.
        for w in 0..(size / 8).min(4) {
            p.write_scalar(buf.offset(w as u64 * 8))?;
        }
        self.buffers.push_back(buf);
        p.leave();
        Ok(buf)
    }

    /// Touches every held buffer (read traffic).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn touch_all(&self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.touch_all);
        for &b in &self.buffers {
            p.read(b)?;
        }
        p.leave();
        Ok(())
    }

    /// Frees every held buffer.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn drain(&mut self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.drain);
        while let Some(b) = self.buffers.pop_front() {
            p.free(b)?;
        }
        p.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapmd::{MetricKind, Settings};

    fn process() -> Process {
        Process::new(Settings::builder().frq(1_000).build().unwrap())
    }

    #[test]
    fn fifo_eviction_bounds_live_buffers() {
        let mut p = process();
        let mut pool = BufferPool::new(&mut p, 3, "t");
        let first = pool.acquire(&mut p, 256).unwrap();
        for _ in 0..5 {
            pool.acquire(&mut p, 256).unwrap();
        }
        assert_eq!(pool.len(), 3);
        assert_eq!(p.heap().live_objects(), 3);
        // The very first buffer was evicted (and its address recycled).
        assert!(p.heap().object_at(first).is_none() || pool.len() == 3);
    }

    #[test]
    fn buffers_are_pure_leaves() {
        let mut p = process();
        let mut pool = BufferPool::new(&mut p, 8, "t");
        for _ in 0..8 {
            pool.acquire(&mut p, 512).unwrap();
        }
        let m = p.graph().metrics();
        assert_eq!(m.get(MetricKind::Leaves), 100.0);
        assert_eq!(m.get(MetricKind::Roots), 100.0);
        pool.touch_all(&mut p).unwrap();
        p.graph().validate().unwrap();
    }

    #[test]
    fn drain_empties_the_pool() {
        let mut p = process();
        let mut pool = BufferPool::new(&mut p, 4, "t");
        for _ in 0..4 {
            pool.acquire(&mut p, 128).unwrap();
        }
        pool.drain(&mut p).unwrap();
        assert!(pool.is_empty());
        assert_eq!(p.heap().live_objects(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        BufferPool::new(&mut process(), 0, "t");
    }
}
