//! A fixed-capacity circular buffer.
//!
//! HeapMD logs call-stacks "into a circular buffer" while a stable
//! metric is near a calibrated extreme (§2.2), so that a bug report can
//! show context before, during, and after the crossing without keeping
//! unbounded history.

use std::collections::VecDeque;

/// A bounded FIFO that overwrites its oldest entry when full.
///
/// # Example
///
/// ```
/// use heapmd::CircularBuffer;
///
/// let mut buf = CircularBuffer::new(2);
/// buf.push(1);
/// buf.push(2);
/// buf.push(3); // evicts 1
/// assert_eq!(buf.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircularBuffer<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> CircularBuffer<T> {
    /// Creates a buffer holding at most `capacity` items.
    ///
    /// A capacity of zero is legal and yields a buffer that silently
    /// discards every push — useful for disabling context logging
    /// without branching at the call sites.
    pub fn new(capacity: usize) -> Self {
        CircularBuffer {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends an item, evicting the oldest when at capacity.
    pub fn push(&mut self, item: T) {
        if self.capacity == 0 {
            return;
        }
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(item);
    }

    /// Appends the item `fill` builds, handing it the evicted oldest
    /// item when the buffer is full so its allocations can be reused:
    /// once full, a push whose `fill` recycles the slot allocates
    /// nothing. `fill` is not called at capacity zero.
    pub fn push_with(&mut self, fill: impl FnOnce(Option<T>) -> T) {
        if self.capacity == 0 {
            return;
        }
        let evicted = if self.items.len() == self.capacity {
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(fill(evicted));
    }

    /// Number of items currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Iterates oldest → newest, with that ordering as an explicit,
    /// documented contract regardless of how often the buffer has
    /// wrapped. Consumers that persist the contents (the incident
    /// bundle writer) use this so the guarantee survives refactors of
    /// the backing storage; `iter` merely inherits it from [`VecDeque`].
    pub fn iter_ordered(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Drains the contents oldest → newest, leaving the buffer empty.
    pub fn drain(&mut self) -> Vec<T> {
        self.items.drain(..).collect()
    }

    /// Removes all items.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_below_capacity_keeps_everything() {
        let mut b = CircularBuffer::new(4);
        for i in 0..3 {
            b.push(i);
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn overflow_evicts_oldest() {
        let mut b = CircularBuffer::new(3);
        for i in 0..10 {
            b.push(i);
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn drain_empties_in_order() {
        let mut b = CircularBuffer::new(2);
        b.push("x");
        b.push("y");
        assert_eq!(b.drain(), vec!["x", "y"]);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 2);
    }

    #[test]
    fn zero_capacity_discards_every_push() {
        let mut b = CircularBuffer::new(0);
        for i in 0..5 {
            b.push(i);
        }
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.capacity(), 0);
        assert_eq!(b.drain(), Vec::<i32>::new());
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut b = CircularBuffer::new(1);
        for i in 0..4 {
            b.push(i);
            assert_eq!(b.len(), 1);
            assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![i]);
        }
    }

    #[test]
    fn exactly_filling_evicts_nothing() {
        let mut b = CircularBuffer::new(3);
        for i in 0..3 {
            b.push(i);
        }
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        // The very next push wraps and evicts exactly one.
        b.push(3);
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn overwrite_order_survives_many_wraps() {
        let mut b = CircularBuffer::new(4);
        for i in 0..4 * 7 + 2 {
            b.push(i);
        }
        // Always the last `capacity` items, oldest → newest.
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![26, 27, 28, 29]);
        assert_eq!(b.drain(), vec![26, 27, 28, 29]);
        assert!(b.is_empty());
    }

    #[test]
    fn iter_ordered_is_oldest_first_before_any_wrap() {
        let mut b = CircularBuffer::new(5);
        for i in 0..3 {
            b.push(i);
        }
        assert_eq!(b.iter_ordered().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn iter_ordered_is_oldest_first_across_the_wrap_boundary() {
        let mut b = CircularBuffer::new(4);
        // Land the write cursor mid-buffer: 6 pushes into capacity 4
        // wraps twice past the boundary.
        for i in 0..6 {
            b.push(i);
        }
        assert_eq!(
            b.iter_ordered().copied().collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        // Exactly at the wrap point (a multiple of capacity).
        for i in 6..8 {
            b.push(i);
        }
        assert_eq!(
            b.iter_ordered().copied().collect::<Vec<_>>(),
            vec![4, 5, 6, 7]
        );
        assert!(b.iter_ordered().copied().eq(b.iter().copied()));
    }

    #[test]
    fn iter_ordered_on_zero_capacity_is_a_no_op() {
        let mut b = CircularBuffer::new(0);
        for i in 0..5 {
            b.push(i);
        }
        assert_eq!(b.iter_ordered().count(), 0);
    }

    #[test]
    fn push_with_recycles_the_evicted_slot_once_full() {
        let mut b: CircularBuffer<Vec<u32>> = CircularBuffer::new(2);
        let mut recycled = Vec::new();
        for i in 0..5u32 {
            b.push_with(|slot| {
                recycled.push(slot.is_some());
                let mut v = slot.unwrap_or_default();
                v.clear();
                v.push(i);
                v
            });
        }
        assert_eq!(recycled, vec![false, false, true, true, true]);
        assert_eq!(b.drain(), vec![vec![3], vec![4]]);
        // Capacity zero never builds an item.
        let mut z: CircularBuffer<u32> = CircularBuffer::new(0);
        z.push_with(|_| unreachable!("nothing to fill at capacity zero"));
        assert!(z.is_empty());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = CircularBuffer::new(2);
        b.push(1);
        b.push(2);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 2);
        b.push(9);
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![9]);
    }
}
