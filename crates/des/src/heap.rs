//! Reference binary-heap scheduler keyed on `(time, sequence)`.
//!
//! This is the implementation the timing wheel must match pop for pop: the
//! sequence number makes simultaneous events fire in insertion order, which
//! is what makes whole-system runs reproducible. No simulation runs on it;
//! it stays in the tree only for the wheel-vs-heap proptests.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Deterministic priority queue of `(u64 nanos, payload)` events.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
pub(crate) struct Entry<E> {
    pub(crate) key: Reverse<(u64, u64)>,
    pub(crate) ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> HeapQueue<E> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::with_capacity(1024),
            seq: 0,
        }
    }

    /// Insert an event at absolute time `at` (nanoseconds).
    #[inline]
    pub fn push(&mut self, at: u64, ev: E) {
        let s = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            key: Reverse((at, s)),
            ev,
        });
    }

    /// Remove and return the earliest event (FIFO among ties).
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|e| (e.key.0 .0, e.ev))
    }

    /// Timestamp of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.key.0 .0)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever pushed (diagnostic).
    #[inline]
    pub fn pushed_total(&self) -> u64 {
        self.seq
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = HeapQueue::new();
        q.push(5, "b");
        q.push(1, "a");
        q.push(9, "c");
        assert_eq!(q.peek_time(), Some(1));
        assert_eq!(q.pop(), Some((1, "a")));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.pop(), Some((9, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = HeapQueue::new();
        for i in 0..1000u32 {
            q.push(7, i);
        }
        for i in 0..1000u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }
}
