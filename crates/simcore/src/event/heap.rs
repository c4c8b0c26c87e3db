//! The entry type and 4-ary heap behind the event queue.
//!
//! [`EventQueue`](super::EventQueue) composes these with the hierarchical
//! timing wheel (the private `wheel` module): the heap serves as the
//! wheel's overflow level. The pre-wheel queue survives as
//! [`HeapEventQueue`], the reference backend the differential fuzz
//! (`tests/wheel_vs_heap.rs`, the ci.sh smoke) drives against the wheel.

use crate::time::SimTime;

/// One pending event: the `(at, seq)` ordering key with the payload
/// stored inline, so popping an event is the whole lookup.
#[derive(Clone, Copy)]
pub(super) struct Entry<E> {
    pub(super) at: SimTime,
    pub(super) seq: u64,
    pub(super) payload: E,
}

impl<E> Entry<E> {
    #[inline]
    pub(super) fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Heap arity: 4 keeps the tree shallow and the child scan within a
/// couple of cache lines of entries.
const ARITY: usize = 4;

/// An implicit 4-ary min-heap of [`Entry`]s ordered by `(at, seq)`.
/// Ties cannot occur: `seq` is unique per queue.
#[derive(Clone)]
pub(super) struct EntryHeap<E> {
    heap: Vec<Entry<E>>,
}

impl<E: Copy> EntryHeap<E> {
    pub(super) fn new() -> Self {
        EntryHeap { heap: Vec::new() }
    }

    #[inline]
    pub(super) fn push(&mut self, entry: Entry<E>) {
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    /// The root entry (minimum key).
    #[inline]
    pub(super) fn first(&self) -> Option<&Entry<E>> {
        self.heap.first()
    }

    /// Pops the root entry.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<Entry<E>> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let top = core::mem::replace(&mut self.heap[0], last);
        self.sift_down(0);
        Some(top)
    }

    #[inline]
    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let entry = self.heap[i];
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let mut best_key = self.heap[first_child].key();
            let last_child = (first_child + ARITY).min(len);
            for c in first_child + 1..last_child {
                let k = self.heap[c].key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if entry.key() <= best_key {
                break;
            }
            self.heap[i] = self.heap[best];
            i = best;
        }
        self.heap[i] = entry;
    }
}

/// The pre-wheel event queue: one 4-ary min-heap over every pending
/// entry.
///
/// [`EventQueue`](super::EventQueue) replaced this as the simulator's
/// production queue (DESIGN.md §4.10) but the contract is identical —
/// `(time, seq)` total order, FIFO within a timestamp, no cancellation.
/// It is kept as the **reference backend** for differential testing: the
/// `wheel_vs_heap` fuzz (`tests/wheel_vs_heap.rs`, run as a ci.sh smoke)
/// drives both backends through identical seeded op sequences and asserts
/// identical pop order.
#[derive(Clone)]
pub struct HeapEventQueue<E> {
    heap: EntryHeap<E>,
    next_seq: u64,
}

impl<E: Copy> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: EntryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Removes and returns the earliest pending event if it fires at or
    /// before `deadline`; see
    /// [`EventQueue::pop_at_or_before`](super::EventQueue::pop_at_or_before).
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.heap.first()?.at > deadline {
            return None;
        }
        self.pop()
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
