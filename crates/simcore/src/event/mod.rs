//! A stably ordered discrete-event queue.
//!
//! Events at equal timestamps pop in insertion order, which makes the
//! simulation deterministic regardless of queue internals. The queue is
//! the simulator's hottest data structure — a 0.1 ms micro-slice run
//! multiplies event counts ~300× over the 30 ms baseline, and almost all
//! of those events are short-horizon timers (slice expiry, IPI acks,
//! kicks at 0.1–30 ms) — so it is built the way production timer
//! subsystems are:
//!
//! - a **hierarchical timing wheel** buckets entries by firing time:
//!   pushing a near-future timer is a bucket append plus a bitmap bit,
//!   and popping drains one pre-sorted slot buffer at a time
//!   (DESIGN.md §4.10);
//! - an **implicit 4-ary min-heap** catches what the wheel cannot hold:
//!   events at or beyond the ~4.3 s wheel horizon and events behind the
//!   drain frontier (the full priority-queue contract allows pushing
//!   "into the past").
//!
//! Payloads are stored inline in the entries, so there is no side table
//! to look up on pop. There is no cancellation: the simulator never
//! needs it — a superseded plan stays queued and its handler drops it by
//! generation stamp when it fires (`hypervisor::machine::handlers`).
//!
//! Ordering ties cannot occur: the `(time, seq)` key is unique because
//! `seq` increments on every push, which is also what gives FIFO order
//! within a timestamp. The pre-wheel backend survives as
//! [`HeapEventQueue`], the reference the `wheel_vs_heap` differential
//! fuzz drives against this implementation.

use crate::time::SimTime;

pub mod heap;
mod wheel;

pub use heap::HeapEventQueue;

use heap::{Entry, EntryHeap};
use wheel::{Wheel, SHIFT0};

/// A priority queue of timestamped events with stable FIFO tie-breaking,
/// backed by a hierarchical timing wheel with a heap overflow level (see
/// the [module docs](self)).
///
/// # Examples
///
/// ```
/// use simcore::event::EventQueue;
/// use simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(10), 'a');
/// q.push(SimTime::from_micros(10), 'b');
/// q.push(SimTime::from_micros(5), 'c');
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), 'c')));
/// assert_eq!(q.pop_at_or_before(SimTime::from_micros(9)), None);
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), 'a')));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), 'b')));
/// assert!(q.is_empty());
/// ```
///
/// Cloning snapshots the queue verbatim — wheel buckets and cursor, heap
/// layout and sequence counter — so a clone pops exactly like the
/// original, which is what the machine snapshot/fork path rests on.
#[derive(Clone)]
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    /// Drain buffer: the entries of the wheel slot at the cursor, sorted
    /// descending by `(at, seq)` so the next entry pops off the end.
    /// Pushes targeting the cursor's slot insert here directly.
    cur: Vec<Entry<E>>,
    /// Events at/beyond the wheel horizon or behind the cursor.
    overflow: EntryHeap<E>,
    next_seq: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            cur: Vec::new(),
            overflow: EntryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, payload };
        let t = at.as_nanos();
        let cursor = self.wheel.cursor;
        if t < cursor {
            // Behind the drain frontier: full queue semantics still hold,
            // the heap serves as the underflow level too.
            self.overflow.push(entry);
        } else if (t >> SHIFT0) == (cursor >> SHIFT0) {
            // The cursor's own slot: insert sorted into the drain buffer
            // (descending, so the scan starts at the tail — a fresh push
            // carries the largest `seq` and usually lands there).
            let key = entry.key();
            let mut i = self.cur.len();
            while i > 0 && self.cur[i - 1].key() < key {
                i -= 1;
            }
            self.cur.insert(i, entry);
        } else if let Err(entry) = self.wheel.insert(entry) {
            self.overflow.push(entry);
        }
    }

    /// The earliest pending entry and whether it sits on the overflow
    /// heap (as opposed to the drain buffer), refilling the drain buffer
    /// from the wheel first if it ran dry.
    #[inline]
    fn head(&mut self) -> Option<(Entry<E>, bool)> {
        if self.cur.is_empty() && self.wheel.take_next_slot(&mut self.cur) {
            self.cur
                .sort_unstable_by_key(|e| core::cmp::Reverse(e.key()));
        }
        match (self.cur.last(), self.overflow.first()) {
            (None, None) => None,
            (Some(&w), None) => Some((w, false)),
            (None, Some(&h)) => Some((h, true)),
            (Some(&w), Some(&h)) => {
                if h.key() < w.key() {
                    Some((h, true))
                } else {
                    Some((w, false))
                }
            }
        }
    }

    /// Pops the head found by [`head`](Self::head) off the side it lives
    /// on and hands back its time and payload.
    #[inline]
    fn take_head(&mut self, from_overflow: bool) -> (SimTime, E) {
        let entry = if from_overflow {
            self.overflow.pop()
        } else {
            self.cur.pop()
        };
        let entry = entry.expect("head exists");
        (entry.at, entry.payload)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, from_overflow) = self.head()?;
        Some(self.take_head(from_overflow))
    }

    /// Removes and returns the earliest pending event if it fires at or
    /// before `deadline` — the event loop's fused peek-then-pop. A cheap
    /// occupancy lower bound rejects past-the-deadline calls without
    /// draining or cascading anything.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let wheel_bound = match self.cur.last() {
            Some(entry) => Some(entry.at.as_nanos()),
            None => self.wheel.lower_bound(),
        };
        let heap_bound = self.overflow.first().map(|e| e.at.as_nanos());
        if wheel_bound.into_iter().chain(heap_bound).min()? > deadline.as_nanos() {
            return None;
        }
        let (head, from_overflow) = self.head()?;
        if head.at > deadline {
            return None;
        }
        Some(self.take_head(from_overflow))
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because it may refill the drain buffer from the
    /// wheel; see [`earliest`](Self::earliest) for the non-mutating
    /// variant.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.head().map(|(entry, _)| entry.at)
    }

    /// The timestamp of the earliest pending event, without `&mut self`.
    ///
    /// An exact scan over every pending entry, so it cannot perturb the
    /// queue it inspects. Validation passes (the `--paranoid` invariant
    /// check) use this; the event loop sticks with the mutating fast
    /// path.
    pub fn earliest(&self) -> Option<SimTime> {
        self.cur
            .last()
            .into_iter()
            .chain(self.wheel.entries())
            .chain(self.overflow.first())
            .map(|entry| entry.at)
            .min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cur.len() + self.wheel.count + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn earliest_matches_peek_time_without_mut() {
        let mut q = EventQueue::new();
        assert_eq!(q.earliest(), None);
        q.push(SimTime::from_micros(1), 'a');
        q.push(SimTime::from_micros(5), 'b');
        q.push(SimTime::from_secs(30), 'c'); // overflow heap
        assert_eq!(q.earliest(), Some(SimTime::from_micros(1)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(1), 'a')));
        // The next head still sits in an undrained wheel slot.
        assert_eq!(q.earliest(), Some(SimTime::from_micros(5)));
        assert_eq!(q.earliest(), q.peek_time());
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), 'b')));
        assert_eq!(q.earliest(), Some(SimTime::from_secs(30)));
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 'a');
        q.push(SimTime::from_micros(20), 'b');
        q.push(SimTime::from_micros(30), 'c');
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(5)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_micros(20)),
            Some((SimTime::from_micros(10), 'a'))
        );
        assert_eq!(
            q.pop_at_or_before(SimTime::from_micros(20)),
            Some((SimTime::from_micros(20), 'b'))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(20)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), 'c')));
    }

    #[test]
    fn peek_returns_head_without_removing() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(3), 'a');
        q.push(SimTime::from_micros(5), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), 'a')));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), 'b')));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_overflow_and_pop_in_order() {
        // Beyond the ~4.29 s wheel horizon events live on the heap; they
        // still interleave correctly with wheel-resident events.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 'd');
        q.push(SimTime::from_micros(5), 'a');
        q.push(SimTime::from_secs(5), 'c');
        q.push(SimTime::from_millis(40), 'b');
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_millis(40), 'b')));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 'c')));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 'd')));
        assert!(q.is_empty());
    }

    #[test]
    fn pushes_behind_the_drain_frontier_pop_first() {
        // Popping an event advances the wheel cursor; a later push at an
        // earlier time (allowed by the priority-queue contract) takes the
        // underflow path and must still pop before everything later.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 'b');
        q.push(SimTime::from_millis(9), 'c');
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), 'b')));
        q.push(SimTime::from_micros(1), 'a');
        assert_eq!(q.pop(), Some((SimTime::from_micros(1), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_millis(9), 'c')));
    }

    #[test]
    fn len_tracks_live_events() {
        // Pending events are counted wherever they sit: drain buffer,
        // wheel buckets or overflow heap.
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_micros(i), i);
        }
        q.push(SimTime::from_millis(50), 10);
        q.push(SimTime::from_secs(9), 11);
        assert_eq!(q.len(), 12);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(q.len(), 11);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 11);
        assert_eq!(q.len(), 0);
    }

    proptest! {
        /// Popped timestamps are non-decreasing and every pushed event
        /// comes out exactly once, with its own timestamp.
        #[test]
        fn prop_total_order_and_conservation(
            times in proptest::collection::vec(0u64..1_000, 1..200),
        ) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(*t), i);
            }
            let mut out = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((t, id)) = q.pop() {
                prop_assert!(t >= last);
                prop_assert_eq!(t, SimTime::from_micros(times[id]));
                last = t;
                out.push(id);
            }
            out.sort_unstable();
            prop_assert_eq!(out, (0..times.len()).collect::<Vec<_>>());
        }

        /// FIFO tie-break: for events at the same instant, pop order equals
        /// push order.
        #[test]
        fn prop_fifo_within_timestamp(n in 1usize..100) {
            let mut q = EventQueue::new();
            let t = SimTime::from_millis(7);
            for i in 0..n {
                q.push(t, i);
            }
            for i in 0..n {
                prop_assert_eq!(q.pop(), Some((t, i)));
            }
        }

        /// Interleaved push/pop/deadline-pop against a naive reference
        /// model: the wheel + overflow heap must agree with a sorted-vec
        /// simulation of the same operation sequence, including `len`.
        #[test]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec((0u16..4, 0u64..500), 1..300),
        ) {
            let mut q = EventQueue::new();
            // Reference: (time, seq) kept sorted; the seq is the payload.
            let mut model: Vec<(u64, u64)> = Vec::new();
            let mut next_id = 0u64;
            for (op, t) in ops {
                match op {
                    // Push.
                    0 | 1 => {
                        q.push(SimTime::from_micros(t), next_id);
                        model.push((t, next_id));
                        next_id += 1;
                    }
                    // Pop.
                    2 => {
                        model.sort_unstable();
                        let expected = if model.is_empty() {
                            None
                        } else {
                            let (t, id) = model.remove(0);
                            Some((SimTime::from_micros(t), id))
                        };
                        prop_assert_eq!(q.pop(), expected);
                    }
                    // Deadline pop.
                    _ => {
                        model.sort_unstable();
                        let expected = match model.first() {
                            Some(&(mt, _)) if mt <= t => {
                                let (mt, id) = model.remove(0);
                                Some((SimTime::from_micros(mt), id))
                            }
                            _ => None,
                        };
                        prop_assert_eq!(q.pop_at_or_before(SimTime::from_micros(t)), expected);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
        }

        /// The reference-model property again, over horizons that land
        /// events in every wheel level *and* the overflow heap (times up
        /// to ~8.6 s against a ~4.29 s horizon), with `earliest` checked
        /// against the model each step.
        #[test]
        fn prop_matches_reference_model_all_levels(
            ops in proptest::collection::vec(
                (0u16..4, 0u64..8_589_934_592u64), 1..200,
            ),
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, u64)> = Vec::new();
            let mut next_id = 0u64;
            for (op, t) in ops {
                match op {
                    0 | 1 => {
                        q.push(SimTime::from_nanos(t), next_id);
                        model.push((t, next_id));
                        next_id += 1;
                    }
                    2 => {
                        model.sort_unstable();
                        let expected = if model.is_empty() {
                            None
                        } else {
                            let (t, id) = model.remove(0);
                            Some((SimTime::from_nanos(t), id))
                        };
                        prop_assert_eq!(q.pop(), expected);
                    }
                    _ => {
                        model.sort_unstable();
                        let expected = match model.first() {
                            Some(&(mt, _)) if mt <= t => {
                                let (mt, id) = model.remove(0);
                                Some((SimTime::from_nanos(mt), id))
                            }
                            _ => None,
                        };
                        prop_assert_eq!(q.pop_at_or_before(SimTime::from_nanos(t)), expected);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(
                    q.earliest(),
                    model.iter().map(|&(t, _)| SimTime::from_nanos(t)).min()
                );
            }
        }

        /// A clone taken mid-stream behaves identically to the original
        /// from that point on: same pops, same deadline pops, same
        /// lengths and heads for post-clone pushes. This is the contract
        /// the machine snapshot/fork path rests on.
        #[test]
        fn prop_clone_replays_identically(
            pre in proptest::collection::vec((0u16..3, 0u64..300), 1..120),
            post in proptest::collection::vec((0u16..4, 0u64..300), 1..120),
        ) {
            let mut q = EventQueue::new();
            let mut next_id = 0u64;
            for (op, t) in pre {
                if op < 2 {
                    q.push(SimTime::from_micros(t), next_id);
                    next_id += 1;
                } else {
                    q.pop();
                }
            }
            let mut fork = q.clone();
            prop_assert_eq!(fork.len(), q.len());
            for (op, t) in post {
                match op {
                    0 | 1 => {
                        let at = SimTime::from_micros(t);
                        q.push(at, next_id);
                        fork.push(at, next_id);
                        next_id += 1;
                    }
                    2 => {
                        prop_assert_eq!(q.pop(), fork.pop());
                    }
                    _ => {
                        let deadline = SimTime::from_micros(t);
                        prop_assert_eq!(
                            q.pop_at_or_before(deadline),
                            fork.pop_at_or_before(deadline)
                        );
                    }
                }
                prop_assert_eq!(q.len(), fork.len());
                prop_assert_eq!(q.peek_time(), fork.peek_time());
            }
            loop {
                let (a, b) = (q.pop(), fork.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// `pop_at_or_before` equals peek-check-then-pop for arbitrary
        /// deadlines over arbitrary event sets.
        #[test]
        fn prop_pop_at_or_before_matches_peek_pop(
            times in proptest::collection::vec(0u64..100, 1..80),
            deadline in 0u64..100,
        ) {
            let mut a = EventQueue::new();
            let mut b = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                a.push(SimTime::from_micros(t), i);
                b.push(SimTime::from_micros(t), i);
            }
            let deadline = SimTime::from_micros(deadline);
            loop {
                let fused = a.pop_at_or_before(deadline);
                let split = match b.peek_time() {
                    Some(t) if t <= deadline => b.pop(),
                    _ => None,
                };
                prop_assert_eq!(fused, split);
                if fused.is_none() {
                    break;
                }
            }
            prop_assert_eq!(a.len(), b.len());
        }
    }
}
