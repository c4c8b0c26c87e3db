//! Differential fuzz: the wheel-backed [`EventQueue`] against the
//! pre-wheel [`HeapEventQueue`] reference backend.
//!
//! Both queues implement the same contract — `(time, seq)` total order,
//! FIFO within a timestamp — so driving
//! them through identical seeded op sequences and asserting identical
//! observable behaviour (pop order, deadline pops, peeks, lengths) is a
//! direct check that the timing wheel changed the data structure and
//! nothing else. The op mix mirrors the simulator's access pattern: a
//! monotonically advancing frontier, pushes at short horizons past the
//! frontier (the 0.1–30 ms timer classes), occasional far-future pushes
//! that land on the overflow heap, and repeat pushes at earlier firing
//! times (ties, and pushes behind the drain frontier).
//!
//! `scripts/ci.sh` runs this as the `wheel_vs_heap` differential smoke.

use simcore::event::{EventQueue, HeapEventQueue};
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};

/// One seeded differential run of `ops` operations.
fn differential_run(seed: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut pushed = Vec::new();
    let mut next_id = 0u64;
    // The simulated clock: advanced by deadline pops, like `Machine::now`.
    let mut now = SimTime::ZERO;

    for step in 0..ops {
        let roll = rng.below(100);
        match roll {
            // Push at a short horizon past the frontier — the dominant
            // micro-slice timer class (slice expiry, IPI acks, kicks).
            0..=39 => {
                let horizon = SimDuration::from_nanos(rng.below(30_000_000));
                let at = now + horizon;
                wheel.push(at, next_id);
                heap.push(at, next_id);
                pushed.push(at);
                next_id += 1;
            }
            // Far-future push: overflow-heap territory (beyond ~4.29 s).
            40..=44 => {
                let at = now + SimDuration::from_nanos(4_000_000_000 + rng.below(8_000_000_000));
                wheel.push(at, next_id);
                heap.push(at, next_id);
                pushed.push(at);
                next_id += 1;
            }
            // Zero-delta push: fires exactly at the frontier.
            45..=49 => {
                wheel.push(now, next_id);
                heap.push(now, next_id);
                pushed.push(now);
                next_id += 1;
            }
            // Deadline pop, advancing the frontier — `Machine::step`'s
            // `pop_at_or_before(now + quantum)` shape.
            50..=79 => {
                let deadline = now + SimDuration::from_nanos(rng.below(2_000_000));
                let a = wheel.pop_at_or_before(deadline);
                let b = heap.pop_at_or_before(deadline);
                assert_eq!(
                    a, b,
                    "deadline pop diverged at step {step} (seed {seed:#x})"
                );
                if let Some((t, _)) = a {
                    now = now.max(t);
                } else {
                    now = now.max(deadline);
                }
            }
            // Unconditional pop.
            80..=89 => {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "pop diverged at step {step} (seed {seed:#x})");
                if let Some((t, _)) = a {
                    now = now.max(t);
                }
            }
            // Repeat push at the firing time of an earlier push: a tie
            // with a pending event, or — once that time has passed — a
            // push behind the drain frontier.
            _ => {
                if !pushed.is_empty() {
                    let at = pushed[rng.below(pushed.len() as u64) as usize];
                    wheel.push(at, next_id);
                    heap.push(at, next_id);
                    next_id += 1;
                }
            }
        }
        assert_eq!(
            wheel.len(),
            heap.len(),
            "len diverged at step {step} (seed {seed:#x})"
        );
        assert_eq!(
            wheel.peek_time(),
            heap.peek_time(),
            "peek_time diverged at step {step} (seed {seed:#x})"
        );
        assert_eq!(
            wheel.earliest(),
            wheel.peek_time(),
            "earliest out of sync with peek_time at step {step} (seed {seed:#x})"
        );
    }

    // Drain both queues dry: the tails must match event for event.
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b, "drain diverged (seed {seed:#x})");
        if a.is_none() {
            break;
        }
    }
}

/// The default smoke: 64 seeds × 2000 ops. `scripts/ci.sh` runs exactly
/// this test; a divergence prints the offending seed for replay.
#[test]
fn wheel_matches_heap_reference() {
    for seed in 0..64u64 {
        differential_run(0x0005_7EE1_0000 + seed, 2000);
    }
}

/// Long-horizon variant: fewer seeds, more ops, so the frontier crosses
/// every wheel level boundary (level-2 slots are ~67 ms wide) many times.
#[test]
fn wheel_matches_heap_reference_long() {
    for seed in 0..8u64 {
        differential_run(0x1046_u64.wrapping_add(seed), 20_000);
    }
}
