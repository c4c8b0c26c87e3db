//! A frozen host-speed reference, timed between the measured calls so
//! that host time can be normalised for the host's drift.
//!
//! On the 2-vCPU host this benchmark was built on, the speed of the
//! simulator drifts by up to 65% between 20-second windows (level shifts
//! lasting seconds to minutes). A pure integer spin (`calibration_spin`)
//! tracks that drift poorly; so do a branchy event loop alone (it
//! under-tracks) and the same loop walking a 2 MB table at every event
//! (it over-tracks). The geometric mean of the two tracked the simulator
//! to a 6% spread of 20-second medians where raw host time spread 47%;
//! see `README.md`. Both kernels use only the standard library, so no change
//! to the simulator can change them.

use crate::stats::{median, thread_cpu_s};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The reference's cost, in seconds, on the host the benchmark was
/// tuned on (a 2-vCPU Intel Xeon guest, median over a calm minute).
/// Normalised host times read as seconds at that speed.
const NOMINAL_S: f64 = 0.0075;
/// Events per sample of the plain event loop.
const LOOP_EVENTS: u32 = 60_000;
/// Events per sample of the table-walking event loop.
const WALK_EVENTS: u32 = 40_000;
/// Table size of the walking loop, in u64 words (2 MB).
const TABLE_WORDS: u64 = 1 << 18;

#[derive(Clone, Copy, Default)]
struct Vcpu {
    state: u8,
    pcpu: u16,
    credit: i64,
    gen: u64,
    spins: u32,
    work: u64,
}

/// Seconds `f` takes: thread CPU time, or wall time where the former
/// is unavailable.
fn timed(f: impl FnOnce() -> u64) -> f64 {
    let (cpu, wall) = (thread_cpu_s(), Instant::now());
    black_box(f());
    match (cpu, thread_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => wall.elapsed().as_secs_f64(),
    }
}

/// A toy hypervisor: 24 vCPUs on 12 run queues, eight spinlocks, and a
/// binary-heap event queue with generation-checked stale events. With a
/// table, every event also makes four dependent random accesses to it.
struct EventLoop {
    table: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u32, u32, u64)>>,
    vcpus: Vec<Vcpu>,
    runqs: Vec<Vec<u32>>,
    locks: [u32; 8],
    now: u64,
    x: u64,
    seq: u32,
}

impl EventLoop {
    fn new(table_words: u64) -> Self {
        let mut l = EventLoop {
            table: (0..table_words)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            queue: BinaryHeap::new(),
            vcpus: vec![Vcpu::default(); 24],
            runqs: vec![Vec::new(); 12],
            locks: [u32::MAX; 8],
            now: 0,
            x: 0x9E37_79B9_7F4A_7C15,
            seq: 0,
        };
        for v in 0..24u32 {
            l.vcpus[v as usize].pcpu = (v % 12) as u16;
            l.push(1_000 + u64::from(v) * 37, v, 0);
        }
        l
    }

    fn rnd(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn push(&mut self, at: u64, vcpu: u32, kind: u32) {
        let gen = self.vcpus[vcpu as usize].gen;
        self.queue
            .push(Reverse((at, self.seq, vcpu | (kind << 8), gen)));
        self.seq = self.seq.wrapping_add(1);
    }

    fn run(&mut self, events: u32) -> u64 {
        let mut acc = 0u64;
        for _ in 0..events {
            let Reverse((t, _, tagged, gen)) = self.queue.pop().expect("every event reschedules");
            self.now = t;
            let (vi, kind) = ((tagged & 0xff) as usize, tagged >> 8);
            if gen != self.vcpus[vi].gen {
                acc += 1;
                continue;
            }
            let r = self.rnd();
            if !self.table.is_empty() {
                let mask = self.table.len() - 1;
                let mut j = r as usize & mask;
                for _ in 0..4 {
                    let a = self.table[j];
                    self.table[j] = a.rotate_left(7) ^ r;
                    j = a as usize & mask;
                    acc = acc.wrapping_add(a & 1);
                }
            }
            let v = &mut self.vcpus[vi];
            v.gen += 1;
            let next = match (kind, v.state) {
                (0, 0) => {
                    v.work += 1;
                    v.credit -= (r % 100) as i64;
                    if r & 3 == 0 {
                        v.state = 1;
                    }
                    4_000 + r % 60_000
                }
                (0, 1) => {
                    let lock = (r >> 8) as usize % self.locks.len();
                    if self.locks[lock] == u32::MAX {
                        self.locks[lock] = vi as u32;
                        v.state = 2;
                        3_000
                    } else {
                        v.spins += 1;
                        if v.spins > 3 {
                            v.spins = 0;
                            let q = &mut self.runqs[v.pcpu as usize];
                            q.push(vi as u32);
                            if q.len() > 4 {
                                q.sort_unstable();
                                q.truncate(2);
                            }
                        }
                        10_000
                    }
                }
                (0, _) => {
                    for l in self.locks.iter_mut().filter(|l| **l == vi as u32) {
                        *l = u32::MAX;
                    }
                    v.state = 0;
                    1_000 + r % 5_000
                }
                _ => 30_000_000,
            };
            acc = acc.wrapping_add(next);
            let now = self.now;
            self.push(now + next, vi as u32, 0);
            if r.is_multiple_of(97) {
                self.push(now + 30_000_000, vi as u32, 1);
            }
        }
        acc
    }
}

/// The reference: both kernels, and the samples taken so far.
pub struct Reference {
    plain: EventLoop,
    walking: EventLoop,
    samples: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            plain: EventLoop::new(0),
            walking: EventLoop::new(TABLE_WORDS),
            samples: Vec::new(),
        }
    }
}

impl Reference {
    /// Times both kernels once and records the geometric mean of their
    /// durations. Durations are the thread's CPU time where the kernel
    /// reports it, so a sample taken while the suite's workers hold the
    /// CPUs measures the host's speed, not the wait for a CPU.
    pub fn sample(&mut self) {
        let loop_s = timed(|| black_box(self.plain.run(LOOP_EVENTS)));
        let walk_s = timed(|| black_box(self.walking.run(WALK_EVENTS)));
        self.samples.push((loop_s * walk_s).sqrt());
    }

    /// How much slower the host ran than nominal during this run: the
    /// median sample over [`NOMINAL_S`]. Divide host times by it.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / NOMINAL_S
    }
}
