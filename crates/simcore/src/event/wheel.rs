//! The hierarchical timing-wheel level structure behind
//! [`EventQueue`](super::EventQueue).
//!
//! Three power-of-two levels bucket entries by firing time relative to a
//! monotonically advancing `cursor` (the drain frontier, always a
//! multiple of the level-0 granularity):
//!
//! | level | slots | granularity        | window from cursor |
//! |-------|-------|--------------------|--------------------|
//! | 0     | 256   | 2^12 ns ≈ 4.1 µs   | 2^20 ns ≈ 1.05 ms  |
//! | 1     | 64    | 2^20 ns ≈ 1.05 ms  | 2^26 ns ≈ 67 ms    |
//! | 2     | 64    | 2^26 ns ≈ 67 ms    | 2^32 ns ≈ 4.29 s   |
//!
//! Entries beyond the level-2 window — or behind the cursor — are the
//! caller's problem (the queue routes them to its overflow heap). Each
//! level keeps an occupancy bitmap (one bit per slot) so finding the next
//! non-empty slot is a handful of word operations, never a slot walk.
//! Buckets are unordered; the queue sorts a bucket once when the cursor
//! reaches it. Higher-level buckets cascade down exactly when the cursor
//! enters their tick, so every entry is sorted exactly once, in the
//! finest-granularity bucket it ends up in. See DESIGN.md §4.10.

use super::heap::Entry;

/// log2 of the level-0 slot width in nanoseconds.
pub(super) const SHIFT0: u32 = 12;
/// log2 of the level-1 slot width: 256 level-0 slots.
pub(super) const SHIFT1: u32 = SHIFT0 + 8;
/// log2 of the level-2 slot width: 64 level-1 slots.
pub(super) const SHIFT2: u32 = SHIFT1 + 6;
/// log2 of the full wheel horizon: 64 level-2 slots. Times at or beyond
/// `cursor + 2^HORIZON_SHIFT` ns belong in the overflow heap.
pub(super) const HORIZON_SHIFT: u32 = SHIFT2 + 6;

const SLOTS0: u64 = 1 << (SHIFT1 - SHIFT0);
const SLOTS1: u64 = 1 << (SHIFT2 - SHIFT1);
const SLOTS2: u64 = 1 << (HORIZON_SHIFT - SHIFT2);

/// First set bit at or after `start` in a circular 256-bit map, as a
/// delta `0..256` from `start`; `None` if the map is empty.
#[inline]
fn scan256(occ: &[u64; 4], start: usize) -> Option<usize> {
    let (w0, b0) = (start >> 6, start & 63);
    let first = occ[w0] >> b0;
    if first != 0 {
        return Some(first.trailing_zeros() as usize);
    }
    for k in 1..4 {
        let w = occ[(w0 + k) & 3];
        if w != 0 {
            return Some((64 - b0) + 64 * (k - 1) + w.trailing_zeros() as usize);
        }
    }
    let low = occ[w0] & ((1u64 << b0) - 1);
    if low != 0 {
        return Some((64 - b0) + 192 + low.trailing_zeros() as usize);
    }
    None
}

/// First set bit strictly after `start` in a circular 64-bit map, as a
/// delta `1..64`; the `start` bit itself is ignored (that slot is
/// invariantly empty at levels 1 and 2 — see the cascade notes below).
#[inline]
fn scan64_after(occ: u64, start: usize) -> Option<usize> {
    let rot = occ.rotate_right(start as u32) & !1u64;
    if rot == 0 {
        None
    } else {
        Some(rot.trailing_zeros() as usize)
    }
}

/// The three bucket levels plus their occupancy bitmaps and the cursor.
///
/// Invariants (checked in debug builds, relied on by the scans):
/// - every bucketed entry fires in `[cursor, cursor + 2^HORIZON_SHIFT)`,
///   at the finest level whose window (table above) covers it;
/// - the level-1 and level-2 slots containing the cursor are empty
///   (their buckets cascade down the moment the cursor enters them);
/// - the level-0 slot containing the cursor is only ever filled by a
///   cascade, and [`Wheel::take_next_slot`] drains it in the same call —
///   direct pushes for the cursor slot stay in the queue's drain buffer.
#[derive(Clone)]
pub(super) struct Wheel<E> {
    l0: Vec<Vec<Entry<E>>>,
    l1: Vec<Vec<Entry<E>>>,
    l2: Vec<Vec<Entry<E>>>,
    occ0: [u64; 4],
    occ1: u64,
    occ2: u64,
    /// The drain frontier in ns, always a multiple of `2^SHIFT0`. Never
    /// moves backwards; never skips a non-empty slot.
    pub(super) cursor: u64,
    /// Total entries across all buckets.
    pub(super) count: usize,
}

impl<E: Copy> Wheel<E> {
    pub(super) fn new() -> Self {
        Wheel {
            l0: (0..SLOTS0).map(|_| Vec::new()).collect(),
            l1: (0..SLOTS1).map(|_| Vec::new()).collect(),
            l2: (0..SLOTS2).map(|_| Vec::new()).collect(),
            occ0: [0; 4],
            occ1: 0,
            occ2: 0,
            cursor: 0,
            count: 0,
        }
    }

    /// Buckets `entry` at the finest level covering its firing time, or
    /// hands it back if it fires at or beyond the wheel horizon. The
    /// caller must not pass times behind the cursor, and routes times in
    /// the cursor's own level-0 slot here only from a cascade.
    #[inline]
    pub(super) fn insert(&mut self, entry: Entry<E>) -> Result<(), Entry<E>> {
        let t = entry.at.as_nanos();
        debug_assert!(t >= self.cursor);
        if (t >> SHIFT0) - (self.cursor >> SHIFT0) < SLOTS0 {
            let i = ((t >> SHIFT0) & (SLOTS0 - 1)) as usize;
            self.l0[i].push(entry);
            self.occ0[i >> 6] |= 1 << (i & 63);
        } else if (t >> SHIFT1) - (self.cursor >> SHIFT1) < SLOTS1 {
            let i = ((t >> SHIFT1) & (SLOTS1 - 1)) as usize;
            self.l1[i].push(entry);
            self.occ1 |= 1 << i;
        } else if (t >> SHIFT2) - (self.cursor >> SHIFT2) < SLOTS2 {
            let i = ((t >> SHIFT2) & (SLOTS2 - 1)) as usize;
            self.l2[i].push(entry);
            self.occ2 |= 1 << i;
        } else {
            return Err(entry);
        }
        self.count += 1;
        Ok(())
    }

    /// A lower bound (slot start) on the earliest bucketed firing time,
    /// without mutating anything. `None` iff the wheel is empty.
    #[inline]
    pub(super) fn lower_bound(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let cur0 = self.cursor >> SHIFT0;
        let cur1 = self.cursor >> SHIFT1;
        let cur2 = self.cursor >> SHIFT2;
        let mut bound = u64::MAX;
        if let Some(d) = scan256(&self.occ0, (cur0 & (SLOTS0 - 1)) as usize) {
            bound = (cur0 + d as u64) << SHIFT0;
        }
        if let Some(d) = scan64_after(self.occ1, (cur1 & (SLOTS1 - 1)) as usize) {
            bound = bound.min((cur1 + d as u64) << SHIFT1);
        }
        if let Some(d) = scan64_after(self.occ2, (cur2 & (SLOTS2 - 1)) as usize) {
            bound = bound.min((cur2 + d as u64) << SHIFT2);
        }
        debug_assert_ne!(bound, u64::MAX, "count > 0 but no occupied slot");
        Some(bound)
    }

    /// Every bucketed entry, in unspecified order.
    pub(super) fn entries(&self) -> impl Iterator<Item = &Entry<E>> {
        self.l0.iter().chain(&self.l1).chain(&self.l2).flatten()
    }

    /// Advances the cursor to the next non-empty level-0 slot — cascading
    /// level-1/2 buckets down as their ticks are entered — and moves that
    /// slot's entries (unsorted) into `out`. Returns `false` iff the
    /// wheel is empty.
    pub(super) fn take_next_slot(&mut self, out: &mut Vec<Entry<E>>) -> bool {
        debug_assert!(out.is_empty());
        loop {
            if self.count == 0 {
                return false;
            }
            let cur0 = self.cursor >> SHIFT0;
            let cur1 = self.cursor >> SHIFT1;
            let cur2 = self.cursor >> SHIFT2;
            let a = scan256(&self.occ0, (cur0 & (SLOTS0 - 1)) as usize).map(|d| cur0 + d as u64);
            let b =
                scan64_after(self.occ1, (cur1 & (SLOTS1 - 1)) as usize).map(|d| cur1 + d as u64);
            let c =
                scan64_after(self.occ2, (cur2 & (SLOTS2 - 1)) as usize).map(|d| cur2 + d as u64);
            let ab = a.map_or(u64::MAX, |t| t << SHIFT0);
            let bb = b.map_or(u64::MAX, |t| t << SHIFT1);
            let cb = c.map_or(u64::MAX, |t| t << SHIFT2);
            // Deeper levels win ties: a bucket whose tick starts at the
            // same instant as a shallower slot may hold earlier entries,
            // so it must cascade before that slot drains.
            if cb <= ab && cb <= bb {
                let tick = c.expect("cb finite");
                self.cursor = tick << SHIFT2;
                let i = (tick & (SLOTS2 - 1)) as usize;
                self.occ2 &= !(1 << i);
                let bucket = core::mem::take(&mut self.l2[i]);
                self.count -= bucket.len();
                for e in bucket {
                    assert!(self.insert(e).is_ok(), "within level-2 window");
                }
                // The cursor just landed on a level-2 boundary, which is
                // also the *start* of a level-1 slot. That slot may hold
                // entries inserted while the cursor was still in the
                // previous level-2 slot (the level-1 window spans level-2
                // boundaries); cascade it down now, in the same call, so
                // the delta-0 exclusion in the level-1 scan never hides
                // it. Its entries all land in level 0 — they fire within
                // 2^SHIFT1 ns of the new cursor.
                let j = ((self.cursor >> SHIFT1) & (SLOTS1 - 1)) as usize;
                if self.occ1 & (1 << j) != 0 {
                    self.occ1 &= !(1 << j);
                    let bucket = core::mem::take(&mut self.l1[j]);
                    self.count -= bucket.len();
                    for e in bucket {
                        assert!(self.insert(e).is_ok(), "within level-1 window");
                    }
                }
            } else if bb <= ab {
                let tick = b.expect("bb finite");
                self.cursor = tick << SHIFT1;
                let i = (tick & (SLOTS1 - 1)) as usize;
                self.occ1 &= !(1 << i);
                let bucket = core::mem::take(&mut self.l1[i]);
                self.count -= bucket.len();
                for e in bucket {
                    assert!(self.insert(e).is_ok(), "within level-1 window");
                }
            } else {
                let tick = a.expect("count > 0 with no level-1/2 slot");
                self.cursor = tick << SHIFT0;
                let i = (tick & (SLOTS0 - 1)) as usize;
                self.occ0[i >> 6] &= !(1 << (i & 63));
                core::mem::swap(out, &mut self.l0[i]);
                self.count -= out.len();
                return true;
            }
        }
    }
}
