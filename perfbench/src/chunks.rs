//! Host time of fixed simulated chunks, kept per repetition.
//!
//! A repetition advances each of its machines through the same sequence
//! of simulated chunks, so every repetition does the same work. A
//! machine's host cost is the median over repetitions of its chunks'
//! summed time: a burst of host noise slows one repetition and the
//! median drops it. (Summing per-chunk-position medians instead spread
//! twice as much between runs on `micro-io-mix`, whose chunks are a few
//! milliseconds long.)

use crate::stats::{median, quantile};

/// Chunk host times in seconds: `reps[rep][machine][chunk]`.
#[derive(Default)]
pub struct Chunks {
    reps: Vec<Vec<Vec<f64>>>,
}

impl Chunks {
    /// Starts a repetition with `machines` empty chunk lists.
    pub fn begin_rep(&mut self, machines: usize) {
        self.reps.push(vec![Vec::new(); machines]);
    }

    /// Records one chunk of `machine` in the current repetition.
    pub fn push(&mut self, machine: usize, secs: f64) {
        self.reps.last_mut().expect("begin_rep before push")[machine].push(secs);
    }

    /// Number of repetitions.
    pub fn reps(&self) -> usize {
        self.reps.len()
    }

    /// Whether every repetition ran the same number of chunks per
    /// machine (a deterministic simulation always does).
    pub fn aligned(&self) -> bool {
        self.reps
            .windows(2)
            .all(|w| w[0].iter().zip(&w[1]).all(|(a, b)| a.len() == b.len()))
    }

    /// Median over repetitions of the host seconds the chunks of
    /// `machines` took together in one repetition.
    pub fn median_rep_s(&self, machines: std::ops::Range<usize>) -> f64 {
        let totals: Vec<f64> = self
            .reps
            .iter()
            .map(|r| r[machines.clone()].iter().flatten().sum())
            .collect();
        median(&totals)
    }

    /// The `q` quantile over repetitions of one repetition's host
    /// seconds, all machines together.
    pub fn rep_quantile(&self, q: f64) -> f64 {
        let totals: Vec<f64> = self.reps.iter().map(|r| r.iter().flatten().sum()).collect();
        quantile(&totals, q)
    }

    /// Every chunk sample, in seconds.
    pub fn all(&self) -> Vec<f64> {
        self.reps.iter().flatten().flatten().copied().collect()
    }

    /// Median chunk time over the chunk positions in `range` (fractions
    /// of each machine's chunk count), all machines and repetitions.
    pub fn median_in(&self, range: std::ops::Range<f64>) -> f64 {
        let mut v = Vec::new();
        for rep in &self.reps {
            for m in rep {
                let n = m.len() as f64;
                v.extend(
                    m.iter()
                        .enumerate()
                        .filter(|&(c, _)| range.contains(&(c as f64 / n)))
                        .map(|(_, &s)| s),
                );
            }
        }
        median(&v)
    }

    /// The `q` quantile of every chunk sample.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.all(), q)
    }
}
