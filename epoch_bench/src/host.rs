//! The host-speed reference: a fixed kernel, timed between the rounds of a
//! bare run, that every end-to-end time is stated against.
//!
//! On a shared host the same round takes anywhere from 0.65 to 1.3 s as
//! other tenants load the memory system, for seconds to minutes at a time.
//! The reference is one pull pass of two interleaved rows over a seeded
//! random graph of 1M nodes and out-degree 11 — the memory pattern of one
//! shard's accountant advance — in this package's own code, so no change to
//! the program moves it.  A run whose passes ran slow had a slow host, and
//! its times are scaled back by
//!
//! ```text
//! factor = (REFERENCE_PASS_S / median pass of the run) ^ SENSITIVITY
//! ```
//!
//! The passes run only between rounds, never inside a timed span, and their
//! time is left out of the epoch time.

use crate::measure::median;
use crate::workload::splitmix;
use std::time::Instant;

/// The pass time every adjusted time is stated at: about what a pass takes
/// on the benchmark's 2-vCPU x86-64 host when nothing else loads it.
pub const REFERENCE_PASS_S: f64 = 0.1;

/// Nodes and out-degree of the reference graph.
const NODES: usize = 1_000_000;
const DEGREE: usize = 11;

/// How a time of the program grows with the pass time: across runs, the
/// program's times grow as the pass time to a power of 0.3 to 0.85, about
/// 0.55 at the median, so a slow host stretches the pass about twice as much
/// as the program (in logarithms).
const SENSITIVITY: f64 = 0.5;

/// A pass runs once this many seconds have passed since the last one ended,
/// at the next point between rounds: after every other round of
/// `churn_sharded_1m`, after every eighth or so of `static_mono_1m`.
const CADENCE_S: f64 = 1.0;

/// Passes made at start-up, so a run with few rounds still has passes.
const START_PASSES: usize = 2;

pub struct HostReference {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    passes: Vec<f64>,
    last_end: Instant,
}

impl HostReference {
    /// A reference that never makes a pass, for runs whose times are
    /// reported raw (the traced run).
    pub fn disabled() -> Self {
        HostReference {
            offsets: Vec::new(),
            targets: Vec::new(),
            weights: Vec::new(),
            x: Vec::new(),
            y: Vec::new(),
            passes: Vec::new(),
            last_end: Instant::now(),
        }
    }

    /// Builds the reference graph (the same on every run, whatever the
    /// workload seed) and makes the start-up passes.
    pub fn new() -> Self {
        let mut state = 0x5EED_u64;
        let targets: Vec<u32> = (0..NODES * DEGREE)
            .map(|_| {
                state = splitmix(state);
                (state % NODES as u64) as u32
            })
            .collect();
        let mut reference = HostReference {
            offsets: (0..=NODES).map(|v| (v * DEGREE) as u32).collect(),
            targets,
            weights: vec![1.0 / DEGREE as f64; NODES * DEGREE],
            x: (0..2 * NODES).map(|i| (i % 7) as f64).collect(),
            y: vec![0.0; 2 * NODES],
            passes: Vec::new(),
            last_end: Instant::now(),
        };
        for _ in 0..START_PASSES {
            reference.pass();
        }
        reference
    }

    /// Bytes the reference keeps resident, to take out of the process's
    /// peak resident set.
    pub fn resident_bytes(&self) -> usize {
        4 * (self.offsets.len() + self.targets.len())
            + 8 * (self.weights.len() + self.x.len() + self.y.len())
    }

    /// One timed pass: `y = A x` for both rows, then the rows swap.
    fn pass(&mut self) {
        let t = Instant::now();
        for v in 0..NODES {
            let (a, b) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            let (mut s0, mut s1) = (0.0, 0.0);
            for e in a..b {
                let u = self.targets[e] as usize;
                let w = self.weights[e];
                s0 += w * self.x[2 * u];
                s1 += w * self.x[2 * u + 1];
            }
            self.y[2 * v] = s0;
            self.y[2 * v + 1] = s1;
        }
        std::mem::swap(&mut self.x, &mut self.y);
        std::hint::black_box(&self.x);
        self.passes.push(t.elapsed().as_secs_f64());
        self.last_end = Instant::now();
    }

    /// Called between rounds: makes a pass if one is due.  Returns the
    /// seconds it took (0 if none was due), for the caller to leave out of
    /// any span around it.
    pub fn tick(&mut self) -> f64 {
        if self.targets.is_empty() || self.last_end.elapsed().as_secs_f64() < CADENCE_S {
            return 0.0;
        }
        let t = Instant::now();
        self.pass();
        t.elapsed().as_secs_f64()
    }

    /// Passes made so far.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Median pass time so far, in seconds.
    pub fn pass_p50_s(&self) -> f64 {
        median(&self.passes)
    }

    /// The factor that states a time measured in this run at the reference
    /// pass time.
    pub fn factor(&self) -> f64 {
        (REFERENCE_PASS_S / self.pass_p50_s()).powf(SENSITIVITY)
    }
}
