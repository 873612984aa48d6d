//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark runs on small shared virtual machines whose speed
//! drifts with what the rest of the host is doing: on a 2-vCPU VM the
//! same checks ran up to 1.7x slower in one 10-s window than in another,
//! and two sets of ten runs of the same code, made minutes apart, read
//! up to 20% apart. No run is long enough to average that out. So every
//! run also times a fixed kernel of this file's own code, which no
//! change to the crates under test can make faster or slower, a few
//! milliseconds at a time, and reports its timings at a reference host
//! speed: divided by the kernel's slowdown against its reference timing.
//! The timed phase uses the kernel's median over the phase, sampled
//! between checks; each set-up uses the kernel run just before it. Over
//! 10-s windows of `umc-sat`, that cut the spread of the check rate
//! (standard deviation of its logarithm) from 0.155 to 0.036. The raw
//! figures and the factor go to the runner-facts line.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel runs at most this often while the workload runs.
const INTERVAL: Duration = Duration::from_millis(500);

/// Each kernel's time in ms at the reference host speed (a 2-vCPU
/// virtual machine at a quiet moment).
const REFERENCE_MS: [f64; 3] = [3.5, 2.5, 2.6];

/// Entries of the pointer-chasing table: 1 MB of `u32`.
const TABLE: usize = 1 << 18;

/// Samples the host's speed with a fixed kernel of three parts that
/// slow down differently under contention: a dependent walk through a
/// 1 MB table (memory latency), a xorshift loop (integer throughput),
/// and short-lived string allocations.
pub struct Calibration {
    table: Vec<u32>,
    samples: [Vec<f64>; 3],
    last: Option<Instant>,
    /// Seconds spent in the kernel so far; timed phases leave them out.
    pub spent_s: f64,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration::new()
    }
}

impl Calibration {
    /// Builds the walk table: one cycle through all entries in a fixed
    /// pseudo-random order.
    pub fn new() -> Calibration {
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        let mut s = 0x9E37_79B9_7F4A_7C15_u64;
        for i in (1..TABLE).rev() {
            s = xorshift(s);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut table = vec![0; TABLE];
        for (i, &at) in order.iter().enumerate() {
            table[at as usize] = order[(i + 1) % TABLE];
        }
        Calibration {
            table,
            samples: Default::default(),
            last: None,
            spent_s: 0.0,
        }
    }

    /// Runs the kernel once; returns each part's time in ms.
    fn run(&mut self) -> [f64; 3] {
        let start = Instant::now();
        let t = Instant::now();
        let mut at = 0_u32;
        let mut h = 0_u64;
        for _ in 0..150_000 {
            at = self.table[at as usize];
            h = h
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(at));
        }
        let chase = t.elapsed();
        let t = Instant::now();
        let mut s = h | 1;
        let mut acc = 0_u64;
        for _ in 0..1_000_000 {
            s = xorshift(s);
            if s & 3 == 1 {
                acc += s >> 60;
            }
        }
        let alu = t.elapsed();
        let t = Instant::now();
        let mut strings = Vec::new();
        for i in 0..20_000_u32 {
            strings.push(format!("{i}:{acc}"));
            if strings.len() > 500 {
                strings.clear();
            }
        }
        let alloc = t.elapsed();
        black_box((h, acc, strings));
        self.spent_s += start.elapsed().as_secs_f64();
        self.last = Some(Instant::now());
        [chase, alu, alloc].map(|d| d.as_secs_f64() * 1e3)
    }

    /// Runs the kernel once and keeps its timings for [`Self::slowdown`].
    fn sample(&mut self) {
        let parts = self.run();
        for (kept, ms) in self.samples.iter_mut().zip(parts) {
            kept.push(ms);
        }
    }

    /// Samples when `INTERVAL` has passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= INTERVAL) {
            self.sample();
        }
    }

    /// Runs the kernel once and returns how much slower than the
    /// reference the host ran it, without keeping the timings: for
    /// pairing with the operation that follows. The host's speed can
    /// flip within a second, which a set-up of a few milliseconds feels
    /// and the run's median does not.
    pub fn measure(&mut self) -> f64 {
        let parts = self.run();
        slowdown(&parts.map(|ms| vec![ms]))
    }

    /// How much slower than the reference the host ran: the geometric
    /// mean over the kernel's parts of median time ÷ reference time.
    /// 1 before any sample.
    pub fn slowdown(&self) -> f64 {
        slowdown(&self.samples)
    }
}

fn slowdown(samples: &[Vec<f64>; 3]) -> f64 {
    let logs: Option<Vec<f64>> = samples
        .iter()
        .zip(REFERENCE_MS)
        .map(|(s, r)| crate::stats::median(s).map(|m| (m / r).ln()))
        .collect();
    logs.map_or(1.0, |l| (l.iter().sum::<f64>() / l.len() as f64).exp())
}

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^ (s << 17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_geometric_mean_of_median_ratios() {
        let at = |f: f64| REFERENCE_MS.map(|r| vec![r * f, r * f * 9.0, r * f * 0.5]);
        assert!((slowdown(&at(1.0)) - 1.0).abs() < 1e-12);
        assert!((slowdown(&at(2.0)) - 2.0).abs() < 1e-12);
        let mut mixed = at(1.0);
        mixed[0] = vec![REFERENCE_MS[0] * 8.0];
        assert!((slowdown(&mixed) - 2.0).abs() < 1e-12);
        assert_eq!(slowdown(&Default::default()), 1.0);
    }

    #[test]
    fn the_walk_visits_every_entry() {
        let c = Calibration::new();
        let (mut at, mut steps) = (c.table[0], 1);
        while at != 0 {
            at = c.table[at as usize];
            steps += 1;
        }
        assert_eq!(steps, TABLE);
    }
}
