//! Counterexample traces and their replay.

use std::fmt;

use crate::network::Network;

/// A finite input trace from the initial state, used as a counterexample
/// witness: step `t` applies `step(t)` to the state reached after `t`
/// steps.
///
/// Steps are packed row by row into 64-bit words (bit `t * width + i`
/// is input `i` at step `t`), so a kept trace costs one bit per input
/// per step.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Trace {
    width: usize,
    steps: usize,
    bits: Vec<u64>,
}

impl Trace {
    /// Creates a trace from per-step primary-input vectors.
    ///
    /// # Panics
    ///
    /// Panics if the steps differ in width.
    pub fn new(inputs: Vec<Vec<bool>>) -> Trace {
        let width = inputs.first().map_or(0, Vec::len);
        let mut bits = vec![0u64; (inputs.len() * width).div_ceil(64)];
        for (t, step) in inputs.iter().enumerate() {
            assert_eq!(step.len(), width, "trace step {t} has a different width");
            for (i, &b) in step.iter().enumerate() {
                let k = t * width + i;
                bits[k / 64] |= u64::from(b) << (k % 64);
            }
        }
        Trace {
            width,
            steps: inputs.len(),
            bits,
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps
    }

    /// Whether the trace has zero steps (bad in the initial state).
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// The input vector of step `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    pub fn step(&self, t: usize) -> Vec<bool> {
        assert!(t < self.steps, "step {t} of a {}-step trace", self.steps);
        (t * self.width..(t + 1) * self.width)
            .map(|k| (self.bits[k / 64] >> (k % 64)) & 1 != 0)
            .collect()
    }

    /// The input vectors, step by step.
    pub fn inputs(&self) -> Vec<Vec<bool>> {
        (0..self.steps).map(|t| self.step(t)).collect()
    }

    /// Replays the trace on `net` and returns the visited states
    /// (length `len() + 1`, starting at the initial state) and whether
    /// `bad` fired at any visited step.
    ///
    /// The counterexample is valid iff this returns `true`: `bad` must hold
    /// in some visited state (checked with the inputs applied there, or
    /// with all-zero inputs in the final state).
    pub fn replay(&self, net: &Network) -> (Vec<Vec<bool>>, bool) {
        let mut states = vec![net.initial_state()];
        let mut hit = false;
        for t in 0..self.steps {
            let cur = states.last().expect("non-empty");
            let (next, bad) = net.step(cur, &self.step(t));
            hit |= bad;
            states.push(next);
        }
        // Bad may hold in the final state under all-zero inputs.
        let zeros = vec![false; net.num_inputs()];
        let (_, bad_final) = net.step(states.last().expect("non-empty"), &zeros);
        (states, hit || bad_final)
    }

    /// Whether this trace is a genuine counterexample for `net`.
    pub fn validates(&self, net: &Network) -> bool {
        self.replay(net).1
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("inputs", &self.inputs())
            .finish()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace of {} steps:", self.steps)?;
        for t in 0..self.steps {
            let bits: String = self
                .step(t)
                .iter()
                .map(|b| if *b { '1' } else { '0' })
                .collect();
            writeln!(f, "  step {t}: {bits}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    #[test]
    fn replay_detects_bad() {
        // Toggler: bad when the bit is 1, reached after one step.
        let mut b = Network::builder("toggler");
        let s = b.add_latch(false);
        let n = !s.lit();
        b.set_next(s, n);
        let net = b.build(s.lit());
        let t = Trace::new(vec![vec![]]);
        let (states, hit) = t.replay(&net);
        assert!(hit);
        assert_eq!(states.len(), 2);
        assert!(t.validates(&net));
    }

    /// Rows of `width` inputs over `len` steps, with a bit pattern that
    /// differs between neighbouring rows and words.
    fn rows(width: usize, len: usize) -> Vec<Vec<bool>> {
        (0..len)
            .map(|t| (0..width).map(|i| (t * 31 + i * 7) % 3 == 0).collect())
            .collect()
    }

    #[test]
    fn packing_round_trips_across_word_boundaries() {
        for width in [0, 1, 63, 64, 65] {
            for len in 0..=5 {
                let rows = rows(width, len);
                let trace = Trace::new(rows.clone());
                assert_eq!(trace.len(), len);
                assert_eq!(trace.is_empty(), len == 0);
                assert_eq!(trace.inputs(), rows, "width {width}, {len} steps");
                for (t, row) in rows.iter().enumerate() {
                    assert_eq!(&trace.step(t), row, "width {width}, step {t}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different width")]
    fn ragged_rows_panic() {
        Trace::new(vec![vec![true, false], vec![true]]);
    }

    #[test]
    fn display_and_debug_formats_are_stable() {
        let trace = Trace::new(vec![vec![true, false, true], vec![false, false, true]]);
        assert_eq!(
            trace.to_string(),
            "trace of 2 steps:\n  step 0: 101\n  step 1: 001\n"
        );
        assert_eq!(Trace::default().to_string(), "trace of 0 steps:\n");
        assert_eq!(
            format!("{trace:?}"),
            "Trace { inputs: [[true, false, true], [false, false, true]] }"
        );
    }

    #[test]
    fn empty_trace_checks_initial_state() {
        let mut b = Network::builder("bad-init");
        let s = b.add_latch(true);
        b.set_next(s, s.lit());
        let net = b.build(s.lit());
        assert!(Trace::default().validates(&net));
    }
}
