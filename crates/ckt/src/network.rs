//! The sequential network model.

use std::collections::HashMap;
use std::fmt;

use cbq_aig::{Aig, Cube, Lit, Var};

/// One state-holding element: an AIG input `var` holding the current
/// state bit, a next-state function `next`, and a reset value `init`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Latch {
    /// The AIG input variable carrying the current-state value.
    pub var: Var,
    /// Next-state function over latch vars and primary inputs.
    pub next: Lit,
    /// Initial (reset) value.
    pub init: bool,
}

/// A sequential circuit: primary inputs, latches, and a bad-state output.
///
/// Following the AIGER convention, the safety property is "`bad` is never
/// asserted"; a state (or trace) reaching `bad = 1` is a counterexample.
#[derive(Clone)]
pub struct Network {
    name: String,
    aig: Aig,
    inputs: Vec<Var>,
    latches: Vec<Latch>,
    bad: Lit,
}

impl Network {
    /// Starts building a network with the given name.
    pub fn builder(name: impl Into<String>) -> NetworkBuilder {
        NetworkBuilder {
            name: name.into(),
            aig: Aig::new(),
            inputs: Vec::new(),
            latches: Vec::new(),
            next: HashMap::new(),
        }
    }

    /// The network's name (used in benchmark tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying AIG.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Mutable access to the underlying AIG (model-checking engines build
    /// pre-image and constraint logic into the same manager).
    pub fn aig_mut(&mut self) -> &mut Aig {
        &mut self.aig
    }

    /// Primary (free) input variables.
    pub fn primary_inputs(&self) -> &[Var] {
        &self.inputs
    }

    /// The latches in declaration order.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// Latch variables in declaration order.
    pub fn latch_vars(&self) -> Vec<Var> {
        self.latches.iter().map(|l| l.var).collect()
    }

    /// The bad-state literal (property fails iff reachable).
    pub fn bad(&self) -> Lit {
        self.bad
    }

    /// Replaces the bad-state literal — the way to derive property
    /// variants of a network (strengthenings, monitor conjunctions)
    /// whose transition structure is untouched: build the new literal
    /// into [`Network::aig_mut`], then point the property at it.
    pub fn set_bad(&mut self, bad: Lit) {
        self.bad = bad;
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// The initial state as a cube over latch variables.
    pub fn initial_cube(&self) -> Cube {
        Cube::new(
            self.latches
                .iter()
                .map(|l| l.var.lit().xor_sign(!l.init))
                .collect(),
        )
    }

    /// The initial state as a bit vector (latch order).
    pub fn initial_state(&self) -> Vec<bool> {
        self.latches.iter().map(|l| l.init).collect()
    }

    /// Builds the full AIG-input assignment from a latch-state vector and
    /// a primary-input vector.
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not match the latch/input counts.
    pub fn assignment(&self, state: &[bool], inputs: &[bool]) -> Vec<bool> {
        assert_eq!(state.len(), self.latches.len(), "state width mismatch");
        assert_eq!(inputs.len(), self.inputs.len(), "input width mismatch");
        let mut asg = vec![false; self.aig.num_inputs()];
        for (l, v) in self.latches.iter().zip(state) {
            asg[self.aig.input_index(l.var).expect("latch is an input")] = *v;
        }
        for (i, v) in self.inputs.iter().zip(inputs) {
            asg[self.aig.input_index(*i).expect("PI is an input")] = *v;
        }
        asg
    }

    /// One synchronous step: returns the next state and whether `bad`
    /// fired in the *current* state/input.
    pub fn step(&self, state: &[bool], inputs: &[bool]) -> (Vec<bool>, bool) {
        let asg = self.assignment(state, inputs);
        let next = self
            .latches
            .iter()
            .map(|l| self.aig.eval(l.next, &asg))
            .collect();
        let bad = self.aig.eval(self.bad, &asg);
        (next, bad)
    }

    /// The next-state definition pairs `(latch var, δ)` used by pre-image
    /// in-lining.
    pub fn next_state_defs(&self) -> Vec<(Var, Lit)> {
        self.latches.iter().map(|l| (l.var, l.next)).collect()
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Network {{ name: {:?}, latches: {}, inputs: {}, ands: {} }}",
            self.name,
            self.latches.len(),
            self.inputs.len(),
            self.aig.num_ands()
        )
    }
}

/// Incremental builder for [`Network`] (see [`Network::builder`]).
///
/// ```
/// use cbq_ckt::Network;
///
/// let mut b = Network::builder("toggler");
/// let s = b.add_latch(false);
/// let next = !s.lit();
/// b.set_next(s, next);
/// let net = b.build(s.lit()); // bad once the bit is 1 — fails at step 1
/// assert_eq!(net.num_latches(), 1);
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    name: String,
    aig: Aig,
    inputs: Vec<Var>,
    latches: Vec<(Var, bool)>,
    next: HashMap<Var, Lit>,
}

impl NetworkBuilder {
    /// Adds a state-holding element with the given reset value.
    pub fn add_latch(&mut self, init: bool) -> Var {
        let v = self.aig.add_input();
        self.latches.push((v, init));
        v
    }

    /// Adds a free primary input.
    pub fn add_input(&mut self) -> Var {
        let v = self.aig.add_input();
        self.inputs.push(v);
        v
    }

    /// Adds `n` latches with reset values from `init` (little-endian bit
    /// `i` of `init`; latches past bit 63 reset to 0).
    pub fn add_latch_word(&mut self, n: usize, init: u64) -> Vec<Var> {
        (0..n)
            .map(|i| self.add_latch(i < 64 && (init >> i) & 1 != 0))
            .collect()
    }

    /// Adds `n` primary inputs.
    pub fn add_input_word(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.add_input()).collect()
    }

    /// The AIG being built (construct gates through this).
    pub fn aig_mut(&mut self) -> &mut Aig {
        &mut self.aig
    }

    /// Sets the next-state function of `latch`.
    ///
    /// # Panics
    ///
    /// Panics if `latch` was not created by [`NetworkBuilder::add_latch`].
    pub fn set_next(&mut self, latch: Var, next: Lit) {
        assert!(
            self.latches.iter().any(|(v, _)| *v == latch),
            "set_next on unknown latch {latch:?}"
        );
        self.next.insert(latch, next);
    }

    /// Finishes the network with the given bad-state literal.
    ///
    /// # Panics
    ///
    /// Panics if any latch lacks a next-state function.
    pub fn build(self, bad: Lit) -> Network {
        let latches = self
            .latches
            .iter()
            .map(|(v, init)| Latch {
                var: *v,
                next: *self
                    .next
                    .get(v)
                    .unwrap_or_else(|| panic!("latch {v:?} has no next-state function")),
                init: *init,
            })
            .collect();
        Network {
            name: self.name,
            aig: self.aig,
            inputs: self.inputs,
            latches,
            bad,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggler() -> Network {
        let mut b = Network::builder("toggler");
        let s = b.add_latch(false);
        let n = !s.lit();
        b.set_next(s, n);
        b.build(s.lit())
    }

    #[test]
    fn step_semantics() {
        let net = toggler();
        let s0 = net.initial_state();
        let (s1, bad0) = net.step(&s0, &[]);
        assert!(!bad0);
        assert_eq!(s1, vec![true]);
        let (s2, bad1) = net.step(&s1, &[]);
        assert!(bad1);
        assert_eq!(s2, vec![false]);
    }

    #[test]
    fn initial_cube_matches_state() {
        let mut b = Network::builder("two");
        let a = b.add_latch(true);
        let c = b.add_latch(false);
        b.set_next(a, a.lit());
        b.set_next(c, c.lit());
        let net = b.build(Lit::FALSE);
        let cube = net.initial_cube();
        assert_eq!(cube.phase(a), Some(true));
        assert_eq!(cube.phase(c), Some(false));
        assert_eq!(net.initial_state(), vec![true, false]);
    }

    #[test]
    fn assignment_respects_ordinals() {
        let mut b = Network::builder("mix");
        let s = b.add_latch(false);
        let i = b.add_input();
        let and = b.aig_mut().and(s.lit(), i.lit());
        b.set_next(s, and);
        let net = b.build(Lit::FALSE);
        let (n1, _) = net.step(&[true], &[true]);
        assert_eq!(n1, vec![true]);
        let (n2, _) = net.step(&[true], &[false]);
        assert_eq!(n2, vec![false]);
    }

    #[test]
    #[should_panic(expected = "no next-state function")]
    fn missing_next_panics() {
        let mut b = Network::builder("broken");
        let _ = b.add_latch(false);
        let _ = b.build(Lit::FALSE);
    }

    #[test]
    #[should_panic(expected = "unknown latch")]
    fn set_next_on_input_panics() {
        let mut b = Network::builder("broken");
        let i = b.add_input();
        b.set_next(i, Lit::TRUE);
    }
}
