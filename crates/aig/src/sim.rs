//! 64-way parallel bit-vector simulation — two-valued over the whole
//! manager ([`BitSim`]) or over one cone ([`ConeSim`]), and ternary
//! ([`TernSim`]).
//!
//! Because the manager is append-only, node indices are a topological
//! order: whole-graph simulation is a single linear pass. Sweeping engines
//! simulate the cone they sweep and group its nodes by *signature* into
//! candidate equivalence classes ([`ConeSim::classes`]), feeding SAT
//! counterexamples back in as fresh patterns. The ternary simulator adds
//! an X value for "unknown": IC3 uses it to widen a concrete predecessor
//! state into a cube by checking which latches can go to X while the
//! bad/next-state cone stays at a definite value — structural reasoning
//! that replaces SAT queries.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::aig::Aig;
use crate::lit::{Lit, Var};
use crate::node::Node;

/// Pattern word `w` of input ordinal `ordinal` in a seeded random
/// simulation with `words` words per node: SplitMix64's output number
/// `ordinal * words + w` for `seed`, reached in one jump. It depends on
/// nothing else, so a simulation of any cone draws the same patterns for
/// its inputs as one of the whole manager.
fn random_input_word(seed: u64, words: usize, ordinal: usize, w: usize) -> u64 {
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    let k = (ordinal * words + w) as u64;
    SmallRng::seed_from_u64(seed.wrapping_add(k.wrapping_mul(GOLDEN))).gen()
}

/// A parallel simulator holding `words * 64` patterns for every node.
///
/// ```
/// use cbq_aig::{Aig, sim::BitSim};
/// let mut aig = Aig::new();
/// let a = aig.add_input().lit();
/// let b = aig.add_input().lit();
/// let f = aig.and(a, b);
/// let mut sim = BitSim::new(&aig, 1);
/// sim.set_input_word(&aig, 0, 0, 0b1100);
/// sim.set_input_word(&aig, 1, 0, 0b1010);
/// sim.run(&aig);
/// assert_eq!(sim.lit_word(f, 0) & 0b1111, 0b1000);
/// ```
#[derive(Clone, Debug)]
pub struct BitSim {
    words: usize,
    vals: Vec<u64>,
}

impl BitSim {
    /// Creates a simulator with `words` 64-bit pattern words per node, all
    /// zero.
    pub fn new(aig: &Aig, words: usize) -> BitSim {
        assert!(words > 0, "need at least one simulation word");
        BitSim {
            words,
            vals: vec![0; aig.num_nodes() * words],
        }
    }

    /// Creates a simulator with uniformly random input patterns, each a
    /// function of `seed` and the input's ordinal (as in
    /// [`ConeSim::random`]), and runs it.
    pub fn random(aig: &Aig, words: usize, seed: u64) -> BitSim {
        let mut sim = BitSim::new(aig, words);
        for (i, v) in aig.inputs().iter().enumerate() {
            for w in 0..words {
                sim.vals[v.index() * words + w] = random_input_word(seed, words, i, w);
            }
        }
        sim.run(aig);
        sim
    }

    /// Number of 64-bit words per node.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Total number of patterns (`words * 64`).
    pub fn num_patterns(&self) -> usize {
        self.words * 64
    }

    /// Sets one pattern word of input number `input_index`.
    ///
    /// # Panics
    ///
    /// Panics if the input or word index is out of range.
    pub fn set_input_word(&mut self, aig: &Aig, input_index: usize, word: usize, value: u64) {
        let v = aig.input_var(input_index);
        assert!(word < self.words);
        self.vals[v.index() * self.words + word] = value;
    }

    /// Injects a single concrete input assignment into pattern bit
    /// `bit` (counted across all words), leaving other patterns untouched.
    ///
    /// Used to replay SAT counterexamples so a future [`BitSim::run`] will
    /// distinguish nodes the counterexample separates.
    pub fn set_pattern(&mut self, aig: &Aig, bit: usize, assignment: &[bool]) {
        assert!(bit < self.num_patterns());
        let (word, off) = (bit / 64, bit % 64);
        for (i, v) in aig.inputs().iter().enumerate() {
            let idx = v.index() * self.words + word;
            let mask = 1u64 << off;
            if assignment.get(i).copied().unwrap_or(false) {
                self.vals[idx] |= mask;
            } else {
                self.vals[idx] &= !mask;
            }
        }
    }

    /// Re-evaluates every AND gate from the current input patterns.
    ///
    /// Grows internal storage if the AIG gained nodes since construction.
    pub fn run(&mut self, aig: &Aig) {
        self.vals.resize(aig.num_nodes() * self.words, 0);
        for (idx, node) in aig.nodes().iter().enumerate() {
            if let Node::And { f0, f1 } = *node {
                for w in 0..self.words {
                    let a = self.edge_word(f0, w);
                    let b = self.edge_word(f1, w);
                    self.vals[idx * self.words + w] = a & b;
                }
            }
        }
    }

    fn edge_word(&self, l: Lit, w: usize) -> u64 {
        let raw = self.vals[l.var().index() * self.words + w];
        if l.is_complemented() {
            !raw
        } else {
            raw
        }
    }

    /// The pattern word `w` of literal `l` (complement applied).
    pub fn lit_word(&self, l: Lit, w: usize) -> u64 {
        self.edge_word(l, w)
    }

    /// Extracts the concrete input assignment of pattern bit `bit`.
    pub fn pattern_assignment(&self, aig: &Aig, bit: usize) -> Vec<bool> {
        let (word, off) = (bit / 64, bit % 64);
        aig.inputs()
            .iter()
            .map(|v| (self.vals[v.index() * self.words + word] >> off) & 1 != 0)
            .collect()
    }
}

/// Marks a node outside the cone, or an empty slot, in [`ConeSim`].
const NONE: u32 = u32::MAX;

/// A parallel simulator of one cone: `words * 64` patterns for the
/// constant node and every node of the cone, stored by *cone position*
/// (the cone's nodes in ascending index order, the constant first).
///
/// The input patterns are those of [`BitSim::random`] for the same seed,
/// so every cone node's signature equals its whole-manager one, while the
/// work and memory scale with the cone, not with the manager.
///
/// ```
/// use cbq_aig::{Aig, sim::{BitSim, ConeSim}};
/// let mut aig = Aig::new();
/// let a = aig.add_input().lit();
/// let b = aig.add_input().lit();
/// let f = aig.and(a, b);
/// let _unrelated = aig.add_input();
/// let cone = ConeSim::random(&aig, &[f], 2, 7);
/// let whole = BitSim::random(&aig, 2, 7);
/// assert_eq!(cone.nodes().len(), 4); // constant, a, b, f
/// assert_eq!(cone.lit_word(!f, 1), whole.lit_word(!f, 1));
/// ```
#[derive(Clone, Debug)]
pub struct ConeSim {
    words: usize,
    /// The constant node, then the cone, ascending (a topological order).
    nodes: Vec<Var>,
    /// Cone position by node index; [`NONE`] outside the cone.
    pos: Vec<u32>,
    /// Per cone AND gate: its position and its fanins' positions, each
    /// shifted left by one with the edge's complement in bit 0.
    ands: Vec<(u32, u32, u32)>,
    /// Per cone input: its position and its input ordinal.
    inputs: Vec<(u32, u32)>,
    /// `words` pattern words per cone position.
    vals: Vec<u64>,
}

impl ConeSim {
    /// Simulates the cone of `roots` on `words` words of the seeded random
    /// patterns of [`BitSim::random`].
    pub fn random(aig: &Aig, roots: &[Lit], words: usize, seed: u64) -> ConeSim {
        assert!(words > 0, "need at least one simulation word");
        let mut nodes = aig.collect_cone(roots);
        if nodes.first() != Some(&Var::CONST) {
            nodes.insert(0, Var::CONST);
        }
        let top = nodes.last().map_or(0, |v| v.index());
        let mut sim = ConeSim {
            words,
            pos: vec![NONE; top + 1],
            vals: vec![0; nodes.len() * words],
            nodes,
            ands: Vec::new(),
            inputs: Vec::new(),
        };
        for p in 0..sim.nodes.len() {
            let v = sim.nodes[p];
            sim.pos[v.index()] = p as u32;
            match aig.node(v) {
                Node::And { f0, f1 } => {
                    // Fanins precede their gate, so their positions are set.
                    let edge = |l: Lit| sim.pos[l.var().index()] << 1 | l.is_complemented() as u32;
                    sim.ands.push((p as u32, edge(f0), edge(f1)));
                }
                Node::Input { index } => {
                    sim.inputs.push((p as u32, index));
                    for w in 0..words {
                        sim.vals[p * words + w] = random_input_word(seed, words, index as usize, w);
                    }
                }
                Node::Const => {}
            }
        }
        sim.run();
        sim
    }

    /// Total number of patterns (`words * 64`).
    pub fn num_patterns(&self) -> usize {
        self.words * 64
    }

    /// The simulated nodes by cone position: the constant, then the cone
    /// in ascending index order.
    pub fn nodes(&self) -> &[Var] {
        &self.nodes
    }

    /// The cone position of `v`, if the simulation covers it.
    pub fn position(&self, v: Var) -> Option<usize> {
        match self.pos.get(v.index()) {
            Some(&p) if p != NONE => Some(p as usize),
            _ => None,
        }
    }

    /// The pattern word `w` of literal `l` (complement applied).
    ///
    /// # Panics
    ///
    /// Panics if `l`'s node lies outside the simulated cone.
    pub fn lit_word(&self, l: Lit, w: usize) -> u64 {
        let p = self
            .position(l.var())
            .expect("literal outside the simulated cone");
        self.edge_word((p as u32) << 1 | l.is_complemented() as u32, w)
    }

    fn edge_word(&self, edge: u32, w: usize) -> u64 {
        let raw = self.vals[(edge >> 1) as usize * self.words + w];
        raw ^ u64::from(edge & 1).wrapping_neg()
    }

    /// Injects one input assignment, indexed by input ordinal, into
    /// pattern bit `bit`; inputs outside the cone are ignored.
    pub fn set_pattern(&mut self, bit: usize, assignment: &[bool]) {
        assert!(bit < self.num_patterns());
        let mask = 1u64 << (bit % 64);
        for &(p, ordinal) in &self.inputs {
            let word = &mut self.vals[p as usize * self.words + bit / 64];
            if assignment.get(ordinal as usize).copied().unwrap_or(false) {
                *word |= mask;
            } else {
                *word &= !mask;
            }
        }
    }

    /// Re-evaluates every cone gate from the current input patterns.
    pub fn run(&mut self) {
        for w in 0..self.words {
            self.run_word(w);
        }
    }

    /// Re-evaluates pattern word `w` alone, as after a
    /// [`ConeSim::set_pattern`] into that word.
    pub fn run_word(&mut self, w: usize) {
        for i in 0..self.ands.len() {
            let (p, a, b) = self.ands[i];
            self.vals[p as usize * self.words + w] = self.edge_word(a, w) & self.edge_word(b, w);
        }
    }

    /// Groups cone nodes into candidate equivalence classes by signature.
    ///
    /// A node's signature is its pattern words, complemented when it is 1
    /// at the first pattern where `care` is 1 (so complementary nodes
    /// meet), and masked with `care`'s words when a care literal is given.
    /// Only the positions `keep` accepts take part; position 0, the
    /// constant node, heads the all-zero class when kept. Classes come in
    /// the order of their lowest node, and each lists its nodes as
    /// phase-carrying literals in ascending index order; singletons are
    /// left out.
    ///
    /// One open-addressing table, keyed by cone position, reads the
    /// signatures straight from the simulation words: nothing is
    /// allocated per node.
    ///
    /// # Panics
    ///
    /// Panics if `care` lies outside the simulated cone.
    pub fn classes(&self, care: Option<Lit>, keep: impl Fn(usize) -> bool) -> Vec<Vec<Lit>> {
        let (n, words) = (self.nodes.len(), self.words);
        let mask: Vec<u64> = (0..words)
            .map(|w| care.map_or(!0, |c| self.lit_word(c, w)))
            .collect();
        let first = mask
            .iter()
            .position(|&m| m != 0)
            .map(|w| (w, mask[w].trailing_zeros()));
        let flips: Vec<u64> = (0..n)
            .map(|p| match first {
                Some((w, bit)) => ((self.vals[p * words + w] >> bit) & 1).wrapping_neg(),
                None => 0,
            })
            .collect();
        let key = |p: usize, w: usize| (self.vals[p * words + w] ^ flips[p]) & mask[w];
        let cap = (2 * n).next_power_of_two();
        let mut slots = vec![NONE; cap];
        // `next` chains a class's nodes from its head; `last` is the tail.
        let (mut next, mut last) = (vec![NONE; n], vec![NONE; n]);
        let mut heads: Vec<u32> = Vec::new();
        for p in (0..n).filter(|&p| keep(p)) {
            // FNV-1a, a word at a time.
            let hash = (0..words).fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
                (h ^ key(p, w)).wrapping_mul(0x100_0000_01b3)
            });
            let mut i = hash as usize & (cap - 1);
            loop {
                let q = slots[i] as usize;
                if slots[i] == NONE {
                    slots[i] = p as u32;
                    last[p] = p as u32;
                    heads.push(p as u32);
                    break;
                }
                if (0..words).all(|w| key(p, w) == key(q, w)) {
                    next[last[q] as usize] = p as u32;
                    last[q] = p as u32;
                    break;
                }
                i = (i + 1) & (cap - 1);
            }
        }
        let lit = |p: u32| {
            self.nodes[p as usize]
                .lit()
                .xor_sign(flips[p as usize] != 0)
        };
        let chain = |head| {
            std::iter::successors(Some(head), |&p| {
                Some(next[p as usize]).filter(|&q| q != NONE)
            })
        };
        heads
            .into_iter()
            .filter(|&head| next[head as usize] != NONE)
            .map(|head| chain(head).map(lit).collect())
            .collect()
    }
}

/// A ternary (0/1/X) bit-parallel simulator holding `words * 64`
/// three-valued patterns for every node.
///
/// The encoding is two planes per node: `ones` (bits where the node is
/// *definitely 1*) and `zeros` (*definitely 0*); a bit clear in both
/// planes is X. The planes make X-propagation two word operations per
/// gate — `AND`: `ones = a.ones & b.ones`, `zeros = a.zeros | b.zeros`
/// — and `NOT` a plane swap at the edge read, mirroring [`BitSim`]'s
/// complement handling. Ternary evaluation is *monotone in definedness*:
/// turning more inputs to X can only turn more outputs to X, never flip
/// a definite value — which is what makes a definite output a sound fact
/// about every concretization of the X inputs.
///
/// ```
/// use cbq_aig::{Aig, sim::TernSim};
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.and(a.lit(), b.lit());
/// let mut sim = TernSim::new(&aig, 1);
/// sim.set_var(a, 0, Some(false));
/// sim.set_var(b, 0, None); // X
/// sim.run(&aig);
/// // 0 AND X is definitely 0; the X never reaches f.
/// assert_eq!(sim.lit_value(f, 0), Some(false));
/// sim.set_var(a, 0, Some(true));
/// sim.run(&aig);
/// // 1 AND X stays X.
/// assert_eq!(sim.lit_value(f, 0), None);
/// ```
#[derive(Clone, Debug)]
pub struct TernSim {
    words: usize,
    /// Definitely-1 plane, indexed `node * words + w`.
    ones: Vec<u64>,
    /// Definitely-0 plane, same indexing.
    zeros: Vec<u64>,
    /// Generation-stamped visit plane for cone walks (the manager's
    /// compose-scratchpad scheme): a node is marked iff its stamp equals
    /// the current generation, so "clearing" between walks is a counter
    /// bump and repeated [`TernSim::cone_of_reused`] calls allocate
    /// nothing.
    visit: Vec<u32>,
    visit_gen: u32,
    /// Reusable DFS stack for the same walks.
    walk_stack: Vec<u32>,
}

impl TernSim {
    /// Creates a simulator with `words` 64-bit pattern words per node.
    /// Every variable starts at X; the constant node is definitely 0.
    pub fn new(aig: &Aig, words: usize) -> TernSim {
        assert!(words > 0, "need at least one simulation word");
        let mut sim = TernSim {
            words,
            ones: vec![0; aig.num_nodes() * words],
            zeros: vec![0; aig.num_nodes() * words],
            visit: Vec::new(),
            visit_gen: 0,
            walk_stack: Vec::new(),
        };
        for w in 0..words {
            sim.zeros[w] = !0;
        }
        sim
    }

    /// Number of 64-bit words per node.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Total number of patterns (`words * 64`).
    pub fn num_patterns(&self) -> usize {
        self.words * 64
    }

    /// Sets variable `v` in pattern `bit` to a definite value or to X
    /// (`None`). Meaningful for input variables; an AND node's planes are
    /// recomputed by the next run.
    pub fn set_var(&mut self, v: Var, bit: usize, val: Option<bool>) {
        assert!(bit < self.num_patterns());
        let idx = v.index() * self.words + bit / 64;
        let mask = 1u64 << (bit % 64);
        self.ones[idx] &= !mask;
        self.zeros[idx] &= !mask;
        match val {
            Some(true) => self.ones[idx] |= mask,
            Some(false) => self.zeros[idx] |= mask,
            None => {}
        }
    }

    /// Sets variable `v` to the same value (or X) in every pattern.
    pub fn broadcast_var(&mut self, v: Var, val: Option<bool>) {
        let base = v.index() * self.words;
        let (ones, zeros) = match val {
            Some(true) => (!0u64, 0),
            Some(false) => (0, !0u64),
            None => (0, 0),
        };
        for w in 0..self.words {
            self.ones[base + w] = ones;
            self.zeros[base + w] = zeros;
        }
    }

    /// Re-evaluates every AND gate from the current input planes.
    ///
    /// Grows internal storage (new nodes start at X) if the AIG gained
    /// nodes since construction.
    pub fn run(&mut self, aig: &Aig) {
        self.ones.resize(aig.num_nodes() * self.words, 0);
        self.zeros.resize(aig.num_nodes() * self.words, 0);
        for (idx, node) in aig.nodes().iter().enumerate() {
            if let Node::And { f0, f1 } = *node {
                self.eval_and(idx, f0, f1);
            }
        }
    }

    /// The AND-gate cone of `roots`: every AND node some root depends
    /// on, as ascending node indices — a valid evaluation order for
    /// [`TernSim::run_cone`] (append-only node indices are topological).
    pub fn cone_of(aig: &Aig, roots: &[Lit]) -> Vec<usize> {
        let mut seen = vec![false; aig.num_nodes()];
        let mut stack: Vec<usize> = Vec::new();
        for root in roots {
            let idx = root.var().index();
            if !seen[idx] {
                seen[idx] = true;
                stack.push(idx);
            }
        }
        let mut cone = Vec::new();
        while let Some(idx) = stack.pop() {
            if let Node::And { f0, f1 } = aig.nodes()[idx] {
                cone.push(idx);
                for edge in [f0, f1] {
                    let child = edge.var().index();
                    if !seen[child] {
                        seen[child] = true;
                        stack.push(child);
                    }
                }
            }
        }
        cone.sort_unstable();
        cone
    }

    /// [`TernSim::cone_of`] into a caller-owned buffer, visiting through
    /// the simulator's generation-stamped plane: no allocation at all
    /// once the buffers have grown. The IC3 widening loop computes one
    /// cone per blocked predecessor, so the per-call `seen` vector of the
    /// associated-function form was pure churn there.
    pub fn cone_of_reused(&mut self, aig: &Aig, roots: &[Lit], out: &mut Vec<usize>) {
        out.clear();
        if self.visit.len() < aig.num_nodes() {
            self.visit.resize(aig.num_nodes(), 0);
        }
        if self.visit_gen == u32::MAX {
            self.visit_gen = 0;
            self.visit.fill(0);
        }
        self.visit_gen += 1;
        let gen = self.visit_gen;
        let mut stack = std::mem::take(&mut self.walk_stack);
        stack.clear();
        for root in roots {
            let idx = root.var().index();
            if self.visit[idx] != gen {
                self.visit[idx] = gen;
                stack.push(idx as u32);
            }
        }
        while let Some(idx) = stack.pop() {
            if let Node::And { f0, f1 } = aig.nodes()[idx as usize] {
                out.push(idx as usize);
                for edge in [f0, f1] {
                    let child = edge.var().index();
                    if self.visit[child] != gen {
                        self.visit[child] = gen;
                        stack.push(child as u32);
                    }
                }
            }
        }
        self.walk_stack = stack;
        out.sort_unstable();
    }

    /// Cone-restricted re-evaluation: recomputes exactly the AND nodes
    /// in `cone` (ascending indices, as produced by
    /// [`TernSim::cone_of`]), leaving every other node untouched. This
    /// is what makes repeated widening probes cheap — the cost is the
    /// target cone, not the whole netlist.
    pub fn run_cone(&mut self, aig: &Aig, cone: &[usize]) {
        debug_assert!(cone.windows(2).all(|w| w[0] < w[1]), "cone not ascending");
        for &idx in cone {
            if let Node::And { f0, f1 } = aig.nodes()[idx] {
                self.eval_and(idx, f0, f1);
            }
        }
    }

    fn eval_and(&mut self, idx: usize, f0: Lit, f1: Lit) {
        for w in 0..self.words {
            let (a1, a0) = self.edge_planes(f0, w);
            let (b1, b0) = self.edge_planes(f1, w);
            self.ones[idx * self.words + w] = a1 & b1;
            self.zeros[idx * self.words + w] = a0 | b0;
        }
    }

    /// The `(ones, zeros)` planes of literal `l` at word `w` (complement
    /// = plane swap).
    fn edge_planes(&self, l: Lit, w: usize) -> (u64, u64) {
        let idx = l.var().index() * self.words + w;
        if l.is_complemented() {
            (self.zeros[idx], self.ones[idx])
        } else {
            (self.ones[idx], self.zeros[idx])
        }
    }

    /// The definitely-1 word of literal `l` (complement applied).
    pub fn lit_ones(&self, l: Lit, w: usize) -> u64 {
        self.edge_planes(l, w).0
    }

    /// The definitely-0 word of literal `l` (complement applied).
    pub fn lit_zeros(&self, l: Lit, w: usize) -> u64 {
        self.edge_planes(l, w).1
    }

    /// The bits of word `w` where literal `l` has a definite value.
    pub fn lit_defined(&self, l: Lit, w: usize) -> u64 {
        let (ones, zeros) = self.edge_planes(l, w);
        ones | zeros
    }

    /// Three-valued value of literal `l` in pattern `bit` (`None` = X).
    pub fn lit_value(&self, l: Lit, bit: usize) -> Option<bool> {
        let (ones, zeros) = self.edge_planes(l, bit / 64);
        let mask = 1u64 << (bit % 64);
        if ones & mask != 0 {
            Some(true)
        } else if zeros & mask != 0 {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_matches_eval() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..4).map(|_| aig.add_input().lit()).collect();
        let f = {
            let x = aig.xor(ins[0], ins[1]);
            let y = aig.and(ins[2], ins[3]);
            aig.or(x, y)
        };
        let sim = BitSim::random(&aig, 2, 42);
        for bit in [0usize, 1, 17, 63, 64, 100, 127] {
            let asg = sim.pattern_assignment(&aig, bit);
            let (word, off) = (bit / 64, bit % 64);
            let simulated = (sim.lit_word(f, word) >> off) & 1 != 0;
            assert_eq!(simulated, aig.eval(f, &asg), "pattern {bit}");
        }
    }

    #[test]
    fn constant_signature_is_all_zero() {
        let mut aig = Aig::new();
        let _ = aig.add_input();
        let sim = BitSim::random(&aig, 2, 7);
        for w in 0..2 {
            assert_eq!(sim.lit_word(Lit::FALSE, w), 0);
            assert_eq!(sim.lit_word(Lit::TRUE, w), !0u64);
        }
    }

    #[test]
    fn counterexample_injection_distinguishes() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let f = aig.or(a, b);
        let mut sim = BitSim::new(&aig, 1);
        // All-zero patterns: f and a have identical (zero) signatures.
        sim.run(&aig);
        assert_eq!(sim.lit_word(f, 0), sim.lit_word(a, 0));
        // Inject the distinguishing assignment a=0, b=1 at bit 5.
        sim.set_pattern(&aig, 5, &[false, true]);
        sim.run(&aig);
        assert_eq!(sim.lit_word(f, 0) ^ sim.lit_word(a, 0), 1 << 5);
    }

    #[test]
    fn grows_with_new_nodes() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let mut sim = BitSim::random(&aig, 1, 9);
        let f = aig.and(a, b);
        sim.run(&aig);
        assert_eq!(sim.lit_word(f, 0), sim.lit_word(a, 0) & sim.lit_word(b, 0));
    }

    #[test]
    fn cone_sim_covers_the_cone_alone_and_replays_patterns() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..4).map(|_| aig.add_input().lit()).collect();
        let f = aig.xor(ins[0], ins[2]);
        let unrelated = aig.and(ins[1], ins[3]);
        let mut cone = ConeSim::random(&aig, &[!f], 2, 5);
        let mut whole = BitSim::random(&aig, 2, 5);
        assert_eq!(cone.position(unrelated.var()), None);
        assert_eq!(cone.position(ins[1].var()), None);
        assert_eq!(cone.nodes()[0], Var::CONST);
        let asg = [true, true, false, false];
        cone.set_pattern(70, &asg);
        cone.run_word(1);
        whole.set_pattern(&aig, 70, &asg);
        whole.run(&aig);
        for &v in cone.nodes() {
            for w in 0..2 {
                assert_eq!(
                    cone.lit_word(v.lit(), w),
                    whole.lit_word(v.lit(), w),
                    "{v:?}"
                );
            }
        }
        assert_eq!((cone.lit_word(f, 1) >> 6) & 1, 1);
    }

    #[test]
    fn classes_meet_complements_and_mask_with_care() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let x1 = aig.xor(a, b);
        let or = aig.or(a, b);
        let nand = !aig.and(a, b);
        let x2 = aig.and(or, nand);
        let xn = {
            let both = aig.and(a, b);
            let neither = aig.and(!a, !b);
            aig.or(both, neither)
        };
        let dead = aig.and(x1, xn);
        let sim = ConeSim::random(&aig, &[x2, !x1, dead], 4, 3);
        let classes = sim.classes(None, |_| true);
        let of = |l: Lit| {
            classes
                .iter()
                .find(|c| c.iter().any(|m| m.var() == l.var()))
                .map(|c| c.to_vec())
        };
        // The constant heads the class of the constant gate.
        assert_eq!(of(dead), Some(vec![Lit::FALSE, dead]));
        // Equal and complementary gates meet, phases normalised alike.
        let xs = of(x1).expect("x1 is in a class");
        let phase = |l: Lit| xs.iter().find(|m| m.var() == l.var()).map(|m| *m == l);
        assert_eq!(phase(x2), phase(x1));
        assert!(xs.iter().any(|m| m.var() == xn.var()));
        // Dropping the constant leaves the constant gate alone.
        assert!(sim
            .classes(None, |p| p != 0)
            .iter()
            .all(|c| !c.contains(&dead)));
        // On the care set `a`, `a & b` equals `b`; unmasked it does not.
        let ab = aig.and(a, b);
        let sim = ConeSim::random(&aig, &[ab, a], 4, 3);
        let meet = |care| {
            sim.classes(care, |_| true)
                .iter()
                .any(|c| c.contains(&ab) && c.contains(&b))
        };
        assert!(meet(Some(a)));
        assert!(!meet(None));
    }

    #[test]
    fn ternary_constants_and_x_propagation() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a.lit(), b.lit());
        let g = aig.or(a.lit(), b.lit());
        let mut sim = TernSim::new(&aig, 1);
        assert_eq!(sim.lit_value(Lit::FALSE, 0), Some(false));
        assert_eq!(sim.lit_value(Lit::TRUE, 0), Some(true));
        // Unset inputs are X and X propagates through both phases.
        sim.run(&aig);
        assert_eq!(sim.lit_value(f, 0), None);
        assert_eq!(sim.lit_value(!f, 0), None);
        // A controlling value absorbs an X; a non-controlling one keeps it.
        sim.set_var(a, 0, Some(false));
        sim.run(&aig);
        assert_eq!(sim.lit_value(f, 0), Some(false));
        assert_eq!(sim.lit_value(g, 0), None);
        sim.set_var(a, 0, Some(true));
        sim.run(&aig);
        assert_eq!(sim.lit_value(f, 0), None);
        assert_eq!(sim.lit_value(g, 0), Some(true));
        sim.set_var(b, 0, Some(true));
        sim.run(&aig);
        assert_eq!(sim.lit_value(f, 0), Some(true));
        assert_eq!(sim.lit_defined(f, 0) & 1, 1);
    }

    #[test]
    fn ternary_agrees_with_bitsim_on_definite_patterns() {
        let mut aig = Aig::new();
        let ins: Vec<Var> = (0..4).map(|_| aig.add_input()).collect();
        let f = {
            let x = aig.xor(ins[0].lit(), ins[1].lit());
            let y = aig.and(ins[2].lit(), ins[3].lit());
            aig.or(x, y)
        };
        let bits = BitSim::random(&aig, 2, 11);
        let mut tern = TernSim::new(&aig, 2);
        for (i, v) in ins.iter().enumerate() {
            for bit in 0..bits.num_patterns() {
                let val = bits.pattern_assignment(&aig, bit)[i];
                tern.set_var(*v, bit, Some(val));
            }
        }
        tern.run(&aig);
        for bit in 0..bits.num_patterns() {
            let expect = (bits.lit_word(f, bit / 64) >> (bit % 64)) & 1 != 0;
            assert_eq!(tern.lit_value(f, bit), Some(expect), "pattern {bit}");
        }
    }

    #[test]
    fn cone_restricted_reeval_matches_full_run() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let f = aig.and(a.lit(), b.lit());
        let g = aig.xor(f, c.lit());
        let unrelated = aig.and(c.lit(), a.lit());
        let cone = TernSim::cone_of(&aig, &[g]);
        assert!(cone.contains(&f.var().index()));
        assert!(!cone.contains(&unrelated.var().index()));
        let mut sim = TernSim::new(&aig, 1);
        // The buffered, generation-stamped walk sees the same cone, and
        // keeps seeing it when the plane is reused back-to-back.
        let mut buf = Vec::new();
        sim.cone_of_reused(&aig, &[g], &mut buf);
        assert_eq!(buf, cone);
        sim.cone_of_reused(&aig, &[unrelated], &mut buf);
        assert_eq!(buf, TernSim::cone_of(&aig, &[unrelated]));
        sim.cone_of_reused(&aig, &[g], &mut buf);
        assert_eq!(buf, cone);
        for v in [a, b, c] {
            sim.broadcast_var(v, Some(true));
        }
        sim.run(&aig);
        assert_eq!(sim.lit_value(g, 0), Some(false));
        // Flip one input and re-evaluate only g's cone: g updates, the
        // unrelated gate keeps its stale value.
        sim.broadcast_var(c, Some(false));
        sim.run_cone(&aig, &cone);
        assert_eq!(sim.lit_value(g, 0), Some(true));
        assert_eq!(sim.lit_value(unrelated, 0), Some(true), "outside cone");
        let mut full = TernSim::new(&aig, 1);
        for (v, val) in [(a, true), (b, true), (c, false)] {
            full.broadcast_var(v, Some(val));
        }
        full.run(&aig);
        assert_eq!(full.lit_value(g, 0), sim.lit_value(g, 0));
    }

    #[test]
    fn ternary_definite_outputs_hold_for_all_concretizations() {
        // One X input, all four assignments of the others: whenever the
        // ternary value is definite, both concretizations of the X agree.
        let mut aig = Aig::new();
        let ins: Vec<Var> = (0..3).map(|_| aig.add_input()).collect();
        let f = {
            let x = aig.ite(ins[0].lit(), ins[1].lit(), ins[2].lit());
            aig.xor(x, ins[1].lit())
        };
        for x_at in 0..3 {
            for mask in 0..4u32 {
                let mut sim = TernSim::new(&aig, 1);
                let mut concrete = vec![false; 3];
                let mut m = 0;
                for (i, v) in ins.iter().enumerate() {
                    if i == x_at {
                        sim.set_var(*v, 0, None);
                    } else {
                        let val = (mask >> m) & 1 != 0;
                        m += 1;
                        concrete[i] = val;
                        sim.set_var(*v, 0, Some(val));
                    }
                }
                sim.run(&aig);
                if let Some(v) = sim.lit_value(f, 0) {
                    for x_val in [false, true] {
                        concrete[x_at] = x_val;
                        assert_eq!(aig.eval(f, &concrete), v, "x at {x_at}, mask {mask}");
                    }
                }
            }
        }
    }
}
