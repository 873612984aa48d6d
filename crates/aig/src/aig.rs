//! The append-only, structurally hashed AIG manager.

use std::fmt;

use crate::lit::{Lit, Var};
use crate::node::Node;

/// Snapshot of the manager's hot-path work counters. Counters only ever
/// grow within one manager (compaction builds a fresh manager and resets
/// them); take two snapshots and subtract ([`AigPerfCounters::since`]) to
/// attribute work to a phase.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AigPerfCounters {
    /// Strash slots inspected by [`Aig::and`] lookups.
    pub strash_probes: u64,
    /// Nodes visited by substitution cone walks (compose / cofactor).
    /// Support limiting and multi-root walk sharing keep it below the
    /// summed cone sizes of the walked roots.
    pub scratch_walk_nodes: u64,
    /// Always 0. The manager no longer caches cofactors; the field stays
    /// because `--json` and the benchmark's counters name it.
    pub cofactor_cache_hits: u64,
}

impl AigPerfCounters {
    /// Counter deltas accumulated since an `earlier` snapshot of the same
    /// manager (saturating, so a snapshot from before a compaction — which
    /// resets the counters — cannot underflow).
    pub fn since(self, earlier: AigPerfCounters) -> AigPerfCounters {
        AigPerfCounters {
            strash_probes: self.strash_probes.saturating_sub(earlier.strash_probes),
            scratch_walk_nodes: self
                .scratch_walk_nodes
                .saturating_sub(earlier.scratch_walk_nodes),
            cofactor_cache_hits: self
                .cofactor_cache_hits
                .saturating_sub(earlier.cofactor_cache_hits),
        }
    }

    /// Accumulates another snapshot's (or delta's) counters into this one
    /// — for totalling per-phase deltas across managers or partitions.
    pub fn add(&mut self, other: AigPerfCounters) {
        self.strash_probes += other.strash_probes;
        self.scratch_walk_nodes += other.scratch_walk_nodes;
        self.cofactor_cache_hits += other.cofactor_cache_hits;
    }
}

/// Open-addressing structural-hash table mapping normalised fanin pairs
/// to node variables. Keys are the raw literal codes; stored fanins are
/// never constants (the one-level rules return before the table is
/// consulted), so the all-zero key doubles as the empty marker.
/// Fibonacci multiplicative hashing, linear probing, power-of-two
/// capacity, no deletion — the manager is append-only.
#[derive(Clone)]
struct OpenStrash {
    keys: Vec<(u32, u32)>,
    vals: Vec<u32>,
    len: usize,
}

const STRASH_EMPTY: (u32, u32) = (0, 0);

fn strash_hash(key: (u32, u32)) -> usize {
    let x = (u64::from(key.0) << 32) | u64::from(key.1);
    let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // The high product bits are the well-mixed ones; fold them down
    // before the caller masks to the table size.
    (h ^ (h >> 32)) as usize
}

impl OpenStrash {
    fn with_capacity(ands: usize) -> OpenStrash {
        let cap = (ands.max(16) * 2).next_power_of_two();
        OpenStrash {
            keys: vec![STRASH_EMPTY; cap],
            vals: vec![0; cap],
            len: 0,
        }
    }

    fn get(&self, key: (u32, u32), probes: &mut u64) -> Option<Var> {
        let mask = self.keys.len() - 1;
        let mut i = strash_hash(key) & mask;
        loop {
            *probes += 1;
            let k = self.keys[i];
            if k == key {
                return Some(Var(self.vals[i]));
            }
            if k == STRASH_EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: (u32, u32), var: Var) {
        if (self.len + 1) * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = strash_hash(key) & mask;
        while self.keys[i] != STRASH_EMPTY {
            debug_assert_ne!(self.keys[i], key, "duplicate strash insert");
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.vals[i] = var.0;
        self.len += 1;
    }

    fn grow(&mut self) {
        let mut bigger = OpenStrash::with_capacity(self.keys.len());
        for (k, &v) in self.keys.iter().zip(&self.vals) {
            if *k != STRASH_EMPTY {
                bigger.insert(*k, Var(v));
            }
        }
        *self = bigger;
    }
}

/// Generation-stamped dense scratchpad for compose/cofactor cone walks.
///
/// "Clearing" is a generation bump, not a memset: an entry is live iff its
/// stamp equals the current generation, so back-to-back compose calls pay
/// zero reset cost and no per-call allocation once the buffers have grown
/// to the manager's size. Only nodes that exist when a walk begins are
/// ever stamped; nodes the walk itself creates have larger indices and
/// are never queried, so the buffers need no mid-walk growth.
#[derive(Clone, Default)]
struct Scratch {
    /// Memo: `memo[i]` is live iff `stamp[i] == gen`.
    gen: u32,
    stamp: Vec<u32>,
    memo: Vec<Lit>,
    /// Traversal marks, independent of the memo (the memo is pre-seeded
    /// with substitution targets before the walk starts).
    visit_gen: u32,
    visit: Vec<u32>,
    /// Reusable traversal buffers (old-node indices).
    order: Vec<u32>,
    stack: Vec<u32>,
    /// Total nodes visited by substitution walks (perf counter).
    walk_nodes: u64,
}

impl Scratch {
    fn begin(&mut self, num_nodes: usize) {
        if self.stamp.len() < num_nodes {
            self.stamp.resize(num_nodes, 0);
            self.memo.resize(num_nodes, Lit::FALSE);
            self.visit.resize(num_nodes, 0);
        }
        if self.gen == u32::MAX {
            self.gen = 0;
            self.stamp.fill(0);
        }
        self.gen += 1;
        if self.visit_gen == u32::MAX {
            self.visit_gen = 0;
            self.visit.fill(0);
        }
        self.visit_gen += 1;
        self.order.clear();
        self.stack.clear();
    }

    fn set(&mut self, v: Var, l: Lit) {
        let i = v.index();
        self.stamp[i] = self.gen;
        self.memo[i] = l;
    }

    fn get(&self, v: Var) -> Option<Lit> {
        let i = v.index();
        if i < self.stamp.len() && self.stamp[i] == self.gen {
            Some(self.memo[i])
        } else {
            None
        }
    }

    /// The image of edge `l` under the memo; unstamped nodes map to
    /// themselves (they lie outside the walked, dependent region).
    fn resolve(&self, l: Lit) -> Lit {
        match self.get(l.var()) {
            Some(m) => m.xor_sign(l.is_complemented()),
            None => l,
        }
    }

    /// Marks `v` visited; returns whether it already was.
    fn visited(&mut self, v: Var) -> bool {
        let i = v.index();
        if self.visit[i] == self.visit_gen {
            true
        } else {
            self.visit[i] = self.visit_gen;
            false
        }
    }
}

/// Direct-mapped cone-size cache keyed by the root literal. It is exact
/// forever: nodes are never mutated, so the cone of an existing literal
/// cannot change.
#[derive(Clone, Default)]
struct ConeSizeCache {
    /// `(root code, size)`; `u32::MAX` marks an empty slot.
    slots: Vec<(u32, u32)>,
}

const CONE_CACHE_SLOTS: usize = 1024;

impl ConeSizeCache {
    fn slot(code: u32) -> usize {
        (u64::from(code).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize
            & (CONE_CACHE_SLOTS - 1)
    }

    fn get(&self, root: Lit) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let (code, size) = self.slots[ConeSizeCache::slot(root.code())];
        (code == root.code()).then_some(size as usize)
    }

    fn put(&mut self, root: Lit, size: usize) {
        if self.slots.is_empty() {
            self.slots = vec![(u32::MAX, 0); CONE_CACHE_SLOTS];
        }
        let size = u32::try_from(size).unwrap_or(u32::MAX - 1);
        self.slots[ConeSizeCache::slot(root.code())] = (root.code(), size);
    }
}

/// An And-Inverter Graph manager.
///
/// Nodes are append-only and structurally hashed: calling [`Aig::and`] with
/// fanins that already name an existing gate returns the existing literal.
/// One- and two-level simplification rules are applied on construction, so
/// the graph is *semi-canonical*: many (but not all) syntactically different
/// formulas map to the same node, which is the zero-cost first tier of the
/// paper's merge phase.
///
/// ```
/// use cbq_aig::{Aig, Lit};
/// let mut aig = Aig::new();
/// let a = aig.add_input().lit();
/// let b = aig.add_input().lit();
/// let f = aig.and(a, b);
/// let g = aig.and(b, a); // structural hashing: same node
/// assert_eq!(f, g);
/// assert_eq!(aig.and(a, !a), Lit::FALSE);
/// ```
///
/// ## Hot-path machinery
///
/// The quantification inner loop (`cofactor` → `compose` → `and`) runs on
/// dense, allocation-free structures: an open-addressing strash, a
/// generation-stamped scratchpad for cone walks, and support-limited
/// cofactoring (the sub-cone that does not depend on the substituted
/// variable is copied through unchanged). See [`Aig::perf_counters`] for
/// the work counters.
#[derive(Clone)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: OpenStrash,
    inputs: Vec<Var>,
    level: Vec<u32>,
    scratch: Scratch,
    cone_cache: ConeSizeCache,
    strash_probes: u64,
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates an empty manager containing only the constant node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![Node::Const],
            strash: OpenStrash::with_capacity(16),
            inputs: Vec::new(),
            level: vec![0],
            scratch: Scratch::default(),
            cone_cache: ConeSizeCache::default(),
            strash_probes: 0,
        }
    }

    /// Creates an empty manager with `n` inputs already added.
    ///
    /// ```
    /// use cbq_aig::Aig;
    /// let aig = Aig::with_inputs(8);
    /// assert_eq!(aig.num_inputs(), 8);
    /// ```
    pub fn with_inputs(n: usize) -> Aig {
        let mut aig = Aig::new();
        for _ in 0..n {
            aig.add_input();
        }
        aig
    }

    /// Pre-sizes the strash for about `ands` AND gates (used when a
    /// compaction knows the incoming cone size up front).
    pub(crate) fn reserve_ands(&mut self, ands: usize) {
        if self.strash.len == 0 && self.strash.keys.len() < ands * 2 {
            self.strash = OpenStrash::with_capacity(ands);
        }
    }

    /// Snapshot of the hot-path work counters (monotone within one
    /// manager; reset by compaction, which builds a fresh manager).
    pub fn perf_counters(&self) -> AigPerfCounters {
        AigPerfCounters {
            strash_probes: self.strash_probes,
            scratch_walk_nodes: self.scratch.walk_nodes,
            cofactor_cache_hits: 0,
        }
    }

    /// Adds a fresh primary input and returns its variable.
    pub fn add_input(&mut self) -> Var {
        let var = Var::from_index(self.nodes.len());
        let index = u32::try_from(self.inputs.len()).expect("too many inputs");
        self.nodes.push(Node::Input { index });
        self.level.push(0);
        self.inputs.push(var);
        var
    }

    /// The inputs of this AIG, in creation order.
    pub fn inputs(&self) -> &[Var] {
        &self.inputs
    }

    /// The variable of the `index`-th input.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_inputs()`.
    pub fn input_var(&self, index: usize) -> Var {
        self.inputs[index]
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Total number of nodes (constant + inputs + AND gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len()
    }

    /// The node a variable refers to.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a node of this manager.
    pub fn node(&self, var: Var) -> Node {
        self.nodes[var.index()]
    }

    /// All nodes, indexable by [`Var::index`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Structural level (depth) of a node: 0 for constants/inputs,
    /// `1 + max(level(fanins))` for AND gates.
    pub fn node_level(&self, var: Var) -> u32 {
        self.level[var.index()]
    }

    /// Whether `var` names a primary input.
    pub fn is_input(&self, var: Var) -> bool {
        self.nodes[var.index()].is_input()
    }

    /// If `var` is an input, its ordinal among the inputs.
    pub fn input_index(&self, var: Var) -> Option<usize> {
        match self.nodes[var.index()] {
            Node::Input { index } => Some(index as usize),
            _ => None,
        }
    }

    fn try_two_level(&mut self, a: Lit, b: Lit) -> Option<Lit> {
        // Two-level local rewriting rules (Brummayer & Biere style, safe
        // subset). `a`/`b` are already non-constant and distinct vars.
        let fan = |aig: &Aig, l: Lit| aig.nodes[l.var().index()].fanins();
        if let Some((x, y)) = fan(self, a) {
            if !a.is_complemented() {
                // Contradiction: (x & y) & !x == 0.
                if b == !x || b == !y {
                    return Some(Lit::FALSE);
                }
                // Idempotence/subsumption: (x & y) & x == x & y.
                if b == x || b == y {
                    return Some(a);
                }
            } else {
                // Substitution: !(x & y) & x == x & !y.
                if b == x {
                    return Some(self.and(x, !y));
                }
                if b == y {
                    return Some(self.and(y, !x));
                }
            }
        }
        if let Some((u, v)) = fan(self, b) {
            if !b.is_complemented() {
                if a == !u || a == !v {
                    return Some(Lit::FALSE);
                }
                if a == u || a == v {
                    return Some(b);
                }
            } else {
                if a == u {
                    return Some(self.and(u, !v));
                }
                if a == v {
                    return Some(self.and(v, !u));
                }
            }
        }
        // Both positive ANDs sharing a complemented fanin: contradiction.
        if !a.is_complemented() && !b.is_complemented() {
            if let (Some((x, y)), Some((u, v))) = (fan(self, a), fan(self, b)) {
                if x == !u || x == !v || y == !u || y == !v {
                    return Some(Lit::FALSE);
                }
            }
        }
        None
    }

    /// Conjunction of two literals, with structural hashing and local
    /// simplification.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // One-level rules.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        if let Some(res) = self.try_two_level(a, b) {
            return res;
        }
        // Normalise fanin order for semi-canonicity: f0 >= f1.
        let (f0, f1) = if a.code() >= b.code() { (a, b) } else { (b, a) };
        let key = (f0.code(), f1.code());
        if let Some(var) = self.strash.get(key, &mut self.strash_probes) {
            return var.lit();
        }
        let var = Var::from_index(self.nodes.len());
        self.nodes.push(Node::And { f0, f1 });
        let lvl = 1 + self.level[f0.var().index()].max(self.level[f1.var().index()]);
        self.level.push(lvl);
        self.strash.insert(key, var);
        var.lit()
    }

    /// Disjunction of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Exclusive or of two literals.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n = self.and(a, !b);
        let p = self.and(!a, b);
        self.or(n, p)
    }

    /// Equivalence (XNOR) of two literals.
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Implication `a -> b`.
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(!a, b)
    }

    /// If-then-else multiplexer `c ? t : e`.
    pub fn ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if t == e {
            return t;
        }
        let pt = self.and(c, t);
        let pe = self.and(!c, e);
        self.or(pt, pe)
    }

    /// Conjunction of many literals (balanced tree).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Aig::and)
    }

    /// Disjunction of many literals (balanced tree).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Aig::or)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        unit: Lit,
        mut op: impl FnMut(&mut Aig, Lit, Lit) -> Lit + Copy,
    ) -> Lit {
        match lits.len() {
            0 => unit,
            1 => lits[0],
            n => {
                let (lo, hi) = lits.split_at(n / 2);
                let l = self.reduce_balanced(lo, unit, op);
                let r = self.reduce_balanced(hi, unit, op);
                op(self, l, r)
            }
        }
    }

    /// Evaluates `root` under a complete input assignment (indexed by input
    /// ordinal).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.num_inputs()`.
    ///
    /// ```
    /// use cbq_aig::Aig;
    /// let mut aig = Aig::new();
    /// let a = aig.add_input().lit();
    /// let b = aig.add_input().lit();
    /// let f = aig.xor(a, b);
    /// assert!(aig.eval(f, &[true, false]));
    /// assert!(!aig.eval(f, &[true, true]));
    /// ```
    pub fn eval(&self, root: Lit, assignment: &[bool]) -> bool {
        assert!(
            assignment.len() >= self.num_inputs(),
            "assignment covers {} of {} inputs",
            assignment.len(),
            self.num_inputs()
        );
        // Every cone index is at most the root's (fanins precede gates).
        let cone = self.collect_cone(&[root]);
        let mut val = vec![false; root.var().index() + 1];
        for var in cone {
            val[var.index()] = match self.nodes[var.index()] {
                Node::Const => false,
                Node::Input { index } => assignment[index as usize],
                Node::And { f0, f1 } => {
                    let a = val[f0.var().index()] ^ f0.is_complemented();
                    let b = val[f1.var().index()] ^ f1.is_complemented();
                    a && b
                }
            };
        }
        val[root.var().index()] ^ root.is_complemented()
    }

    /// Simultaneously substitutes variables by literals in the cone of `f`.
    ///
    /// This is the paper's *quantification by substitution (in-lining)*:
    /// `∃y.(y ≡ δ) ∧ P(y)` becomes `P(δ)`, i.e. `compose(P, [(y, δ)])`.
    /// Substitution is simultaneous: mapped-in literals are **not**
    /// re-substituted.
    ///
    /// ```
    /// use cbq_aig::Aig;
    /// let mut aig = Aig::new();
    /// let x = aig.add_input();
    /// let y = aig.add_input();
    /// let f = aig.and(x.lit(), y.lit());
    /// let g = aig.compose(f, &[(y, !x.lit())]);
    /// assert_eq!(g, cbq_aig::Lit::FALSE);
    /// ```
    pub fn compose(&mut self, f: Lit, map: &[(Var, Lit)]) -> Lit {
        if map.is_empty() {
            return f;
        }
        self.map_cone_scratch(&[f], map);
        self.scratch.resolve(f)
    }

    /// [`Aig::compose`] applied to several roots under one substitution,
    /// sharing a single cone walk (the BMC unroller composes `bad` and
    /// every latch next-state function against the same frame
    /// substitution; walking their heavily shared cone once is much
    /// cheaper than once per root).
    pub fn compose_many(&mut self, roots: &[Lit], map: &[(Var, Lit)]) -> Vec<Lit> {
        if map.is_empty() {
            return roots.to_vec();
        }
        self.map_cone_scratch(roots, map);
        roots.iter().map(|r| self.scratch.resolve(*r)).collect()
    }

    /// The dense-scratch substitution walk. On return, every root image is
    /// readable via `self.scratch.resolve(root)`.
    ///
    /// Support limiting comes from two facts about the append-only index
    /// order. (1) Fanins precede gates, so no node below the smallest
    /// substituted index can depend on any substituted variable — the walk
    /// never descends past it. (2) A visited gate whose resolved fanins
    /// are unchanged maps to itself without touching the strash (and a
    /// rebuilt gate with those exact fanins would strash back to the same
    /// node, so the shortcut is bit-identical to rebuilding the whole cone
    /// through [`Aig::and`]).
    fn map_cone_scratch(&mut self, roots: &[Lit], map: &[(Var, Lit)]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin(self.nodes.len());
        // Pre-seed substitution targets: stamped-before-the-walk is what
        // gives them precedence over the rebuild, inputs and gates alike.
        let mut min_idx = usize::MAX;
        for &(v, l) in map {
            scratch.set(v, l);
            min_idx = min_idx.min(v.index());
        }
        for r in roots {
            let v = r.var();
            if v.index() >= min_idx && !scratch.visited(v) {
                scratch.stack.push(v.0);
                scratch.order.push(v.0);
            }
        }
        while let Some(i) = scratch.stack.pop() {
            if let Node::And { f0, f1 } = self.nodes[i as usize] {
                for l in [f0, f1] {
                    let w = l.var();
                    if w.index() >= min_idx && !scratch.visited(w) {
                        scratch.stack.push(w.0);
                        scratch.order.push(w.0);
                    }
                }
            }
        }
        // Ascending index is a topological order of the visited region.
        scratch.order.sort_unstable();
        scratch.walk_nodes += scratch.order.len() as u64;
        for k in 0..scratch.order.len() {
            let v = Var(scratch.order[k]);
            if scratch.get(v).is_some() {
                continue; // substitution target: its image is already set
            }
            let new = match self.nodes[v.index()] {
                Node::Const => Lit::FALSE,
                Node::Input { .. } => v.lit(),
                Node::And { f0, f1 } => {
                    let a = scratch.resolve(f0);
                    let b = scratch.resolve(f1);
                    if a == f0 && b == f1 {
                        v.lit()
                    } else {
                        self.and(a, b)
                    }
                }
            };
            scratch.set(v, new);
        }
        self.scratch = scratch;
    }

    /// The positive or negative cofactor of `f` with respect to `v`.
    ///
    /// Support-limited: only the sub-cone of `f` that depends on `v` is
    /// rebuilt; everything outside it is copied through unchanged.
    ///
    /// ```
    /// use cbq_aig::{Aig, Lit};
    /// let mut aig = Aig::new();
    /// let a = aig.add_input();
    /// let b = aig.add_input();
    /// let f = aig.and(a.lit(), b.lit());
    /// assert_eq!(aig.cofactor(f, a, true), b.lit());
    /// assert_eq!(aig.cofactor(f, a, false), Lit::FALSE);
    /// ```
    pub fn cofactor(&mut self, f: Lit, v: Var, value: bool) -> Lit {
        let constant = if value { Lit::TRUE } else { Lit::FALSE };
        self.compose(f, &[(v, constant)])
    }

    /// Both cofactors `(f|v=1, f|v=0)` of `f` with respect to `v`.
    pub fn cofactors(&mut self, f: Lit, v: Var) -> (Lit, Lit) {
        (self.cofactor(f, v, true), self.cofactor(f, v, false))
    }

    /// Cached [`Aig::cone_size`](crate::Aig::cone_size). Exact: the cone
    /// of an existing literal can never change in an append-only manager.
    pub fn cone_size_cached(&mut self, root: Lit) -> usize {
        if let Some(size) = self.cone_cache.get(root) {
            return size;
        }
        let size = self.cone_size(root);
        self.cone_cache.put(root, size);
        size
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig {{ inputs: {}, ands: {} }}",
            self.num_inputs(),
            self.num_ands()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_inputs() -> (Aig, Lit, Lit) {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        (aig, a, b)
    }

    #[test]
    fn one_level_rules() {
        let (mut aig, a, b) = two_inputs();
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::TRUE, b), b);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_is_commutative() {
        let (mut aig, a, b) = two_inputs();
        let f = aig.and(a, b);
        let g = aig.and(b, a);
        assert_eq!(f, g);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn two_level_contradiction_and_subsumption() {
        let (mut aig, a, b) = two_inputs();
        let ab = aig.and(a, b);
        assert_eq!(aig.and(ab, !a), Lit::FALSE);
        assert_eq!(aig.and(ab, a), ab);
        // Substitution: !(a&b) & a == a & !b.
        let expect = aig.and(a, !b);
        assert_eq!(aig.and(!ab, a), expect);
    }

    #[test]
    fn two_positive_ands_contradict() {
        let (mut aig, a, b) = two_inputs();
        let c = aig.add_input().lit();
        let ab = aig.and(a, b);
        let nac = aig.and(!a, c);
        assert_eq!(aig.and(ab, nac), Lit::FALSE);
    }

    #[test]
    fn derived_gates_truth_tables() {
        let (mut aig, a, b) = two_inputs();
        let x = aig.xor(a, b);
        let o = aig.or(a, b);
        let i = aig.iff(a, b);
        let imp = aig.implies(a, b);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let asg = [va, vb];
            assert_eq!(aig.eval(x, &asg), va ^ vb);
            assert_eq!(aig.eval(o, &asg), va || vb);
            assert_eq!(aig.eval(i, &asg), va == vb);
            assert_eq!(aig.eval(imp, &asg), !va || vb);
        }
    }

    #[test]
    fn ite_truth_table() {
        let mut aig = Aig::new();
        let c = aig.add_input().lit();
        let t = aig.add_input().lit();
        let e = aig.add_input().lit();
        let f = aig.ite(c, t, e);
        for mask in 0..8u32 {
            let asg = [(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0];
            let expect = if asg[0] { asg[1] } else { asg[2] };
            assert_eq!(aig.eval(f, &asg), expect);
        }
    }

    #[test]
    fn many_input_reduction() {
        let mut aig = Aig::new();
        let lits: Vec<Lit> = (0..7).map(|_| aig.add_input().lit()).collect();
        let all = aig.and_many(&lits);
        let any = aig.or_many(&lits);
        assert_eq!(aig.and_many(&[]), Lit::TRUE);
        assert_eq!(aig.or_many(&[]), Lit::FALSE);
        let all_true = vec![true; 7];
        let mut one_false = all_true.clone();
        one_false[3] = false;
        assert!(aig.eval(all, &all_true));
        assert!(!aig.eval(all, &one_false));
        assert!(aig.eval(any, &one_false));
        assert!(!aig.eval(any, &[false; 7]));
    }

    #[test]
    fn cofactor_shannon_expansion() {
        let (mut aig, a, b) = two_inputs();
        let c = aig.add_input().lit();
        let f = {
            let t = aig.and(a, b);
            let e = aig.xor(b, c);
            aig.or(t, e)
        };
        let (f1, f0) = aig.cofactors(f, a.var());
        let shannon = {
            let hi = aig.and(a, f1);
            let lo = aig.and(!a, f0);
            aig.or(hi, lo)
        };
        for mask in 0..8u32 {
            let asg = [(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0];
            assert_eq!(aig.eval(f, &asg), aig.eval(shannon, &asg));
        }
    }

    #[test]
    fn compose_is_simultaneous() {
        let mut aig = Aig::new();
        let x = aig.add_input();
        let y = aig.add_input();
        let f = aig.xor(x.lit(), y.lit());
        // Swap x and y simultaneously: xor is symmetric, result unchanged.
        let g = aig.compose(f, &[(x, y.lit()), (y, x.lit())]);
        assert_eq!(f, g);
    }

    #[test]
    fn compose_on_internal_node() {
        let (mut aig, a, b) = two_inputs();
        let c = aig.add_input().lit();
        let ab = aig.and(a, b);
        let f = aig.or(ab, c);
        // Replace the internal node (a & b) by constant true.
        let g = aig.compose(f, &[(ab.var(), Lit::TRUE)]);
        assert_eq!(g, Lit::TRUE);
    }

    #[test]
    fn compose_many_matches_individual_composes() {
        let mut aig = Aig::new();
        let x = aig.add_input();
        let y = aig.add_input();
        let z = aig.add_input();
        let f = aig.xor(x.lit(), y.lit());
        let g = aig.and(f, z.lit());
        let map = [(x, z.lit()), (y, Lit::TRUE)];
        let joint = aig.compose_many(&[f, g, !f], &map);
        let f1 = aig.compose(f, &map);
        let g1 = aig.compose(g, &map);
        assert_eq!(joint, vec![f1, g1, !f1]);
        assert_eq!(aig.compose_many(&[f, g], &[]), vec![f, g]);
    }

    #[test]
    fn levels_track_depth() {
        let (mut aig, a, b) = two_inputs();
        let ab = aig.and(a, b);
        let c = aig.add_input().lit();
        let abc = aig.and(ab, c);
        assert_eq!(aig.node_level(a.var()), 0);
        assert_eq!(aig.node_level(ab.var()), 1);
        assert_eq!(aig.node_level(abc.var()), 2);
    }

    #[test]
    fn perf_counters_move() {
        let (mut aig, a, b) = two_inputs();
        let f = aig.and(a, b);
        let before = aig.perf_counters();
        let c1 = aig.cofactor(f, a.var(), true);
        let c2 = aig.cofactor(f, a.var(), true);
        assert_eq!(c1, c2);
        let delta = aig.perf_counters().since(before);
        assert!(delta.scratch_walk_nodes > 0);
        let g = aig.and(b, a); // strash lookup
        assert_eq!(g, f);
        assert!(aig.perf_counters().since(before).strash_probes > 0);
    }

    #[test]
    fn cone_size_cached_matches_uncached() {
        let (mut aig, a, b) = two_inputs();
        let f = aig.xor(a, b);
        assert_eq!(aig.cone_size_cached(f), aig.cone_size(f));
        assert_eq!(aig.cone_size_cached(f), 3); // served from cache
        let g = aig.and(f, a);
        assert_eq!(aig.cone_size_cached(g), aig.cone_size(g));
    }
}
