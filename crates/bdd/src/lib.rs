//! # cbq-bdd — reduced ordered binary decision diagrams
//!
//! A classic hash-consed ROBDD package in the CUDD/Kuehlmann–Krohm
//! tradition, serving two roles in the reproduction of the DATE 2005
//! paper:
//!
//! 1. **BDD sweeping** (merge-phase tier 2): candidate equivalences between
//!    cofactor sub-circuits are confirmed by building *size-bounded* BDDs
//!    bottom-up from the AIG — two nodes with the same BDD are equivalent,
//!    canonically. One manager and one [`AigBdds`] memo (AIG node → BDD)
//!    serve many sweeps over a growing AIG, so each cone node's BDD is
//!    built once, from its fanins' BDDs, under a per-node and a total node
//!    cap; [`AigBdds::remap`] carries the memo across a compaction of the
//!    AIG. [`BddManager::from_aig`] runs the same walk with a fresh memo
//!    and a caller-given variable order.
//! 2. **Baseline model checker**: the canonical state-set representation
//!    the paper argues against; backward reachability over BDDs uses
//!    [`BddManager::vector_compose`] (functional pre-image) and
//!    [`BddManager::exists`].
//!
//! All potentially exploding operations have `*_limited` variants that
//! abort (returning `None`) once the manager exceeds a node budget —
//! mirroring how sweeping keeps BDDs small and how the evaluation measures
//! BDD blow-up.
//!
//! ## Example
//!
//! ```
//! use cbq_bdd::BddManager;
//!
//! let mut m = BddManager::new(3);
//! let x = m.var(0);
//! let y = m.var(1);
//! let f = m.and(x, y);
//! let g = m.or(x, y);
//! // canonical: xor == (x|y) & !(x&y)
//! let nx = m.not(f);
//! let h = m.and(g, nx);
//! let x1 = m.xor(x, y);
//! assert_eq!(h, x1);
//! assert_eq!(m.sat_count(h), 4.0); // 2 of 4 over (x,y), times 2 for z
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use cbq_aig::{Aig, Lit, Node, Var};

/// A reference to a BDD node (index into the manager).
///
/// `BddRef::ZERO` and `BddRef::ONE` are the terminals.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-false BDD.
    pub const ZERO: BddRef = BddRef(0);
    /// The constant-true BDD.
    pub const ONE: BddRef = BddRef(1);

    /// Whether this is a terminal node.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BddRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BddRef::ZERO => write!(f, "⊥"),
            BddRef::ONE => write!(f, "⊤"),
            other => write!(f, "bdd{}", other.0),
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct BddNode {
    level: u32,
    hi: BddRef,
    lo: BddRef,
}

/// Multiplicative (Fibonacci) hasher for the manager's own tables, whose
/// keys are small integers the manager itself creates: the SipHash
/// default spends most of a lookup on collision resistance these keys do
/// not need.
#[derive(Copy, Clone, Default)]
struct MulHasher(u64);

impl MulHasher {
    fn mix(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }

    fn finish(&self) -> u64 {
        // The high product bits are the well-mixed ones; fold them into
        // the low bits the table masks to its size.
        self.0 ^ (self.0 >> 32)
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

#[derive(Copy, Clone, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// A reduced ordered BDD manager with a fixed (but growable) number of
/// levels.
///
/// Levels *are* the variable order: level 0 is the topmost decision.
/// Callers map their own variables onto levels (e.g. an interleaved
/// current/next-state order for model checking).
#[derive(Clone)]
pub struct BddManager {
    nodes: Vec<BddNode>,
    unique: FastMap<(u32, BddRef, BddRef), BddRef>,
    apply_cache: FastMap<(Op, BddRef, BddRef), BddRef>,
    not_cache: FastMap<BddRef, BddRef>,
    num_vars: usize,
}

const TERMINAL_LEVEL: u32 = u32::MAX;

impl BddManager {
    /// Creates a manager with `num_vars` levels.
    pub fn new(num_vars: usize) -> BddManager {
        BddManager {
            nodes: vec![
                BddNode {
                    level: TERMINAL_LEVEL,
                    hi: BddRef::ZERO,
                    lo: BddRef::ZERO,
                },
                BddNode {
                    level: TERMINAL_LEVEL,
                    hi: BddRef::ONE,
                    lo: BddRef::ONE,
                },
            ],
            unique: FastMap::default(),
            apply_cache: FastMap::default(),
            not_cache: FastMap::default(),
            num_vars,
        }
    }

    /// Number of levels (variables).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of nodes ever created (including terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The constant-false BDD.
    pub fn zero(&self) -> BddRef {
        BddRef::ZERO
    }

    /// The constant-true BDD.
    pub fn one(&self) -> BddRef {
        BddRef::ONE
    }

    /// The projection function of `level`, growing the level count if
    /// needed.
    pub fn var(&mut self, level: u32) -> BddRef {
        if level as usize >= self.num_vars {
            self.num_vars = level as usize + 1;
        }
        self.mk(level, BddRef::ONE, BddRef::ZERO)
    }

    /// The level of the root decision of `f` (`None` for terminals).
    pub fn root_level(&self, f: BddRef) -> Option<u32> {
        let l = self.nodes[f.index()].level;
        (l != TERMINAL_LEVEL).then_some(l)
    }

    fn level(&self, f: BddRef) -> u32 {
        self.nodes[f.index()].level
    }

    fn hi(&self, f: BddRef) -> BddRef {
        self.nodes[f.index()].hi
    }

    fn lo(&self, f: BddRef) -> BddRef {
        self.nodes[f.index()].lo
    }

    fn mk(&mut self, level: u32, hi: BddRef, lo: BddRef) -> BddRef {
        if hi == lo {
            return hi;
        }
        debug_assert!(level < self.level(hi) && level < self.level(lo));
        if let Some(&r) = self.unique.get(&(level, hi, lo)) {
            return r;
        }
        let r = BddRef(u32::try_from(self.nodes.len()).expect("BDD node overflow"));
        self.nodes.push(BddNode { level, hi, lo });
        self.unique.insert((level, hi, lo), r);
        r
    }

    /// Negation.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        if f == BddRef::ZERO {
            return BddRef::ONE;
        }
        if f == BddRef::ONE {
            return BddRef::ZERO;
        }
        if let Some(&r) = self.not_cache.get(&f) {
            return r;
        }
        let (level, hi, lo) = (self.level(f), self.hi(f), self.lo(f));
        let nh = self.not(hi);
        let nl = self.not(lo);
        let r = self.mk(level, nh, nl);
        self.not_cache.insert(f, r);
        self.not_cache.insert(r, f);
        r
    }

    fn apply_terminal(op: Op, f: BddRef, g: BddRef) -> Option<BddRef> {
        match op {
            Op::And => {
                if f == BddRef::ZERO || g == BddRef::ZERO {
                    Some(BddRef::ZERO)
                } else if f == BddRef::ONE {
                    Some(g)
                } else if g == BddRef::ONE || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Or => {
                if f == BddRef::ONE || g == BddRef::ONE {
                    Some(BddRef::ONE)
                } else if f == BddRef::ZERO {
                    Some(g)
                } else if g == BddRef::ZERO || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Xor => {
                if f == g {
                    Some(BddRef::ZERO)
                } else if f == BddRef::ZERO {
                    Some(g)
                } else if g == BddRef::ZERO {
                    Some(f)
                } else {
                    None
                }
            }
        }
    }

    fn apply(&mut self, op: Op, f: BddRef, g: BddRef, limit: Option<usize>) -> Option<BddRef> {
        if let Some(r) = Self::apply_terminal(op, f, g) {
            return Some(r);
        }
        // Commutative ops: normalise the cache key.
        let key = if f <= g { (op, f, g) } else { (op, g, f) };
        if let Some(&r) = self.apply_cache.get(&key) {
            return Some(r);
        }
        if let Some(cap) = limit {
            if self.nodes.len() > cap {
                return None;
            }
        }
        let lf = self.level(f);
        let lg = self.level(g);
        let top = lf.min(lg);
        let (fh, fl) = if lf == top {
            (self.hi(f), self.lo(f))
        } else {
            (f, f)
        };
        let (gh, gl) = if lg == top {
            (self.hi(g), self.lo(g))
        } else {
            (g, g)
        };
        let h = self.apply(op, fh, gh, limit)?;
        let l = self.apply(op, fl, gl, limit)?;
        let r = self.mk(top, h, l);
        self.apply_cache.insert(key, r);
        Some(r)
    }

    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.apply(Op::And, f, g, None).expect("unlimited")
    }

    /// Disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.apply(Op::Or, f, g, None).expect("unlimited")
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.apply(Op::Xor, f, g, None).expect("unlimited")
    }

    /// Equivalence.
    pub fn iff(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// If-then-else.
    pub fn ite(&mut self, c: BddRef, t: BddRef, e: BddRef) -> BddRef {
        let ct = self.and(c, t);
        let nc = self.not(c);
        let ce = self.and(nc, e);
        self.or(ct, ce)
    }

    /// Conjunction that aborts with `None` if the manager would exceed
    /// `cap` nodes.
    pub fn and_limited(&mut self, f: BddRef, g: BddRef, cap: usize) -> Option<BddRef> {
        self.apply(Op::And, f, g, Some(cap))
    }

    /// Disjunction with a node cap (see [`BddManager::and_limited`]).
    pub fn or_limited(&mut self, f: BddRef, g: BddRef, cap: usize) -> Option<BddRef> {
        self.apply(Op::Or, f, g, Some(cap))
    }

    /// The cofactor of `f` by `level = value`.
    pub fn restrict(&mut self, f: BddRef, level: u32, value: bool) -> BddRef {
        if f.is_const() || self.level(f) > level {
            return f;
        }
        if self.level(f) == level {
            return if value { self.hi(f) } else { self.lo(f) };
        }
        let (lvl, hi, lo) = (self.level(f), self.hi(f), self.lo(f));
        let h = self.restrict(hi, level, value);
        let l = self.restrict(lo, level, value);
        self.mk(lvl, h, l)
    }

    /// Existential quantification of the (sorted or unsorted) `levels`.
    pub fn exists(&mut self, f: BddRef, levels: &[u32]) -> BddRef {
        self.exists_limited(f, levels, usize::MAX)
            .expect("unlimited")
    }

    /// Existential quantification with a node cap.
    pub fn exists_limited(&mut self, f: BddRef, levels: &[u32], cap: usize) -> Option<BddRef> {
        let mut sorted: Vec<u32> = levels.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut memo = HashMap::new();
        self.exists_rec(f, &sorted, cap, &mut memo)
    }

    fn exists_rec(
        &mut self,
        f: BddRef,
        levels: &[u32],
        cap: usize,
        memo: &mut HashMap<BddRef, BddRef>,
    ) -> Option<BddRef> {
        if f.is_const() {
            return Some(f);
        }
        let lvl = self.level(f);
        // Quantified levels strictly above the root are irrelevant.
        let rest: &[u32] = {
            let pos = levels.partition_point(|&l| l < lvl);
            &levels[pos..]
        };
        if rest.is_empty() {
            return Some(f);
        }
        if let Some(&r) = memo.get(&f) {
            return Some(r);
        }
        if self.nodes.len() > cap {
            return None;
        }
        let (hi, lo) = (self.hi(f), self.lo(f));
        let h = self.exists_rec(hi, rest, cap, memo)?;
        let l = self.exists_rec(lo, rest, cap, memo)?;
        let r = if rest.first() == Some(&lvl) {
            self.apply(Op::Or, h, l, Some(cap))?
        } else {
            self.mk(lvl, h, l)
        };
        memo.insert(f, r);
        Some(r)
    }

    /// Universal quantification of `levels`.
    pub fn forall(&mut self, f: BddRef, levels: &[u32]) -> BddRef {
        let nf = self.not(f);
        let e = self.exists(nf, levels);
        self.not(e)
    }

    /// The relational product `∃ levels. f ∧ g`, computed without building
    /// the full conjunction first (classical and-exists).
    pub fn and_exists(&mut self, f: BddRef, g: BddRef, levels: &[u32]) -> BddRef {
        let mut sorted: Vec<u32> = levels.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut memo = HashMap::new();
        self.and_exists_rec(f, g, &sorted, &mut memo)
    }

    fn and_exists_rec(
        &mut self,
        f: BddRef,
        g: BddRef,
        levels: &[u32],
        memo: &mut HashMap<(BddRef, BddRef), BddRef>,
    ) -> BddRef {
        if f == BddRef::ZERO || g == BddRef::ZERO {
            return BddRef::ZERO;
        }
        if f == BddRef::ONE && g == BddRef::ONE {
            return BddRef::ONE;
        }
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let lf = self.level(f);
        let lg = self.level(g);
        let top = lf.min(lg);
        if top == TERMINAL_LEVEL {
            // Both terminal (handled above except f/g = ONE mix).
            return Self::apply_terminal(Op::And, f, g).expect("terminals");
        }
        let rest: &[u32] = {
            let pos = levels.partition_point(|&l| l < top);
            &levels[pos..]
        };
        if rest.is_empty() {
            // No quantified level below: plain conjunction.
            let r = self.and(f, g);
            memo.insert(key, r);
            return r;
        }
        let (fh, fl) = if lf == top {
            (self.hi(f), self.lo(f))
        } else {
            (f, f)
        };
        let (gh, gl) = if lg == top {
            (self.hi(g), self.lo(g))
        } else {
            (g, g)
        };
        let r = if rest.first() == Some(&top) {
            let h = self.and_exists_rec(fh, gh, rest, memo);
            if h == BddRef::ONE {
                BddRef::ONE
            } else {
                let l = self.and_exists_rec(fl, gl, rest, memo);
                self.or(h, l)
            }
        } else {
            let h = self.and_exists_rec(fh, gh, rest, memo);
            let l = self.and_exists_rec(fl, gl, rest, memo);
            self.mk(top, h, l)
        };
        memo.insert(key, r);
        r
    }

    /// Simultaneous functional substitution: every level in `subst` is
    /// replaced by the corresponding BDD (vector compose). Levels not in
    /// `subst` remain decision variables.
    ///
    /// This is the BDD analogue of AIG pre-image in-lining:
    /// `Pre(F)(s,i) = F[s ← δ(s,i)]`.
    pub fn vector_compose(&mut self, f: BddRef, subst: &HashMap<u32, BddRef>) -> BddRef {
        let mut memo = HashMap::new();
        self.vcompose_rec(f, subst, &mut memo)
    }

    fn vcompose_rec(
        &mut self,
        f: BddRef,
        subst: &HashMap<u32, BddRef>,
        memo: &mut HashMap<BddRef, BddRef>,
    ) -> BddRef {
        if f.is_const() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let (lvl, hi, lo) = (self.level(f), self.hi(f), self.lo(f));
        let h = self.vcompose_rec(hi, subst, memo);
        let l = self.vcompose_rec(lo, subst, memo);
        let c = match subst.get(&lvl) {
            Some(&g) => g,
            None => self.var(lvl),
        };
        let r = self.ite(c, h, l);
        memo.insert(f, r);
        r
    }

    /// Number of satisfying assignments over all [`BddManager::num_vars`]
    /// levels, as `f64` (exact for small counts).
    pub fn sat_count(&self, f: BddRef) -> f64 {
        let mut memo: HashMap<BddRef, f64> = HashMap::new();
        let frac = self.count_rec(f, &mut memo);
        frac * 2f64.powi(self.num_vars as i32)
    }

    /// The fraction of assignments satisfying `f` (between 0 and 1).
    fn count_rec(&self, f: BddRef, memo: &mut HashMap<BddRef, f64>) -> f64 {
        if f == BddRef::ZERO {
            return 0.0;
        }
        if f == BddRef::ONE {
            return 1.0;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let h = self.count_rec(self.hi(f), memo);
        let l = self.count_rec(self.lo(f), memo);
        let c = 0.5 * (h + l);
        memo.insert(f, c);
        c
    }

    /// One satisfying assignment (by level), if any; unconstrained levels
    /// are `None`.
    pub fn one_sat(&self, f: BddRef) -> Option<Vec<Option<bool>>> {
        if f == BddRef::ZERO {
            return None;
        }
        let mut out = vec![None; self.num_vars];
        let mut cur = f;
        while cur != BddRef::ONE {
            let lvl = self.level(cur) as usize;
            if self.hi(cur) != BddRef::ZERO {
                out[lvl] = Some(true);
                cur = self.hi(cur);
            } else {
                out[lvl] = Some(false);
                cur = self.lo(cur);
            }
        }
        Some(out)
    }

    /// Evaluates `f` under a complete assignment by level.
    pub fn eval(&self, f: BddRef, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let lvl = self.level(cur) as usize;
            cur = if assignment[lvl] {
                self.hi(cur)
            } else {
                self.lo(cur)
            };
        }
        cur == BddRef::ONE
    }

    /// Number of decision nodes in the sub-DAG rooted at `f`.
    pub fn size(&self, f: BddRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_const() || !seen.insert(n) {
                continue;
            }
            stack.push(self.hi(n));
            stack.push(self.lo(n));
        }
        seen.len()
    }

    /// Builds the BDD of an AIG cone bottom-up, mapping each AIG input
    /// variable to the level given by `var_level`. Aborts with `None` if
    /// the manager grows beyond `cap` nodes (pass `usize::MAX` for
    /// unlimited).
    ///
    /// This is [`AigBdds::build`]'s walk with a fresh memo and a level
    /// map in place of input ordinals.
    ///
    /// # Panics
    ///
    /// Panics if the cone references an input missing from `var_level`.
    pub fn from_aig(
        &mut self,
        aig: &Aig,
        root: Lit,
        var_level: &HashMap<Var, u32>,
        cap: usize,
    ) -> Option<BddRef> {
        AigBdds::new().build_with(self, aig, root, usize::MAX, cap, |v, _| {
            *var_level
                .get(&v)
                .expect("AIG input missing from the level map")
        })
    }

    /// Dumps `f` into an AIG as a multiplexer tree over `level_lit`
    /// (the AIG literal to use for each level).
    pub fn to_aig(&self, aig: &mut Aig, f: BddRef, level_lit: &[Lit]) -> Lit {
        let mut memo: HashMap<BddRef, Lit> = HashMap::new();
        self.to_aig_rec(aig, f, level_lit, &mut memo)
    }

    fn to_aig_rec(
        &self,
        aig: &mut Aig,
        f: BddRef,
        level_lit: &[Lit],
        memo: &mut HashMap<BddRef, Lit>,
    ) -> Lit {
        if f == BddRef::ZERO {
            return Lit::FALSE;
        }
        if f == BddRef::ONE {
            return Lit::TRUE;
        }
        if let Some(&l) = memo.get(&f) {
            return l;
        }
        let c = level_lit[self.level(f) as usize];
        let h = self.to_aig_rec(aig, self.hi(f), level_lit, memo);
        let l = self.to_aig_rec(aig, self.lo(f), level_lit, memo);
        let r = aig.ite(c, h, l);
        memo.insert(f, r);
        r
    }
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BddManager {{ vars: {}, nodes: {} }}",
            self.num_vars,
            self.nodes.len()
        )
    }
}

/// What the memo knows about one AIG node.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Slot {
    /// In the cone being built, not built yet.
    Queued,
    Built(BddRef),
    /// Its AND exceeded the caps, or a fanin aborted.
    Aborted,
}

/// AIG node → BDD memo for building many cones in one [`BddManager`]:
/// each node's BDD is built once, from its fanins' memoised BDDs, and
/// every later cone that reaches the node reuses it.
///
/// [`AigBdds::build`] puts each AIG input at the level of its input
/// ordinal ([`Node::Input`]'s `index`), so every function's BDD has the
/// size it would have over its own support in ordinal order. Two caps
/// bound a build: `node_cap` limits the nodes one AND may add to the
/// manager, and `total_cap` the manager's size. A node whose AND exceeds
/// either, or whose fanin aborted, is memoised as aborted, so every node
/// above it aborts too, while cones that avoid it still resolve. The
/// memo is sparse (keyed by [`Var`]), so its cost follows the cones
/// built, not the manager's size. It holds one manager's `BddRef`s for
/// the nodes of one AIG generation: the AIG may grow between builds, but
/// no node may change its function. A compaction starts a new
/// generation, and [`AigBdds::remap`] carries the memo into it.
///
/// ```
/// use cbq_aig::Aig;
/// use cbq_bdd::{AigBdds, BddManager};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input().lit();
/// let b = aig.add_input().lit();
/// let x1 = aig.xor(a, b);
/// let or = aig.or(a, b);
/// let nand = !aig.and(a, b);
/// let x2 = aig.and(or, nand);
///
/// let mut mgr = BddManager::new(aig.num_inputs());
/// let mut memo = AigBdds::new();
/// let b1 = memo.build(&mut mgr, &aig, x1, 100, 10_000);
/// let b2 = memo.build(&mut mgr, &aig, x2, 100, 10_000); // reuses a, b
/// assert!(b1.is_some());
/// assert_eq!(b1, b2); // canonical: equal functions, equal BDDs
/// ```
#[derive(Clone, Debug, Default)]
pub struct AigBdds {
    memo: FastMap<Var, Slot>,
    /// AIG nodes whose BDD this memo has built, ever.
    built: u64,
    /// Scratch: the unbuilt part of the cone being built.
    todo: Vec<Var>,
    stack: Vec<Var>,
}

impl AigBdds {
    /// An empty memo.
    pub fn new() -> AigBdds {
        AigBdds::default()
    }

    /// The memoised BDD of node `v`, if one was built.
    pub fn get(&self, v: Var) -> Option<BddRef> {
        match self.memo.get(&v) {
            Some(&Slot::Built(b)) => Some(b),
            _ => None,
        }
    }

    /// Nodes the memo holds a BDD or an abort for.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the memo holds nothing.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// AIG nodes whose BDD this memo has built since it was created; the
    /// difference across a sweep is that sweep's work.
    pub fn built(&self) -> u64 {
        self.built
    }

    /// Carries the memo across a compaction of its AIG:
    /// `old_to_new[v.index()]` is the new AIG's literal for old node `v`,
    /// as [`Aig::compact_with_map`] returns it. A built node with an image
    /// keeps its BDD under the image's variable, negated in `mgr` when the
    /// image is complemented; nodes without an image, and aborted ones,
    /// drop out. Two nodes with one image compute one function, so their
    /// BDDs agree by canonicity.
    pub fn remap(&mut self, mgr: &mut BddManager, old_to_new: &[Option<Lit>]) {
        let old = std::mem::take(&mut self.memo);
        self.memo.reserve(old.len());
        for (v, slot) in old {
            let (Slot::Built(b), Some(Some(image))) = (slot, old_to_new.get(v.index())) else {
                continue;
            };
            let b = if image.is_complemented() {
                mgr.not(b)
            } else {
                b
            };
            self.memo.insert(image.var(), Slot::Built(b));
        }
    }

    /// The BDD of `root` in `mgr`, over input ordinals as levels, or
    /// `None` if it or a node below it aborted on the caps (see the type
    /// doc).
    pub fn build(
        &mut self,
        mgr: &mut BddManager,
        aig: &Aig,
        root: Lit,
        node_cap: usize,
        total_cap: usize,
    ) -> Option<BddRef> {
        self.build_with(mgr, aig, root, node_cap, total_cap, |_, ordinal| ordinal)
    }

    /// The one AIG→BDD walk: queues the part of `root`'s cone the memo
    /// lacks, then builds it in ascending variable order (a topological
    /// order), stopping at the first abort.
    fn build_with(
        &mut self,
        mgr: &mut BddManager,
        aig: &Aig,
        root: Lit,
        node_cap: usize,
        total_cap: usize,
        level: impl Fn(Var, u32) -> u32,
    ) -> Option<BddRef> {
        let top = root.var();
        if let Entry::Vacant(e) = self.memo.entry(top) {
            e.insert(Slot::Queued);
            self.stack.push(top);
        }
        while let Some(v) = self.stack.pop() {
            self.todo.push(v);
            if let Node::And { f0, f1 } = aig.node(v) {
                for w in [f0.var(), f1.var()] {
                    if let Entry::Vacant(e) = self.memo.entry(w) {
                        e.insert(Slot::Queued);
                        self.stack.push(w);
                    }
                }
            }
        }
        self.todo.sort_unstable();
        for i in 0..self.todo.len() {
            let v = self.todo[i];
            let slot = match aig.node(v) {
                Node::Const => Slot::Built(BddRef::ZERO),
                Node::Input { index } => Slot::Built(mgr.var(level(v, index))),
                Node::And { f0, f1 } => match (self.edge(mgr, f0), self.edge(mgr, f1)) {
                    (Some(a), Some(b)) => {
                        let limit = mgr.num_nodes().saturating_add(node_cap).min(total_cap);
                        mgr.apply(Op::And, a, b, Some(limit))
                            .map_or(Slot::Aborted, Slot::Built)
                    }
                    _ => Slot::Aborted,
                },
            };
            self.memo.insert(v, slot);
            self.built += u64::from(slot != Slot::Aborted);
            if slot == Slot::Aborted {
                // Unqueue the rest: later cones may still build them.
                for w in &self.todo[i + 1..] {
                    self.memo.remove(w);
                }
                break;
            }
        }
        self.todo.clear();
        self.edge(mgr, root)
    }

    /// The memoised BDD of edge `l`, complement applied.
    fn edge(&self, mgr: &mut BddManager, l: Lit) -> Option<BddRef> {
        match self.memo.get(&l.var()) {
            Some(&Slot::Built(b)) if l.is_complemented() => Some(mgr.not(b)),
            Some(&Slot::Built(b)) => Some(b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_constants() {
        let mut m = BddManager::new(2);
        let x = m.var(0);
        let nx = m.not(x);
        assert_eq!(m.and(x, nx), BddRef::ZERO);
        assert_eq!(m.or(x, nx), BddRef::ONE);
        assert_eq!(m.not(BddRef::ZERO), BddRef::ONE);
    }

    #[test]
    fn canonicity_merges_equivalent_builds() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        // (x & y) | (x & z) == x & (y | z)
        let a1 = m.and(x, y);
        let a2 = m.and(x, z);
        let lhs = m.or(a1, a2);
        let o = m.or(y, z);
        let rhs = m.and(x, o);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn restrict_is_cofactor() {
        let mut m = BddManager::new(2);
        let x = m.var(0);
        let y = m.var(1);
        let f = m.xor(x, y);
        let f_x1 = m.restrict(f, 0, true);
        let ny = m.not(y);
        assert_eq!(f_x1, ny);
        assert_eq!(m.restrict(f, 0, false), y);
    }

    #[test]
    fn exists_and_forall() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let y = m.var(1);
        let f = m.and(x, y);
        assert_eq!(m.exists(f, &[0]), y);
        assert_eq!(m.forall(f, &[0]), BddRef::ZERO);
        let g = m.or(x, y);
        assert_eq!(m.exists(g, &[0]), BddRef::ONE);
        assert_eq!(m.forall(g, &[0]), y);
        // Quantifying everything yields a constant.
        assert_eq!(m.exists(f, &[0, 1]), BddRef::ONE);
    }

    #[test]
    fn and_exists_matches_composition() {
        let mut m = BddManager::new(4);
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let w = m.var(3);
        let f = m.ite(x, y, z);
        let g = m.ite(y, z, w);
        let plain = {
            let c = m.and(f, g);
            m.exists(c, &[1, 2])
        };
        assert_eq!(m.and_exists(f, g, &[1, 2]), plain);
    }

    #[test]
    fn vector_compose_substitutes() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let f = m.and(x, y);
        // x := z, y := !z  =>  f == 0
        let nz = m.not(z);
        let subst = HashMap::from([(0u32, z), (1u32, nz)]);
        assert_eq!(m.vector_compose(f, &subst), BddRef::ZERO);
        // x := y  => f == y (idempotent conjunction)
        let subst2 = HashMap::from([(0u32, y)]);
        assert_eq!(m.vector_compose(f, &subst2), y);
    }

    #[test]
    fn sat_count_and_one_sat() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let y = m.var(1);
        let f = m.xor(x, y);
        assert_eq!(m.sat_count(f), 4.0); // 2 over (x,y) * 2 for z
        let asg = m.one_sat(f).unwrap();
        let concrete: Vec<bool> = asg.iter().map(|o| o.unwrap_or(false)).collect();
        assert!(m.eval(f, &concrete));
        assert_eq!(m.one_sat(BddRef::ZERO), None);
    }

    #[test]
    fn from_aig_agrees_with_eval() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let f = {
            let x = aig.xor(a.lit(), b.lit());
            aig.or(x, c.lit())
        };
        let mut m = BddManager::new(3);
        let map = HashMap::from([(a, 0u32), (b, 1u32), (c, 2u32)]);
        let bf = m.from_aig(&aig, f, &map, usize::MAX).unwrap();
        for mask in 0..8u32 {
            let asg = [(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0];
            assert_eq!(aig.eval(f, &asg), m.eval(bf, &asg), "mask {mask}");
        }
    }

    #[test]
    fn from_aig_respects_cap() {
        // A wide xor chain grows the BDD; a tiny cap must abort it.
        let mut aig = Aig::new();
        let mut f = Lit::FALSE;
        let mut map = HashMap::new();
        for i in 0..16 {
            let v = aig.add_input();
            map.insert(v, i as u32);
            f = aig.xor(f, v.lit());
        }
        let mut m = BddManager::new(16);
        assert_eq!(m.from_aig(&aig, f, &map, 4), None);
        assert!(m.from_aig(&aig, f, &map, usize::MAX).is_some());
    }

    #[test]
    fn to_aig_roundtrip() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let t = m.xor(y, z);
        let f = m.ite(x, t, y);
        let mut aig = Aig::new();
        let lits: Vec<Lit> = (0..3).map(|_| aig.add_input().lit()).collect();
        let g = m.to_aig(&mut aig, f, &lits);
        for mask in 0..8u32 {
            let asg = [(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0];
            assert_eq!(m.eval(f, &asg), aig.eval(g, &asg));
        }
    }

    #[test]
    fn ordering_sensitivity_shows_in_size() {
        // f = (x0&x1) | (x2&x3) | (x4&x5): good order pairs adjacent vars.
        let mut aig = Aig::new();
        let vars: Vec<Var> = (0..6).map(|_| aig.add_input()).collect();
        let mut f = Lit::FALSE;
        for i in 0..3 {
            let t = aig.and(vars[2 * i].lit(), vars[2 * i + 1].lit());
            f = aig.or(f, t);
        }
        let good: HashMap<Var, u32> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, i as u32))
            .collect();
        // Bad order: x0,x2,x4 first then x1,x3,x5.
        let bad: HashMap<Var, u32> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let lvl = if i % 2 == 0 { i / 2 } else { 3 + i / 2 };
                (*v, lvl as u32)
            })
            .collect();
        let mut m1 = BddManager::new(6);
        let g = m1.from_aig(&aig, f, &good, usize::MAX).unwrap();
        let mut m2 = BddManager::new(6);
        let b = m2.from_aig(&aig, f, &bad, usize::MAX).unwrap();
        assert!(m1.size(g) < m2.size(b), "{} vs {}", m1.size(g), m2.size(b));
    }
}
