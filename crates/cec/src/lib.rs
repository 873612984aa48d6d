//! # cbq-cec — combinational equivalence checking and sweeping
//!
//! Implements the **merge phase** of the DATE 2005 paper (Section 2.1):
//! "merge together as many internal nodes of F₁ and F₀ as possible … this
//! is essentially a combinational equivalence checking problem", using the
//! paper's three escalating tiers:
//!
//! 1. **Structural hashing / semi-canonicity** — free merges performed by
//!    the AIG manager itself ("we exploit AIG semi-canonicity and hashing
//!    scheme to early detect functionally equivalent map points").
//! 2. **BDD sweeping** — size-bounded BDDs built bottom-up confirm or
//!    refute candidate equivalences canonically (Kuehlmann & Krohm,
//!    DAC 1997). A [`BddTier`] — one [`BddManager`] and one
//!    [`cbq_bdd::AigBdds`] memo, each input at the level of its input
//!    ordinal — serves every candidate class of a sweep and, through
//!    [`sweep_with`], every later sweep over the same growing AIG, so a
//!    cone node's BDD is built once, from its fanins'. The tier's owner
//!    carries it across a compaction with [`BddTier::remap`].
//!    [`SweepConfig::bdd_cap`] bounds the nodes one AND may add; a node
//!    past it, and every node above it, stays unresolved and goes to SAT.
//!    A backstop of 64 × `bdd_cap` manager nodes ends BDD building for the
//!    rest of the sweep, and a sweep that starts with the kept manager
//!    past 4 × `bdd_cap` nodes replaces the tier.
//! 3. **SAT checks** — remaining compare points go to the shared-database
//!    incremental solver ([`cbq_cnf::AigCnf`]) as assumption queries on
//!    one persistent arena solver; counterexamples are fed back into
//!    parallel simulation to refine the candidate classes (fraiging), and
//!    proven equivalences are *learnt* as activation-guarded clauses
//!    ([`cbq_cnf::AigCnf::learn_equiv`]), "simplifying successive
//!    equivalence checks" — and surviving any number of sweeps until the
//!    bridge retires the cone generation.
//!
//! Both the **forward** (inputs-first, sweeping-like) and **backward**
//! (outputs-first, early-exit) processing orders of the paper are
//! implemented ([`MergeOrder`]); the backward order skips compare points
//! that fall out of the needed cone once outputs merge.
//!
//! ## Example
//!
//! ```
//! use cbq_aig::Aig;
//! use cbq_cec::{sweep, SweepConfig};
//! use cbq_cnf::AigCnf;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input().lit();
//! let b = aig.add_input().lit();
//! // Two different constructions of a XOR b.
//! let x1 = aig.xor(a, b);
//! let or = aig.or(a, b);
//! let nand = !aig.and(a, b);
//! let x2 = aig.and(or, nand);
//!
//! let mut cnf = AigCnf::new();
//! let result = sweep(&mut aig, &[x1, x2], &mut cnf, &SweepConfig::default());
//! assert_eq!(result.roots[0], result.roots[1]); // merged into one node
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cbq_aig::sim::BitSim;
use cbq_aig::{Aig, Lit, Node, Var};
use cbq_bdd::{AigBdds, BddManager, BddRef};
use cbq_cnf::{AigCnf, EquivResult};

/// Processing order for SAT-based merge-point checking (Section 2.1).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum MergeOrder {
    /// Inputs-first, "more similar to the BDD sweeping technique": merges
    /// are learnt bottom-up and simplify later checks.
    #[default]
    Forward,
    /// Outputs-first, "generally better in case of high merge probability
    /// (similar cofactors)": once outputs merge, inner compare points fall
    /// out of the needed cone and are skipped.
    Backward,
}

/// Configuration of the sweeping engine.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// 64-bit words of random simulation per node (tier-0 filtering).
    pub sim_words: usize,
    /// Seed for the random patterns.
    pub seed: u64,
    /// Enable the BDD sweeping tier.
    pub use_bdd_sweep: bool,
    /// Node cap per AIG node in the BDD tier: one node's AND may add at
    /// most this many nodes to the tier's BDD manager. The manager stops
    /// building once it holds 64 × `bdd_cap` nodes, and a sweep that
    /// starts with it past 4 × `bdd_cap` replaces the tier.
    pub bdd_cap: usize,
    /// Enable the SAT tier.
    pub use_sat: bool,
    /// Conflict budget per SAT equivalence check (`None` = unlimited).
    pub sat_budget: Option<u64>,
    /// Processing order of SAT compare points.
    pub order: MergeOrder,
    /// Maximum simulate–check–refine rounds.
    pub max_rounds: usize,
    /// Cooperative cancellation: once this instant passes, the candidate
    /// loop stops issuing new checks and applies the merges proven so far
    /// (a sweep result is always sound, however early it stops).
    pub deadline: Option<Instant>,
    /// Cooperative cancellation by flag, polled where the deadline is: a
    /// caller's run whose answer is no longer wanted raises it.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            sim_words: 4,
            seed: 0xC0FFEE,
            use_bdd_sweep: true,
            bdd_cap: 2_000,
            use_sat: true,
            sat_budget: None,
            order: MergeOrder::Forward,
            max_rounds: 16,
            deadline: None,
            cancel: None,
        }
    }
}

impl SweepConfig {
    /// Whether the cooperative deadline has passed or the cancel flag is
    /// raised.
    pub fn interrupted(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
            || matches!(self.deadline, Some(d) if Instant::now() >= d)
    }
}

/// Per-tier merge counters (the data behind experiment E4).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Candidate equivalence classes after initial simulation.
    pub classes_initial: usize,
    /// Merges proven by the BDD sweeping tier.
    pub merged_bdd: usize,
    /// Merges proven by the SAT tier.
    pub merged_sat: usize,
    /// Candidate pairs refuted canonically by BDDs.
    pub refuted_bdd: usize,
    /// SAT equivalence checks issued.
    pub sat_checks: u64,
    /// SAT checks that produced counterexamples (class refinements).
    pub sat_cex: u64,
    /// SAT checks aborted on budget.
    pub sat_unknown: u64,
    /// Compare points skipped because they left the needed cone
    /// (backward order only).
    pub skipped_out_of_cone: u64,
    /// Simulate–refine rounds executed.
    pub rounds: usize,
    /// AIG nodes whose BDD the BDD tier built (memo hits excluded).
    pub bdd_built: u64,
    /// Kept BDD tiers replaced because they had outgrown the bound.
    pub bdd_resets: u64,
}

impl SweepStats {
    /// Adds another sweep's counters to these.
    pub fn absorb(&mut self, other: &SweepStats) {
        self.classes_initial += other.classes_initial;
        self.merged_bdd += other.merged_bdd;
        self.merged_sat += other.merged_sat;
        self.refuted_bdd += other.refuted_bdd;
        self.sat_checks += other.sat_checks;
        self.sat_cex += other.sat_cex;
        self.sat_unknown += other.sat_unknown;
        self.skipped_out_of_cone += other.skipped_out_of_cone;
        self.rounds += other.rounds;
        self.bdd_built += other.bdd_built;
        self.bdd_resets += other.bdd_resets;
    }
}

/// Result of [`sweep`]: translated roots plus statistics.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The input roots rebuilt over the merged graph, in the same order.
    pub roots: Vec<Lit>,
    /// What each tier accomplished.
    pub stats: SweepStats,
}

/// A proven merge: `member` is equivalent to `repr` (both phase-carrying
/// literals on the original graph).
type Merges = HashMap<Var, Lit>;

/// The BDD manager stops building once it holds this many times
/// [`SweepConfig::bdd_cap`] nodes: under the per-node cap alone, the
/// manager would grow with the size of the swept cone.
const BDD_BACKSTOP_FACTOR: usize = 64;

/// A sweep that starts with its tier's manager past this many times
/// [`SweepConfig::bdd_cap`] nodes replaces the tier: a kept manager never
/// frees a node, and a small bound keeps its memory near one sweep's.
const BDD_KEEP_FACTOR: usize = 4;

/// The merge phase's BDD tier: one [`BddManager`] and its
/// [`cbq_bdd::AigBdds`] memo (AIG node → BDD), kept across the sweeps of
/// one AIG so each node's BDD is built once.
///
/// A tier belongs to one AIG generation, and its merges are trusted
/// without SAT: between two sweeps the AIG may only grow. When the AIG is
/// compacted, [`BddTier::remap`] must carry the tier into the new
/// manager; a tier used with any other AIG merges unsound pairs.
#[derive(Clone, Debug)]
pub struct BddTier {
    mgr: BddManager,
    memo: AigBdds,
}

impl Default for BddTier {
    fn default() -> BddTier {
        BddTier {
            mgr: BddManager::new(0),
            memo: AigBdds::new(),
        }
    }
}

impl BddTier {
    /// An empty tier.
    pub fn new() -> BddTier {
        BddTier::default()
    }

    /// Carries the tier across a compaction of its AIG, with the old → new
    /// map of [`Aig::compact_with_map`] (see [`AigBdds::remap`]).
    pub fn remap(&mut self, old_to_new: &[Option<Lit>]) {
        self.memo.remap(&mut self.mgr, old_to_new);
    }
}

/// Builds the miter `a ⊕ b` (satisfiable iff the functions differ).
pub fn miter(aig: &mut Aig, a: Lit, b: Lit) -> Lit {
    aig.xor(a, b)
}

/// Full combinational equivalence check between two literals: sweeping
/// first (which shrinks and shares the cones), then a final SAT proof on
/// the swept roots.
pub fn check_equiv(
    aig: &mut Aig,
    a: Lit,
    b: Lit,
    cnf: &mut AigCnf,
    cfg: &SweepConfig,
) -> EquivResult {
    let swept = sweep(aig, &[a, b], cnf, cfg);
    if swept.roots[0] == swept.roots[1] {
        return EquivResult::Equiv;
    }
    cnf.prove_equiv(aig, swept.roots[0], swept.roots[1], cfg.sat_budget)
}

/// Functionally reduces the cones of `roots`: equivalent nodes (modulo
/// complementation) are merged to a single representative.
///
/// This is the paper's merge phase, exposed as a standalone operation
/// (also known as *fraiging*), on a fresh [`BddTier`]. Returns the
/// rebuilt roots and statistics.
pub fn sweep(aig: &mut Aig, roots: &[Lit], cnf: &mut AigCnf, cfg: &SweepConfig) -> SweepResult {
    sweep_with(aig, roots, cnf, &mut BddTier::new(), cfg)
}

/// [`sweep`] on a kept [`BddTier`]: the BDDs earlier sweeps of `aig`
/// built are reused, and this sweep's stay in the tier for later ones. A
/// tier past 4 × [`SweepConfig::bdd_cap`] nodes is replaced first.
pub fn sweep_with(
    aig: &mut Aig,
    roots: &[Lit],
    cnf: &mut AigCnf,
    bdds: &mut BddTier,
    cfg: &SweepConfig,
) -> SweepResult {
    Sweeper::new(aig, roots, cnf, bdds, cfg).run()
}

struct Sweeper<'a> {
    aig: &'a mut Aig,
    roots: Vec<Lit>,
    cnf: &'a mut AigCnf,
    cfg: &'a SweepConfig,
    sim: BitSim,
    bdds: &'a mut BddTier,
    /// The tier's build count when the sweep started.
    built_before: u64,
    merges: Merges,
    refuted: HashSet<(Var, Var)>,
    stats: SweepStats,
    next_cex_slot: usize,
}

impl<'a> Sweeper<'a> {
    fn new(
        aig: &'a mut Aig,
        roots: &[Lit],
        cnf: &'a mut AigCnf,
        bdds: &'a mut BddTier,
        cfg: &'a SweepConfig,
    ) -> Self {
        let sim = BitSim::random(aig, cfg.sim_words.max(1), cfg.seed);
        let mut stats = SweepStats::default();
        if cfg.use_bdd_sweep && bdds.mgr.num_nodes() > cfg.bdd_cap.saturating_mul(BDD_KEEP_FACTOR) {
            *bdds = BddTier::new();
            stats.bdd_resets += 1;
        }
        let built_before = bdds.memo.built();
        Sweeper {
            aig,
            roots: roots.to_vec(),
            cnf,
            cfg,
            sim,
            bdds,
            built_before,
            merges: HashMap::new(),
            refuted: HashSet::new(),
            stats,
            next_cex_slot: 0,
        }
    }

    /// Follows proven merges to the current representative literal of `l`.
    fn find(&self, l: Lit) -> Lit {
        let mut cur = l;
        while let Some(&next) = self.merges.get(&cur.var()) {
            cur = next.xor_sign(cur.is_complemented());
        }
        cur
    }

    /// The set of variables still needed by the roots, looking through
    /// proven merges (used by the backward order to skip dead points).
    fn needed_cone(&self) -> HashSet<Var> {
        let mut seen = HashSet::new();
        let mut stack: Vec<Var> = self.roots.iter().map(|r| self.find(*r).var()).collect();
        while let Some(v) = stack.pop() {
            if !seen.insert(v) {
                continue;
            }
            if let Node::And { f0, f1 } = self.aig.node(v) {
                for f in [f0, f1] {
                    stack.push(self.find(f).var());
                }
            }
        }
        seen
    }

    /// Groups cone nodes into candidate classes by normalised simulation
    /// signature. Class members are phase-carrying literals whose
    /// signatures are identical; the first member (lowest index) is the
    /// representative. The constant class (all-zero signature) is seeded
    /// with [`Lit::FALSE`].
    fn candidate_classes(&self) -> Vec<Vec<Lit>> {
        let cone = self.aig.collect_cone(&self.roots);
        let mut groups = cbq_aig::SigClasses::with_capacity(cone.len());
        // Seed the constant class so constant nodes merge to the constant.
        groups.insert(&vec![0; self.sim.words()], Lit::FALSE);
        for v in cone {
            if v == Var::CONST {
                continue;
            }
            let (sig, flip) = self.sim.normalized_signature(v.lit());
            groups.insert(&sig, v.lit().xor_sign(flip));
        }
        let mut classes: Vec<Vec<Lit>> = groups
            .into_entries()
            .into_iter()
            .map(|(_, members)| members)
            .filter(|members| members.len() > 1)
            .collect();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort_unstable_by_key(|c| c[0]);
        classes
    }

    fn record_merge(&mut self, member: Lit, repr: Lit) {
        debug_assert!(repr.var() < member.var());
        // member == repr  <=>  member.var() == repr.xor_sign(member phase)
        self.merges
            .insert(member.var(), repr.xor_sign(member.is_complemented()));
        // Learn the equivalence in the solver so later checks get simpler;
        // the guarded form dies with the cone generation it refers to.
        if let (Some(ms), Some(rs)) = (self.cnf.sat_lit(member), self.cnf.sat_lit(repr)) {
            self.cnf.learn_equiv(ms, rs);
        }
    }

    /// Tier 2: BDD sweeping inside one candidate class, on the kept
    /// tier. Returns the members that remain unresolved (BDD construction
    /// aborted).
    fn bdd_tier(&mut self, members: &[Lit]) -> Vec<Lit> {
        let cap = self.cfg.bdd_cap;
        let backstop = cap.saturating_mul(BDD_BACKSTOP_FACTOR);
        let mut by_bdd: HashMap<BddRef, Lit> = HashMap::new();
        let mut unresolved = Vec::new();
        for &m in members {
            let resolved = self.find(m);
            let BddTier { mgr, memo } = &mut *self.bdds;
            match memo.build(mgr, self.aig, resolved, cap, backstop) {
                None => unresolved.push(m),
                Some(b) => {
                    if let Some(&repr) = by_bdd.get(&b) {
                        let repr = self.find(repr);
                        if repr.var() != resolved.var() {
                            let (lo, hi) = if repr.var() < resolved.var() {
                                (repr, resolved)
                            } else {
                                (resolved, repr)
                            };
                            self.record_merge(hi, lo);
                            self.stats.merged_bdd += 1;
                        }
                    } else {
                        by_bdd.insert(b, resolved);
                        // Canonicity: distinct BDDs refute the candidate
                        // pair for good.
                        for (&ob, &ol) in by_bdd.iter() {
                            if ob != b {
                                let key = ordered(ol.var(), resolved.var());
                                if self.refuted.insert(key) {
                                    self.stats.refuted_bdd += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        unresolved
    }

    /// Tier 3: SAT check of `member ≡ repr`; on counterexample the pattern
    /// is injected into the simulator for the next refinement round.
    fn sat_tier_pair(&mut self, repr: Lit, member: Lit) -> bool {
        self.stats.sat_checks += 1;
        match self
            .cnf
            .prove_equiv(self.aig, repr, member, self.cfg.sat_budget)
        {
            EquivResult::Equiv => true,
            EquivResult::Unknown => {
                self.stats.sat_unknown += 1;
                false
            }
            EquivResult::NotEquiv(cex) => {
                self.stats.sat_cex += 1;
                self.refuted.insert(ordered(repr.var(), member.var()));
                let slot = self.next_cex_slot % self.sim.num_patterns();
                self.next_cex_slot += 1;
                self.sim.set_pattern(self.aig, slot, &cex);
                false
            }
        }
    }

    fn run(mut self) -> SweepResult {
        for round in 0..self.cfg.max_rounds.max(1) {
            self.stats.rounds = round + 1;
            // `BitSim::random` already simulated round 0's patterns.
            if round > 0 {
                self.sim.run(self.aig);
            }
            let mut classes = self.candidate_classes();
            if round == 0 {
                self.stats.classes_initial = classes.len();
            }
            match self.cfg.order {
                MergeOrder::Forward => {
                    classes.sort_unstable_by_key(|c| c[0].var());
                }
                MergeOrder::Backward => {
                    classes.sort_unstable_by_key(|c| {
                        std::cmp::Reverse(c.iter().map(|l| l.var()).max().unwrap())
                    });
                }
            }
            // BDD sweeping only in the first round: later rounds only see
            // classes the BDDs already failed on or that SAT refined.
            let use_bdd = self.cfg.use_bdd_sweep && round == 0;
            let mut progress = false;
            let mut pending_pairs = 0usize;
            let mut cancelled = false;
            for class in classes {
                // Cooperative cancellation between candidate classes: stop
                // issuing checks, keep the merges already proven.
                if self.cfg.interrupted() {
                    cancelled = true;
                    break;
                }
                let class = if use_bdd {
                    let unresolved = self.bdd_tier(&class);
                    if unresolved.len() < class.len() {
                        progress = true;
                    }
                    unresolved
                } else {
                    class
                };
                if !self.cfg.use_sat {
                    continue;
                }
                // Re-resolve members through merges accumulated so far.
                let needed = match self.cfg.order {
                    MergeOrder::Backward => Some(self.needed_cone()),
                    MergeOrder::Forward => None,
                };
                let mut resolved: Vec<Lit> = Vec::with_capacity(class.len());
                for m in class {
                    let r = self.find(m);
                    if let Some(n) = &needed {
                        if !n.contains(&r.var()) && !r.is_const() {
                            self.stats.skipped_out_of_cone += 1;
                            continue;
                        }
                    }
                    if !resolved.contains(&r) && !resolved.contains(&!r) {
                        resolved.push(r);
                    }
                }
                if resolved.len() < 2 {
                    continue;
                }
                resolved.sort_unstable();
                let repr = resolved[0];
                for &member in &resolved[1..] {
                    if self.refuted.contains(&ordered(repr.var(), member.var())) {
                        pending_pairs += 1;
                        continue;
                    }
                    if self.cfg.interrupted() {
                        cancelled = true;
                        break;
                    }
                    if self.sat_tier_pair(repr, member) {
                        self.record_merge(member, repr);
                        self.stats.merged_sat += 1;
                        progress = true;
                    } else {
                        pending_pairs += 1;
                    }
                }
            }
            if cancelled || !progress || pending_pairs == 0 {
                break;
            }
        }
        self.stats.bdd_built = self.bdds.memo.built() - self.built_before;
        let roots = apply_merges(self.aig, &self.roots, &self.merges);
        SweepResult {
            roots,
            stats: self.stats,
        }
    }
}

fn ordered(a: Var, b: Var) -> (Var, Var) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Rebuilds `roots` with every merged node replaced by (the rebuilt form
/// of) its representative, so equivalent sub-circuits become shared.
///
/// Unlike plain substitution, the replacement chases representatives
/// through the *rebuilt* graph, guaranteeing the merged cones share
/// structure.
pub fn apply_merges(aig: &mut Aig, roots: &[Lit], merges: &HashMap<Var, Lit>) -> Vec<Lit> {
    if merges.is_empty() {
        return roots.to_vec();
    }
    let cone = aig.collect_cone(roots);
    let top = cone.last().map_or(0, |v| v.index());
    let mut memo: Vec<Option<Lit>> = vec![None; top + 1];
    for v in cone {
        let rebuilt = match aig.node(v) {
            Node::Const => Lit::FALSE,
            Node::Input { .. } => v.lit(),
            Node::And { f0, f1 } => {
                let a = resolve(&memo, merges, f0);
                let b = resolve(&memo, merges, f1);
                aig.and(a, b)
            }
        };
        memo[v.index()] = Some(rebuilt);
    }
    roots.iter().map(|r| resolve(&memo, merges, *r)).collect()
}

/// Resolves an edge through merges (on original variables) and then the
/// rebuild memo, preserving phase.
fn resolve(memo: &[Option<Lit>], merges: &HashMap<Var, Lit>, l: Lit) -> Lit {
    let mut cur = l;
    while let Some(&next) = merges.get(&cur.var()) {
        cur = next.xor_sign(cur.is_complemented());
    }
    match memo.get(cur.var().index()).copied().flatten() {
        Some(m) => m.xor_sign(cur.is_complemented()),
        None => cur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_two_ways(aig: &mut Aig) -> (Lit, Lit, Lit, Lit) {
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let x1 = aig.xor(a, b);
        let or = aig.or(a, b);
        let nand = !aig.and(a, b);
        let x2 = aig.and(or, nand);
        (a, b, x1, x2)
    }

    #[test]
    fn a_raised_cancel_flag_stops_before_the_first_check() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        let mut cnf = AigCnf::new();
        let cfg = SweepConfig {
            use_bdd_sweep: false,
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..SweepConfig::default()
        };
        let res = sweep(&mut aig, &[x1, x2], &mut cnf, &cfg);
        assert_ne!(res.roots[0], res.roots[1], "a cancelled sweep merged");
        assert_eq!(cnf.stats().checks, 0);
    }

    #[test]
    fn a_kept_tier_past_the_bound_is_replaced() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        let cfg = SweepConfig {
            bdd_cap: 4,
            use_sat: false,
            ..SweepConfig::default()
        };
        let bound = BDD_KEEP_FACTOR * cfg.bdd_cap;
        // A kept tier that holds x1's cone and has outgrown the bound.
        let mut bdds = BddTier::new();
        for level in 8..8 + bound as u32 {
            bdds.mgr.var(level);
        }
        let BddTier { mgr, memo } = &mut bdds;
        assert!(memo.build(mgr, &aig, x1, usize::MAX, usize::MAX).is_some());
        assert!(bdds.mgr.num_nodes() > bound);
        let mut cnf = AigCnf::new();
        let res = sweep_with(&mut aig, &[x1, x2], &mut cnf, &mut bdds, &cfg);
        assert_eq!(res.stats.bdd_resets, 1);
        assert_eq!(res.roots[0], res.roots[1]);
        assert_eq!(res.stats.merged_bdd, 1);
        assert!(res.stats.bdd_built > 0);
        assert!(bdds.mgr.num_nodes() <= bound, "the stale manager was kept");
        // Under the bound the tier is kept: both cones are memoised.
        let again = sweep_with(&mut aig, &[x1, x2], &mut cnf, &mut bdds, &cfg);
        assert_eq!(again.roots[0], again.roots[1]);
        assert_eq!((again.stats.bdd_resets, again.stats.bdd_built), (0, 0));
    }

    #[test]
    fn merges_equivalent_xor_constructions() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        assert_ne!(x1, x2); // strashing alone does not see it
        let mut cnf = AigCnf::new();
        let res = sweep(&mut aig, &[x1, x2], &mut cnf, &SweepConfig::default());
        assert_eq!(res.roots[0], res.roots[1]);
        assert!(res.stats.merged_bdd + res.stats.merged_sat >= 1);
    }

    #[test]
    fn sat_only_sweep_works() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        let mut cnf = AigCnf::new();
        let cfg = SweepConfig {
            use_bdd_sweep: false,
            ..SweepConfig::default()
        };
        let res = sweep(&mut aig, &[x1, x2], &mut cnf, &cfg);
        assert_eq!(res.roots[0], res.roots[1]);
        assert!(res.stats.merged_sat >= 1);
        assert_eq!(res.stats.merged_bdd, 0);
    }

    #[test]
    fn bdd_only_sweep_works() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        let mut cnf = AigCnf::new();
        let cfg = SweepConfig {
            use_sat: false,
            ..SweepConfig::default()
        };
        let res = sweep(&mut aig, &[x1, x2], &mut cnf, &cfg);
        assert_eq!(res.roots[0], res.roots[1]);
        assert!(res.stats.merged_bdd >= 1);
        assert_eq!(res.stats.merged_sat, 0);
    }

    #[test]
    fn constant_nodes_merge_to_constant() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        // xor(a,b) & xnor(a,b) == false, invisible to local rewriting when
        // the xnor is built from a different structure.
        let x = aig.xor(a, b);
        let xn = {
            let both = aig.and(a, b);
            let neither = aig.and(!a, !b);
            aig.or(both, neither)
        };
        let dead = aig.and(x, xn);
        assert_ne!(dead, Lit::FALSE); // strash missed it
        let mut cnf = AigCnf::new();
        let res = sweep(&mut aig, &[dead], &mut cnf, &SweepConfig::default());
        assert_eq!(res.roots[0], Lit::FALSE);
    }

    #[test]
    fn complement_phase_merges() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let f = aig.xor(a, b);
        let nb = !b;
        let g = aig.xor(a, nb); // g == !f
        let mut cnf = AigCnf::new();
        let res = sweep(&mut aig, &[f, g], &mut cnf, &SweepConfig::default());
        assert_eq!(res.roots[0], !res.roots[1]);
    }

    #[test]
    fn inequivalent_roots_stay_separate_and_semantics_hold() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..4).map(|_| aig.add_input().lit()).collect();
        let f = {
            let t = aig.and(ins[0], ins[1]);
            aig.or(t, ins[2])
        };
        let g = {
            let t = aig.and(ins[0], ins[1]);
            aig.or(t, ins[3])
        };
        let mut cnf = AigCnf::new();
        let res = sweep(&mut aig, &[f, g], &mut cnf, &SweepConfig::default());
        assert_ne!(res.roots[0].var(), res.roots[1].var());
        // Semantics preserved.
        for mask in 0..16u32 {
            let asg: Vec<bool> = (0..4).map(|i| (mask >> i) & 1 != 0).collect();
            assert_eq!(aig.eval(f, &asg), aig.eval(res.roots[0], &asg));
            assert_eq!(aig.eval(g, &asg), aig.eval(res.roots[1], &asg));
        }
    }

    #[test]
    fn backward_skips_inner_points_when_roots_merge() {
        // Two structurally different but equivalent mid-size circuits:
        // backward order should prove the roots equal and skip (some of)
        // the inner compare points.
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..6).map(|_| aig.add_input().lit()).collect();
        let mut f = Lit::FALSE;
        for &x in &ins {
            f = aig.xor(f, x);
        }
        let mut g = Lit::FALSE;
        for &x in ins.iter().rev() {
            g = aig.xor(g, x);
        }
        let mut cnf_b = AigCnf::new();
        let cfg_b = SweepConfig {
            use_bdd_sweep: false,
            order: MergeOrder::Backward,
            ..SweepConfig::default()
        };
        let res_b = sweep(&mut aig, &[f, g], &mut cnf_b, &cfg_b);
        assert_eq!(res_b.roots[0], res_b.roots[1]);

        let mut cnf_f = AigCnf::new();
        let cfg_f = SweepConfig {
            use_bdd_sweep: false,
            order: MergeOrder::Forward,
            ..SweepConfig::default()
        };
        let mut aig2 = Aig::new();
        let ins2: Vec<Lit> = (0..6).map(|_| aig2.add_input().lit()).collect();
        let mut f2 = Lit::FALSE;
        for &x in &ins2 {
            f2 = aig2.xor(f2, x);
        }
        let mut g2 = Lit::FALSE;
        for &x in ins2.iter().rev() {
            g2 = aig2.xor(g2, x);
        }
        let res_f = sweep(&mut aig2, &[f2, g2], &mut cnf_f, &cfg_f);
        assert_eq!(res_f.roots[0], res_f.roots[1]);
        // Backward either skipped points or issued no more checks than forward.
        assert!(
            res_b.stats.skipped_out_of_cone > 0 || res_b.stats.sat_checks <= res_f.stats.sat_checks
        );
    }

    #[test]
    fn check_equiv_end_to_end() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        let mut cnf = AigCnf::new();
        assert!(check_equiv(&mut aig, x1, x2, &mut cnf, &SweepConfig::default()).is_equiv());
        let c = aig.add_input().lit();
        assert!(!check_equiv(&mut aig, x1, c, &mut cnf, &SweepConfig::default()).is_equiv());
    }

    #[test]
    fn miter_is_satisfiable_iff_different() {
        let mut aig = Aig::new();
        let (a, b, x1, x2) = xor_two_ways(&mut aig);
        let mut cnf = AigCnf::new();
        let m_eq = miter(&mut aig, x1, x2);
        assert_eq!(cnf.solve_under(&aig, &[m_eq]), cbq_sat::SatResult::Unsat);
        let m_diff = miter(&mut aig, a, b);
        assert_eq!(cnf.solve_under(&aig, &[m_diff]), cbq_sat::SatResult::Sat);
    }

    #[test]
    fn apply_merges_preserves_semantics_on_chains() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..5).map(|_| aig.add_input().lit()).collect();
        // A chain with redundant re-computation of the same subterm.
        let t1 = aig.and(ins[0], ins[1]);
        let t2 = {
            let o = aig.or(!ins[0], !ins[1]);
            !o // == t1 by De Morgan
        };
        let u1 = aig.or(t1, ins[2]);
        let u2 = aig.or(t2, ins[3]);
        let root = {
            let x = aig.xor(u1, u2);
            aig.or(x, ins[4])
        };
        let mut cnf = AigCnf::new();
        let res = sweep(&mut aig, &[root], &mut cnf, &SweepConfig::default());
        for mask in 0..32u32 {
            let asg: Vec<bool> = (0..5).map(|i| (mask >> i) & 1 != 0).collect();
            assert_eq!(aig.eval(root, &asg), aig.eval(res.roots[0], &asg));
        }
    }
}
