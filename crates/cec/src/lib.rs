//! # cbq-cec — combinational equivalence checking and sweeping
//!
//! The one simulate–check–refine class engine of the quantification
//! flow. It simulates only the cone it sweeps ([`cbq_aig::sim::ConeSim`],
//! whose patterns are fixed per input ordinal), groups the cone's nodes
//! into candidate classes by signature in one open-addressing table
//! ([`cbq_aig::sim::ConeSim::classes`]), confirms candidates by SAT and
//! feeds counterexamples back into the simulation. Its two callers are
//! the paper's two phases: the merge phase ([`sweep`], [`sweep_with`])
//! and, through a care literal, the optimisation phase's don't-care
//! merges ([`sweep_care`], called by `cbq_synth::dc_simplify`).
//!
//! It implements the **merge phase** of the DATE 2005 paper (Section 2.1):
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
//! that fall out of the needed cone once outputs merge. The needed cone is
//! kept by reference counts that each accepted merge updates, so a skip
//! costs one lookup.
//!
//! A **care-masked run** ([`sweep_care`]) masks every signature with the
//! care literal's and assumes it in every SAT check, so it merges nodes
//! that are equal wherever the care literal holds. It visits candidates
//! outputs-first, skips those that accepted merges cut out of the cone,
//! and drops a pair that an earlier counterexample separates without a
//! SAT call; it forms its classes once.
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

use cbq_aig::sim::ConeSim;
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
    /// Merges of either tier into the constant node.
    pub merged_const: usize,
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
        self.merged_const += other.merged_const;
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
    let mut stats = SweepStats::default();
    if cfg.use_bdd_sweep && bdds.mgr.num_nodes() > cfg.bdd_cap.saturating_mul(BDD_KEEP_FACTOR) {
        *bdds = BddTier::new();
        stats.bdd_resets += 1;
    }
    let built_before = bdds.memo.built();
    let mut sweeper = Sweeper::new(aig, roots, None, cnf, cfg, stats);
    sweeper.rounds(bdds);
    sweeper.stats.bdd_built = bdds.memo.built() - built_before;
    sweeper.finish()
}

/// The care-masked run of the engine (the optimisation phase's
/// don't-care merges, Section 2.2): merges nodes of the cones of `roots`
/// that are equal, modulo complementation, wherever `care` holds. The
/// rebuilt roots equal the originals on the care set and may differ
/// anywhere else.
///
/// Signatures are masked with `care`'s, and every SAT check assumes it.
/// Candidates are visited outputs-first, by descending node index across
/// and within classes, each against its class's lowest node, so a root
/// that is constant on the care set costs one check and the rest of its
/// cone drops out. A candidate that accepted merges have cut out of the
/// roots' cone is skipped, and a pair that an earlier counterexample
/// separates on the care set is dropped without a check; classes are
/// formed once. At most `max_checks` pairs are checked. The run reads
/// `sim_words`, `seed`, `sat_budget`, `deadline` and `cancel` from `cfg`;
/// no merge is learnt in the solver, since it holds only on the care set.
pub fn sweep_care(
    aig: &mut Aig,
    roots: &[Lit],
    care: Lit,
    cnf: &mut AigCnf,
    cfg: &SweepConfig,
    max_checks: usize,
) -> SweepResult {
    let mut sweeper = Sweeper::new(aig, roots, Some(care), cnf, cfg, SweepStats::default());
    sweeper.outputs_first(care, max_checks as u64);
    sweeper.finish()
}

/// One run of the simulate–check–refine class engine over the cone of
/// `roots` (and of the care literal, whose cone is only simulated).
struct Sweeper<'a> {
    aig: &'a mut Aig,
    roots: Vec<Lit>,
    /// The care literal of a [`sweep_care`] run.
    care: Option<Lit>,
    cnf: &'a mut AigCnf,
    cfg: &'a SweepConfig,
    sim: ConeSim,
    /// Per cone position: the edges of needed nodes, and the roots, that
    /// resolve to it under the merges so far. A node is in the cone the
    /// roots still need iff its count is nonzero.
    refs: Vec<u32>,
    /// Scratch stack of [`Sweeper::record_merge`]'s cone updates.
    walk: Vec<usize>,
    merges: Merges,
    refuted: HashSet<(Var, Var)>,
    stats: SweepStats,
    next_cex_slot: usize,
}

impl<'a> Sweeper<'a> {
    fn new(
        aig: &'a mut Aig,
        roots: &[Lit],
        care: Option<Lit>,
        cnf: &'a mut AigCnf,
        cfg: &'a SweepConfig,
        stats: SweepStats,
    ) -> Self {
        let simulated: Vec<Lit> = roots.iter().copied().chain(care).collect();
        let sim = ConeSim::random(aig, &simulated, cfg.sim_words.max(1), cfg.seed);
        let mut refs = vec![0u32; sim.nodes().len()];
        let mut sweeper = Sweeper {
            aig,
            roots: roots.to_vec(),
            care,
            cnf,
            cfg,
            sim,
            refs: Vec::new(),
            walk: Vec::new(),
            merges: HashMap::new(),
            refuted: HashSet::new(),
            stats,
            next_cex_slot: 0,
        };
        for r in roots {
            refs[sweeper.pos(*r)] += 1;
        }
        for p in (1..refs.len()).rev() {
            if refs[p] > 0 {
                for q in sweeper.fanin_positions(p).into_iter().flatten() {
                    refs[q] += 1;
                }
            }
        }
        sweeper.refs = refs;
        sweeper
    }

    /// The cone position of `l`'s node.
    fn pos(&self, l: Lit) -> usize {
        self.sim
            .position(l.var())
            .expect("a swept node lies in the simulated cone")
    }

    /// The positions the fanins of the node at position `p` resolve to
    /// under the merges so far (none for an input or the constant).
    fn fanin_positions(&self, p: usize) -> Option<[usize; 2]> {
        match self.aig.node(self.sim.nodes()[p]) {
            Node::And { f0, f1 } => Some([self.pos(self.find(f0)), self.pos(self.find(f1))]),
            _ => None,
        }
    }

    /// Whether the roots still need `l`'s node under the merges so far.
    fn needed(&self, l: Lit) -> bool {
        self.refs[self.pos(l)] > 0
    }

    /// Follows proven merges to the current representative literal of `l`.
    fn find(&self, l: Lit) -> Lit {
        let mut cur = l;
        while let Some(&next) = self.merges.get(&cur.var()) {
            cur = next.xor_sign(cur.is_complemented());
        }
        cur
    }

    fn record_merge(&mut self, member: Lit, repr: Lit) {
        debug_assert!(repr.var() < member.var());
        // member == repr  <=>  member.var() == repr.xor_sign(member phase)
        self.merges
            .insert(member.var(), repr.xor_sign(member.is_complemented()));
        // Learn the equivalence in the solver so later checks get simpler;
        // the guarded form dies with the cone generation it refers to. A
        // care-masked merge holds only on the care set.
        if self.care.is_none() {
            if let (Some(ms), Some(rs)) = (self.cnf.sat_lit(member), self.cnf.sat_lit(repr)) {
                self.cnf.learn_equiv(ms, rs);
            }
        }
        // The member's references move to the representative: the
        // representative's cone joins the needed cone if it was out, and
        // the member's leaves whatever no other needed node reaches.
        let (m, r) = (self.pos(member), self.pos(repr));
        let moved = std::mem::take(&mut self.refs[m]);
        if moved == 0 {
            return;
        }
        self.refs[r] += moved;
        if self.refs[r] == moved {
            self.update_cone(r, true);
        }
        self.update_cone(m, false);
    }

    /// Adds (or removes) one reference to the resolved fanins of position
    /// `p`, and recursively of every node that thereby enters (or leaves)
    /// the needed cone.
    fn update_cone(&mut self, p: usize, add: bool) {
        let mut walk = std::mem::take(&mut self.walk);
        walk.push(p);
        while let Some(p) = walk.pop() {
            for q in self.fanin_positions(p).into_iter().flatten() {
                if add {
                    self.refs[q] += 1;
                    if self.refs[q] == 1 {
                        walk.push(q);
                    }
                } else {
                    self.refs[q] -= 1;
                    if self.refs[q] == 0 {
                        walk.push(q);
                    }
                }
            }
        }
        self.walk = walk;
    }

    /// Tier 2: BDD sweeping inside one candidate class, on the kept
    /// tier. Leaves in `unresolved` the members whose BDD construction
    /// aborted.
    fn bdd_tier(&mut self, bdds: &mut BddTier, members: &[Lit], unresolved: &mut Vec<Lit>) {
        let cap = self.cfg.bdd_cap;
        let backstop = cap.saturating_mul(BDD_BACKSTOP_FACTOR);
        let mut by_bdd: HashMap<BddRef, Lit> = HashMap::new();
        unresolved.clear();
        for &m in members {
            let resolved = self.find(m);
            let BddTier { mgr, memo } = &mut *bdds;
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
                            self.stats.merged_const += usize::from(lo.is_const());
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
    }

    /// Tier 3: SAT check of `member ≡ repr` (on the care set, if any). A
    /// counterexample goes into the simulation's next pattern slot, among
    /// the first `slots` patterns; returns whether the pair merged.
    fn sat_check(&mut self, repr: Lit, member: Lit, slots: usize) -> bool {
        self.stats.sat_checks += 1;
        let budget = self.cfg.sat_budget;
        let result = match self.care {
            None => self.cnf.prove_equiv(self.aig, repr, member, budget),
            Some(care) => self
                .cnf
                .prove_equiv_under(self.aig, care, repr, member, budget),
        };
        match result {
            EquivResult::Equiv => {
                self.record_merge(member, repr);
                self.stats.merged_sat += 1;
                self.stats.merged_const += usize::from(repr.is_const());
                true
            }
            EquivResult::Unknown => {
                self.stats.sat_unknown += 1;
                false
            }
            EquivResult::NotEquiv(cex) => {
                self.stats.sat_cex += 1;
                self.refuted.insert(ordered(repr.var(), member.var()));
                let slot = self.next_cex_slot % slots;
                self.next_cex_slot += 1;
                self.sim.set_pattern(slot, &cex);
                false
            }
        }
    }

    /// The merge phase: simulate–check–refine rounds over classes of the
    /// whole cone, each class through the BDD tier (first round only) and
    /// then SAT, with counterexamples refining the next round's classes.
    fn rounds(&mut self, bdds: &mut BddTier) {
        let mut unresolved = Vec::new();
        let mut resolved: Vec<Lit> = Vec::new();
        for round in 0..self.cfg.max_rounds.max(1) {
            self.stats.rounds = round + 1;
            // `ConeSim::random` already simulated round 0's patterns.
            if round > 0 {
                self.sim.run();
            }
            let mut classes = self.sim.classes(None, |_| true);
            if round == 0 {
                self.stats.classes_initial = classes.len();
            }
            if self.cfg.order == MergeOrder::Backward {
                // Classes of the highest members first.
                classes.sort_unstable_by_key(|c| std::cmp::Reverse(c[c.len() - 1].var()));
            }
            // BDD sweeping only in the first round: later rounds only see
            // classes the BDDs already failed on or that SAT refined.
            let use_bdd = self.cfg.use_bdd_sweep && round == 0;
            let mut progress = false;
            let mut pending_pairs = 0usize;
            let mut cancelled = false;
            for class in &classes {
                // Cooperative cancellation between candidate classes: stop
                // issuing checks, keep the merges already proven.
                if self.cfg.interrupted() {
                    cancelled = true;
                    break;
                }
                let mut class = &class[..];
                if use_bdd {
                    self.bdd_tier(bdds, class, &mut unresolved);
                    progress |= unresolved.len() < class.len();
                    class = &unresolved;
                }
                if !self.cfg.use_sat {
                    continue;
                }
                // Re-resolve members through merges accumulated so far.
                resolved.clear();
                for &m in class {
                    let r = self.find(m);
                    if self.cfg.order == MergeOrder::Backward && !self.needed(r) && !r.is_const() {
                        self.stats.skipped_out_of_cone += 1;
                        continue;
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
                    if self.sat_check(repr, member, self.sim.num_patterns()) {
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
    }

    /// The care-masked pass of [`sweep_care`]: one class formation, then
    /// every candidate outputs-first. Each counterexample is simulated
    /// into pattern word 0: the patterns the classes were formed on never
    /// separate two nodes of one class on the care set, so a pair the
    /// word separates there is one a counterexample refuted.
    fn outputs_first(&mut self, care: Lit, max_checks: u64) {
        self.stats.rounds = 1;
        let classes = self.sim.classes(Some(care), |p| p == 0 || self.refs[p] > 0);
        self.stats.classes_initial = classes.len();
        let mut candidates: Vec<(Lit, Lit)> = classes
            .iter()
            .flat_map(|c| c[1..].iter().map(move |&m| (m, c[0])))
            .collect();
        candidates.sort_unstable_by_key(|&(m, _)| std::cmp::Reverse(m.var()));
        for (member, repr) in candidates {
            if !self.needed(member) {
                self.stats.skipped_out_of_cone += 1;
                continue;
            }
            let apart = self.sim.lit_word(member, 0) ^ self.sim.lit_word(repr, 0);
            if apart & self.sim.lit_word(care, 0) != 0 {
                continue;
            }
            if self.stats.sat_checks >= max_checks || self.cfg.interrupted() {
                break;
            }
            let refuted = self.stats.sat_cex;
            self.sat_check(repr, member, 64);
            if self.stats.sat_cex > refuted {
                self.sim.run_word(0);
            }
        }
    }

    fn finish(self) -> SweepResult {
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

    /// `(a & c) | (b & d)` under the care set `!a & !b`: constant false
    /// there, but not outside it.
    fn false_on_care(aig: &mut Aig) -> (Lit, Lit) {
        let ins: Vec<Lit> = (0..4).map(|_| aig.add_input().lit()).collect();
        let ac = aig.and(ins[0], ins[2]);
        let bd = aig.and(ins[1], ins[3]);
        let target = aig.or(ac, bd);
        let care = aig.and(!ins[0], !ins[1]);
        (target, care)
    }

    #[test]
    fn a_target_constant_on_the_care_set_costs_one_check() {
        let mut aig = Aig::new();
        let (target, care) = false_on_care(&mut aig);
        let mut cnf = AigCnf::new();
        let res = sweep_care(
            &mut aig,
            &[target],
            care,
            &mut cnf,
            &SweepConfig::default(),
            64,
        );
        assert_eq!(res.roots[0], Lit::FALSE);
        assert_eq!((res.stats.sat_checks, cnf.stats().checks), (1, 1));
        assert_eq!((res.stats.merged_sat, res.stats.merged_const), (1, 1));
        assert!(res.stats.skipped_out_of_cone > 0, "{:?}", res.stats);
    }

    #[test]
    fn a_care_run_polls_the_cancel_flag() {
        let mut aig = Aig::new();
        let (target, care) = false_on_care(&mut aig);
        let mut cnf = AigCnf::new();
        let cfg = SweepConfig {
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..SweepConfig::default()
        };
        let res = sweep_care(&mut aig, &[target], care, &mut cnf, &cfg, 64);
        assert_eq!((res.roots[0], cnf.stats().checks), (target, 0));
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
    fn apply_merges_rebuilds_through_the_replacement() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let c = aig.add_input().lit();
        let ab = aig.and(a, b);
        let f = aig.or(ab, c);
        // ab -> c: f becomes c | c = c.
        let merges = HashMap::from([(ab.var(), c)]);
        assert_eq!(apply_merges(&mut aig, &[f], &merges), vec![c]);
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
