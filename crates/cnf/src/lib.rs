//! # cbq-cnf — incremental Tseitin bridge between AIGs and the SAT solver
//!
//! The paper's SAT-merge routine is built "on top of ZChaff: we load the
//! clause database once and for-all, and we factorize several checks
//! together within a single ZChaff run". [`AigCnf`] reproduces exactly that
//! workflow:
//!
//! * AIG nodes are encoded to CNF **lazily** ([`AigCnf::ensure`]): each AND
//!   gate contributes its three Tseitin clauses the first time a check
//!   needs its cone, and never again;
//! * checks are issued as **assumption-based solves** on the shared
//!   database ([`AigCnf::solve_under`]), so nothing needs to be retracted
//!   between checks and everything the solver learns is kept;
//! * equivalence proofs, everywhere or on a care set
//!   ([`AigCnf::prove_equiv`], [`AigCnf::prove_equiv_under`]), return
//!   concrete counterexample input assignments that the sweeping engines
//!   feed back into simulation;
//! * every cone generation is tagged with an **activation literal**
//!   (assumed on each solve), so when a sweep garbage-collects the AIG
//!   manager the bridge **retires** the dead cones by asserting the
//!   negated activator ([`AigCnf::retire_cones`]) instead of discarding
//!   the solver — learnt clauses, variable activities, and phases survive
//!   across GCs, reachability iterations, and partition re-splits;
//! * every answer is **query-local**: the bridge records each AND's
//!   Tseitin definition and each guarded constraint with the solver
//!   ([`cbq_sat::Solver::set_query_local`]), and a solve decides only the
//!   closure of its assumptions over them. A satisfiable answer leaves
//!   everything else unassigned; reading unassigned inputs as `false`
//!   ([`AigCnf::model_of`]) and evaluating the AIG completes it.
//!
//! ## Example
//!
//! ```
//! use cbq_aig::Aig;
//! use cbq_cnf::{AigCnf, EquivResult};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input().lit();
//! let b = aig.add_input().lit();
//! let f = aig.xor(a, b);
//! let or = aig.or(a, b);
//! let nand = !aig.and(a, b);
//! let g = aig.and(or, nand); // xor, written differently
//!
//! let mut cnf = AigCnf::new();
//! assert_eq!(cnf.prove_equiv(&aig, f, g, None), EquivResult::Equiv);
//! match cnf.prove_equiv(&aig, f, or, None) {
//!     EquivResult::NotEquiv(cex) => {
//!         assert_ne!(aig.eval(f, &cex), aig.eval(or, &cex));
//!     }
//!     other => panic!("expected counterexample, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cbq_aig::{Aig, Lit, Node, Var};
use cbq_sat::{SatLit, SatResult, Solver, SolverStats};

pub use cbq_sat::ProofMode;

/// Outcome of an equivalence proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivResult {
    /// The two functions are equivalent (on the care set, for
    /// [`AigCnf::prove_equiv_under`]).
    Equiv,
    /// A distinguishing input assignment, indexed by input ordinal.
    NotEquiv(Vec<bool>),
    /// The conflict budget ran out before a verdict.
    Unknown,
}

impl EquivResult {
    /// Whether the proof succeeded.
    pub fn is_equiv(&self) -> bool {
        matches!(self, EquivResult::Equiv)
    }
}

/// Counters for the bridge, exposed by [`AigCnf::stats`].
///
/// All counters are monotone across [`AigCnf::retire_cones`], so engine
/// totals never go backwards.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AigCnfStats {
    /// AND gates encoded into CNF so far (all generations).
    pub encoded_ands: u64,
    /// Assumption-based solver calls issued.
    pub checks: u64,
    /// Cone generations retired ([`AigCnf::retire_cones`] calls,
    /// including migrations that hit the memory-pressure valve).
    pub retirements: u64,
    /// Cone clauses disabled by retirement, total.
    pub clauses_retired: u64,
    /// Map migrations across manager compactions ([`AigCnf::migrate`]
    /// calls that kept the encoding alive).
    pub migrations: u64,
    /// Learnt clauses alive in the solver at migration instants, summed —
    /// i.e. how much derived work *survived* garbage collections.
    pub learnts_retained: u64,
}

impl AigCnfStats {
    /// Accumulates another counter record into this one (used to fold
    /// per-partition bridges into one engine total).
    pub fn absorb(&mut self, other: &AigCnfStats) {
        self.encoded_ands += other.encoded_ands;
        self.checks += other.checks;
        self.retirements += other.retirements;
        self.clauses_retired += other.clauses_retired;
        self.migrations += other.migrations;
        self.learnts_retained += other.learnts_retained;
    }
}

/// An incremental AIG-to-CNF bridge over one persistent [`Solver`].
///
/// The bridge is tied to a single growing [`Aig`]: because the manager is
/// append-only and nodes are immutable, the mapping from AIG variables to
/// SAT variables never invalidates. When the manager *is* replaced (sweep
/// garbage collection), [`AigCnf::retire_cones`] ends the current cone
/// generation by negating its activation literal — the solver and
/// everything it has learnt persist.
#[derive(Debug)]
pub struct AigCnf {
    solver: Solver,
    /// AIG variable index → the SAT literal computing that node's
    /// *positive* literal (phase-carrying, so map migration across a
    /// compaction can absorb complemented translations).
    map: Vec<Option<SatLit>>,
    stats: AigCnfStats,
    /// The current generation's activation literal (lazily created with
    /// the generation's first guarded clause).
    act: Option<SatLit>,
    /// Guarded clauses added in the current generation.
    gen_clauses: u64,
    /// Guards retired via [`AigCnf::retire_guard`] whose variables are
    /// awaiting reclamation by [`AigCnf::reclaim_guards`].
    retired_guards: Vec<SatLit>,
    /// Guards issued by [`AigCnf::new_guard`] and not yet retired. While
    /// any exist, retirement must keep map variables alive (the guarded
    /// groups may reference them).
    live_guards: usize,
}

impl Default for AigCnf {
    fn default() -> Self {
        Self::new()
    }
}

impl AigCnf {
    /// Creates an empty bridge whose solver answers query-locally.
    pub fn new() -> AigCnf {
        let mut solver = Solver::new();
        solver.set_query_local();
        AigCnf {
            solver,
            map: Vec::new(),
            stats: AigCnfStats::default(),
            act: None,
            gen_clauses: 0,
            retired_guards: Vec::new(),
            live_guards: 0,
        }
    }

    /// The current generation's activation literal, created on first use.
    fn activator(&mut self) -> SatLit {
        *self.act.get_or_insert_with(|| self.solver.new_var().pos())
    }

    /// The current generation's activation literal, once a guarded clause
    /// has created it. Every cone clause carries its negation and every
    /// solve assumes it, so a proof-log reader (interpolation) reads it
    /// as true.
    pub fn activation(&self) -> Option<SatLit> {
        self.act
    }

    /// Adds `clause` guarded by the current activation literal and counts
    /// it against the generation. The clause is not registered with the
    /// query-local domain: it must be a definition or implied by them.
    fn add_guarded(&mut self, clause: &[SatLit]) -> bool {
        self.gen_clauses += 1;
        let act = self.activator();
        let mut guarded = Vec::with_capacity(clause.len() + 1);
        guarded.push(!act);
        guarded.extend_from_slice(clause);
        self.solver.add_clause(&guarded)
    }

    /// Ends the current cone generation: the node↔variable map is cleared
    /// (the caller's AIG manager was replaced wholesale) and the cone
    /// clauses are disabled by asserting the negated activation literal on
    /// the *persistent* solver — the retired variables are released from
    /// branching and the now-satisfied clauses purged from the arena,
    /// while every generation-independent learnt clause, activity, and
    /// phase survives.
    ///
    /// For a *compaction* of the same manager (sweep GC), prefer
    /// [`AigCnf::migrate`], which keeps the encoding itself alive.
    pub fn retire_cones(&mut self) {
        self.stats.retirements += 1;
        self.stats.clauses_retired += self.gen_clauses;
        self.gen_clauses = 0;
        if let Some(act) = self.act.take() {
            self.solver.add_clause(&[!act]);
            // Dead-generation variables must never be branched on again
            // (their clauses are satisfied, so any value works — but
            // walking them costs every later solve). With live
            // caller-managed guard groups outstanding they are *not*
            // recycled — those groups may reference them — merely
            // released from branching. With none outstanding, every
            // clause naming a map variable carries `!act` (Tseitin and
            // learnt alike: `act` occurs positively in no clause, so
            // resolution preserves the `!act` tag), so after the purge
            // their slots can be recycled together with the activator.
            let mut dead: Vec<SatLit> = self.map.iter().flatten().copied().collect();
            dead.sort_unstable_by_key(|sl| sl.var().index());
            dead.dedup_by_key(|sl| sl.var().index());
            if self.live_guards == 0 {
                self.retired_guards.extend(dead);
            } else {
                let vars: Vec<_> = dead.iter().map(|sl| sl.var()).collect();
                self.solver.retire_vars(&vars);
            }
            self.retired_guards.push(act);
            self.reclaim_guards();
        }
        self.map.clear();
    }

    /// Solver-core counters (monotone: retirement keeps the solver).
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Carries the encoding across a **compaction** of the same manager:
    /// `old_to_new[old_var.index()]` is the new manager's literal for each
    /// surviving node (as produced by `Aig::compact_with_map`), and
    /// `new_num_nodes` the new manager's node count. Surviving nodes keep
    /// their SAT variables, so *all* clauses — Tseitin cones, learnt
    /// equivalences, and everything CDCL derived — stay live and
    /// immediately apply to post-GC checks; nothing is re-encoded.
    ///
    /// Orphaned variables (dead cones) lose their clauses at once, and
    /// so do strash-collision losers and constant-mapped nodes once no
    /// live definition reaches them ([`Solver::purge_referencing`]).
    /// Their slots stay until the memory-pressure valve trips: once the
    /// solver carries more than ~4× the live variables, the whole
    /// generation is retired via [`AigCnf::retire_cones`] (re-encoding
    /// from scratch, bounded memory).
    pub fn migrate(&mut self, old_to_new: &[Option<Lit>], new_num_nodes: usize) {
        let mut new_map: Vec<Option<SatLit>> = vec![None; new_num_nodes];
        let mut live = 0usize;
        // Variables whose old node has NO image in the new manager — a
        // genuinely dead cone. Only these may have their clauses deleted:
        // an old node that still maps somewhere (even as a strash-collision
        // loser or a constant) can appear in the Tseitin clauses of a
        // *surviving* representative, whose definition must stay intact.
        let mut dead = vec![false; self.solver.num_vars()];
        let mut any_dead = false;
        for (old_idx, entry) in self.map.iter().enumerate() {
            let Some(sl) = entry else { continue };
            let Some(new_lit) = old_to_new.get(old_idx).copied().flatten() else {
                self.solver.set_decision(sl.var(), false);
                dead[sl.var().index()] = true;
                any_dead = true;
                continue;
            };
            if new_lit.is_const() {
                // Semantically constant: clauses stay (they keep the var
                // consistently defined), branching on it is pointless.
                self.solver.set_decision(sl.var(), false);
                continue;
            }
            let slot = &mut new_map[new_lit.var().index()];
            // Strash collisions map two equivalent old nodes onto one new
            // node; either encoding is sound, keep the first. The loser
            // keeps its clauses (a surviving parent may reference it) but
            // is released from branching — propagation still completes it
            // bottom-up from the shared inputs.
            if slot.is_none() {
                *slot = Some(sl.xor_sign(new_lit.is_complemented()));
                live += 1;
            } else {
                self.solver.set_decision(sl.var(), false);
            }
        }
        if self.solver.num_vars() > 4 * live + 1024 {
            // Mostly orphans: reclaim via a full retirement instead.
            self.retire_cones();
            return;
        }
        // Dead-cone clauses are definitional extensions — satisfiable
        // under any assignment of the surviving variables — so deleting
        // them changes no verdict, and stops every later solve from
        // propagating through the garbage cones.
        if any_dead {
            self.solver.purge_referencing(&dead);
        }
        self.map = new_map;
        self.stats.migrations += 1;
        self.stats.learnts_retained += self.solver.stats().learnts;
    }

    /// Read access to the underlying solver (e.g. for statistics). There
    /// is no mutable access: every clause reaches the solver through the
    /// bridge, which registers what query-local answers need.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Selects the solver's proof mode. Must be called before any clause
    /// is encoded (the proof plane covers the whole database or nothing),
    /// which in practice means right after construction — the
    /// interpolation engine does this on its one bridge per run.
    pub fn set_proof_mode(&mut self, mode: ProofMode) {
        self.solver.set_proof_mode(mode);
    }

    /// Sets the partition label stamped on every *subsequently* added
    /// root clause in the proof log. Interpolation labels the A-side cone
    /// (prefix), switches the label, then encodes the B-side cone — the
    /// McMillan labelling pass keys on these root labels.
    pub fn set_clause_label(&mut self, label: u32) {
        self.solver.set_proof_label(label);
    }

    /// Bridge statistics.
    pub fn stats(&self) -> AigCnfStats {
        self.stats
    }

    /// Allocates a fresh SAT variable for AIG variable `v` and records its
    /// positive literal in the map.
    fn fresh_lit(&mut self, v: Var) -> SatLit {
        if self.map.len() <= v.index() {
            self.map.resize(v.index() + 1, None);
        }
        debug_assert!(self.map[v.index()].is_none());
        let sl = self.solver.new_var().pos();
        self.map[v.index()] = Some(sl);
        sl
    }

    /// Returns the SAT literal already associated with `l`, if its node has
    /// been encoded.
    pub fn sat_lit(&self, l: Lit) -> Option<SatLit> {
        self.map
            .get(l.var().index())
            .copied()
            .flatten()
            .map(|sl| sl.xor_sign(l.is_complemented()))
    }

    /// Encodes the cone of `l` (lazily — already-encoded nodes are skipped)
    /// and returns the SAT literal for `l`.
    pub fn ensure(&mut self, aig: &Aig, l: Lit) -> SatLit {
        // A mapped root implies its whole cone is encoded (encoding is
        // all-or-nothing per cone and migration preserves closed cones),
        // so repeated checks skip the cone walk entirely.
        if let Some(sl) = self.sat_lit(l) {
            return sl;
        }
        for v in aig.collect_cone(&[l]) {
            if self.map.get(v.index()).copied().flatten().is_some() {
                continue;
            }
            match aig.node(v) {
                Node::Const => {
                    let sl = self.fresh_lit(v);
                    self.add_guarded(&[!sl]);
                }
                Node::Input { .. } => {
                    let _ = self.fresh_lit(v);
                }
                Node::And { f0, f1 } => {
                    let a = self
                        .sat_lit(f0)
                        .expect("fanin encoded before gate (topological order)");
                    let b = self
                        .sat_lit(f1)
                        .expect("fanin encoded before gate (topological order)");
                    let c = self.fresh_lit(v);
                    // c <-> a & b
                    self.add_guarded(&[!c, a]);
                    self.add_guarded(&[!c, b]);
                    self.add_guarded(&[c, !a, !b]);
                    self.solver.define(c.var(), [a.var(), b.var()]);
                    self.stats.encoded_ands += 1;
                }
            }
        }
        self.sat_lit(l).expect("root encoded")
    }

    /// Solves the shared database under the conjunction of `lits`
    /// (each encoded on demand, then assumed). The current generation's
    /// activation literal is assumed implicitly.
    pub fn solve_under(&mut self, aig: &Aig, lits: &[Lit]) -> SatResult {
        self.solve_under_assuming(aig, lits, &[])
    }

    /// Allocates a fresh solver-level guard literal for a caller-managed
    /// clause group (IC3 frames, per-query strengthening clauses, …).
    ///
    /// The literal is released from branching immediately: it only ever
    /// appears negated inside guarded clauses and positively as an
    /// assumption, so the solver never needs to decide it — assuming it
    /// activates the group, leaving it unassumed (or retiring it via
    /// [`AigCnf::retire_guard`]) deactivates the group. This is the same
    /// activation-literal mechanism the bridge uses for its own cone
    /// generations, exposed so engines can run many independent guarded
    /// lifetimes on one solver.
    pub fn new_guard(&mut self) -> SatLit {
        let g = self.solver.new_var().pos();
        self.solver.set_decision(g.var(), false);
        self.live_guards += 1;
        g
    }

    /// Adds a raw solver clause guarded by `guard` (the clause is active
    /// only while `guard` is assumed). The literals must already be SAT
    /// literals (e.g. from [`AigCnf::ensure`]); the clause is *not* tied
    /// to the bridge's own cone generation and survives
    /// [`AigCnf::retire_cones`] until its guard is retired. Its variables
    /// join the domain of every solve that assumes `guard`.
    pub fn add_guarded_by(&mut self, guard: SatLit, clause: &[SatLit]) -> bool {
        self.solver.add_clause_under(guard, clause)
    }

    /// Adds a guarded clause given as *AIG* literals: each literal is
    /// encoded on demand ([`AigCnf::ensure`]) and the disjunction is
    /// added under `guard` via [`AigCnf::add_guarded_by`]. Constants are
    /// folded first — a `true` literal makes the clause vacuous (nothing
    /// is added), `false` literals are dropped. A clause with no
    /// literals left is **not** added (that would be the unit `¬guard`,
    /// silencing the whole group); the `false` return lets the caller
    /// decide what an identically-false clause means.
    ///
    /// This is the entry point for externally supplied lemmas (the
    /// portfolio's lemma bus): consumers instantiate a validated latch
    /// clause over their own frame literals as one guarded group they
    /// assume on every solve.
    pub fn add_guarded_clause_lits(&mut self, aig: &Aig, guard: SatLit, lits: &[Lit]) -> bool {
        let mut clause = Vec::with_capacity(lits.len());
        for &l in lits {
            if l == Lit::TRUE {
                return true;
            }
            if l == Lit::FALSE {
                continue;
            }
            clause.push(self.ensure(aig, l));
        }
        if clause.is_empty() {
            return false;
        }
        self.add_guarded_by(guard, &clause)
    }

    /// Permanently retires a guard from [`AigCnf::new_guard`]: its
    /// clauses become satisfied at level 0 and are reclaimed — clauses
    /// *and* the guard variable itself — by the next
    /// [`AigCnf::reclaim_guards`].
    pub fn retire_guard(&mut self, guard: SatLit) {
        self.solver.add_clause(&[!guard]);
        self.retired_guards.push(guard);
        self.live_guards = self.live_guards.saturating_sub(1);
    }

    /// Reclaims every guard retired since the last call: purges their
    /// now-satisfied clauses from the arena and recycles the guard
    /// variables onto the solver's free list, so a workload that churns
    /// through guarded clause groups (IC3's per-query guards) keeps both
    /// its clause arena *and* its variable table bounded. Call at a
    /// natural quiescent point; each call compacts the arena, so batching
    /// retirements between calls is what makes reclamation cheap.
    pub fn reclaim_guards(&mut self) {
        if self.retired_guards.is_empty() || !self.solver.is_ok() {
            return;
        }
        self.solver.purge_satisfied();
        let dead: Vec<_> = self.retired_guards.drain(..).map(|g| g.var()).collect();
        self.solver.recycle_vars(&dead);
    }

    /// Like [`AigCnf::solve_under`], with raw SAT-literal assumptions
    /// (guards from [`AigCnf::new_guard`], literals from
    /// [`AigCnf::ensure`]) appended after the encoded `lits`. The current
    /// cone generation's activation literal is assumed implicitly, and the
    /// call counts as one check. On [`SatResult::Unsat`] the solver's
    /// [`cbq_sat::Solver::failed_assumptions`] names a sufficient subset
    /// of the assumptions — the hook IC3-style engines use for unsat-core
    /// cube generalization.
    pub fn solve_under_assuming(&mut self, aig: &Aig, lits: &[Lit], extra: &[SatLit]) -> SatResult {
        let mut assumptions = Vec::with_capacity(lits.len() + extra.len() + 1);
        for &l in lits {
            if l == Lit::FALSE {
                return SatResult::Unsat;
            }
            if l == Lit::TRUE {
                continue;
            }
            assumptions.push(self.ensure(aig, l));
        }
        if let Some(act) = self.act {
            assumptions.insert(0, act);
        }
        assumptions.extend_from_slice(extra);
        self.stats.checks += 1;
        self.solver.solve_with(&assumptions)
    }

    /// Asserts `l` for the lifetime of the current cone generation (a unit
    /// clause under the generation's activation guard, so it dies with
    /// [`AigCnf::retire_cones`], exactly like the cones it constrains).
    /// Every solve assumes the activation literal, so `l` joins every
    /// solve's domain.
    ///
    /// Used by engines that constrain the whole enumeration, e.g.
    /// k-induction's simple-path pairs.
    pub fn assert_lit(&mut self, aig: &Aig, l: Lit) -> bool {
        if l == Lit::TRUE {
            return true;
        }
        if l == Lit::FALSE {
            // The *generation* is unsatisfiable: guard the empty clause so
            // a later retirement can recover the solver.
            self.gen_clauses += 1;
            let act = self.activator();
            self.solver.add_clause(&[!act]);
            return false;
        }
        let sl = self.ensure(aig, l);
        self.gen_clauses += 1;
        let act = self.activator();
        self.solver.add_clause_under(act, &[sl])
    }

    /// Learns `a ≡ b` as clauses on the shared database, guarded by the
    /// current activation literal — the sweeping engines call this for
    /// every proven merge so later checks simplify, and retirement cleans
    /// the equivalences up together with the cones they refer to.
    ///
    /// The equivalence must be proved under the definitions and the
    /// asserted literals ([`AigCnf::assert_lit`]) alone, with no guard of
    /// [`AigCnf::new_guard`] assumed: it is not registered with the
    /// query-local domain, so a partial model's completion satisfies it
    /// only because the definitions and asserted literals imply it.
    pub fn learn_equiv(&mut self, a: SatLit, b: SatLit) {
        self.add_guarded(&[!a, b]);
        self.add_guarded(&[a, !b]);
    }

    /// Extracts the model's values for every AIG input (unassigned inputs
    /// read `false`, see [`AigCnf::model_of`]).
    ///
    /// Only meaningful immediately after a [`SatResult::Sat`] answer.
    pub fn model_inputs(&self, aig: &Aig) -> Vec<bool> {
        self.model_of(aig.inputs())
    }

    /// The model's values of `vars`, in order, read straight from the
    /// bridge's map; a variable the bridge never encoded, or that the
    /// answer left unassigned, reads `false`.
    ///
    /// A satisfiable answer is query-local: it assigns the closure of the
    /// query's assumptions, active constraints and asserted literals, and
    /// nothing else. For AIG inputs (latches included), reading unassigned
    /// ones as `false` and evaluating the AIG from them completes the
    /// answer to a model of the whole database, so the query's root and
    /// every active constraint hold on the evaluated values. Read inputs
    /// only: an unassigned AND node also reads `false` here, which need
    /// not be its evaluated value.
    ///
    /// Only meaningful immediately after a [`SatResult::Sat`] answer.
    pub fn model_of(&self, vars: &[Var]) -> Vec<bool> {
        vars.iter()
            .map(|v| {
                self.map
                    .get(v.index())
                    .copied()
                    .flatten()
                    .and_then(|sl| self.solver.value_lit(sl))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Proves `a ≡ b` on the shared database, or produces a distinguishing
    /// input assignment.
    ///
    /// Issues (at most) two assumption-based solves — `a ∧ ¬b` and
    /// `¬a ∧ b` — so no clause is ever added or retracted for the check
    /// itself; the database stays clean for the next check. A direction
    /// that a constant operand makes unsatisfiable is not solved.
    pub fn prove_equiv(&mut self, aig: &Aig, a: Lit, b: Lit, budget: Option<u64>) -> EquivResult {
        self.prove_equiv_under(aig, Lit::TRUE, a, b, budget)
    }

    /// [`AigCnf::prove_equiv`] on the care set: proves that `a ≡ b`
    /// wherever `care` holds, or produces an input assignment where `care`
    /// holds and the two differ. Every solve assumes `care`.
    pub fn prove_equiv_under(
        &mut self,
        aig: &Aig,
        care: Lit,
        a: Lit,
        b: Lit,
        budget: Option<u64>,
    ) -> EquivResult {
        if a == b {
            return EquivResult::Equiv;
        }
        self.solver.set_conflict_budget(budget);
        let mut result = EquivResult::Equiv;
        for (x, y) in [(a, !b), (!a, b)] {
            let query: Vec<Lit> = [care, x, y]
                .into_iter()
                .filter(|l| *l != Lit::TRUE)
                .collect();
            if query.contains(&Lit::FALSE) {
                continue;
            }
            match self.solve_under(aig, &query) {
                SatResult::Sat => result = EquivResult::NotEquiv(self.model_inputs(aig)),
                SatResult::Unknown => result = EquivResult::Unknown,
                SatResult::Unsat => continue,
            }
            break;
        }
        self.solver.set_conflict_budget(None);
        result
    }

    /// Checks whether `l` is constant `value` over all inputs.
    pub fn prove_constant(
        &mut self,
        aig: &Aig,
        l: Lit,
        value: bool,
        budget: Option<u64>,
    ) -> EquivResult {
        let target = if value { Lit::TRUE } else { Lit::FALSE };
        if l == target {
            return EquivResult::Equiv;
        }
        self.solver.set_conflict_budget(budget);
        let probe = if value { !l } else { l };
        let r = match self.solve_under(aig, &[probe]) {
            SatResult::Sat => EquivResult::NotEquiv(self.model_inputs(aig)),
            SatResult::Unknown => EquivResult::Unknown,
            SatResult::Unsat => EquivResult::Equiv,
        };
        self.solver.set_conflict_budget(None);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Aig, Vec<Lit>) {
        let mut aig = Aig::new();
        let ins = (0..4).map(|_| aig.add_input().lit()).collect();
        (aig, ins)
    }

    #[test]
    fn tautology_and_contradiction() {
        let (mut aig, ins) = setup();
        let t = aig.or(ins[0], !ins[0]);
        assert_eq!(t, Lit::TRUE);
        let mut cnf = AigCnf::new();
        assert_eq!(cnf.solve_under(&aig, &[Lit::TRUE]), SatResult::Sat);
        assert_eq!(cnf.solve_under(&aig, &[Lit::FALSE]), SatResult::Unsat);
    }

    #[test]
    fn simple_sat_with_model() {
        let (mut aig, ins) = setup();
        let f = aig.and(ins[0], !ins[1]);
        let mut cnf = AigCnf::new();
        assert_eq!(cnf.solve_under(&aig, &[f]), SatResult::Sat);
        let m = cnf.model_inputs(&aig);
        assert!(aig.eval(f, &m));
    }

    #[test]
    fn equivalence_of_demorgan() {
        let (mut aig, ins) = setup();
        let lhs = !aig.and(ins[0], ins[1]);
        let na = !ins[0];
        let nb = !ins[1];
        let rhs = aig.or(na, nb);
        let mut cnf = AigCnf::new();
        assert_eq!(cnf.prove_equiv(&aig, lhs, rhs, None), EquivResult::Equiv);
    }

    #[test]
    fn counterexample_is_concrete() {
        let (mut aig, ins) = setup();
        let f = aig.and(ins[0], ins[1]);
        let g = aig.or(ins[0], ins[1]);
        let mut cnf = AigCnf::new();
        match cnf.prove_equiv(&aig, f, g, None) {
            EquivResult::NotEquiv(cex) => {
                assert_ne!(aig.eval(f, &cex), aig.eval(g, &cex));
            }
            other => panic!("expected NotEquiv, got {other:?}"),
        }
    }

    #[test]
    fn care_set_equivalence_and_constant() {
        let (mut aig, ins) = setup();
        let f = aig.and(ins[0], ins[1]);
        let mut cnf = AigCnf::new();
        // Where ins[0] holds, f is ins[1]; elsewhere it is not.
        let on_care = cnf.prove_equiv_under(&aig, ins[0], f, ins[1], None);
        assert_eq!(on_care, EquivResult::Equiv);
        match cnf.prove_equiv_under(&aig, !ins[0], f, ins[1], None) {
            EquivResult::NotEquiv(cex) => assert!(!cex[0] && cex[1]),
            other => panic!("expected NotEquiv, got {other:?}"),
        }
        // Against a constant, one solve decides.
        let checks = cnf.stats().checks;
        assert!(!cnf.prove_equiv(&aig, f, Lit::FALSE, None).is_equiv());
        assert_eq!(cnf.stats().checks, checks + 1);
        let t = aig.or(ins[2], !ins[2]);
        assert_eq!(cnf.prove_constant(&aig, t, true, None), EquivResult::Equiv);
        assert!(!cnf.prove_constant(&aig, ins[3], true, None).is_equiv());
    }

    #[test]
    fn database_is_shared_across_checks() {
        let (mut aig, ins) = setup();
        let f = aig.and(ins[0], ins[1]);
        let mut cnf = AigCnf::new();
        let _ = cnf.prove_equiv(&aig, f, ins[0], None);
        let encoded_before = cnf.stats().encoded_ands;
        assert!(encoded_before > 0);
        // Same cone again: nothing new must be encoded.
        let _ = cnf.prove_equiv_under(&aig, ins[0], f, ins[1], None);
        let _ = cnf.prove_equiv(&aig, f, ins[1], None);
        assert_eq!(cnf.stats().encoded_ands, encoded_before);
        assert!(cnf.stats().checks >= 3);
    }

    #[test]
    fn assert_lit_constrains_future_checks() {
        let (aig, ins) = setup();
        let mut cnf = AigCnf::new();
        assert!(cnf.assert_lit(&aig, ins[0]));
        assert_eq!(cnf.solve_under(&aig, &[!ins[0]]), SatResult::Unsat);
        assert_eq!(cnf.solve_under(&aig, &[ins[1]]), SatResult::Sat);
    }

    /// A pair of structurally different parity cones — SAT proofs on them
    /// generate real conflicts, hence learnt clauses.
    fn parity_pair(n: usize) -> (Aig, Lit, Lit) {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..n).map(|_| aig.add_input().lit()).collect();
        let mut fwd = Lit::FALSE;
        for &x in &xs {
            fwd = aig.xor(fwd, x);
        }
        let mut rev = Lit::FALSE;
        for &x in xs.iter().rev() {
            rev = aig.xor(rev, x);
        }
        (aig, fwd, rev)
    }

    #[test]
    fn migration_keeps_learnts_and_stays_correct() {
        // A sweep GC compacts the manager; the bridge migrates its map, so
        // every SAT variable — and every learnt clause — stays live.
        let (aig, fwd, rev) = parity_pair(10);
        let mut cnf = AigCnf::new();
        assert_eq!(cnf.prove_equiv(&aig, fwd, rev, None), EquivResult::Equiv);
        let learnts_before = cnf.solver().stats().learnts;
        assert!(learnts_before > 0, "equivalence proof learnt nothing");
        let encoded_before = cnf.stats().encoded_ands;

        let (aig2, roots2, var_map) = aig.compact_with_map(&[fwd, rev]);
        cnf.migrate(&var_map, aig2.num_nodes());
        assert_eq!(cnf.stats().migrations, 1);
        assert_eq!(cnf.stats().retirements, 0);
        assert_eq!(cnf.stats().learnts_retained, learnts_before);
        assert_eq!(
            cnf.solver().stats().learnts,
            learnts_before,
            "solver lost learnt clauses across the migration"
        );

        // Post-GC checks hit the migrated encoding: nothing re-encodes.
        assert_eq!(
            cnf.prove_equiv(&aig2, roots2[0], roots2[1], None),
            EquivResult::Equiv
        );
        assert_eq!(
            cnf.stats().encoded_ands,
            encoded_before,
            "migrated cones were re-encoded"
        );
        // And satisfiable queries still produce sound models.
        assert_eq!(cnf.solve_under(&aig2, &[roots2[0]]), SatResult::Sat);
        let m = cnf.model_inputs(&aig2);
        assert!(aig2.eval(roots2[0], &m));
    }

    /// A manager over four inputs holding `(a & b) & c` and, unless
    /// `with_p` is false, `((a & b) & c) & d`: the inputs, `a & b`,
    /// `x` and `p`.
    fn merged(with_p: bool) -> (Aig, [Lit; 4], Lit, Lit, Option<Lit>) {
        let mut aig = Aig::new();
        let ins = [(); 4].map(|_| aig.add_input().lit());
        let ab = aig.and(ins[0], ins[1]);
        let x = aig.and(ab, ins[2]);
        let p = with_p.then(|| aig.and(x, ins[3]));
        (aig, ins, ab, x, p)
    }

    #[test]
    fn migration_purges_a_loser_cone_once_its_parents_die() {
        // x1 = (a & b) & c and x2 = a & (b & c) compute one function. A
        // merging compaction keeps x1 and maps x2 onto it, so x2 becomes
        // a strash-collision loser that p = x2 & d's definition still
        // names, and b & c loses its image.
        let (mut aig, ins, ab, x1, _) = merged(false);
        let bc = aig.and(ins[1], ins[2]);
        let x2 = aig.and(ins[0], bc);
        let p = aig.and(x2, ins[3]);
        let mut cnf = AigCnf::new();
        assert_eq!(cnf.solve_under(&aig, &[x1, p]), SatResult::Sat);
        let (aig1, ins1, ab1, x11, p1) = merged(true);
        let p1 = p1.unwrap();
        let mut map = vec![None; aig.num_nodes()];
        let pairs = ins.iter().zip(&ins1).map(|(&o, &n)| (o, n));
        for (old, new) in pairs.chain([(ab, ab1), (x1, x11), (x2, x11), (p, p1)]) {
            map[old.var().index()] = Some(new);
        }
        cnf.migrate(&map, aig1.num_nodes());
        // p still reaches b & c through x2, so nothing is purged.
        assert_eq!(cnf.solver_stats().purged, 0);
        assert_eq!(cnf.solve_under(&aig1, &[p1, !ins1[1]]), SatResult::Unsat);
        assert_eq!(cnf.solve_under(&aig1, &[p1]), SatResult::Sat);
        assert!(aig1.eval(p1, &cnf.model_inputs(&aig1)));
        // A second compaction drops p: nothing live reaches x2 any more,
        // so the definitions of p, x2 and b & c all go.
        let (aig2, ins2, ab2, x12, _) = merged(false);
        let mut map = vec![None; aig1.num_nodes()];
        let pairs = ins1.iter().zip(&ins2).map(|(&o, &n)| (o, n));
        for (old, new) in pairs.chain([(ab1, ab2), (x11, x12)]) {
            map[old.var().index()] = Some(new);
        }
        let clauses = cnf.solver().num_clauses();
        cnf.migrate(&map, aig2.num_nodes());
        assert_eq!(cnf.solver().num_clauses(), clauses - 9);
        assert_eq!(cnf.solve_under(&aig2, &[x12, !ins2[2]]), SatResult::Unsat);
        assert_eq!(cnf.solve_under(&aig2, &[x12]), SatResult::Sat);
        assert!(aig2.eval(x12, &cnf.model_inputs(&aig2)));
    }

    #[test]
    fn retirement_releases_and_purges_the_dead_generation() {
        // A wholesale manager replacement: retirement disables the cones,
        // releases their variables from branching, and purges the
        // now-satisfied clauses from the arena.
        let (aig, fwd, rev) = parity_pair(10);
        let mut cnf = AigCnf::new();
        assert_eq!(cnf.prove_equiv(&aig, fwd, rev, None), EquivResult::Equiv);
        let conflicts_before = cnf.solver().stats().conflicts;
        cnf.retire_cones();
        assert_eq!(cnf.stats().retirements, 1);
        assert!(cnf.stats().clauses_retired > 0);
        let s = cnf.solver().stats();
        assert!(s.purged > 0, "no satisfied clause was purged: {s:?}");
        // With no caller-managed guards outstanding the dead generation's
        // variables are recycled outright (not merely released).
        assert!(s.recycled_vars > 0, "dead variables were not reclaimed");
        assert_eq!(s.conflicts, conflicts_before, "retirement must not search");

        // The same checks on a fresh manager re-encode and still prove.
        let (aig2, fwd2, rev2) = parity_pair(10);
        assert_eq!(cnf.prove_equiv(&aig2, fwd2, rev2, None), EquivResult::Equiv);
        assert_eq!(cnf.solve_under(&aig2, &[fwd2]), SatResult::Sat);
        let m = cnf.model_inputs(&aig2);
        assert!(aig2.eval(fwd2, &m));
    }

    #[test]
    fn retired_generation_constraints_do_not_leak() {
        let (mut aig, ins) = setup();
        let mut cnf = AigCnf::new();
        // Constrain generation 0 so that ins[0] must hold…
        assert!(cnf.assert_lit(&aig, ins[0]));
        assert_eq!(cnf.solve_under(&aig, &[!ins[0]]), SatResult::Unsat);
        // …and even make the generation unsatisfiable outright.
        assert!(!cnf.assert_lit(&aig, Lit::FALSE));
        assert_eq!(cnf.solve_under(&aig, &[ins[1]]), SatResult::Unsat);
        // Retirement lifts both: the next generation is unconstrained.
        cnf.retire_cones();
        assert_eq!(cnf.solve_under(&aig, &[!ins[0]]), SatResult::Sat);
        let f = aig.and(ins[0], ins[1]);
        assert_eq!(cnf.solve_under(&aig, &[f, !ins[0]]), SatResult::Unsat);
    }

    #[test]
    fn learn_equiv_simplifies_and_retires_cleanly() {
        let (mut aig, ins) = setup();
        let f = aig.xor(ins[0], ins[1]);
        let or = aig.or(ins[0], ins[1]);
        let nand = !aig.and(ins[0], ins[1]);
        let g = aig.and(or, nand);
        let mut cnf = AigCnf::new();
        assert_eq!(cnf.prove_equiv(&aig, f, g, None), EquivResult::Equiv);
        let (sf, sg) = (cnf.sat_lit(f).unwrap(), cnf.sat_lit(g).unwrap());
        cnf.learn_equiv(sf, sg);
        // The learnt equivalence must not contradict anything…
        assert_eq!(cnf.solve_under(&aig, &[f]), SatResult::Sat);
        // …and must die with its generation.
        cnf.retire_cones();
        assert_eq!(cnf.solve_under(&aig, &[f, !g]), SatResult::Unsat);
        assert_eq!(cnf.solve_under(&aig, &[f]), SatResult::Sat);
    }

    #[test]
    fn guards_gate_clauses_and_cores_name_assumptions() {
        // Two independent guarded groups on one solver: each is active
        // only while its guard is assumed, retirement kills it for good,
        // and an UNSAT answer names the guilty assumptions.
        let (aig, ins) = setup();
        let mut cnf = AigCnf::new();
        let a = cnf.ensure(&aig, ins[0]);
        let b = cnf.ensure(&aig, ins[1]);
        let g1 = cnf.new_guard();
        let g2 = cnf.new_guard();
        assert!(cnf.add_guarded_by(g1, &[a])); // g1 → ins[0]
        assert!(cnf.add_guarded_by(g2, &[!a])); // g2 → ¬ins[0]
                                                // Unguarded: both phases satisfiable.
        assert_eq!(cnf.solve_under_assuming(&aig, &[], &[]), SatResult::Sat);
        // Each guard alone constrains; both together are inconsistent.
        assert_eq!(
            cnf.solve_under_assuming(&aig, &[!ins[0]], &[g1]),
            SatResult::Unsat
        );
        assert_eq!(
            cnf.solve_under_assuming(&aig, &[ins[0]], &[g2]),
            SatResult::Unsat
        );
        assert_eq!(
            cnf.solve_under_assuming(&aig, &[], &[g1, g2, b]),
            SatResult::Unsat
        );
        // The failed-assumption core blames the guards, not b.
        let failed = cnf.solver().failed_assumptions();
        assert!(failed.contains(&g1) || failed.contains(&g2));
        assert!(!failed.contains(&b));
        // Retiring g2 lifts its constraint even when "assumed"… nothing
        // forces a retired guard true, so solve under g1 alone.
        cnf.retire_guard(g2);
        assert_eq!(cnf.solve_under_assuming(&aig, &[], &[g1]), SatResult::Sat);
        assert_eq!(
            cnf.solve_under_assuming(&aig, &[!ins[0]], &[g1]),
            SatResult::Unsat
        );
        // …and cone retirement re-encodes nodes onto fresh variables
        // without disturbing the surviving guard's clauses.
        cnf.retire_cones();
        let a2 = cnf.ensure(&aig, ins[0]);
        assert_ne!(a2.var(), a.var(), "retirement must clear the node map");
        assert_eq!(
            cnf.solve_under_assuming(&aig, &[], &[g1, !a]),
            SatResult::Unsat
        );
    }

    #[test]
    fn budget_propagates_to_unknown() {
        // Build a moderately hard miter and give it one conflict.
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..12).map(|_| aig.add_input().lit()).collect();
        let mut parity = Lit::FALSE;
        for &x in &xs {
            parity = aig.xor(parity, x);
        }
        let mut parity_rev = Lit::FALSE;
        for &x in xs.iter().rev() {
            parity_rev = aig.xor(parity_rev, x);
        }
        let mut cnf = AigCnf::new();
        let r = cnf.prove_equiv(&aig, parity, !parity_rev, Some(1));
        // Either it finds a cex within one conflict or gives up; never Equiv.
        assert!(matches!(r, EquivResult::Unknown | EquivResult::NotEquiv(_)));
    }

    #[test]
    fn guard_churn_keeps_var_count_bounded() {
        // The IC3 workload shape: allocate a guard, add guarded clauses,
        // query, retire, repeat. With reclamation the solver's variable
        // table must stay flat instead of growing one var per cycle.
        let (mut aig, ins) = setup();
        let f = aig.and(ins[0], ins[1]);
        let mut cnf = AigCnf::new();
        let fs = cnf.ensure(&aig, f);
        let baseline = {
            // One warm-up cycle so lazily created vars are on the books.
            let g = cnf.new_guard();
            cnf.add_guarded_by(g, &[!fs]);
            cnf.retire_guard(g);
            cnf.reclaim_guards();
            cnf.solver().num_vars()
        };
        for round in 0..1000 {
            let g = cnf.new_guard();
            cnf.add_guarded_by(g, &[!fs]);
            assert_eq!(
                cnf.solve_under_assuming(&aig, &[f], &[g]),
                SatResult::Unsat,
                "round {round}"
            );
            assert_eq!(cnf.solve_under_assuming(&aig, &[f], &[]), SatResult::Sat);
            cnf.retire_guard(g);
            if round % 64 == 63 {
                cnf.reclaim_guards();
            }
        }
        cnf.reclaim_guards();
        // The table may carry up to one reclamation batch of slack (slots
        // are reused, never shrunk) but must not scale with cycle count.
        assert!(
            cnf.solver().num_vars() <= baseline + 64,
            "guard churn grew the variable table: {} vs baseline {}",
            cnf.solver().num_vars(),
            baseline
        );
        assert!(cnf.solver_stats().recycled_vars >= 1000);
        // Queries still behave after heavy recycling.
        assert_eq!(cnf.solve_under(&aig, &[f]), SatResult::Sat);
        assert_eq!(cnf.solve_under(&aig, &[f, !ins[0]]), SatResult::Unsat);
    }

    #[test]
    fn cone_retire_readd_cycles_keep_var_count_bounded() {
        // Full cone retire/re-encode cycles with no live caller guards:
        // map variables and the activator are all reclaimed, so repeated
        // generations reuse the same slots.
        let (mut aig, ins) = setup();
        let f = aig.and(ins[0], ins[1]);
        let g = aig.xor(ins[2], ins[3]);
        let mut cnf = AigCnf::new();
        let mut high_water = 0;
        for round in 0..100 {
            assert_eq!(cnf.solve_under(&aig, &[f, g]), SatResult::Sat, "{round}");
            assert_eq!(cnf.solve_under(&aig, &[f, !ins[1]]), SatResult::Unsat);
            let n = cnf.solver().num_vars();
            if round == 0 {
                high_water = n;
            } else {
                assert_eq!(n, high_water, "round {round}: var table grew");
            }
            cnf.retire_cones();
        }
        assert!(cnf.solver_stats().recycled_vars > 0);
    }
}
