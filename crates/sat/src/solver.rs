//! The CDCL solver, built on the flat clause arena of [`crate::arena`].
//!
//! Differences from a textbook MiniSat that matter to the rest of the
//! stack:
//!
//! * **Arena clause storage** — clauses are `u32` runs in one contiguous
//!   [`ClauseArena`]; watcher lists carry `CRef` + blocker literal, and
//!   reduce-DB compacts the arena in place (remapping reasons, rebuilding
//!   watches) instead of freeing per-clause allocations.
//! * **LBD (glue) scoring** — each learnt clause's "literal block
//!   distance" is computed at learn time and lowered whenever a conflict
//!   re-derives the clause through fewer decision levels; reduce-DB is
//!   glue-tiered: clauses with LBD ≤ 2 are kept unconditionally, the rest
//!   are sorted by glue and the worst half deleted.
//! * **Saved-phase + target-phase polarity** — branching replays the last
//!   polarity of each variable (phase saving); on alternating restarts it
//!   instead replays the polarity of the deepest trail seen this call
//!   (target phase), which re-approaches the most satisfying region found
//!   so far.
//! * **Per-call conflict budgets** — [`Solver::set_conflict_budget`]
//!   bounds each `solve`/`solve_with` call independently: every call gets
//!   the full budget, nothing leaks from earlier calls.
//! * **Query-local answers** — with [`Solver::set_query_local`], a solve
//!   decides only its *domain*: the closure of its assumptions over the
//!   recorded definitions ([`Solver::define`]) and the clauses of assumed
//!   guards ([`Solver::add_clause_under`]). It answers SAT once the domain
//!   is assigned without conflict and leaves every other variable
//!   unassigned.

use crate::arena::{CRef, ClauseArena};
use crate::proof::{ClauseId, ProofLog, ProofMode};
use crate::types::{Lbool, SatLit, SatResult, SatVar};

#[derive(Copy, Clone, Debug)]
struct Watcher {
    cref: CRef,
    blocker: SatLit,
}

/// Number of buckets of [`SolverStats::lbd_hist`]: bucket `i` counts
/// learnt clauses of LBD `i + 1`, the last bucket everything at or above.
pub const LBD_BUCKETS: usize = 8;

/// Aggregate counters exposed by [`Solver::stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts analysed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted: u64,
    /// Number of `solve`/`solve_with` calls.
    pub solves: u64,
    /// Calls answered [`SatResult::Sat`].
    pub sat_answers: u64,
    /// Calls answered [`SatResult::Unsat`].
    pub unsat_answers: u64,
    /// Reduce-DB (arena compaction) rounds executed.
    pub reduces: u64,
    /// Clauses purged as satisfied at level 0 ([`Solver::purge_satisfied`]).
    pub purged: u64,
    /// Variables released from branching ([`Solver::set_decision`]).
    pub released_vars: u64,
    /// Variables returned to the free list ([`Solver::recycle_vars`]) for
    /// reuse by later [`Solver::new_var`] calls.
    pub recycled_vars: u64,
    /// Current clause-arena size in `u32` words (headers + literals).
    pub arena_words: u64,
    /// Learn-time LBD histogram: bucket `i` counts clauses learnt with
    /// LBD `i + 1`; the last bucket collects everything at or above
    /// [`LBD_BUCKETS`].
    pub lbd_hist: [u64; LBD_BUCKETS],
}

impl SolverStats {
    /// Current clause-arena size in bytes.
    pub fn arena_bytes(&self) -> u64 {
        self.arena_words * std::mem::size_of::<u32>() as u64
    }

    /// Accumulates another counter record into this one (used to fold the
    /// per-partition solvers of a partitioned traversal into one total).
    pub fn absorb(&mut self, other: &SolverStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learnts += other.learnts;
        self.deleted += other.deleted;
        self.solves += other.solves;
        self.sat_answers += other.sat_answers;
        self.unsat_answers += other.unsat_answers;
        self.reduces += other.reduces;
        self.purged += other.purged;
        self.released_vars += other.released_vars;
        self.recycled_vars += other.recycled_vars;
        self.arena_words += other.arena_words;
        for (slot, n) in self.lbd_hist.iter_mut().zip(other.lbd_hist.iter()) {
            *slot += n;
        }
    }
}

/// [`QueryLocal::defs`] entry of a variable with no recorded definition.
const NO_DEF: u32 = u32::MAX;

/// The registry behind query-local answers ([`Solver::set_query_local`])
/// and the domain of the solve in progress.
///
/// A solve's domain is the closure of its assumption variables under two
/// kinds of edge: a defined variable brings in its fanins, and a guard
/// brings in the variables of the clauses it guards. Once the domain is
/// assigned without conflict, evaluating the definitions from any values
/// of the unassigned undefined variables completes the assignment to a
/// model of every clause.
#[derive(Clone, Debug, Default)]
struct QueryLocal {
    /// Per variable: the fanins of its recorded definition, or
    /// [`NO_DEF`] twice.
    defs: Vec<[u32; 2]>,
    /// Per guard variable: the sorted variables of the clauses it guards.
    guarded: Vec<Vec<u32>>,
    /// The current solve's domain in discovery order, built at its first
    /// decision; empty between solves.
    members: Vec<u32>,
    /// Membership flags of `members`.
    member: Vec<bool>,
}

impl QueryLocal {
    /// Settles a purge's dead set by reachability over the recorded
    /// definitions. The roots are the unmarked defined decision variables
    /// (a bridge's live map) and the unmarked variables of every guard's
    /// clauses. Every variable a root's definition reaches, through
    /// released ones too, is unmarked: its clauses still define a live
    /// variable. Every released definition no root reaches (a
    /// strash-collision loser or constant-mapped node whose parents died)
    /// is marked: it is garbage, like the dead cone below it.
    fn settle_dead(&self, decision: &[bool], dead: &mut Vec<bool>) {
        let n = self.defs.len();
        dead.resize(n, false);
        let defined = |v: usize| self.defs[v][0] != NO_DEF;
        let mut reached = vec![false; n];
        let mut stack = Vec::new();
        let roots = (0..n)
            .filter(|&v| decision[v] && defined(v))
            .chain(self.guarded.iter().flatten().map(|&u| u as usize));
        for v in roots {
            if !dead[v] && !reached[v] {
                reached[v] = true;
                stack.push(v);
            }
        }
        while let Some(v) = stack.pop() {
            for &f in &self.defs[v] {
                if f != NO_DEF && !reached[f as usize] {
                    reached[f as usize] = true;
                    stack.push(f as usize);
                }
            }
        }
        for v in 0..n {
            dead[v] = !reached[v] && (dead[v] || (!decision[v] && defined(v)));
        }
    }

    /// Drops every registry entry of the variables marked in `dead`: their
    /// own definitions and guard lists, any definition that names one (its
    /// clauses are gone with the dead variable), and their places in every
    /// guard list.
    fn forget(&mut self, dead: &[bool]) {
        let is_dead = |u: u32| u != NO_DEF && dead.get(u as usize).copied().unwrap_or(false);
        for (v, def) in self.defs.iter_mut().enumerate() {
            if is_dead(v as u32) || def.iter().any(|&f| is_dead(f)) {
                *def = [NO_DEF; 2];
            }
        }
        for (v, list) in self.guarded.iter_mut().enumerate() {
            if is_dead(v as u32) {
                *list = Vec::new();
            } else {
                list.retain(|&u| !is_dead(u));
            }
        }
    }
}

const VAR_DECAY: f64 = 0.95;
const RESTART_BASE: u64 = 100;
/// Learnt clauses with LBD at or below this glue tier are never deleted.
const GLUE_KEEP: u32 = 2;

/// A conflict-driven clause-learning SAT solver.
///
/// See the [crate-level documentation](crate) for an overview and example.
/// The solver is fully incremental: clauses may be added between calls to
/// [`Solver::solve`]/[`Solver::solve_with`], and everything learnt in one
/// call benefits later calls — the property the paper's factorised
/// SAT-merge depends on.
#[derive(Clone, Debug)]
pub struct Solver {
    ca: ClauseArena,
    clauses: Vec<CRef>,
    learnts: Vec<CRef>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<Lbool>,
    phase: Vec<bool>,
    decision: Vec<bool>,
    target_phase: Vec<bool>,
    best_trail: usize,
    use_target: bool,
    reason: Vec<Option<CRef>>,
    level: Vec<u32>,
    activity: Vec<f64>,
    heap: Vec<u32>,
    heap_pos: Vec<i32>,
    free: Vec<u32>,
    var_inc: f64,
    trail: Vec<SatLit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    seen: Vec<bool>,
    lbd_stamp: Vec<u64>,
    lbd_token: u64,
    ok: bool,
    max_learnts: f64,
    conflict_budget: Option<u64>,
    call_conflicts: u64,
    failed: Vec<SatLit>,
    model: Vec<Lbool>,
    stats: SolverStats,
    /// Resolution provenance, allocated only when a [`ProofMode`] other
    /// than `Off` is selected — the hot path pays one `is_some` branch.
    proof: Option<Box<ProofLog>>,
    /// Query-local answers, when switched on: the decision heap then holds
    /// only the domain of the solve in progress.
    local: Option<Box<QueryLocal>>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            ca: ClauseArena::new(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            decision: Vec::new(),
            target_phase: Vec::new(),
            best_trail: 0,
            use_target: false,
            reason: Vec::new(),
            level: Vec::new(),
            activity: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            free: Vec::new(),
            var_inc: 1.0,
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            seen: Vec::new(),
            lbd_stamp: vec![0],
            lbd_token: 0,
            ok: true,
            max_learnts: 4000.0,
            conflict_budget: None,
            call_conflicts: 0,
            failed: Vec::new(),
            model: Vec::new(),
            stats: SolverStats::default(),
            proof: None,
            local: None,
        }
    }

    /// Switches on query-local answers: from now on a solve decides only
    /// its domain, the closure of its assumption variables under the
    /// definitions recorded with [`Solver::define`] and the clauses added
    /// with [`Solver::add_clause_under`] whose guard it reaches. It
    /// answers [`SatResult::Sat`] once the domain is assigned without
    /// conflict and leaves every other variable unassigned.
    ///
    /// The caller guarantees that every clause outside the domain is
    /// completed by evaluation: each clause is a recorded definition, a
    /// constraint added under a guard, or implied by the definitions and
    /// the constraints under guards that every solve assumes. Then
    /// evaluating the definitions from any values of the unassigned
    /// undefined variables (unassigned guards read false) completes the
    /// partial model to a model of the whole database. Without this call
    /// (raw use) nothing is registered and every decision variable is
    /// assigned by a satisfiable answer.
    ///
    /// # Panics
    ///
    /// Panics if any variable exists already: a registry that missed a
    /// clause would make partial models unsound.
    pub fn set_query_local(&mut self) {
        assert_eq!(
            self.num_vars(),
            0,
            "query-local answers must be selected first"
        );
        self.local = Some(Box::default());
    }

    /// Records that `v` is defined as a function of `fanins` (a Tseitin
    /// AND; its clauses are added separately). Under query-local answers a
    /// domain that holds `v` also holds its fanins. A no-op otherwise.
    pub fn define(&mut self, v: SatVar, fanins: [SatVar; 2]) {
        if let Some(q) = self.local.as_deref_mut() {
            q.defs[v.index()] = [fanins[0].0, fanins[1].0];
        }
    }

    /// Adds the clause `¬guard ∨ clause`, a constraint active while
    /// `guard` is assumed. Under query-local answers its variables join
    /// the domain of every solve that reaches `guard`'s variable. Returns
    /// what [`Solver::add_clause`] returns.
    pub fn add_clause_under(&mut self, guard: SatLit, clause: &[SatLit]) -> bool {
        if let Some(q) = self.local.as_deref_mut() {
            let list = &mut q.guarded[guard.var().index()];
            for l in clause {
                if let Err(i) = list.binary_search(&l.var().0) {
                    list.insert(i, l.var().0);
                }
            }
        }
        let mut guarded = Vec::with_capacity(clause.len() + 1);
        guarded.push(!guard);
        guarded.extend_from_slice(clause);
        self.add_clause(&guarded)
    }

    /// Whether `v` belongs in the decision heap: a decision variable and,
    /// under query-local answers, a member of the current domain.
    fn orderable(&self, v: usize) -> bool {
        self.decision[v] && self.local.as_ref().is_none_or(|q| q.member[v])
    }

    /// Builds the current solve's domain from its assumptions and fills
    /// the (empty) decision heap with its unassigned decision variables.
    fn build_domain(&mut self, assumptions: &[SatLit]) {
        let q = self.local.as_deref_mut().expect("query-local answers");
        let QueryLocal {
            defs,
            guarded,
            members,
            member,
        } = q;
        for a in assumptions {
            let v = a.var().0;
            if !member[v as usize] {
                member[v as usize] = true;
                members.push(v);
            }
        }
        let mut next = 0;
        while let Some(&v) = members.get(next) {
            next += 1;
            let v = v as usize;
            let fanins = defs[v].iter().filter(|&&f| f != NO_DEF);
            for &u in fanins.chain(&guarded[v]) {
                if !member[u as usize] {
                    member[u as usize] = true;
                    members.push(u);
                }
            }
        }
        debug_assert!(self.heap.is_empty());
        for &v in members.iter() {
            let i = v as usize;
            if self.decision[i] && self.assigns[i] == Lbool::Undef {
                self.heap_pos[i] = self.heap.len() as i32;
                self.heap.push(v);
            }
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.heap_down(i);
        }
    }

    /// Ends the current solve's domain: clears the membership flags and
    /// empties the decision heap, so the closing backtrack inserts
    /// nothing.
    fn end_domain(&mut self) {
        let Some(q) = self.local.as_deref_mut() else {
            return;
        };
        for &v in &q.members {
            q.member[v as usize] = false;
        }
        q.members.clear();
        for &v in &self.heap {
            self.heap_pos[v as usize] = -1;
        }
        self.heap.clear();
    }

    /// Selects the proof mode. Must be called on a pristine solver (no
    /// clauses added, nothing on the trail): provenance cannot be
    /// reconstructed for clauses that predate the log.
    ///
    /// # Panics
    ///
    /// Panics if any clause has already been added.
    pub fn set_proof_mode(&mut self, mode: ProofMode) {
        assert!(
            self.ca.is_empty() && self.clauses.is_empty() && self.trail.is_empty(),
            "proof mode must be selected before any clause is added"
        );
        self.proof = match mode {
            ProofMode::Off => None,
            m => Some(Box::new(ProofLog::new(m))),
        };
    }

    /// The currently selected proof mode.
    pub fn proof_mode(&self) -> ProofMode {
        self.proof.as_ref().map_or(ProofMode::Off, |p| p.mode())
    }

    /// The proof log, when a mode other than `Off` is active.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_deref()
    }

    /// Serialises the logged derivation as a DRAT proof. `Some` only
    /// after an assumption-free [`SatResult::Unsat`] answer (UNSAT under
    /// assumptions derives no empty clause and certifies nothing).
    pub fn drat_proof(&self) -> Option<String> {
        self.proof.as_ref().and_then(|p| p.to_drat())
    }

    /// Sets the partition label stamped on subsequently added clauses
    /// (interpolation tags the A/B sides of a query this way). A no-op
    /// with proofs off.
    pub fn set_proof_label(&mut self, label: u32) {
        if let Some(p) = self.proof.as_mut() {
            p.set_label(label);
        }
    }

    /// Takes the proof log out of the solver (leaving proofs off), so a
    /// caller can keep the trace without cloning it.
    pub fn take_proof(&mut self) -> Option<Box<ProofLog>> {
        self.proof.take()
    }

    #[cfg(test)]
    pub(crate) fn force_reduce_db_for_tests(&mut self) {
        self.max_learnts = 8.0;
    }

    /// Adds a fresh variable, reusing a recycled slot when one is
    /// available (see [`Solver::recycle_vars`]).
    pub fn new_var(&mut self) -> SatVar {
        if let Some(i) = self.free.pop() {
            let v = SatVar::from_index(i as usize);
            self.decision[i as usize] = true;
            if self.orderable(i as usize) {
                self.heap_insert(i);
            }
            return v;
        }
        let v = SatVar::from_index(self.assigns.len());
        if let Some(q) = self.local.as_deref_mut() {
            q.defs.push([NO_DEF; 2]);
            q.guarded.push(Vec::new());
            q.member.push(false);
        }
        self.assigns.push(Lbool::Undef);
        self.phase.push(false);
        self.decision.push(true);
        self.target_phase.push(false);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.heap_pos.push(-1);
        self.seen.push(false);
        self.lbd_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        if self.orderable(v.index()) {
            self.heap_insert(v.0);
        }
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of problem (non-learnt) clauses added so far, minus any that
    /// were satisfied at level 0 on addition.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Solver statistics (arena size sampled at call time).
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.arena_words = self.ca.words() as u64;
        s
    }

    /// Sets (or clears) the per-call conflict budget. Each subsequent
    /// `solve`/`solve_with` call gets the *full* budget — conflicts spent
    /// by one call never count against the next — and a call that exceeds
    /// it returns [`SatResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Whether the clause database has been proven unsatisfiable outright.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    fn lit_value(&self, l: SatLit) -> Lbool {
        let a = self.assigns[l.var().index()];
        if l.is_negative() {
            a.negate()
        } else {
            a
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause. Returns `false` if the database became trivially
    /// unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (internal use only) or if a literal
    /// names an unknown variable.
    pub fn add_clause(&mut self, lits: &[SatLit]) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            return false;
        }
        let mut c: Vec<SatLit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        // Tautology / level-0 simplification.
        let mut simplified = Vec::with_capacity(c.len());
        let mut dropped: Vec<SatLit> = Vec::new();
        for (i, &l) in c.iter().enumerate() {
            assert!(l.var().index() < self.num_vars(), "unknown variable {l:?}");
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology
            }
            match self.lit_value(l) {
                Lbool::True => return true,      // already satisfied
                Lbool::False => dropped.push(l), // drop falsified literal
                Lbool::Undef => simplified.push(l),
            }
        }
        // Register the clause as given; if level-0 units dropped literals,
        // the stored clause is a derivation resolving them away.
        let proof_id = self.proof.as_mut().map(|p| {
            let root = p.register_root(&c);
            if dropped.is_empty() {
                root
            } else {
                let steps: Vec<(SatVar, ClauseId)> = dropped
                    .iter()
                    .map(|&l| (l.var(), p.unit_id(l.var())))
                    .collect();
                p.register_derived(&simplified, root, steps)
            }
        });
        match simplified.len() {
            0 => {
                if let (Some(p), Some(id)) = (self.proof.as_mut(), proof_id) {
                    p.set_empty(id);
                }
                self.ok = false;
                false
            }
            1 => {
                if let (Some(p), Some(id)) = (self.proof.as_mut(), proof_id) {
                    p.set_unit(simplified[0].var(), id);
                }
                self.unchecked_enqueue(simplified[0], None);
                if let Some(confl) = self.propagate() {
                    self.proof_empty_from_conflict(confl);
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let cref = self.attach_clause(&simplified, false, 0);
                if let (Some(p), Some(id)) = (self.proof.as_mut(), proof_id) {
                    p.map_cref(cref, id);
                }
                true
            }
        }
    }

    /// Derives the empty clause from a level-0 conflict: every literal of
    /// the conflicting clause is falsified by a recorded level-0 unit.
    fn proof_empty_from_conflict(&mut self, confl: CRef) {
        if self.proof.is_none() {
            return;
        }
        let lits = self.ca.lits_vec(confl);
        let p = self.proof.as_mut().unwrap();
        let base = p.cref_id(confl);
        let steps: Vec<(SatVar, ClauseId)> =
            lits.iter().map(|q| (q.var(), p.unit_id(q.var()))).collect();
        let id = p.register_derived(&[], base, steps);
        p.set_empty(id);
    }

    /// Records the derivation of a level-0 propagated unit `l` from
    /// clause `c`: every other literal of `c` resolves against its own
    /// recorded level-0 unit. Recorded eagerly because level-0 reasons
    /// are nulled by the purges before they could be consulted.
    fn proof_level0_unit(&mut self, l: SatLit, c: CRef) {
        let lits = self.ca.lits_vec(c);
        let p = self.proof.as_mut().expect("checked by caller");
        let base = p.cref_id(c);
        let steps: Vec<(SatVar, ClauseId)> = lits
            .iter()
            .filter(|q| q.var() != l.var())
            .map(|q| (q.var(), p.unit_id(q.var())))
            .collect();
        let id = p.register_derived(&[l], base, steps);
        p.set_unit(l.var(), id);
    }

    fn attach_clause(&mut self, lits: &[SatLit], learnt: bool, lbd: u32) -> CRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.ca.alloc(lits, learnt, lbd);
        let w0 = lits[0];
        let w1 = lits[1];
        self.watches[w0.code()].push(Watcher { cref, blocker: w1 });
        self.watches[w1.code()].push(Watcher { cref, blocker: w0 });
        if learnt {
            self.learnts.push(cref);
            self.stats.learnts = self.learnts.len() as u64;
            self.stats.lbd_hist[(lbd.max(1) as usize - 1).min(LBD_BUCKETS - 1)] += 1;
        } else {
            self.clauses.push(cref);
        }
        cref
    }

    fn unchecked_enqueue(&mut self, l: SatLit, reason: Option<CRef>) {
        debug_assert_eq!(self.lit_value(l), Lbool::Undef);
        let v = l.var().index();
        self.assigns[v] = Lbool::from_bool(!l.is_negative());
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause reference, if any.
    fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let falsified = !p;
            let mut ws = std::mem::take(&mut self.watches[falsified.code()]);
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                if self.lit_value(w.blocker) == Lbool::True {
                    i += 1;
                    continue;
                }
                // Normalise: falsified literal at position 1.
                let first = {
                    if self.ca.lit(w.cref, 0) == falsified {
                        self.ca.swap_lits(w.cref, 0, 1);
                    }
                    debug_assert_eq!(self.ca.lit(w.cref, 1), falsified, "stale watcher");
                    self.ca.lit(w.cref, 0)
                };
                // If the other watched literal is already true the clause is
                // satisfied; this must be decided *before* moving watches.
                if self.lit_value(first) == Lbool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch among the tail literals.
                let found_new = {
                    let len = self.ca.len(w.cref);
                    let mut found = None;
                    for k in 2..len {
                        let l = self.ca.lit(w.cref, k);
                        if self.lit_value(l) != Lbool::False {
                            self.ca.swap_lits(w.cref, 1, k);
                            found = Some(l);
                            break;
                        }
                    }
                    found
                };
                if let Some(l) = found_new {
                    // Move watch to l.
                    self.watches[l.code()].push(Watcher {
                        cref: w.cref,
                        blocker: first,
                    });
                    ws.swap_remove(i);
                    continue;
                }
                // No replacement: clause is unit or conflicting.
                if self.lit_value(first) == Lbool::False {
                    // Conflict: restore the remaining watchers and bail.
                    self.watches[falsified.code()] = ws;
                    self.qhead = self.trail.len();
                    return Some(w.cref);
                }
                if self.proof.is_some() && self.trail_lim.is_empty() {
                    self.proof_level0_unit(first, w.cref);
                }
                self.unchecked_enqueue(first, Some(w.cref));
                i += 1;
            }
            self.watches[falsified.code()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v] >= 0 {
            self.heap_up(self.heap_pos[v] as usize);
        }
    }

    /// The LBD ("glue") of a literal set: distinct decision levels above 0.
    fn compute_lbd(&mut self, lits: &[SatLit]) -> u32 {
        self.lbd_token += 1;
        let mut glue = 0;
        for &l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if lvl > 0 && self.lbd_stamp[lvl] != self.lbd_token {
                self.lbd_stamp[lvl] = self.lbd_token;
                glue += 1;
            }
        }
        glue
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: CRef) -> (Vec<SatLit>, usize) {
        let mut learnt: Vec<SatLit> = vec![SatLit::from_code(0)]; // placeholder
        let mut counter = 0usize;
        let mut p: Option<SatLit> = None;
        let proof_on = self.proof.is_some();
        let base = confl;
        // Resolution steps as (pivot, antecedent CRef), plus the level-0
        // variables whose units close the chain at the end.
        let mut steps: Vec<(SatVar, CRef)> = Vec::new();
        let mut zeros: Vec<SatVar> = Vec::new();
        let mut confl = confl;
        let mut index = self.trail.len();
        loop {
            let lits: Vec<SatLit> = self.ca.lits_vec(confl);
            // Lower the stored glue of a learnt antecedent when the
            // current assignment re-derives it through fewer levels
            // (reusing the literal vector materialised for resolution).
            if self.ca.is_learnt(confl) {
                let glue = self.compute_lbd(&lits);
                if glue < self.ca.lbd(confl) {
                    self.ca.set_lbd(confl, glue);
                }
            }
            let skip = usize::from(p.is_some());
            for &q in &lits[skip..] {
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] as usize >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                } else if proof_on && self.level[v] == 0 {
                    zeros.push(q.var());
                }
            }
            // Select next literal to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()].expect("non-decision must have a reason");
            if proof_on {
                steps.push((pl.var(), confl));
            }
        }
        learnt[0] = !p.unwrap();

        // Cheap clause minimisation: drop literals implied by the rest.
        let mut minimized = vec![learnt[0]];
        let mut min_dropped: Vec<SatLit> = Vec::new();
        for &q in &learnt[1..] {
            let keep = match self.reason[q.var().index()] {
                None => true,
                Some(r) => {
                    let len = self.ca.len(r);
                    !(1..len).all(|i| {
                        let l = self.ca.lit(r, i);
                        self.seen[l.var().index()] || self.level[l.var().index()] == 0
                    })
                }
            };
            if keep {
                minimized.push(q);
            } else if proof_on {
                min_dropped.push(q);
            }
        }
        // Clear the seen flags of the kept tail.
        for &q in &learnt[1..] {
            self.seen[q.var().index()] = false;
        }
        let mut learnt = minimized;

        // Resolve the minimised literals away, deepest trail position
        // first: a reason only mentions shallower literals, so nothing
        // already resolved out is reintroduced. Level-0 side literals
        // join `zeros` for the trailing unit resolutions.
        if proof_on && !min_dropped.is_empty() {
            let mut pos = vec![0u32; self.num_vars()];
            for (i, &l) in self.trail.iter().enumerate() {
                pos[l.var().index()] = i as u32;
            }
            min_dropped.sort_unstable_by_key(|l| std::cmp::Reverse(pos[l.var().index()]));
            for &q in &min_dropped {
                let r = self.reason[q.var().index()].expect("dropped literal has a reason");
                for i in 1..self.ca.len(r) {
                    let l = self.ca.lit(r, i);
                    if self.level[l.var().index()] == 0 {
                        zeros.push(l.var());
                    }
                }
                steps.push((q.var(), r));
            }
        }
        if proof_on {
            self.proof_stash_chain(base, steps, zeros);
        }

        // Backtrack level: highest level among learnt[1..], whose literal
        // must sit at position 1 (second watch).
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        (learnt, bt)
    }

    /// Converts the analysis chain to proof clause ids and stashes it;
    /// `search` consumes the stash when it attaches the learnt clause.
    fn proof_stash_chain(
        &mut self,
        base: CRef,
        steps: Vec<(SatVar, CRef)>,
        mut zeros: Vec<SatVar>,
    ) {
        let p = self.proof.as_mut().expect("checked by caller");
        zeros.sort_unstable();
        zeros.dedup();
        let base = p.cref_id(base);
        let mut chain: Vec<(SatVar, ClauseId)> = Vec::with_capacity(steps.len() + zeros.len());
        for (v, c) in steps {
            chain.push((v, p.cref_id(c)));
        }
        for v in zeros {
            chain.push((v, p.unit_id(v)));
        }
        p.stash(base, chain);
    }

    /// Computes the subset of assumptions responsible for falsifying the
    /// assumption `p`; stores the failed assumptions (including `p`) in
    /// `self.failed`. With proofs on, also logs the final clause
    /// ([`ProofLog::final_id`]): the negated failed assumptions, derived
    /// from the reason of `¬p` by resolving the trail's non-assumption
    /// literals away deepest first, then the level-0 units.
    fn analyze_final(&mut self, p: SatLit) {
        self.failed.clear();
        self.failed.push(p);
        let pv = p.var().index();
        if self.level[pv] == 0 {
            // `¬p` holds at level 0: its recorded unit is the final clause.
            if let Some(log) = self.proof.as_mut() {
                let id = log.unit_id(p.var());
                log.set_final(id);
            }
            return;
        }
        let proof_on = self.proof.is_some();
        let mut base: Option<CRef> = None;
        let mut steps: Vec<(SatVar, CRef)> = Vec::new();
        let mut zeros: Vec<SatVar> = Vec::new();
        self.seen[pv] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let q = self.trail[i];
            let v = q.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                None => {
                    if self.level[v] > 0 {
                        // `q` is an assumption pseudo-decision on the trail.
                        self.failed.push(q);
                    }
                }
                Some(r) => {
                    if proof_on {
                        if v == pv {
                            base = Some(r);
                        } else {
                            steps.push((q.var(), r));
                        }
                    }
                    for k in 1..self.ca.len(r) {
                        let l = self.ca.lit(r, k);
                        if self.level[l.var().index()] > 0 {
                            self.seen[l.var().index()] = true;
                        } else if proof_on {
                            zeros.push(l.var());
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[pv] = false;
        // No base: `¬p` was itself assumed, and `p ∨ ¬p` needs no proof.
        if let Some(base) = base {
            let lits: Vec<SatLit> = self.failed.iter().map(|&a| !a).collect();
            self.proof_stash_chain(base, steps, zeros);
            let log = self.proof.as_mut().expect("checked above");
            let id = log.take_stash_as(&lits);
            log.set_final(id);
        }
    }

    fn backtrack(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.phase[v] = !l.is_negative();
            self.assigns[v] = Lbool::Undef;
            self.reason[v] = None;
            if self.heap_pos[v] < 0 && self.orderable(v) {
                self.heap_insert(v as u32);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target);
        self.qhead = bound;
    }

    fn pick_branch_var(&mut self) -> Option<SatVar> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v as usize] == Lbool::Undef && self.decision[v as usize] {
                return Some(SatVar(v));
            }
        }
        None
    }

    /// Includes or excludes `v` from branching. A satisfiable answer may
    /// leave a released (non-decision) variable unassigned, so the caller
    /// must guarantee one of three invariants for every released variable:
    /// all its clauses are already satisfied at level 0 (a retired cone
    /// generation, see [`Solver::retire_vars`]); or its value is fully
    /// determined by unit propagation once the decision variables are
    /// assigned — e.g. a Tseitin-defined node whose definition clauses
    /// stay intact and whose fanin chain grounds out in decision
    /// variables (a migrated bridge's strash-collision losers and
    /// constant-mapped nodes, whose definitions stay recorded so a
    /// query-local domain reaches their fanins); or it occurs only
    /// negated in clauses and positively only as an assumption (a guard),
    /// so reading it false satisfies its clauses. Anything weaker can make
    /// a `Sat` answer unsound.
    pub fn set_decision(&mut self, v: SatVar, decision: bool) {
        let i = v.index();
        if self.decision[i] == decision {
            return;
        }
        self.decision[i] = decision;
        if decision {
            if self.heap_pos[i] < 0 && self.orderable(i) {
                self.heap_insert(i as u32);
            }
        } else {
            self.stats.released_vars += 1;
        }
        // A released variable still in the heap is skipped lazily by
        // `pick_branch_var`.
    }

    /// Releases variables whose clauses are all satisfied at level 0 (a
    /// retired cone generation that live guarded clauses may still name,
    /// so the slots cannot be recycled yet) from branching and from the
    /// query-local registry.
    pub fn retire_vars(&mut self, vars: &[SatVar]) {
        for &v in vars {
            self.set_decision(v, false);
        }
        if let Some(q) = self.local.as_deref_mut() {
            let mut dead = vec![false; q.defs.len()];
            for v in vars {
                dead[v.index()] = true;
            }
            q.forget(&dead);
        }
    }

    /// Returns retired variables to a free list so later
    /// [`Solver::new_var`] calls reuse their slots instead of growing
    /// every per-variable array — the reclamation counterpart to
    /// [`Solver::purge_satisfied`] for activation/guard variables, whose
    /// footprint is otherwise append-only across cone generations.
    ///
    /// The caller must guarantee that **no live clause references any
    /// recycled variable**. A retired guard generation satisfies this
    /// after a purge: the guard appears positively in no clause, so every
    /// clause mentioning it contains its negation, is satisfied once the
    /// unit `!g` is asserted, and is removed by the purge. Any level-0
    /// assignment of a recycled variable is scrubbed from the trail and
    /// all its per-variable state reset to fresh-variable defaults.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search, or if a recycled variable still has
    /// watched clauses (the caller guarantee was violated).
    pub fn recycle_vars(&mut self, vars: &[SatVar]) {
        assert_eq!(self.decision_level(), 0, "recycle only at level 0");
        if vars.is_empty() {
            return;
        }
        let mut mark = vec![false; self.num_vars()];
        for &v in vars {
            let i = v.index();
            assert!(
                self.watches[2 * i].is_empty() && self.watches[2 * i + 1].is_empty(),
                "recycled variable {i} still has watched clauses"
            );
            debug_assert!(
                !mark[i] && !self.free.contains(&(i as u32)),
                "double recycle"
            );
            mark[i] = true;
            self.assigns[i] = Lbool::Undef;
            self.phase[i] = false;
            self.target_phase[i] = false;
            self.reason[i] = None;
            self.level[i] = 0;
            self.activity[i] = 0.0;
            self.seen[i] = false;
            // Keep the slot out of branching until it is re-issued.
            self.decision[i] = false;
            self.heap_remove(i as u32);
            self.free.push(i as u32);
            self.stats.recycled_vars += 1;
            if let Some(p) = self.proof.as_mut() {
                p.clear_unit(v);
            }
        }
        // Scrub the recycled variables' level-0 assignments.
        self.trail.retain(|l| !mark[l.var().index()]);
        self.qhead = self.trail.len();
        if let Some(q) = self.local.as_deref_mut() {
            q.forget(&mark);
        }
    }

    /// Deletes every clause satisfied at level 0 (problem and learnt) and
    /// compacts the arena — the memory-reclamation half of retiring a
    /// cone generation: once its activation literal is asserted false,
    /// all its clauses are permanently satisfied and purgeable.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (must be at decision level 0).
    pub fn purge_satisfied(&mut self) {
        assert_eq!(self.decision_level(), 0, "purge only at level 0");
        if !self.ok {
            return;
        }
        let purge_list = |ca: &mut ClauseArena,
                          list: &mut Vec<CRef>,
                          assigns: &[Lbool],
                          purged: &mut u64,
                          dead: &mut Vec<CRef>| {
            list.retain(|&c| {
                let satisfied = (0..ca.len(c)).any(|i| {
                    let l = ca.lit(c, i);
                    let a = assigns[l.var().index()];
                    (if l.is_negative() { a.negate() } else { a }) == Lbool::True
                });
                if satisfied {
                    ca.mark_dead(c);
                    *purged += 1;
                    dead.push(c);
                }
                !satisfied
            });
        };
        let mut purged = 0u64;
        let mut dead: Vec<CRef> = Vec::new();
        purge_list(
            &mut self.ca,
            &mut self.clauses,
            &self.assigns,
            &mut purged,
            &mut dead,
        );
        purge_list(
            &mut self.ca,
            &mut self.learnts,
            &self.assigns,
            &mut purged,
            &mut dead,
        );
        if purged == 0 {
            return;
        }
        if let Some(p) = self.proof.as_mut() {
            for &c in &dead {
                p.delete_cref(c);
            }
        }
        self.stats.purged += purged;
        // Level-0 reasons may point at purged clauses; they are never
        // consulted again (conflict analysis skips level-0 literals), so
        // drop them before compaction instead of remapping dead refs.
        for v in 0..self.num_vars() {
            if self.assigns[v] != Lbool::Undef && self.level[v] == 0 {
                self.reason[v] = None;
            }
        }
        self.compact_arena();
        self.stats.learnts = self.learnts.len() as u64;
    }

    /// Deletes every clause referencing a variable marked in `dead`
    /// (problem and learnt) and compacts the arena. Sound when the marked
    /// variables' constraints are *definitional extensions* — satisfiable
    /// under any assignment of the surviving variables — which is exactly
    /// what a retired/orphaned Tseitin cone is: removing such clauses
    /// changes no verdict of any query over the surviving variables.
    ///
    /// Under query-local answers the dead set is settled by reachability
    /// from the live variables: the defined decision variables and the
    /// variables of guarded clauses. A marked variable that a live
    /// definition reaches is spared, with its own fanins: its clauses
    /// still define a live variable (a migrated bridge's strash-collision
    /// loser keeps its old definition, whose fanins can lose their images
    /// at a later compaction). A released definition that no live
    /// definition reaches is purged with the marked ones.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (must be at decision level 0).
    pub fn purge_referencing(&mut self, dead: &[bool]) {
        assert_eq!(self.decision_level(), 0, "purge only at level 0");
        if !self.ok {
            return;
        }
        let mut dead = dead.to_vec();
        if let Some(q) = self.local.as_deref_mut() {
            q.settle_dead(&self.decision, &mut dead);
            q.forget(&dead);
        }
        let dead = &dead[..];
        let purge_list =
            |ca: &mut ClauseArena, list: &mut Vec<CRef>, purged: &mut u64, gone: &mut Vec<CRef>| {
                list.retain(|&c| {
                    let orphaned = (0..ca.len(c)).any(|i| {
                        dead.get(ca.lit(c, i).var().index())
                            .copied()
                            .unwrap_or(false)
                    });
                    if orphaned {
                        ca.mark_dead(c);
                        *purged += 1;
                        gone.push(c);
                    }
                    !orphaned
                });
            };
        let mut purged = 0u64;
        let mut gone: Vec<CRef> = Vec::new();
        purge_list(&mut self.ca, &mut self.clauses, &mut purged, &mut gone);
        purge_list(&mut self.ca, &mut self.learnts, &mut purged, &mut gone);
        if purged == 0 {
            return;
        }
        if let Some(p) = self.proof.as_mut() {
            for &c in &gone {
                p.delete_cref(c);
            }
        }
        self.stats.purged += purged;
        // Level-0 reasons may point at purged clauses; they are never
        // consulted again (conflict analysis skips level-0 literals).
        for v in 0..self.num_vars() {
            if self.assigns[v] != Lbool::Undef && self.level[v] == 0 {
                self.reason[v] = None;
            }
        }
        self.compact_arena();
        self.stats.learnts = self.learnts.len() as u64;
    }

    /// Compacts the arena and remaps clause lists, reasons, and watches.
    /// Every dead clause must already be out of the lists and reasons.
    fn compact_arena(&mut self) {
        let remap = self.ca.compact();
        if let Some(p) = self.proof.as_mut() {
            p.remap(&remap);
        }
        for c in &mut self.clauses {
            *c = remap.forward(*c);
        }
        for c in &mut self.learnts {
            *c = remap.forward(*c);
        }
        for r in self.reason.iter_mut() {
            if let Some(c) = *r {
                *r = Some(remap.forward(c));
            }
        }
        for wl in &mut self.watches {
            wl.clear();
        }
        for i in 0..self.clauses.len() + self.learnts.len() {
            let cref = if i < self.clauses.len() {
                self.clauses[i]
            } else {
                self.learnts[i - self.clauses.len()]
            };
            let w0 = self.ca.lit(cref, 0);
            let w1 = self.ca.lit(cref, 1);
            self.watches[w0.code()].push(Watcher { cref, blocker: w1 });
            self.watches[w1.code()].push(Watcher { cref, blocker: w0 });
        }
    }

    /// The branching polarity of `v`: the saved phase, or — on
    /// target-phase restarts — the polarity `v` had on the deepest trail
    /// seen this call.
    fn branch_polarity(&self, v: usize) -> bool {
        if self.use_target {
            self.target_phase[v]
        } else {
            self.phase[v]
        }
    }

    /// Records the current (deepest-so-far) trail as the target phase.
    fn save_target_phase(&mut self) {
        for &l in &self.trail {
            self.target_phase[l.var().index()] = !l.is_negative();
        }
    }

    /// Glue-tiered learnt-database reduction with arena compaction.
    ///
    /// Clauses that are reasons of current assignments, binary, or of glue
    /// LBD ≤ 2 are kept unconditionally; the remainder is sorted by glue
    /// and the worst half marked dead. The arena is then compacted and
    /// every live reference (clause lists, reasons, watches) remapped.
    fn reduce_db(&mut self) {
        let locked: Vec<bool> = {
            let mut locked = vec![false; self.learnts.len()];
            // Learnt reasons are identified by a pass over the list (the
            // list is small relative to the trail at reduce time).
            let reasons: std::collections::HashSet<CRef> = (0..self.num_vars())
                .filter(|&v| self.assigns[v] != Lbool::Undef)
                .filter_map(|v| self.reason[v])
                .collect();
            for (i, &c) in self.learnts.iter().enumerate() {
                if reasons.contains(&c) {
                    locked[i] = true;
                }
            }
            locked
        };
        let mut candidates: Vec<CRef> = self
            .learnts
            .iter()
            .enumerate()
            .filter(|&(i, &c)| !locked[i] && self.ca.len(c) > 2 && self.ca.lbd(c) > GLUE_KEEP)
            .map(|(_, &c)| c)
            .collect();
        if candidates.is_empty() {
            return;
        }
        // Worst glue first; ties delete the older (lower-offset) clause.
        candidates.sort_unstable_by_key(|&c| (std::cmp::Reverse(self.ca.lbd(c)), c));
        for &c in &candidates[..candidates.len() / 2] {
            self.ca.mark_dead(c);
            if let Some(p) = self.proof.as_mut() {
                p.delete_cref(c);
            }
            self.stats.deleted += 1;
        }
        if self.ca.wasted() == 0 {
            return;
        }
        // Drop dead references, compact the arena, and remap the rest.
        self.learnts.retain(|&c| !self.ca.is_dead(c));
        self.compact_arena();
        self.stats.learnts = self.learnts.len() as u64;
        self.stats.reduces += 1;
    }

    /// Solves the current database with no assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under `assumptions`. On [`SatResult::Unsat`],
    /// [`Solver::failed_assumptions`] holds a subset of the assumptions
    /// sufficient for unsatisfiability.
    pub fn solve_with(&mut self, assumptions: &[SatLit]) -> SatResult {
        let r = self.solve_inner(assumptions);
        match r {
            SatResult::Sat => self.stats.sat_answers += 1,
            SatResult::Unsat => self.stats.unsat_answers += 1,
            SatResult::Unknown => {}
        }
        r
    }

    fn solve_inner(&mut self, assumptions: &[SatLit]) -> SatResult {
        self.stats.solves += 1;
        self.failed.clear();
        if let Some(p) = self.proof.as_mut() {
            p.clear_final();
        }
        self.call_conflicts = 0;
        self.best_trail = 0;
        self.use_target = false;
        if !self.ok {
            return SatResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        if let Some(confl) = self.propagate() {
            self.proof_empty_from_conflict(confl);
            self.ok = false;
            return SatResult::Unsat;
        }
        let mut restarts = 0u64;
        loop {
            let limit = RESTART_BASE * luby(2, restarts);
            match self.search(limit, assumptions) {
                Some(r) => {
                    self.end_domain();
                    self.backtrack(0);
                    return r;
                }
                None => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    // Alternate saved-phase and target-phase restarts.
                    self.use_target = restarts % 2 == 1 && self.best_trail > 0;
                }
            }
        }
    }

    fn search(&mut self, conflict_limit: u64, assumptions: &[SatLit]) -> Option<SatResult> {
        let mut local_conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                self.call_conflicts += 1;
                local_conflicts += 1;
                if self.decision_level() == 0 {
                    self.proof_empty_from_conflict(confl);
                    self.ok = false;
                    return Some(SatResult::Unsat);
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack(bt);
                #[cfg(test)]
                self.check_watches_dbg("after-analyze-backtrack");
                if learnt.len() == 1 {
                    if let Some(p) = self.proof.as_mut() {
                        let id = p.take_stash_as(&learnt);
                        p.set_unit(learnt[0].var(), id);
                    }
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let lbd = self.compute_lbd(&learnt);
                    let cref = self.attach_clause(&learnt, true, lbd);
                    if let Some(p) = self.proof.as_mut() {
                        let id = p.take_stash_as(&learnt);
                        p.map_cref(cref, id);
                    }
                    self.unchecked_enqueue(learnt[0], Some(cref));
                }
                #[cfg(test)]
                self.check_watches_dbg("after-attach-learnt");
                self.var_inc /= VAR_DECAY;
                if let Some(budget) = self.conflict_budget {
                    if self.call_conflicts >= budget {
                        self.backtrack(0);
                        return Some(SatResult::Unknown);
                    }
                }
            } else {
                // Record the target phase on *geometric* trail improvements
                // only: an exact record would copy the trail on every new
                // depth, which is quadratic on instances with long trails.
                if self.trail.len() >= self.best_trail + self.best_trail / 8 + 16 {
                    self.best_trail = self.trail.len();
                    self.save_target_phase();
                }
                if local_conflicts >= conflict_limit {
                    self.backtrack(0);
                    return None; // restart
                }
                if self.learnts.len() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                    #[cfg(test)]
                    self.check_watches_dbg("after-reduce-db");
                }
                // Place assumptions as pseudo-decisions, then branch.
                let mut decided = false;
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.lit_value(p) {
                        Lbool::True => {
                            self.trail_lim.push(self.trail.len());
                        }
                        Lbool::False => {
                            self.analyze_final(p);
                            return Some(SatResult::Unsat);
                        }
                        Lbool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, None);
                            decided = true;
                            break;
                        }
                    }
                }
                if decided {
                    continue;
                }
                if self.local.as_ref().is_some_and(|q| q.members.is_empty()) {
                    self.build_domain(assumptions);
                }
                match self.pick_branch_var() {
                    None => {
                        self.model.clone_from(&self.assigns);
                        return Some(SatResult::Sat);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        let l = v.lit(self.branch_polarity(v.index()));
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    /// The model value of `v` after a [`SatResult::Sat`] answer.
    ///
    /// Returns `None` for a variable the answer left unassigned, or if no
    /// model is available. A raw solver assigns every decision variable;
    /// under query-local answers ([`Solver::set_query_local`]) only the
    /// solve's domain and what propagation reached are assigned, and the
    /// model is completed by evaluating the recorded definitions from the
    /// unassigned undefined variables read as false.
    pub fn value(&self, v: SatVar) -> Option<bool> {
        self.model.get(v.index()).and_then(|l| l.to_bool())
    }

    /// The model value of a literal after a [`SatResult::Sat`] answer.
    pub fn value_lit(&self, l: SatLit) -> Option<bool> {
        self.value(l.var()).map(|b| b ^ l.is_negative())
    }

    /// After an [`SatResult::Unsat`] answer from [`Solver::solve_with`]:
    /// a subset of the assumptions sufficient for unsatisfiability
    /// (empty if the database alone is unsatisfiable). With proofs on,
    /// [`ProofLog::final_id`] names the derivation of their negation.
    pub fn failed_assumptions(&self) -> &[SatLit] {
        &self.failed
    }

    // ------------------------------------------------------------------
    // Indexed max-heap ordered by VSIDS activity.
    // ------------------------------------------------------------------

    fn heap_less(&self, a: u32, b: u32) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    fn heap_insert(&mut self, v: u32) {
        debug_assert!(self.heap_pos[v as usize] < 0);
        self.heap_pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().unwrap();
        self.heap_pos[top as usize] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    /// Removes `v` from the heap if present (swap with the tail, then
    /// restore the heap property in both directions).
    fn heap_remove(&mut self, v: u32) {
        let pos = self.heap_pos[v as usize];
        if pos < 0 {
            return;
        }
        let pos = pos as usize;
        self.heap_pos[v as usize] = -1;
        let last = self.heap.pop().expect("non-empty: v is in the heap");
        if pos < self.heap.len() {
            self.heap[pos] = last;
            self.heap_pos[last as usize] = pos as i32;
            self.heap_down(pos);
            self.heap_up(self.heap_pos[last as usize] as usize);
        }
    }

    fn heap_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(v, self.heap[parent]) {
                self.heap[i] = self.heap[parent];
                self.heap_pos[self.heap[i] as usize] = i as i32;
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as i32;
    }

    fn heap_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let child = if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            if self.heap_less(self.heap[child], v) {
                self.heap[i] = self.heap[child];
                self.heap_pos[self.heap[i] as usize] = i as i32;
                i = child;
            } else {
                break;
            }
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as i32;
    }
}

/// The reluctant-doubling (Luby) sequence scaled by powers of `y`:
/// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
fn luby(y: u64, mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    y.pow(seq)
}

#[cfg(test)]
mod tests {
    // The pigeonhole constructions read clearest with explicit indices.
    #![allow(clippy::needless_range_loop)]

    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<SatVar> {
        (0..n).map(|_| s.new_var()).collect()
    }

    pub(super) fn pigeonhole(s: &mut Solver, p: usize, h: usize) -> Vec<Vec<SatVar>> {
        let v: Vec<Vec<SatVar>> = (0..p).map(|_| vars(s, h)).collect();
        for i in 0..p {
            let clause: Vec<SatLit> = (0..h).map(|j| v[i][j].pos()).collect();
            s.add_clause(&clause);
        }
        for j in 0..h {
            for i1 in 0..p {
                for i2 in (i1 + 1)..p {
                    s.add_clause(&[v[i1][j].neg(), v[i2][j].neg()]);
                }
            }
        }
        v
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&[v[0].pos()]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert!(!s.add_clause(&[v[0].neg()]));
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        let _ = vars(&mut s, 3);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn tautology_is_skipped() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&[v[0].pos(), v[0].neg()]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause(&[v[0].pos()]);
        s.add_clause(&[v[0].neg(), v[1].pos()]);
        s.add_clause(&[v[1].neg(), v[2].pos()]);
        s.add_clause(&[v[2].neg(), v[3].pos()]);
        assert_eq!(s.solve(), SatResult::Sat);
        for x in v {
            assert_eq!(s.value(x), Some(true));
        }
    }

    #[test]
    fn pigeonhole_two_in_one_is_unsat() {
        // 2 pigeons, 1 hole.
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].pos()]);
        s.add_clause(&[v[1].pos()]);
        s.add_clause(&[v[0].neg(), v[1].neg()]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_php43_is_unsat() {
        // 4 pigeons in 3 holes: forces real conflict analysis.
        let mut s = Solver::new();
        pigeonhole(&mut s, 4, 3);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_are_non_destructive() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        assert_eq!(s.solve_with(&[v[0].neg(), v[1].neg()]), SatResult::Unsat);
        assert!(!s.failed_assumptions().is_empty());
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.solve_with(&[v[0].neg()]), SatResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn failed_assumptions_are_a_core() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].neg(), v[1].neg()]);
        // v2 is irrelevant to the conflict.
        assert_eq!(
            s.solve_with(&[v[2].pos(), v[0].pos(), v[1].pos()]),
            SatResult::Unsat
        );
        let core = s.failed_assumptions();
        assert!(core.iter().all(|l| l.var() != v[2]));
        assert!(!core.is_empty());
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard instance with a budget of 1 conflict.
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SatResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn conflict_budget_is_per_call() {
        // Every budgeted call gets the full budget: N calls at budget B
        // must spend ~N×B conflicts in total, not B overall. (A leaking
        // implementation would return Unknown instantly from call 2 on.)
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        s.set_conflict_budget(Some(5));
        for _ in 0..3 {
            assert_eq!(s.solve(), SatResult::Unknown);
        }
        assert!(
            s.stats().conflicts >= 15,
            "calls shared one budget: only {} conflicts spent",
            s.stats().conflicts
        );
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].pos(), v[1].pos(), v[2].pos()]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[v[0].neg()]);
        s.add_clause(&[v[1].neg()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
        s.add_clause(&[v[2].neg()]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn luby_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(2, i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn model_respects_all_clauses() {
        // Random-ish 3-SAT instance, verified against the model.
        let mut s = Solver::new();
        let v = vars(&mut s, 8);
        let clauses: Vec<Vec<SatLit>> = vec![
            vec![v[0].pos(), v[1].neg(), v[2].pos()],
            vec![v[3].neg(), v[4].pos(), v[5].neg()],
            vec![v[6].pos(), v[7].pos(), v[0].neg()],
            vec![v[1].pos(), v[3].pos(), v[5].pos()],
            vec![v[2].neg(), v[4].neg(), v[6].neg()],
            vec![v[7].neg(), v[1].pos(), v[4].pos()],
        ];
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for c in &clauses {
            assert!(
                c.iter().any(|&l| s.value_lit(l) == Some(true)),
                "clause {c:?} not satisfied"
            );
        }
    }

    #[test]
    fn lbd_histogram_and_arena_counters_populate() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        assert_eq!(s.solve(), SatResult::Unsat);
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.arena_words > 0);
        assert_eq!(st.arena_bytes(), st.arena_words * 4);
        assert!(
            st.lbd_hist.iter().sum::<u64>() > 0,
            "no learnt clause recorded a glue score"
        );
    }

    #[test]
    fn reduce_db_keeps_the_solver_sound() {
        // Force many reductions with a tiny learnt cap, then cross-check
        // the verdict on a known-UNSAT instance.
        let mut s = Solver::new();
        s.max_learnts = 8.0;
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().reduces > 0, "reduce-DB never ran");
        assert!(s.stats().deleted > 0);
    }

    #[test]
    fn stats_absorb_sums_fields() {
        let mut a = SolverStats {
            conflicts: 3,
            arena_words: 10,
            sat_answers: 2,
            ..SolverStats::default()
        };
        a.lbd_hist[0] = 2;
        let mut b = SolverStats {
            conflicts: 4,
            arena_words: 5,
            ..SolverStats::default()
        };
        b.lbd_hist[0] = 1;
        b.lbd_hist[7] = 6;
        b.sat_answers = 5;
        b.unsat_answers = 1;
        a.absorb(&b);
        assert_eq!(a.conflicts, 7);
        assert_eq!((a.sat_answers, a.unsat_answers), (7, 1));
        assert_eq!(a.arena_words, 15);
        assert_eq!(a.lbd_hist[0], 3);
        assert_eq!(a.lbd_hist[7], 6);
    }

    #[test]
    fn raw_sat_answers_assign_every_decision_variable() {
        // Without query-local answers every decision variable is decided,
        // even those no clause and no assumption mentions.
        let mut s = Solver::new();
        let v = vars(&mut s, 8);
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        s.add_clause(&[v[1].neg(), v[2].pos()]);
        for assumptions in [vec![], vec![v[0].neg()], vec![v[2].pos(), v[5].neg()]] {
            assert_eq!(s.solve_with(&assumptions), SatResult::Sat);
            for &x in &v {
                assert!(
                    s.value(x).is_some(),
                    "{x:?} unassigned under {assumptions:?}"
                );
            }
        }
        assert_eq!(s.stats().sat_answers, 3);
    }

    #[test]
    fn query_local_answers_decide_only_the_domain() {
        // c = a & b is defined, x and y are constrained only by a clause
        // under guard g, and z by nothing.
        let mut s = Solver::new();
        s.set_query_local();
        let [a, b, c, x, y, z, g] = [(); 7].map(|_| s.new_var());
        s.add_clause(&[c.neg(), a.pos()]);
        s.add_clause(&[c.neg(), b.pos()]);
        s.add_clause(&[c.pos(), a.neg(), b.neg()]);
        s.define(c, [a, b]);
        s.add_clause_under(g.pos(), &[x.pos(), y.pos()]);
        s.set_decision(g, false);
        assert_eq!(s.solve_with(&[c.neg()]), SatResult::Sat);
        assert!(s.value(a).is_some() && s.value(b).is_some());
        assert_eq!(s.value(c), Some(false));
        for out in [x, y, z, g] {
            assert_eq!(s.value(out), None, "{out:?} lies outside the domain");
        }
        // Assuming the guard brings its clause's variables in.
        assert_eq!(s.solve_with(&[g.pos(), x.neg()]), SatResult::Sat);
        assert_eq!(s.value(y), Some(true));
        assert_eq!(s.value(z), None);
        assert_eq!(s.solve_with(&[g.pos(), x.neg(), y.neg()]), SatResult::Unsat);
        let st = s.stats();
        assert_eq!((st.sat_answers, st.unsat_answers), (2, 1));
    }

    #[test]
    fn query_local_registry_forgets_recycled_and_purged_vars() {
        let mut s = Solver::new();
        s.set_query_local();
        let [a, b, c, g, h] = [(); 5].map(|_| s.new_var());
        s.define(c, [a, b]);
        s.add_clause(&[c.neg(), a.pos()]);
        s.add_clause(&[c.neg(), b.pos()]);
        s.add_clause(&[c.pos(), a.neg(), b.neg()]);
        // The guard list is sorted and deduplicated.
        s.add_clause_under(g.pos(), &[c.pos(), a.neg()]);
        s.add_clause_under(g.pos(), &[a.pos(), b.pos(), c.neg()]);
        s.add_clause_under(h.pos(), &[b.pos()]);
        let q = s.local.as_deref().unwrap();
        assert_eq!(q.guarded[g.index()], vec![a.0, b.0, c.0]);
        // Retire and recycle g: its list goes.
        s.add_clause(&[g.neg()]);
        s.purge_satisfied();
        s.recycle_vars(&[g]);
        assert!(s.local.as_deref().unwrap().guarded[g.index()].is_empty());
        // Purge b: its place in h's list and c's definition (which names
        // it) go with it.
        let mut dead = vec![false; s.num_vars()];
        dead[b.index()] = true;
        dead[c.index()] = true;
        s.purge_referencing(&dead);
        let q = s.local.as_deref().unwrap();
        assert_eq!(q.defs[c.index()], [NO_DEF; 2]);
        assert!(q.guarded[h.index()].is_empty());
    }

    #[test]
    fn purge_settles_the_dead_set_by_reachability() {
        // p = l & x is live; l = a & b is released (a strash-collision
        // loser that p's definition still names).
        let mut s = Solver::new();
        s.set_query_local();
        let [a, b, l, x, p] = [(); 5].map(|_| s.new_var());
        for (c, [f, g]) in [(l, [a, b]), (p, [l, x])] {
            s.define(c, [f, g]);
            s.add_clause(&[c.neg(), f.pos()]);
            s.add_clause(&[c.neg(), g.pos()]);
            s.add_clause(&[c.pos(), f.neg(), g.neg()]);
        }
        s.set_decision(l, false);
        // A purge that marks b spares it through l: the clauses defining
        // l stay, so p still follows a, b and x.
        let mut dead = vec![false; s.num_vars()];
        dead[b.index()] = true;
        s.purge_referencing(&dead);
        assert_eq!(s.num_clauses(), 6);
        assert_eq!(s.solve_with(&[p.pos(), b.neg()]), SatResult::Unsat);
        // Once p dies no live definition reaches l, so l's definition
        // goes with p's and both leave the registry.
        s.set_decision(p, false);
        let mut dead = vec![false; s.num_vars()];
        dead[p.index()] = true;
        s.purge_referencing(&dead);
        assert_eq!(s.num_clauses(), 0);
        let q = s.local.as_deref().unwrap();
        assert_eq!(q.defs[l.index()], [NO_DEF; 2]);
        assert_eq!(q.defs[p.index()], [NO_DEF; 2]);
    }

    #[test]
    fn purge_spares_the_cone_a_guarded_clause_names() {
        // l = a & b is released, but a clause under g names it.
        let mut s = Solver::new();
        s.set_query_local();
        let [a, b, l, g] = [(); 4].map(|_| s.new_var());
        s.define(l, [a, b]);
        s.add_clause(&[l.neg(), a.pos()]);
        s.add_clause(&[l.neg(), b.pos()]);
        s.add_clause(&[l.pos(), a.neg(), b.neg()]);
        s.add_clause_under(g.pos(), &[l.pos()]);
        s.set_decision(l, false);
        s.set_decision(g, false);
        let mut dead = vec![false; s.num_vars()];
        dead[b.index()] = true;
        s.purge_referencing(&dead);
        assert_eq!(s.num_clauses(), 4);
        assert_eq!(s.solve_with(&[g.pos(), b.neg()]), SatResult::Unsat);
    }

    #[test]
    fn recycled_vars_are_reused_and_sound() {
        // Guard-style lifecycle: a guard g protects clauses (each contains
        // !g), is asserted false, its clauses purged, and its slot
        // recycled. The reissued variable must behave like a fresh one.
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        let before = s.num_vars();
        for round in 0..50 {
            let g = s.new_var();
            // Guarded constraint: g -> (v0 xor v1).
            s.add_clause(&[g.neg(), v[0].pos(), v[1].pos()]);
            s.add_clause(&[g.neg(), v[0].neg(), v[1].neg()]);
            assert_eq!(s.solve_with(&[g.pos()]), SatResult::Sat);
            assert_ne!(s.value(v[0]), s.value(v[1]), "round {round}");
            s.add_clause(&[g.neg()]); // retire the generation
            s.purge_satisfied();
            s.recycle_vars(&[g]);
            s.check_watches_dbg("recycle round");
        }
        assert_eq!(s.num_vars(), before + 1, "var table must not grow");
        assert_eq!(s.stats().recycled_vars, 50);
        // The recycled slot is unconstrained again: both phases solvable.
        let g = s.new_var();
        assert_eq!(s.solve_with(&[g.pos()]), SatResult::Sat);
        assert_eq!(s.solve_with(&[g.neg()]), SatResult::Sat);
    }

    #[test]
    fn recycle_scrubs_level0_assignment() {
        // A retired guard's unit assignment must not leak into the slot's
        // next life: assert !g, purge, recycle, then constrain the reissued
        // variable to TRUE — satisfiable only if the trail was scrubbed.
        let mut s = Solver::new();
        let keep = vars(&mut s, 1);
        s.add_clause(&[keep[0].pos()]);
        let g = s.new_var();
        s.add_clause(&[g.neg(), keep[0].pos()]);
        s.add_clause(&[g.neg()]);
        s.purge_satisfied();
        s.recycle_vars(&[g]);
        let g2 = s.new_var();
        assert_eq!(g2, g, "slot must be reused");
        assert!(s.add_clause(&[g2.pos()]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(g2), Some(true));
        assert_eq!(s.value(keep[0]), Some(true));
    }

    #[test]
    fn recycle_interleaves_with_hard_instances() {
        // Recycling in the middle of real search state (learnt clauses,
        // bumped activities) must not corrupt the heap or verdicts.
        let mut s = Solver::new();
        let holes = pigeonhole(&mut s, 5, 4);
        let g = s.new_var();
        s.add_clause(&[g.neg(), holes[0][0].pos()]);
        assert_eq!(s.solve(), SatResult::Unsat); // PHP(5,4) is UNSAT
        assert!(!s.is_ok());
        // Database is globally unsat; recycling is still well-defined.
        let mut s = Solver::new();
        let holes = pigeonhole(&mut s, 4, 4); // satisfiable
        let g = s.new_var();
        s.add_clause(&[g.neg(), holes[0][0].neg()]);
        assert_eq!(s.solve_with(&[g.pos()]), SatResult::Sat);
        s.add_clause(&[g.neg()]);
        s.purge_satisfied();
        s.recycle_vars(&[g]);
        s.check_watches_dbg("after hard recycle");
        assert_eq!(s.solve(), SatResult::Sat);
    }
}

#[cfg(test)]
impl Solver {
    fn check_watches_dbg(&self, tag: &str) {
        self.check_watches(tag);
    }
}

#[cfg(test)]
mod invariant_tests {
    use super::*;

    impl Solver {
        pub(super) fn check_watches(&self, tag: &str) {
            let all: Vec<CRef> = self
                .clauses
                .iter()
                .chain(self.learnts.iter())
                .copied()
                .collect();
            for (code, wl) in self.watches.iter().enumerate() {
                let l = SatLit::from_code(code);
                for w in wl {
                    assert!(
                        self.ca.lit(w.cref, 0) == l || self.ca.lit(w.cref, 1) == l,
                        "{tag}: stale watcher for {:?} on clause {:?}",
                        l,
                        self.ca.lits_vec(w.cref)
                    );
                }
            }
            for &cref in &all {
                for i in 0..2 {
                    let wlit = self.ca.lit(cref, i);
                    let n = self.watches[wlit.code()]
                        .iter()
                        .filter(|w| w.cref == cref)
                        .count();
                    assert_eq!(
                        n,
                        1,
                        "{tag}: clause {:?} {:?} watch count {n} on {:?}",
                        cref,
                        self.ca.lits_vec(cref),
                        wlit
                    );
                }
            }
        }
    }

    #[test]
    fn watch_invariant_php65() {
        let mut s = Solver::new();
        super::tests::pigeonhole(&mut s, 6, 5);
        s.check_watches("after-load");
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SatResult::Unknown);
        s.check_watches("after-unknown");
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn watch_invariant_survives_reductions() {
        let mut s = Solver::new();
        s.max_learnts = 8.0;
        super::tests::pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().reduces > 0);
        s.check_watches("after-solve-with-reductions");
    }
}
