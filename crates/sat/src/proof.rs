//! The optional proof plane: resolution provenance for every clause the
//! solver derives.
//!
//! [`ProofMode`] selects how much provenance [`crate::Solver`] keeps:
//! `Off` (the default — the solving hot path pays a single
//! `Option::is_some` branch), `Drat` (an event log sufficient to emit a
//! DRAT proof after an UNSAT answer) or `Trace` (the full in-memory
//! resolution DAG, the input to Craig interpolation in `cbq-mc`). Both
//! active modes record the same structure; the distinction is consumer
//! intent.
//!
//! Every derived clause carries a *trivial resolution chain*: a base
//! clause plus a sequence of `(pivot variable, side clause)` steps,
//! replayed with set semantics — remove both phases of the pivot from the
//! running resolvent and the side clause, union the rest. Conflict
//! analysis records one chain per learnt clause (including the
//! clause-minimisation steps and the trailing resolutions against level-0
//! units); level-0 propagations, input-clause simplification and the
//! final empty clause get chains of their own, so an UNSAT answer without
//! assumptions always ends in a derivation of the empty clause.
//!
//! An UNSAT answer *under assumptions* ends instead in the *final clause*
//! ([`ProofLog::final_id`]): the negations of the failed assumptions.
//! Its chain starts at the reason of the falsified assumption `¬p`,
//! resolves the trail's non-assumption literals away in reverse trail
//! order and ends with the level-0 units — the shape conflict analysis
//! records. When `¬p` holds at level 0, its unit is the final clause.
//! Resolving the final clause with the assumptions as unit clauses gives
//! the empty clause, so the log refutes the database plus the
//! assumptions (what interpolation needs); [`ProofLog::to_drat`] still
//! certifies only a real empty clause.
//!
//! Clause lifetime mirrors the solver's arena: additions and deletions
//! are recorded as [`ProofEvent`]s in database order (what DRAT needs),
//! and the `CRef → ClauseId` bookkeeping survives in-place arena
//! compaction via [`ArenaRemap`] forwarding.

use std::collections::HashMap;

use crate::arena::{ArenaRemap, CRef};
use crate::types::{SatLit, SatVar};

/// How much resolution provenance the solver records.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ProofMode {
    /// No proof logging (default): the hot path pays only a branch.
    #[default]
    Off,
    /// Log enough to emit a DRAT proof on an assumption-free UNSAT.
    Drat,
    /// Keep the full in-memory resolution trace (implies DRAT emission).
    Trace,
}

/// Index of a clause in the proof log (dense, allocation order — which is
/// also topological order of the resolution DAG).
pub type ClauseId = u32;

/// A database event, in the order the solver performed it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProofEvent {
    /// A derived clause entered the database (roots are not events).
    Add(ClauseId),
    /// A clause (root or derived) left the database.
    Delete(ClauseId),
}

/// One recorded clause: its literals, its partition label, and — for
/// derived clauses — the trivial resolution chain that produced it.
#[derive(Clone, Debug)]
struct ProofClause {
    lits: Vec<SatLit>,
    label: u32,
    chain: Option<Chain>,
}

#[derive(Clone, Debug)]
struct Chain {
    base: ClauseId,
    steps: Vec<(SatVar, ClauseId)>,
}

/// The resolution log attached to a [`crate::Solver`] when a
/// [`ProofMode`] other than `Off` is selected.
#[derive(Clone, Debug, Default)]
pub struct ProofLog {
    mode: ProofMode,
    clauses: Vec<ProofClause>,
    events: Vec<ProofEvent>,
    empty: Option<ClauseId>,
    /// The final clause of the last solve, if it ended UNSAT under
    /// assumptions (cleared at the start of every solve).
    final_clause: Option<ClauseId>,
    /// Partition label stamped on clauses registered from now on
    /// (interpolation partitions A/B; 0 until told otherwise).
    label: u32,
    /// Live arena clause → proof clause. Entries are removed at deletion
    /// time (before compaction), so every key is a live `CRef`.
    cref: HashMap<u32, ClauseId>,
    /// Per-variable derivation of its current level-0 unit, recorded
    /// eagerly at enqueue time — level-0 *reasons* are nulled by the
    /// purges, so they cannot be consulted after the fact.
    unit: Vec<Option<ClauseId>>,
    /// Chain stashed by `analyze`, consumed when the learnt clause is
    /// attached (or enqueued, for unit learnts).
    pending: Option<Chain>,
}

impl ProofLog {
    pub(crate) fn new(mode: ProofMode) -> ProofLog {
        debug_assert_ne!(mode, ProofMode::Off);
        ProofLog {
            mode,
            ..ProofLog::default()
        }
    }

    /// The mode this log was created with.
    pub fn mode(&self) -> ProofMode {
        self.mode
    }

    /// Number of recorded clauses (roots and derived).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The literals of clause `id`.
    pub fn lits(&self, id: ClauseId) -> &[SatLit] {
        &self.clauses[id as usize].lits
    }

    /// Whether `id` is a root (input) clause, i.e. has no chain.
    pub fn is_root(&self, id: ClauseId) -> bool {
        self.clauses[id as usize].chain.is_none()
    }

    /// The partition label clause `id` was registered under.
    pub fn clause_label(&self, id: ClauseId) -> u32 {
        self.clauses[id as usize].label
    }

    /// The resolution chain of a derived clause: base clause and
    /// `(pivot, side clause)` steps. `None` for roots.
    pub fn chain(&self, id: ClauseId) -> Option<(ClauseId, &[(SatVar, ClauseId)])> {
        self.clauses[id as usize]
            .chain
            .as_ref()
            .map(|c| (c.base, c.steps.as_slice()))
    }

    /// The derived empty clause, once the database is proven UNSAT
    /// without assumptions.
    pub fn empty_id(&self) -> Option<ClauseId> {
        self.empty
    }

    /// The final clause of the last solve, when it ended UNSAT under
    /// assumptions: the negations of [`crate::Solver::failed_assumptions`],
    /// with a resolution chain. `None` after a SAT answer, an
    /// assumption-free solve, a refutation of the database itself (see
    /// [`ProofLog::empty_id`]), or when the failed assumptions contradict
    /// each other (`x` and `¬x` both assumed).
    pub fn final_id(&self) -> Option<ClauseId> {
        self.final_clause
    }

    /// Whether the log contains a derivation of the empty clause.
    pub fn unsat(&self) -> bool {
        self.empty.is_some()
    }

    /// The add/delete event stream, in database order.
    pub fn events(&self) -> &[ProofEvent] {
        &self.events
    }

    /// Sets the partition label stamped on subsequently registered
    /// clauses (interpolation tags the A/B sides this way).
    pub fn set_label(&mut self, label: u32) {
        self.label = label;
    }

    // ------------------------------------------------------------------
    // Producer surface (the solver).
    // ------------------------------------------------------------------

    pub(crate) fn register_root(&mut self, lits: &[SatLit]) -> ClauseId {
        let id = self.clauses.len() as ClauseId;
        self.clauses.push(ProofClause {
            lits: lits.to_vec(),
            label: self.label,
            chain: None,
        });
        id
    }

    pub(crate) fn register_derived(
        &mut self,
        lits: &[SatLit],
        base: ClauseId,
        steps: Vec<(SatVar, ClauseId)>,
    ) -> ClauseId {
        let id = self.clauses.len() as ClauseId;
        self.clauses.push(ProofClause {
            lits: lits.to_vec(),
            label: self.label,
            chain: Some(Chain { base, steps }),
        });
        self.events.push(ProofEvent::Add(id));
        id
    }

    pub(crate) fn set_empty(&mut self, id: ClauseId) {
        debug_assert!(self.clauses[id as usize].lits.is_empty());
        debug_assert!(self.empty.is_none(), "empty clause derived twice");
        self.empty = Some(id);
    }

    pub(crate) fn set_final(&mut self, id: ClauseId) {
        self.final_clause = Some(id);
    }

    pub(crate) fn clear_final(&mut self) {
        self.final_clause = None;
    }

    pub(crate) fn map_cref(&mut self, c: CRef, id: ClauseId) {
        let prev = self.cref.insert(c.0, id);
        debug_assert!(prev.is_none(), "arena slot registered twice");
    }

    pub(crate) fn cref_id(&self, c: CRef) -> ClauseId {
        *self.cref.get(&c.0).expect("live clause missing from proof")
    }

    /// Records the deletion of the clause at `c` and drops the arena
    /// mapping (must run before compaction invalidates the `CRef`).
    pub(crate) fn delete_cref(&mut self, c: CRef) {
        let id = self
            .cref
            .remove(&c.0)
            .expect("deleted clause missing from proof");
        self.events.push(ProofEvent::Delete(id));
    }

    /// Forwards every live `CRef` key across an arena compaction.
    pub(crate) fn remap(&mut self, remap: &ArenaRemap) {
        self.cref = std::mem::take(&mut self.cref)
            .into_iter()
            .map(|(off, id)| (remap.forward(CRef(off)).0, id))
            .collect();
    }

    pub(crate) fn set_unit(&mut self, v: SatVar, id: ClauseId) {
        if self.unit.len() <= v.index() {
            self.unit.resize(v.index() + 1, None);
        }
        self.unit[v.index()] = Some(id);
    }

    pub(crate) fn unit_id(&self, v: SatVar) -> ClauseId {
        self.unit
            .get(v.index())
            .copied()
            .flatten()
            .expect("level-0 assignment without a recorded unit derivation")
    }

    pub(crate) fn clear_unit(&mut self, v: SatVar) {
        if let Some(slot) = self.unit.get_mut(v.index()) {
            *slot = None;
        }
    }

    pub(crate) fn stash(&mut self, base: ClauseId, steps: Vec<(SatVar, ClauseId)>) {
        debug_assert!(self.pending.is_none(), "unconsumed analysis chain");
        self.pending = Some(Chain { base, steps });
    }

    pub(crate) fn take_stash_as(&mut self, lits: &[SatLit]) -> ClauseId {
        let chain = self.pending.take().expect("no stashed analysis chain");
        self.register_derived(lits, chain.base, chain.steps)
    }

    // ------------------------------------------------------------------
    // Consumers: replay, verification, DRAT emission.
    // ------------------------------------------------------------------

    /// Replays the chain of `id` with set semantics and returns the
    /// sorted resolvent.
    ///
    /// # Errors
    ///
    /// Reports a malformed chain: a pivot absent from either side or
    /// present with the same phase on both.
    pub fn replay(&self, id: ClauseId) -> Result<Vec<SatLit>, String> {
        let c = &self.clauses[id as usize];
        let mut cur: Vec<SatLit> = match &c.chain {
            None => c.lits.clone(),
            Some(chain) => {
                let mut cur = self.clauses[chain.base as usize].lits.clone();
                for &(pivot, side) in &chain.steps {
                    let here = cur.iter().find(|l| l.var() == pivot).copied();
                    let Some(here) = here else {
                        return Err(format!("clause {id}: pivot {pivot:?} not in resolvent"));
                    };
                    cur.retain(|l| l.var() != pivot);
                    let side_lits = &self.clauses[side as usize].lits;
                    if !side_lits.contains(&!here) {
                        return Err(format!("clause {id}: side clause {side} lacks {:?}", !here));
                    }
                    if side_lits.contains(&here) {
                        return Err(format!("clause {id}: pivot {pivot:?} same-phase"));
                    }
                    for &l in side_lits {
                        if l.var() != pivot && !cur.contains(&l) {
                            cur.push(l);
                        }
                    }
                }
                cur
            }
        };
        cur.sort_unstable();
        cur.dedup();
        Ok(cur)
    }

    /// Replays every derived clause and checks the resolvent matches the
    /// stored literals (and that the empty clause, if any, is empty).
    ///
    /// # Errors
    ///
    /// Reports the first clause whose chain does not replay to its
    /// stored literals.
    pub fn verify(&self) -> Result<(), String> {
        for id in 0..self.clauses.len() as ClauseId {
            if self.is_root(id) {
                continue;
            }
            let got = self.replay(id)?;
            let mut want = self.clauses[id as usize].lits.clone();
            want.sort_unstable();
            want.dedup();
            if got != want {
                return Err(format!(
                    "clause {id}: chain replays to {got:?}, stored {want:?}"
                ));
            }
        }
        Ok(())
    }

    /// Serialises the event stream as a DRAT proof, or `None` while no
    /// empty clause has been derived (a SAT answer, or UNSAT only under
    /// assumptions, certifies nothing).
    pub fn to_drat(&self) -> Option<String> {
        self.empty?;
        let mut out = String::new();
        for &ev in &self.events {
            let (prefix, id) = match ev {
                ProofEvent::Add(id) => ("", id),
                ProofEvent::Delete(id) => ("d ", id),
            };
            out.push_str(prefix);
            for &l in &self.clauses[id as usize].lits {
                let n = l.var().index() as i64 + 1;
                let n = if l.is_negative() { -n } else { n };
                out.push_str(&format!("{n} "));
            }
            out.push_str("0\n");
            if ProofEvent::Add(id) == ev && self.empty == Some(id) {
                break;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;
    use crate::types::SatResult;

    fn php(s: &mut Solver, p: usize, h: usize) {
        let v: Vec<Vec<SatVar>> = (0..p)
            .map(|_| (0..h).map(|_| s.new_var()).collect())
            .collect();
        for row in &v {
            let clause: Vec<SatLit> = row.iter().map(|x| x.pos()).collect();
            s.add_clause(&clause);
        }
        for (i1, row1) in v.iter().enumerate() {
            for row2 in &v[i1 + 1..] {
                for (a, b) in row1.iter().zip(row2) {
                    s.add_clause(&[a.neg(), b.neg()]);
                }
            }
        }
    }

    #[test]
    fn trace_ends_in_empty_clause_and_replays() {
        let mut s = Solver::new();
        s.set_proof_mode(ProofMode::Trace);
        php(&mut s, 4, 3);
        assert_eq!(s.solve(), SatResult::Unsat);
        let p = s.proof().expect("trace mode keeps the log");
        assert!(p.unsat());
        assert!(p.lits(p.empty_id().unwrap()).is_empty());
        p.verify().expect("every chain must replay");
    }

    #[test]
    fn deletions_survive_reduce_and_purge() {
        let mut s = Solver::new();
        s.set_proof_mode(ProofMode::Trace);
        s.force_reduce_db_for_tests();
        php(&mut s, 7, 6);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().reduces > 0, "reduce-DB never ran");
        let p = s.proof().unwrap();
        assert!(
            p.events()
                .iter()
                .any(|e| matches!(e, ProofEvent::Delete(_))),
            "no deletion events recorded"
        );
        p.verify().expect("chains must survive compaction");
    }

    #[test]
    fn level0_simplification_is_derived() {
        let mut s = Solver::new();
        s.set_proof_mode(ProofMode::Trace);
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[a.pos()]);
        // `!a` is dropped at add time: the stored clause is derived.
        s.add_clause(&[a.neg(), b.pos(), c.pos()]);
        s.add_clause(&[b.neg()]);
        s.add_clause(&[c.neg()]);
        assert_eq!(s.solve(), SatResult::Unsat);
        let p = s.proof().unwrap();
        assert!(p.unsat());
        p.verify().unwrap();
    }

    #[test]
    fn sat_answers_certify_nothing() {
        let mut s = Solver::new();
        s.set_proof_mode(ProofMode::Drat);
        let a = s.new_var();
        s.add_clause(&[a.pos()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(!s.proof().unwrap().unsat());
        assert_eq!(s.drat_proof(), None);
    }

    #[test]
    fn unsat_under_assumptions_only_is_not_certified() {
        let mut s = Solver::new();
        s.set_proof_mode(ProofMode::Trace);
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos(), b.pos()]);
        assert_eq!(s.solve_with(&[a.neg(), b.neg()]), SatResult::Unsat);
        assert!(!s.proof().unwrap().unsat());
        assert_eq!(s.drat_proof(), None);
        // The database itself stays satisfiable.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn unsat_under_assumptions_logs_the_final_clause() {
        let mut s = Solver::new();
        s.set_proof_mode(ProofMode::Trace);
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let d = s.new_var();
        s.add_clause(&[a.neg(), b.pos()]);
        s.add_clause(&[b.neg(), d.neg(), c.pos()]);
        // Added last, so `c`'s reason keeps its level-0 literal `¬d`.
        s.add_clause(&[d.pos()]);
        assert_eq!(s.solve_with(&[a.pos(), c.neg()]), SatResult::Unsat);
        let p = s.proof().unwrap();
        let id = p.final_id().expect("final clause logged");
        let mut lits = p.lits(id).to_vec();
        lits.sort_unstable();
        let mut want: Vec<SatLit> = s.failed_assumptions().iter().map(|&l| !l).collect();
        want.sort_unstable();
        assert_eq!(lits, want);
        assert_eq!(p.replay(id).unwrap(), lits, "chain must resolve `d` away");
        p.verify().unwrap();
        assert!(!p.unsat() && s.drat_proof().is_none());
        // An assumption falsified at level 0: its unit is the final clause.
        assert_eq!(s.solve_with(&[b.pos(), d.neg()]), SatResult::Unsat);
        let p = s.proof().unwrap();
        assert_eq!(p.lits(p.final_id().unwrap()), &[d.pos()]);
        // SAT answers and assumption-free solves clear it.
        assert_eq!(s.solve_with(&[a.pos()]), SatResult::Sat);
        assert_eq!(s.proof().unwrap().final_id(), None);
        assert_eq!(s.solve_with(&[b.pos(), c.neg()]), SatResult::Unsat);
        assert!(s.proof().unwrap().final_id().is_some());
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.proof().unwrap().final_id(), None);
    }

    #[test]
    fn labels_stamp_registration_order() {
        let mut s = Solver::new();
        s.set_proof_mode(ProofMode::Trace);
        let a = s.new_var();
        let b = s.new_var();
        s.set_proof_label(1);
        s.add_clause(&[a.pos(), b.pos()]);
        s.set_proof_label(2);
        s.add_clause(&[a.neg(), b.pos()]);
        let p = s.proof().unwrap();
        assert_eq!(p.clause_label(0), 1);
        assert_eq!(p.clause_label(1), 2);
    }

    #[test]
    fn proof_mode_off_keeps_no_log() {
        let mut s = Solver::new();
        s.set_proof_mode(ProofMode::Off);
        let a = s.new_var();
        s.add_clause(&[a.pos()]);
        s.add_clause(&[a.neg()]);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.proof().is_none());
        assert_eq!(s.drat_proof(), None);
    }
}
