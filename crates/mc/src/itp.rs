//! Interpolation-based unbounded model checking (McMillan, CAV 2003) on
//! the proof-logging SAT core.
//!
//! Each iteration solves one *bounded* reachability query partitioned
//! into two labelled clause sets:
//!
//! - `A` — the current reachability over-approximation `R(L)` conjoined
//!   with one functional transition step `⋀ᵢ yᵢ ≡ δᵢ(L, P₀)`, where the
//!   `yᵢ` are fresh AIG inputs standing for the next state (the *cut*);
//! - `B` — `bad` asserted at every time step `1 … k`, functionally
//!   unrolled from the cut (`s₁ = Y`, `s_{j+1} = δ(s_j, P_j)` over fresh
//!   input frames) by the crate's one unroller, `bmc::Unroller`, started
//!   at the cut on the run's own manager.
//!
//! When the query is UNSAT, the in-memory resolution trace
//! ([`cbq_sat::ProofLog`], recorded under [`cbq_sat::ProofMode::Trace`])
//! is labelled by the standard McMillan rules into a Craig interpolant
//! `I(Y)`: an AIG cone over the cut variables that over-approximates the
//! post-image of `R` and still cannot reach `bad` within the unrolling.
//! Substituting `Y → L` (one [`Aig::compose_many`] call — strashing keeps
//! the iterated disjunction compact) gives the next `R := R ∨ I`; when
//! `I ⊆ R` the sequence has closed and `R` is an inductive invariant
//! excluding `bad`, so the model is **safe**. A SAT answer with `R`
//! still equal to the initial states is a *concrete* counterexample of
//! depth ≤ `k`, delegated to [`Bmc`] for a minimal trace within what is
//! left of the caller's budget; with `R` widened it is abstract — the
//! unrolling deepens and `R` resets.
//!
//! One proof-logging bridge serves the whole run, and nothing but Tseitin
//! definitions is ever asserted on it, so no learnt clause ever needs to
//! be retracted. Each query encodes only the AIG nodes added since the
//! previous one — `A` cones labelled `A` (the transition link first, so a
//! node it shares with the unrolling stays on the `A` side), new `B`
//! frames labelled `B` — and poses the `A` root `R ∧ a_eq` and the `B`
//! root `b_any` as assumptions. An UNSAT answer ends in the proof log's
//! *final clause* ([`ProofLog::final_id`]), the negated failed
//! assumptions; resolving it with the assumption units gives the empty
//! clause and leaves its McMillan label unchanged, so that label is the
//! interpolant. The bridge's activation literal guards every clause and
//! is assumed by every solve, so it occurs on both sides: read as ⊤, the
//! interpolant separates the `act = 1` cofactors, which are the real `A`
//! and `B`. The global variables are read from the log's `B` roots at
//! query time, because a new frame can reach latches the previous ones
//! did not. The depth-0 check, the fixpoint test and the stuck-latch
//! probes run on the same bridge: it holds only definitions and what
//! they imply.

use std::collections::HashMap;
use std::sync::Arc;

use cbq_aig::{Aig, Lit, Var};
use cbq_ckt::{Network, Trace};
use cbq_cnf::{AigCnf, AigCnfStats};
use cbq_sat::{ClauseId, ProofLog, ProofMode, SatResult, SatVar, SolverStats};

use crate::bmc::{Bmc, Unroller};
use crate::bus::LemmaBus;
use crate::engine::{cite_caller, Budget, Engine, Meter};
use crate::verdict::{McRun, McStats, Verdict};

/// Proof-plane label of the `A` partition (prefix: `R` + one step).
const LABEL_A: u32 = 1;
/// Proof-plane label of the `B` partition (suffix: the bad unrolling).
const LABEL_B: u32 = 2;

/// The interpolation engine.
#[derive(Clone, Debug)]
pub struct Itp {
    /// Maximum unrolling bound `k`. Interpolation refutes within the
    /// current bound and deepens only on abstract counterexamples, so
    /// this caps the *restart* ladder, not the counterexample depth.
    pub max_frames: usize,
    /// The parallel portfolio's [`LemmaBus`]. On a safe verdict the
    /// engine publishes singleton stuck-latch invariants it can prove
    /// inductive outright (consumers re-validate — zero trust).
    pub bus: Option<Arc<LemmaBus>>,
}

impl Default for Itp {
    fn default() -> Itp {
        Itp {
            max_frames: 64,
            bus: None,
        }
    }
}

/// Statistics of an [`Itp`] run.
#[derive(Clone, Debug, Default)]
pub struct ItpStats {
    /// Final unrolling bound `k`.
    pub frames: usize,
    /// Interpolants folded into `R` (`R := R ∨ I` refinements).
    pub refinements: u64,
    /// Abstract counterexamples: bound increments that reset `R`.
    pub restarts: u64,
    /// Interpolants derived from resolution traces.
    pub interpolants: u64,
    /// Resolution-trace clauses labelled, total (labels are memoised until
    /// a new frame grows the global set).
    pub trace_clauses: u64,
    /// AIG cone size of the last interpolant (over the cut variables).
    pub itp_nodes: usize,
    /// Singleton invariants published on the lemma bus.
    pub published: u64,
    /// SAT checks on the run's bridge plus BMC delegation's.
    pub checks: u64,
    /// Solver-core counters of the run's bridge (not of BMC delegation).
    pub solver: SolverStats,
    /// Counters of the run's bridge.
    pub cnf: AigCnfStats,
}

/// Bundles the typed stats into the uniform run record.
fn finish(verdict: Verdict, stats: ItpStats, peak_nodes: usize, meter: &Meter) -> McRun {
    let common = McStats {
        engine: "itp",
        iterations: stats.frames,
        peak_nodes,
        sat_checks: stats.checks,
        elapsed: meter.elapsed(),
    };
    McRun::new(verdict, common).with_detail(stats)
}

impl Engine for Itp {
    fn name(&self) -> &'static str {
        "itp"
    }

    /// Runs interpolation on `net` within `budget` (`max_steps` caps the
    /// unrolling bound).
    fn check(&self, net: &Network, budget: &Budget) -> McRun {
        let meter = Meter::start(budget);
        let mut run = ItpRun::new(self, net);
        let verdict = run.solve(&meter, net, budget);
        let peak = run.unroll.aig.num_nodes();
        let checks = run.checks();
        let mut stats = run.stats;
        stats.checks = checks;
        stats.solver = run.unroll.cnf.solver_stats();
        stats.cnf = run.unroll.cnf.stats();
        finish(verdict, stats, peak, &meter)
    }
}

struct ItpRun<'a> {
    cfg: &'a Itp,
    /// The `B` unrolling from the cut `Y`, on the run's own manager and
    /// its one proof-logging bridge; every query is posed on that bridge
    /// as assumptions.
    unroll: Unroller,
    pis: Vec<Var>,
    latches: Vec<Var>,
    deltas: Vec<Lit>,
    init_state: Vec<bool>,
    init_lit: Lit,
    bad: Lit,
    /// Fresh inputs standing for the next state (the interpolation cut).
    ys: Vec<Var>,
    /// `⋀ᵢ yᵢ ≡ δᵢ(L, P₀)` — the transition link, independent of `R`.
    a_eq: Lit,
    /// `bad(s₁) ∨ … ∨ bad(s_k)` for the frames built so far.
    b_any: Lit,
    labeller: Labeller,
    /// SAT checks of BMC delegation (the bridge counts its own).
    delegated_checks: u64,
    stats: ItpStats,
    #[cfg(test)]
    audit: tests::Audit,
}

impl<'a> ItpRun<'a> {
    fn new(cfg: &'a Itp, net: &Network) -> ItpRun<'a> {
        let mut aig = net.aig().clone();
        let init_lit = net.initial_cube().to_lit(&mut aig);
        let latches = net.latch_vars();
        let deltas: Vec<Lit> = net.latches().iter().map(|l| l.next).collect();
        let ys: Vec<Var> = latches.iter().map(|_| aig.add_input()).collect();
        let eqs: Vec<Lit> = ys
            .iter()
            .zip(&deltas)
            .map(|(y, d)| {
                let x = aig.xor(y.lit(), *d);
                !x
            })
            .collect();
        let a_eq = aig.and_many(&eqs);
        let cut: Vec<Lit> = ys.iter().map(|y| y.lit()).collect();
        // Everything but the `B` frames is labelled `A`.
        let mut cnf = AigCnf::new();
        cnf.set_proof_mode(ProofMode::Trace);
        cnf.set_clause_label(LABEL_A);
        ItpRun {
            cfg,
            unroll: Unroller::from_state(aig, cnf, cut),
            pis: net.primary_inputs().to_vec(),
            latches,
            deltas,
            init_state: net.initial_state(),
            init_lit,
            bad: net.bad(),
            ys,
            a_eq,
            b_any: Lit::FALSE,
            labeller: Labeller::default(),
            delegated_checks: 0,
            stats: ItpStats::default(),
            #[cfg(test)]
            audit: tests::Audit::default(),
        }
    }

    /// SAT checks so far: the bridge's plus BMC delegation's.
    fn checks(&self) -> u64 {
        self.unroll.cnf.stats().checks + self.delegated_checks
    }

    fn solve(&mut self, meter: &Meter, net: &Network, budget: &Budget) -> Verdict {
        // Depth 0: `bad` inside the initial states needs no unrolling
        // (and the safety argument below assumes it has been excluded).
        if self
            .unroll
            .cnf
            .solve_under(&self.unroll.aig, &[self.init_lit, self.bad])
            == SatResult::Sat
        {
            let trace = Trace::new(vec![self.unroll.cnf.model_of(&self.pis)]);
            return Verdict::Unsafe { trace };
        }

        let mut k = 1;
        let mut r_lit = self.init_lit;
        loop {
            if self.unroll.bads.len() < k {
                // `B` frame k: `bad` at time k joins `b_any`.
                let bad_k = self.unroll.push_frame(net);
                self.b_any = self.unroll.aig.or(self.b_any, bad_k);
            }
            self.stats.frames = k;
            if let Some(bounded) = meter.exceeded(k - 1, self.unroll.aig.num_nodes(), self.checks())
            {
                return bounded;
            }
            if self.b_any == Lit::FALSE {
                // `bad` collapsed to constant false from an *unconstrained*
                // frame-1 state: unreachable at any positive time, and
                // depth 0 is already excluded.
                return self.conclude_safe(k);
            }
            let a_lit = self.unroll.aig.and(r_lit, self.a_eq);
            match self.bounded_query(a_lit) {
                QueryResult::Sat => {
                    if r_lit == self.init_lit {
                        // Concrete counterexample within k steps: delegate
                        // to BMC for a minimal-depth trace.
                        return self.delegate_cex(net, meter, budget, k);
                    }
                    // Abstract counterexample: deepen and restart.
                    if k >= self.cfg.max_frames {
                        return Verdict::Unknown {
                            reason: format!("interpolation frame bound {k} reached"),
                        };
                    }
                    self.stats.restarts += 1;
                    k += 1;
                    r_lit = self.init_lit;
                }
                QueryResult::Unsat(itp_y) => {
                    self.stats.interpolants += 1;
                    self.stats.itp_nodes = self.unroll.aig.collect_cone(&[itp_y]).len();
                    let sub: Vec<(Var, Lit)> = self
                        .ys
                        .iter()
                        .zip(&self.latches)
                        .map(|(y, l)| (*y, l.lit()))
                        .collect();
                    let itp_l = self.unroll.aig.compose_many(&[itp_y], &sub)[0];
                    // Fixpoint test: I ⊆ R closes the approximation
                    // sequence — R is inductive and excludes `bad`.
                    let contained = self
                        .unroll
                        .cnf
                        .solve_under(&self.unroll.aig, &[itp_l, !r_lit])
                        == SatResult::Unsat;
                    #[cfg(test)]
                    self.audit.fixpoints.push((itp_l, r_lit, contained));
                    if contained {
                        return self.conclude_safe(k);
                    }
                    r_lit = self.unroll.aig.or(r_lit, itp_l);
                    self.stats.refinements += 1;
                }
                QueryResult::Broken(reason) => return Verdict::Unknown { reason },
            }
        }
    }

    /// One bounded query `A(R) ∧ B` on the run's bridge: encodes what
    /// earlier queries left unencoded (`A` cones labelled `A`, new frames
    /// `B`), then assumes both roots. UNSAT answers return the Craig
    /// interpolant over the cut.
    fn bounded_query(&mut self, a_lit: Lit) -> QueryResult {
        self.unroll.cnf.ensure(&self.unroll.aig, a_lit);
        self.unroll.cnf.set_clause_label(LABEL_B);
        self.unroll.cnf.ensure(&self.unroll.aig, self.b_any);
        self.unroll.cnf.set_clause_label(LABEL_A);
        match self
            .unroll
            .cnf
            .solve_under(&self.unroll.aig, &[a_lit, self.b_any])
        {
            SatResult::Sat => QueryResult::Sat,
            SatResult::Unknown => QueryResult::Broken("solver returned unknown".into()),
            SatResult::Unsat => {
                let result = self.interpolate();
                #[cfg(test)]
                if let QueryResult::Unsat(itp) = result {
                    self.audit.interpolants.push((a_lit, self.b_any, itp));
                }
                result
            }
        }
    }

    /// Labels the refutation the last UNSAT answer logged.
    fn interpolate(&mut self) -> QueryResult {
        let proof = self
            .unroll
            .cnf
            .solver()
            .proof()
            .expect("the bridge logs proofs");
        let Some(root) = proof.final_id().or(proof.empty_id()) else {
            return QueryResult::Broken("UNSAT answer without a logged refutation".into());
        };
        // Map the cut, the constant node and the activation literal (read
        // as ⊤) back to AIG literals; the interpolant mentions nothing else.
        let fixed = [
            (self.unroll.cnf.sat_lit(Lit::FALSE), Lit::FALSE),
            (self.unroll.cnf.activation(), Lit::TRUE),
        ];
        let cut = self
            .ys
            .iter()
            .map(|y| (self.unroll.cnf.sat_lit(y.lit()), y.lit()));
        let rev: HashMap<SatVar, Lit> = cut
            .chain(fixed)
            .filter_map(|(sl, l)| sl.map(|sl| (sl.var(), l.xor_sign(sl.is_negative()))))
            .collect();
        self.labeller
            .scan_b_roots(proof, self.unroll.cnf.solver().num_vars());
        match self.labeller.mcmillan(
            &mut self.unroll.aig,
            proof,
            root,
            &rev,
            &mut self.stats.trace_clauses,
        ) {
            Ok(itp) => QueryResult::Unsat(itp),
            Err(e) => QueryResult::Broken(e),
        }
    }

    /// Safe conclusion: publish the singleton stuck-latch invariants the
    /// engine can prove inductive outright (each one query; consumers
    /// re-validate, so this can cost queries but never verdicts).
    fn conclude_safe(&mut self, k: usize) -> Verdict {
        if let Some(bus) = &self.cfg.bus {
            for (ord, (latch, delta)) in self.latches.iter().zip(&self.deltas).enumerate() {
                let b = self.init_state[ord];
                // `latch = b ∧ δ = ¬b` UNSAT ⇒ the latch can never leave
                // its initial value, so the cube (ord, ¬b) is unreachable.
                let stay = latch.lit().xor_sign(!b);
                let leave = delta.xor_sign(b);
                let res = self
                    .unroll
                    .cnf
                    .solve_under(&self.unroll.aig, &[stay, leave]);
                if res == SatResult::Unsat && bus.publish_inductive(vec![(ord, !b)]) {
                    self.stats.published += 1;
                }
            }
        }
        Verdict::Safe { iterations: k }
    }

    /// A concrete counterexample of depth ≤ k exists: run BMC capped at
    /// that depth so the reported trace is minimal. BMC gets what is
    /// left of the caller's budget — the SAT checks and the wall clock
    /// the run has not spent; steps and nodes pass whole, since BMC
    /// stops at depth k anyway and nodes is a peak — and a `Bounded`
    /// answer cites the caller's limit.
    fn delegate_cex(&mut self, net: &Network, meter: &Meter, budget: &Budget, k: usize) -> Verdict {
        let left = Budget {
            max_sat_checks: budget
                .max_sat_checks
                .map(|s| s.saturating_sub(self.checks())),
            timeout: budget.timeout.map(|t| t.saturating_sub(meter.elapsed())),
            ..budget.clone()
        };
        let bmc = Bmc {
            max_depth: k,
            ..Bmc::default()
        };
        let run = bmc.check(net, &left);
        self.delegated_checks += run.stats.sat_checks;
        cite_caller(budget, run.verdict)
    }
}

enum QueryResult {
    Sat,
    /// UNSAT, with the interpolant over the cut variables.
    Unsat(Lit),
    /// The trace could not be labelled (never expected; reported as an
    /// `Unknown` verdict instead of panicking inside a portfolio).
    Broken(String),
}

/// McMillan labelling state kept across one run's queries.
///
/// A clause's partial interpolant depends only on the root labels below
/// it and on the global set, so labels are memoised across queries until
/// the global set grows (a new frame adds `B` roots over fresh variables).
#[derive(Default)]
struct Labeller {
    /// Variables occurring in some `B` root clause: the global set.
    in_b: Vec<bool>,
    /// Log clauses already scanned for `B` roots.
    scanned: usize,
    /// Partial interpolant of every clause labelled under the current
    /// global set.
    value: Vec<Option<Lit>>,
    /// Clauses the current labelling pass has visited (reset after it).
    needed: Vec<bool>,
}

impl Labeller {
    /// Adds the variables of the `B` roots logged since the last call to
    /// the global set, dropping every memoised label if it grew.
    fn scan_b_roots(&mut self, proof: &ProofLog, num_vars: usize) {
        if self.in_b.len() < num_vars {
            self.in_b.resize(num_vars, false);
        }
        let mut grew = false;
        for id in self.scanned..proof.num_clauses() {
            let id = id as ClauseId;
            if proof.is_root(id) && proof.clause_label(id) == LABEL_B {
                for l in proof.lits(id) {
                    grew |= !std::mem::replace(&mut self.in_b[l.var().index()], true);
                }
            }
        }
        self.scanned = proof.num_clauses();
        if grew {
            self.value.clear();
        }
    }

    /// McMillan labelling: one forward pass, in derivation order, over
    /// the resolution DAG rooted at `root`.
    ///
    /// Leaves (root clauses): an `A` clause contributes the disjunction of
    /// its literals over *global* variables (those occurring in any `B`
    /// root clause), each read through `rev`; a `B` clause contributes ⊤.
    /// A resolution step on pivot `v` joins the operands with ∨ when `v`
    /// is `A`-local and ∧ otherwise. Partition membership keys on
    /// **root** labels only — derived clauses carry whatever label was
    /// active when they were learnt.
    fn mcmillan(
        &mut self,
        aig: &mut Aig,
        proof: &ProofLog,
        root: ClauseId,
        rev: &HashMap<SatVar, Lit>,
        walked: &mut u64,
    ) -> Result<Lit, String> {
        let n = proof.num_clauses();
        self.needed.resize(n, false);
        self.value.resize(n, None);
        // The unlabelled clauses the root's derivation depends on. Ids are
        // allocated in derivation order, so ascending ids are a
        // topological order.
        let mut order: Vec<ClauseId> = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if self.value[id as usize].is_some()
                || std::mem::replace(&mut self.needed[id as usize], true)
            {
                continue;
            }
            order.push(id);
            if let Some((base, steps)) = proof.chain(id) {
                stack.push(base);
                stack.extend(steps.iter().map(|&(_, side)| side));
            }
        }
        order.sort_unstable();
        for &id in &order {
            self.needed[id as usize] = false;
        }
        *walked += order.len() as u64;
        for id in order {
            let value = match proof.chain(id) {
                None if proof.clause_label(id) == LABEL_B => Lit::TRUE,
                None => {
                    let mut acc = Lit::FALSE;
                    for l in proof.lits(id) {
                        if self.in_b[l.var().index()] {
                            let base = rev.get(&l.var()).ok_or_else(|| {
                                format!("global sat var {} outside the cut", l.var().index())
                            })?;
                            acc = aig.or(acc, base.xor_sign(l.is_negative()));
                        }
                    }
                    acc
                }
                Some((base, steps)) => {
                    let mut acc = self.value_of(base)?;
                    for &(pivot, side) in steps {
                        let s = self.value_of(side)?;
                        acc = if self.in_b[pivot.index()] {
                            aig.and(acc, s)
                        } else {
                            aig.or(acc, s)
                        };
                    }
                    acc
                }
            };
            self.value[id as usize] = Some(value);
        }
        self.value_of(root)
    }

    fn value_of(&self, id: ClauseId) -> Result<Lit, String> {
        self.value[id as usize].ok_or_else(|| "chain references a later clause".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{check_safe, check_unsafe};
    use cbq_ckt::generators;

    /// What the audit test re-checks on fresh proof-free bridges.
    #[derive(Default)]
    pub(super) struct Audit {
        /// Every interpolant: (`A` root, `B` root, `I` over the cut).
        pub(super) interpolants: Vec<(Lit, Lit, Lit)>,
        /// Every fixpoint test: (`I` over the latches, `R`, contained).
        pub(super) fixpoints: Vec<(Lit, Lit, bool)>,
    }

    #[test]
    fn proves_safe_models() {
        check_safe(&Itp::default(), &generators::mutex());
        check_safe(&Itp::default(), &generators::token_ring(4));
        check_safe(&Itp::default(), &generators::gray_counter(4));
        check_safe(&Itp::default(), &generators::bounded_counter_gap(4, 6, 12));
    }

    #[test]
    fn refutes_with_minimal_traces() {
        check_unsafe(&Itp::default(), &generators::mutex_bug(), Some(2));
        check_unsafe(&Itp::default(), &generators::token_ring_bug(5), Some(3));
        check_unsafe(&Itp::default(), &generators::counter_bug(4, 6), Some(6));
    }

    #[test]
    fn reports_stats_and_converges() {
        let run = Itp::default().check(
            &generators::token_ring(4),
            &crate::engine::Budget::unlimited(),
        );
        assert!(run.verdict.is_safe());
        let detail = run.detail::<ItpStats>().expect("itp stats");
        assert!(detail.frames >= 1, "no frame opened");
        assert!(detail.interpolants >= 1, "safety without an interpolant");
        assert!(detail.checks > 0);
        assert_eq!(run.stats.sat_checks, detail.checks);
    }

    #[test]
    fn frame_cap_reports_unknown() {
        // The gap counter needs deeper unrollings than one frame before
        // the interpolant sequence closes; a bound of 1 must give up
        // with Unknown, never a wrong verdict.
        let capped = Itp {
            max_frames: 1,
            ..Itp::default()
        };
        let run = capped.check(
            &generators::bounded_counter_gap(4, 6, 12),
            &crate::engine::Budget::unlimited(),
        );
        assert!(
            matches!(run.verdict, Verdict::Unknown { .. }) || run.verdict.is_safe(),
            "cap must stay sound, got {}",
            run.verdict
        );
        assert!(!run.verdict.is_unsafe());
    }

    #[test]
    fn interpolants_separate_and_fixpoints_match_fresh_bridges() {
        // Every interpolant the shared bridge yields must separate the
        // real sides: `R ∧ a_eq ∧ ¬I` and `I ∧ b_any` are UNSAT on fresh
        // proof-free bridges. Every shared fixpoint answer must equal a
        // fresh bridge's.
        let mut models = vec![
            generators::token_ring(5),
            generators::gray_counter(4),
            generators::arbiter(4),
            generators::mutex(),
            generators::lfsr(5, &[0, 2]),
            generators::fifo_ctrl(2),
            generators::token_ring_bug(5),
            generators::mutex_bug(),
            generators::shift_ones(4),
            generators::bounded_counter_gap(4, 6, 12),
            generators::bounded_counter_gap(5, 10, 20),
        ];
        models.extend((6..12).map(|k| generators::counter_bug(6, k)));
        let budget = crate::engine::Budget::unlimited();
        let (mut interpolants, mut fixpoints) = (0, 0);
        for net in &models {
            let cfg = Itp::default();
            let mut run = ItpRun::new(&cfg, net);
            let verdict = run.solve(&Meter::start(&budget), net, &budget);
            for &(a, b, itp) in &run.audit.interpolants {
                let mut fresh = AigCnf::new();
                let a_side = fresh.solve_under(&run.unroll.aig, &[a, !itp]);
                assert_eq!(a_side, SatResult::Unsat, "{}: A ⊄ I", net.name());
                let mut fresh = AigCnf::new();
                let b_side = fresh.solve_under(&run.unroll.aig, &[itp, b]);
                assert_eq!(b_side, SatResult::Unsat, "{}: I meets B", net.name());
            }
            for &(itp_l, r, contained) in &run.audit.fixpoints {
                let mut fresh = AigCnf::new();
                let fresh_contained =
                    fresh.solve_under(&run.unroll.aig, &[itp_l, !r]) == SatResult::Unsat;
                assert_eq!(contained, fresh_contained, "{}: fixpoint test", net.name());
            }
            assert!(
                !matches!(verdict, Verdict::Unknown { .. }),
                "{}: {verdict}",
                net.name()
            );
            interpolants += run.audit.interpolants.len();
            fixpoints += run.audit.fixpoints.len();
        }
        assert!(
            interpolants > 50 && fixpoints > 50,
            "{interpolants} / {fixpoints}"
        );
    }

    #[test]
    fn publishes_singleton_invariants_on_safe() {
        use cbq_ckt::Network;
        // One latch stuck at its initial value (next = itself), bad when
        // it flips: safe, and the stuck-latch probe must publish.
        let mut b = Network::builder("stuck");
        let l = b.add_latch(false);
        b.set_next(l, l.lit());
        let net = b.build(l.lit());
        let bus = Arc::new(LemmaBus::new());
        let engine = Itp {
            bus: Some(bus.clone()),
            ..Itp::default()
        };
        let run = engine.check(&net, &crate::engine::Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
        let detail = run.detail::<ItpStats>().expect("itp stats");
        assert_eq!(detail.published, 1, "the stuck latch publishes");
    }

    #[test]
    fn bmc_delegation_spends_only_what_is_left() {
        use crate::verdict::Resource;
        // The interpolation bridge finds the concrete counterexample and
        // BMC delegation extracts the minimal trace.
        let net = generators::counter_bug(6, 12);
        let unlimited = Itp::default().check(&net, &crate::engine::Budget::unlimited());
        let total = unlimited.stats.sat_checks;
        let bridge = unlimited
            .detail::<ItpStats>()
            .expect("itp stats")
            .cnf
            .checks;
        assert!(bridge < total, "BMC delegation ran");
        // The unlimited run's own spend suffices.
        let budget = crate::engine::Budget::unlimited().with_sat_checks(total);
        let run = Itp::default().check(&net, &budget);
        assert_eq!(
            run.verdict.trace().map(Trace::len),
            Some(13),
            "got {}",
            run.verdict
        );
        assert!(run.stats.sat_checks <= total);
        // One check past the bridge's own: the delegate runs dry and the
        // verdict cites the caller's limit.
        let limit = bridge + 1;
        let budget = crate::engine::Budget::unlimited().with_sat_checks(limit);
        let run = Itp::default().check(&net, &budget);
        let expected = Verdict::Bounded {
            resource: Resource::SatChecks,
            limit,
        };
        assert_eq!(run.verdict, expected);
        assert!(
            run.stats.sat_checks <= limit,
            "{} > {limit}",
            run.stats.sat_checks
        );
    }
}
