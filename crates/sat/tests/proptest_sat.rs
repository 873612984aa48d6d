//! Property-based cross-checks of the CDCL solver against the exhaustive
//! reference oracle.

use proptest::prelude::*;

use cbq_sat::dimacs::Cnf;
use cbq_sat::drat::check_drat;
use cbq_sat::reference::{brute_force_count, brute_force_sat, ReferenceSolver};
use cbq_sat::{ProofMode, SatBackend, SatLit, SatResult, SatVar, Solver};

/// A random clause over `nvars` variables with 1..=4 literals.
fn clause_strategy(nvars: usize) -> impl Strategy<Value = Vec<SatLit>> {
    prop::collection::vec((0..nvars, any::<bool>()), 1..=4).prop_map(|lits| {
        lits.into_iter()
            .map(|(v, pos)| SatVar::from_index(v).lit(pos))
            .collect()
    })
}

fn cnf_strategy(nvars: usize, max_clauses: usize) -> impl Strategy<Value = Vec<Vec<SatLit>>> {
    prop::collection::vec(clause_strategy(nvars), 0..=max_clauses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The CDCL verdict agrees with exhaustive enumeration, and SAT models
    /// satisfy every clause.
    #[test]
    fn cdcl_agrees_with_brute_force(clauses in cnf_strategy(8, 40)) {
        let nvars = 8;
        let mut s = Solver::new();
        let vars: Vec<SatVar> = (0..nvars).map(|_| s.new_var()).collect();
        for c in &clauses {
            s.add_clause(c);
        }
        let expected = brute_force_sat(nvars, &clauses);
        match s.solve() {
            SatResult::Sat => {
                prop_assert!(expected.is_some(), "CDCL said SAT, oracle says UNSAT");
                for c in &clauses {
                    prop_assert!(
                        c.iter().any(|&l| {
                            let v = s.value(l.var()).unwrap_or(false);
                            v ^ l.is_negative()
                        }),
                        "model does not satisfy {c:?}"
                    );
                }
            }
            SatResult::Unsat => prop_assert!(expected.is_none(), "CDCL said UNSAT, oracle found a model"),
            SatResult::Unknown => prop_assert!(false, "no budget was set"),
        }
        let _ = vars;
    }

    /// Solving under assumptions equals solving with the assumptions added
    /// as unit clauses — and never damages the underlying database.
    #[test]
    fn assumptions_match_units(
        clauses in cnf_strategy(6, 24),
        assum in prop::collection::vec((0..6usize, any::<bool>()), 0..=3),
    ) {
        let nvars = 6;
        let mut incremental = Solver::new();
        let mut oracle_clauses = clauses.clone();
        for _ in 0..nvars {
            incremental.new_var();
        }
        for c in &clauses {
            incremental.add_clause(c);
        }
        // Deduplicate assumption variables to avoid contradictory pairs.
        let mut seen = std::collections::HashSet::new();
        let assumptions: Vec<SatLit> = assum
            .into_iter()
            .filter(|(v, _)| seen.insert(*v))
            .map(|(v, pos)| SatVar::from_index(v).lit(pos))
            .collect();
        for &a in &assumptions {
            oracle_clauses.push(vec![a]);
        }
        let expected = brute_force_sat(nvars, &oracle_clauses).is_some();
        let before = brute_force_sat(nvars, &clauses).is_some();
        let got = incremental.solve_with(&assumptions);
        prop_assert_eq!(got.is_sat(), expected);
        // The database itself must be untouched by the assumptions.
        let after = incremental.solve();
        prop_assert_eq!(after.is_sat(), before);
    }

    /// The arena solver and the reference backend agree through the
    /// [`SatBackend`] trait across *incremental* clause batches — the
    /// workload shape the activation-literal bridge produces (batches of
    /// guarded clauses between assumption solves).
    #[test]
    fn backends_agree_incrementally(
        batches in prop::collection::vec(cnf_strategy(7, 12), 1..=3),
        assum in prop::collection::vec((0..7usize, any::<bool>()), 0..=2),
    ) {
        let nvars = 7;
        let mut arena = Solver::new();
        let mut oracle = ReferenceSolver::new();
        for _ in 0..nvars {
            SatBackend::new_var(&mut arena);
            SatBackend::new_var(&mut oracle);
        }
        let mut seen = std::collections::HashSet::new();
        let assumptions: Vec<SatLit> = assum
            .into_iter()
            .filter(|(v, _)| seen.insert(*v))
            .map(|(v, pos)| SatVar::from_index(v).lit(pos))
            .collect();
        for batch in &batches {
            for c in batch {
                SatBackend::add_clause(&mut arena, c);
                SatBackend::add_clause(&mut oracle, c);
            }
            let a = SatBackend::solve(&mut arena);
            let o = SatBackend::solve(&mut oracle);
            prop_assert_eq!(a.is_sat(), o.is_sat(), "plain solve diverged");
            let a = SatBackend::solve_with(&mut arena, &assumptions);
            let o = SatBackend::solve_with(&mut oracle, &assumptions);
            prop_assert_eq!(a.is_sat(), o.is_sat(), "assumption solve diverged");
        }
    }

    /// Forcing tiny learnt caps (many reduce-DB rounds with arena
    /// compaction) never changes a verdict.
    #[test]
    fn reductions_preserve_verdicts(clauses in cnf_strategy(8, 48)) {
        let nvars = 8;
        let mut s = Solver::new();
        for _ in 0..nvars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        let expected = brute_force_sat(nvars, &clauses).is_some();
        prop_assert_eq!(s.solve().is_sat(), expected);
        // Re-solve under each single-literal assumption: stresses the
        // learnt database (and its reductions) across many related calls.
        for v in 0..nvars {
            for pos in [false, true] {
                let a = SatVar::from_index(v).lit(pos);
                let mut oracle_clauses = clauses.clone();
                oracle_clauses.push(vec![a]);
                let expect = brute_force_sat(nvars, &oracle_clauses).is_some();
                prop_assert_eq!(s.solve_with(&[a]).is_sat(), expect);
            }
        }
    }

    /// Every assumption-free UNSAT answer must come with a DRAT proof
    /// that the built-in RUP checker accepts — from either backend.
    #[test]
    fn unsat_proofs_check(clauses in cnf_strategy(7, 36)) {
        let nvars = 7;
        let cnf = Cnf { num_vars: nvars, clauses: clauses.clone() };
        let backends: Vec<Box<dyn SatBackend>> =
            vec![Box::new(Solver::new()), Box::new(ReferenceSolver::new())];
        for mut b in backends {
            b.set_proof_mode(ProofMode::Drat);
            for _ in 0..nvars {
                b.new_var();
            }
            for c in &clauses {
                b.add_clause(c);
            }
            if b.solve() == SatResult::Unsat {
                let proof = b.drat_proof();
                prop_assert!(proof.is_some(), "UNSAT without a certificate");
                let stats = check_drat(&cnf, &proof.unwrap());
                prop_assert!(stats.is_ok(), "proof rejected: {:?}", stats.err());
            } else {
                prop_assert_eq!(b.drat_proof(), None);
            }
        }
    }

    /// The in-memory resolution trace replays: every derived clause's
    /// chain resolves to its stored literals, across incremental solves.
    #[test]
    fn resolution_traces_replay(batches in prop::collection::vec(cnf_strategy(7, 14), 1..=3)) {
        let mut s = Solver::new();
        s.set_proof_mode(ProofMode::Trace);
        for _ in 0..7 {
            s.new_var();
        }
        for batch in &batches {
            for c in batch {
                s.add_clause(c);
            }
            let _ = s.solve();
            let verdict = s.proof().unwrap().verify();
            prop_assert!(verdict.is_ok(), "trace broken: {:?}", verdict.err());
        }
    }

    /// Proof logging is pure observation: decisions and conflicts are
    /// identical with proofs off and on.
    #[test]
    fn proof_logging_is_behaviourally_invisible(clauses in cnf_strategy(8, 40)) {
        let run = |mode: ProofMode| {
            let mut s = Solver::new();
            s.set_proof_mode(mode);
            for _ in 0..8 {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let r = s.solve();
            (r, s.stats().decisions, s.stats().conflicts, s.stats().propagations)
        };
        prop_assert_eq!(run(ProofMode::Off), run(ProofMode::Drat));
    }

    /// Trace mode logs a final clause for every UNSAT answer under
    /// assumptions: the negated failed assumptions, with a chain that
    /// replays, implied by the formula alone (checked by enumeration).
    /// SAT answers, assumption-free solves and refutations of the database
    /// itself leave none. Unit clauses put literals on level 0, so chains
    /// end in level-0 units and some assumptions are falsified there.
    #[test]
    fn final_clauses_negate_the_failed_assumptions(
        clauses in cnf_strategy(7, 24),
        queries in prop::collection::vec(
            prop::collection::vec((0..7usize, any::<bool>()), 0..=4),
            1..=4,
        ),
    ) {
        let nvars = 7;
        let mut s = Solver::new();
        s.set_proof_mode(ProofMode::Trace);
        for _ in 0..nvars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        for q in queries {
            let mut seen = std::collections::HashSet::new();
            let assumptions: Vec<SatLit> = q
                .into_iter()
                .filter(|(v, _)| seen.insert(*v))
                .map(|(v, pos)| SatVar::from_index(v).lit(pos))
                .collect();
            let res = s.solve_with(&assumptions);
            let log = s.proof().unwrap();
            if res != SatResult::Unsat || assumptions.is_empty() || log.unsat() {
                prop_assert_eq!(log.final_id(), None);
                continue;
            }
            let id = log.final_id();
            prop_assert!(id.is_some(), "UNSAT under {:?} logged no final clause", assumptions);
            let id = id.unwrap();
            let failed = s.failed_assumptions().to_vec();
            let mut want: Vec<SatLit> = failed.iter().map(|&l| !l).collect();
            want.sort_unstable();
            let mut got = log.lits(id).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, want);
            let verdict = log.verify();
            prop_assert!(verdict.is_ok(), "trace broken: {:?}", verdict.err());
            let mut with_core = clauses.clone();
            with_core.extend(failed.iter().map(|&l| vec![l]));
            prop_assert!(
                brute_force_sat(nvars, &with_core).is_none(),
                "final clause not implied by the formula"
            );
        }
    }

    /// `failed_assumptions` is a genuine core: re-solving with just the
    /// core is still UNSAT.
    #[test]
    fn failed_assumptions_are_sound(
        clauses in cnf_strategy(6, 24),
        assum in prop::collection::vec((0..6usize, any::<bool>()), 1..=4),
    ) {
        let nvars = 6;
        let mut s = Solver::new();
        for _ in 0..nvars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        let mut seen = std::collections::HashSet::new();
        let assumptions: Vec<SatLit> = assum
            .into_iter()
            .filter(|(v, _)| seen.insert(*v))
            .map(|(v, pos)| SatVar::from_index(v).lit(pos))
            .collect();
        if s.solve_with(&assumptions) == SatResult::Unsat {
            let core: Vec<SatLit> = s.failed_assumptions().to_vec();
            prop_assert!(core.iter().all(|l| assumptions.contains(l)),
                "core {:?} not a subset of assumptions {:?}", core, assumptions);
            prop_assert_eq!(s.solve_with(&core), SatResult::Unsat);
        }
    }
}

#[test]
fn model_count_oracle_sanity() {
    // xor chain over 4 vars has 8 models.
    let v: Vec<SatVar> = (0..4).map(SatVar::from_index).collect();
    let clauses = vec![
        vec![v[0].pos(), v[1].pos(), v[2].pos(), v[3].pos()],
        vec![v[0].neg(), v[1].neg()],
    ];
    assert!(brute_force_count(4, &clauses) > 0);
}
