//! k-induction with simple-path strengthening (Sheeran, Singh,
//! Stålmarck — FMCAD 2000, reference [5] of the paper).
//!
//! For increasing `k`, two queries are posed on incremental SAT
//! databases:
//!
//! * **base**: a counterexample of depth `< k` exists (functional BMC
//!   unrolling from the initial state);
//! * **step**: a loop-free path of `k+1` states with the first `k` all
//!   safe but the last one bad (unrolled from a *free* symbolic state).
//!
//! If the base is UNSAT up to `k-1` and the step is UNSAT, the property
//! holds. Simple-path constraints (pairwise state disequality) make the
//! method complete: `k` need never exceed the recurrence diameter.
//!
//! The simple-path pairs are added lazily (Eén and Sörensson, *Temporal
//! Induction by Incremental SAT Solving*, BMC 2003): only the state pairs
//! a step model repeats are asserted before the step is solved again.
//! Verdicts and `k` are those of asserting every pair up front.
//!
//! Both unrollings are the crate's one functional [`Unroller`]: the base
//! starts from the reset constants, the step from fresh free state
//! variables.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use cbq_aig::sim::BitSim;
use cbq_aig::Lit;
use cbq_ckt::Network;
use cbq_cnf::AigCnfStats;
use cbq_sat::{SatLit, SatResult, SolverStats};

use crate::bmc::Unroller;
use crate::bus::{BusClientStats, BusConsumer, LemmaBus};
use crate::engine::{Budget, Engine, Meter};
use crate::verdict::{McRun, McStats, Verdict};

/// The k-induction engine.
#[derive(Clone, Debug)]
pub struct KInduction {
    /// Maximum induction depth to attempt.
    pub max_k: usize,
    /// The parallel portfolio's [`LemmaBus`]. Admitted IC3 cubes (each
    /// re-validated by a private [`crate::LemmaValidator`]) strengthen
    /// both unrollings: redundant-but-pruning clauses in the base case,
    /// and genuine invariant strengthening at every frame of the step
    /// case — the classical way k-induction benefits from reachability
    /// lemmas.
    pub bus: Option<Arc<LemmaBus>>,
}

impl Default for KInduction {
    fn default() -> KInduction {
        KInduction {
            max_k: 64,
            bus: None,
        }
    }
}

/// Statistics of a [`KInduction`] run.
#[derive(Clone, Debug, Default)]
pub struct KInductionStats {
    /// The `k` at which the run concluded.
    pub k: usize,
    /// SAT checks in the base databases.
    pub base_checks: u64,
    /// SAT checks in the step database (plus bus-lemma validation).
    pub step_checks: u64,
    /// Total AIG nodes across both unrollings.
    pub unrolled_nodes: usize,
    /// Lemma-bus traffic (cubes admitted/rejected after re-validation).
    pub bus: BusClientStats,
    /// Solver-core counters of the base and step bridges, summed.
    pub solver: SolverStats,
    /// SAT-bridge counters of the base and step bridges, summed.
    pub cnf: AigCnfStats,
}

/// The bus consumer with the lemma guards of the base and step
/// unrollings.
type Consumer = (BusConsumer, SatLit, SatLit);

/// Asserts that step states `a` and `b` differ (simple-path constraint).
fn assert_distinct(step: &mut Unroller, a: usize, b: usize) {
    let diffs: Vec<Lit> = step.states[a]
        .iter()
        .zip(&step.states[b])
        .map(|(x, y)| step.aig.xor(*x, *y))
        .collect();
    let any = step.aig.or_many(&diffs);
    step.cnf.assert_lit(&step.aig, any);
}

/// The pairs `(a, t)`, `a < t ≤ k`, where step state `t` repeats state `a`
/// (the first with its values) on the path simulated from the model's
/// inputs, unencoded and unassigned ones false. The answer is
/// query-local, so the simulation is its completion: it agrees with every
/// node the solver assigned and satisfies every asserted pair.
fn repeated_states(step: &Unroller, k: usize) -> Vec<(usize, usize)> {
    let mut sim = BitSim::new(&step.aig, 1);
    sim.set_pattern(&step.aig, 0, &step.cnf.model_inputs(&step.aig));
    sim.run(&step.aig);
    let mut first: HashMap<Vec<bool>, usize> = HashMap::new();
    let mut repeats = Vec::new();
    for (t, state) in step.states[..=k].iter().enumerate() {
        let values = state.iter().map(|l| sim.lit_word(*l, 0) & 1 != 0).collect();
        let a = *first.entry(values).or_insert(t);
        if a < t {
            repeats.push((a, t));
        }
    }
    repeats
}

/// Unrolled nodes and SAT checks spent so far, bus validation included.
fn spent(base: &Unroller, step: &Unroller, consumer: &Option<Consumer>) -> (usize, u64) {
    let bus = consumer.as_ref().map_or(0, |(c, _, _)| c.checks());
    let checks = base.cnf.stats().checks + step.cnf.stats().checks + bus;
    (base.aig.num_nodes() + step.aig.num_nodes(), checks)
}

impl Engine for KInduction {
    fn name(&self) -> &'static str {
        "kind"
    }

    /// Runs k-induction on `net` within `budget` (`max_steps` caps `k`).
    fn check(&self, net: &Network, budget: &Budget) -> McRun {
        let meter = Meter::start(budget);
        let mut stats = KInductionStats::default();
        let mut base = Unroller::new(net);
        let mut step = Unroller::free_state(net);
        // One consumer feeds both unrollings, each holding its
        // instantiated lemma clauses under its own guard.
        let mut consumer: Option<Consumer> = self.bus.clone().map(|bus| {
            let base_guard = base.cnf.new_guard();
            let step_guard = step.cnf.new_guard();
            (BusConsumer::new(bus, net), base_guard, step_guard)
        });
        let verdict = self.search(net, &meter, &mut stats, &mut base, &mut step, &mut consumer);
        stats.base_checks = base.cnf.stats().checks;
        stats.step_checks = step.cnf.stats().checks;
        stats.unrolled_nodes = base.aig.num_nodes() + step.aig.num_nodes();
        stats.solver = base.cnf.solver_stats();
        stats.solver.absorb(&step.cnf.solver_stats());
        stats.cnf = base.cnf.stats();
        stats.cnf.absorb(&step.cnf.stats());
        if let Some((c, _, _)) = &consumer {
            stats.step_checks += c.checks();
            stats.bus = c.stats();
        }
        let common = McStats {
            engine: "kind",
            iterations: stats.k,
            peak_nodes: stats.unrolled_nodes,
            sat_checks: stats.base_checks + stats.step_checks,
            elapsed: meter.elapsed(),
        };
        McRun::new(verdict, common).with_detail(stats)
    }
}

impl KInduction {
    /// The base/step loop over increasing `k`.
    fn search(
        &self,
        net: &Network,
        meter: &Meter,
        stats: &mut KInductionStats,
        base: &mut Unroller,
        step: &mut Unroller,
        consumer: &mut Option<Consumer>,
    ) -> Verdict {
        let base_extra: Vec<SatLit> = consumer.iter().map(|&(_, g, _)| g).collect();
        let step_extra: Vec<SatLit> = consumer.iter().map(|&(_, _, g)| g).collect();
        // Asserted pairs stay asserted for every later `k`.
        let mut distinct: HashSet<(usize, usize)> = HashSet::new();
        for k in 1..=self.max_k {
            let (nodes, checks) = spent(base, step, consumer);
            if let Some(bounded) = meter.exceeded(k - 1, nodes, checks) {
                return bounded;
            }
            stats.k = k;
            let unknown = |case| Verdict::Unknown {
                reason: format!("{case} budget at k={k}"),
            };
            if let Some((c, base_guard, step_guard)) = consumer {
                base.bad_at(net, k - 1);
                step.bad_at(net, k);
                // Previously admitted lemmas reach this iteration's new
                // frames (base frame k-1, step frame k); the base's
                // frame 0 is constants, the step's frame 0 is the free
                // state covered at admission time.
                for cube in c.admitted() {
                    if k >= 2 {
                        base.assume_cube(*base_guard, k - 1, cube);
                    }
                    step.assume_cube(*step_guard, k, cube);
                }
                // Fresh admissions cover every existing frame.
                for cube in c.poll() {
                    for t in 1..k {
                        base.assume_cube(*base_guard, t, cube);
                    }
                    for t in 0..=k {
                        step.assume_cube(*step_guard, t, cube);
                    }
                }
            }
            // Base: any counterexample at depth k-1?
            match base.check_depth_assuming(net, k - 1, &base_extra) {
                SatResult::Sat => {
                    return Verdict::Unsafe {
                        trace: base.extract_trace(k - 1),
                    }
                }
                SatResult::Unknown => return unknown("base"),
                SatResult::Unsat => {}
            }
            // Step: ¬bad₀ … ¬bad_{k-1} ∧ bad_k, refined to a loop-free path.
            let bad_k = step.bad_at(net, k);
            let mut assumptions: Vec<Lit> = step.bads[..k].iter().map(|b| !*b).collect();
            assumptions.push(bad_k);
            loop {
                match step
                    .cnf
                    .solve_under_assuming(&step.aig, &assumptions, &step_extra)
                {
                    SatResult::Unsat => return Verdict::Safe { iterations: k },
                    SatResult::Unknown => return unknown("step"),
                    SatResult::Sat => {}
                }
                let repeats = repeated_states(step, k);
                if repeats.is_empty() {
                    break;
                }
                for (a, t) in repeats {
                    let fresh = distinct.insert((a, t));
                    debug_assert!(fresh, "asserted pair ({a}, {t}) repeated at k={k}");
                    assert_distinct(step, a, t);
                }
                let (nodes, checks) = spent(base, step, consumer);
                if let Some(bounded) = meter.exceeded(k - 1, nodes, checks) {
                    return bounded;
                }
            }
        }
        Verdict::Unknown {
            reason: format!("no proof or counterexample up to k={}", self.max_k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_aig::Var;
    use cbq_ckt::generators;
    use proptest::prelude::*;

    /// The eager reference: every simple-path pair `(a, k)` is asserted
    /// before the step query at `k`, as the engine did before it added
    /// them lazily. No bus and no budget. Returns the verdict and the
    /// `k` it concluded at.
    fn eager_kind(net: &Network, max_k: usize) -> (Verdict, usize) {
        let mut base = Unroller::new(net);
        let mut step = Unroller::free_state(net);
        for k in 1..=max_k {
            if base.check_depth_assuming(net, k - 1, &[]) == SatResult::Sat {
                let trace = base.extract_trace(k - 1);
                return (Verdict::Unsafe { trace }, k);
            }
            let bad_k = step.bad_at(net, k);
            for a in 0..k {
                assert_distinct(&mut step, a, k);
            }
            let mut assumptions: Vec<Lit> = step.bads[..k].iter().map(|b| !*b).collect();
            assumptions.push(bad_k);
            if step.cnf.solve_under(&step.aig, &assumptions) == SatResult::Unsat {
                return (Verdict::Safe { iterations: k }, k);
            }
        }
        let reason = format!("no proof or counterexample up to k={max_k}");
        (Verdict::Unknown { reason }, max_k)
    }

    #[derive(Clone, Debug)]
    enum Op {
        And(usize, bool, usize, bool),
        Xor(usize, bool, usize, bool),
    }

    fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>())
                    .prop_map(|(a, pa, b, pb)| Op::And(a, pa, b, pb)),
                (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>())
                    .prop_map(|(a, pa, b, pb)| Op::Xor(a, pa, b, pb)),
            ],
            1..=max_ops,
        )
    }

    /// Builds one function over the AIG inputs `base` by `ops`.
    fn emit(aig: &mut cbq_aig::Aig, base: &[Lit], ops: &[Op]) -> Lit {
        let mut pool = base.to_vec();
        for op in ops {
            let pick = |i: usize| pool[i % pool.len()];
            let l = match *op {
                Op::And(a, pa, b, pb) => aig.and(pick(a).xor_sign(pa), pick(b).xor_sign(pb)),
                Op::Xor(a, pa, b, pb) => aig.xor(pick(a).xor_sign(pa), pick(b).xor_sign(pb)),
            };
            pool.push(l);
        }
        *pool.last().expect("non-empty")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]

        /// Random 2–5-latch, 1–2-input networks: the lazy simple-path
        /// loop gives the eager reference's verdict at the same `k`.
        #[test]
        fn lazy_simple_paths_match_the_eager_reference(
            latches in 2..=5usize,
            inputs in 1..=2usize,
            next_ops in prop::collection::vec(ops_strategy(10), 5..=5),
            bad_ops in ops_strategy(8),
            inits in prop::collection::vec(any::<bool>(), 5..=5),
        ) {
            let mut b = Network::builder("random");
            let vars: Vec<Var> = inits[..latches].iter().map(|i| b.add_latch(*i)).collect();
            for _ in 0..inputs {
                b.add_input();
            }
            let aig = b.aig_mut();
            let base: Vec<Lit> = aig.inputs().iter().map(|v| v.lit()).collect();
            let nexts: Vec<Lit> = next_ops[..latches].iter().map(|ops| emit(aig, &base, ops)).collect();
            let bad = emit(aig, &base, &bad_ops);
            for (v, n) in vars.iter().zip(nexts) {
                b.set_next(*v, n);
            }
            let net = b.build(bad);
            let run = KInduction { max_k: 24, ..KInduction::default() }
                .check(&net, &Budget::unlimited());
            let k = run.detail::<KInductionStats>().expect("stats").k;
            prop_assert_eq!((run.verdict, k), eager_kind(&net, 24));
        }
    }

    #[test]
    fn a_budget_trips_between_two_refinement_solves() {
        // The step model of a counter with an enable input stutters, so
        // most k take two step solves: the first repeats a state, the
        // refinement does not. The budgets below run out right after such
        // a first solve (k = 1, 3 and 6; the base case costs no check
        // while `bad` is constant at its depth), so the run must stop
        // before the refinement solve, having spent exactly the limit.
        let net = generators::counter_bug(6, 20);
        let run = KInduction::default().check(&net, &Budget::unlimited());
        let d = run.detail::<KInductionStats>().expect("stats");
        assert!(run.verdict.is_unsafe(), "got {}", run.verdict);
        assert!(d.step_checks > d.k as u64 * 3 / 2, "stats: {d:?}");
        for limit in [1, 5, 12] {
            let run =
                KInduction::default().check(&net, &Budget::unlimited().with_sat_checks(limit));
            let bounded = Verdict::Bounded {
                resource: crate::verdict::Resource::SatChecks,
                limit,
            };
            assert_eq!(run.verdict, bounded);
            assert_eq!(run.stats.sat_checks, limit);
        }
    }

    #[test]
    fn proves_inductive_properties_quickly() {
        // The Gray-counter parity invariant is 1-inductive.
        let run = KInduction::default().check(&generators::gray_counter(5), &Budget::unlimited());
        match run.verdict {
            Verdict::Safe { iterations } => assert!(iterations <= 2, "k = {iterations}"),
            other => panic!("expected safe, got {other}"),
        }
    }

    #[test]
    fn proves_token_ring_with_simple_paths() {
        let run = KInduction::default().check(&generators::token_ring(5), &Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
    }

    #[test]
    fn proves_bounded_counter() {
        let run = KInduction {
            max_k: 24,
            ..KInduction::default()
        }
        .check(&generators::bounded_counter(4, 9), &Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
    }

    #[test]
    fn finds_counterexamples_via_base_case() {
        let net = generators::mutex_bug();
        let run = KInduction::default().check(&net, &Budget::unlimited());
        match run.verdict {
            Verdict::Unsafe { trace } => {
                assert!(trace.validates(&net));
                assert_eq!(trace.len(), 3); // depth 2 + the firing step
            }
            other => panic!("expected unsafe, got {other}"),
        }
    }

    /// A 4-bit counter wrapping at 8 with `bad = (count == 13)`: the bad
    /// state has an unreachable backward chain 8 → 9 → … → 13, so plain
    /// induction needs k ≈ 6 to close.
    fn deep_unreachable() -> cbq_ckt::Network {
        let mut b = cbq_ckt::Network::builder("deep-unreachable");
        let s = (0..4).map(|_| b.add_latch(false)).collect::<Vec<_>>();
        let aig = b.aig_mut();
        let cur: Vec<cbq_aig::Lit> = s.iter().map(|v| v.lit()).collect();
        // increment
        let mut carry = cbq_aig::Lit::TRUE;
        let mut inc = Vec::new();
        for &w in &cur {
            inc.push(aig.xor(w, carry));
            carry = aig.and(w, carry);
        }
        // wrap at 7: next = (count == 7) ? 0 : count + 1
        let at7 = {
            let t0 = aig.and(cur[0], cur[1]);
            let t1 = aig.and(t0, cur[2]);
            aig.and(t1, !cur[3])
        };
        let next: Vec<cbq_aig::Lit> = inc.iter().map(|l| aig.and(*l, !at7)).collect();
        // bad: count == 13 (0b1101)
        let bad = {
            let t0 = aig.and(cur[0], !cur[1]);
            let t1 = aig.and(t0, cur[2]);
            aig.and(t1, cur[3])
        };
        for (v, nx) in s.iter().zip(next) {
            b.set_next(*v, nx);
        }
        b.build(bad)
    }

    #[test]
    fn proves_the_deep_unreachable_chain() {
        // The circuit really is safe, and the default engine proves it.
        assert_eq!(
            crate::explicit::shortest_cex_depth(&deep_unreachable(), 8, 1 << 12),
            None
        );
        let run = KInduction::default().check(&deep_unreachable(), &Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
    }

    #[test]
    fn counterexample_length_matches_bmc() {
        let net = generators::shift_ones(3);
        let ind = KInduction::default().check(&net, &Budget::unlimited());
        let bmc = crate::bmc::Bmc::default().check(&net, &Budget::unlimited());
        assert_eq!(
            ind.verdict.trace().map(cbq_ckt::Trace::len),
            bmc.verdict.trace().map(cbq_ckt::Trace::len)
        );
    }

    #[test]
    fn consumes_prepublished_bus_lemmas() {
        // A genuine invariant on the ring (the all-zero token-loss state
        // is unreachable and individually inductive) published before
        // the run: k-induction must admit it and still prove safety; a
        // junk cube on the same bus must be rejected without touching
        // the verdict.
        let bus = Arc::new(LemmaBus::new());
        bus.publish_cube(vec![
            (0, false),
            (1, false),
            (2, false),
            (3, false),
            (4, false),
        ]);
        bus.publish_cube(vec![(0, true), (1, true)]); // unreachable but not inductive
        let run = KInduction {
            bus: Some(bus),
            ..KInduction::default()
        }
        .check(&generators::token_ring(5), &Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
        let d = run.detail::<KInductionStats>().expect("stats");
        assert_eq!(d.bus.lemmas_admitted, 1, "stats: {d:?}");
        assert_eq!(d.bus.lemmas_rejected, 1, "stats: {d:?}");
    }

    #[test]
    fn bus_validation_counts_against_the_sat_check_budget() {
        // The consumer's batch queries on five untagged pair cubes are
        // part of the run's `sat_checks`, so the meter must see them.
        let bus = Arc::new(LemmaBus::new());
        for i in 0..5 {
            bus.publish_cube(vec![(i, true), ((i + 1) % 5, true)]);
        }
        let run = KInduction {
            bus: Some(bus),
            ..KInduction::default()
        }
        .check(
            &generators::counter_bug(5, 7),
            &Budget::unlimited().with_sat_checks(12),
        );
        let limit = Verdict::Bounded {
            resource: crate::verdict::Resource::SatChecks,
            limit: 12,
        };
        assert_eq!(run.verdict, limit, "after {} checks", run.stats.sat_checks);
    }
}
