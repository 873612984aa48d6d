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
//! Both unrollings are the crate's one functional [`Unroller`]: the base
//! starts from the reset constants, the step from fresh free state
//! variables.

use std::sync::Arc;

use cbq_aig::Lit;
use cbq_ckt::Network;
use cbq_sat::{SatLit, SatResult};

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
        for k in 1..=self.max_k {
            let nodes = base.aig.num_nodes() + step.aig.num_nodes();
            let checks = base.cnf.stats().checks + step.cnf.stats().checks;
            if let Some(bounded) = meter.exceeded(k - 1, nodes, checks) {
                return bounded;
            }
            stats.k = k;
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
                SatResult::Unknown => {
                    return Verdict::Unknown {
                        reason: format!("base budget at k={k}"),
                    }
                }
                SatResult::Unsat => {}
            }
            // Step: ¬bad₀ … ¬bad_{k-1} ∧ bad_k over a loop-free path.
            let bad_k = step.bad_at(net, k);
            for a in 0..k {
                assert_distinct(step, a, k);
            }
            let mut assumptions: Vec<Lit> = step.bads[..k].iter().map(|b| !*b).collect();
            assumptions.push(bad_k);
            match step
                .cnf
                .solve_under_assuming(&step.aig, &assumptions, &step_extra)
            {
                SatResult::Unsat => return Verdict::Safe { iterations: k },
                SatResult::Unknown => {
                    return Verdict::Unknown {
                        reason: format!("step budget at k={k}"),
                    }
                }
                SatResult::Sat => {}
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
    use cbq_ckt::generators;

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
}
