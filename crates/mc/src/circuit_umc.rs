//! The paper's traversal routine (Section 3): reachability over AIG
//! state sets, every image step closed by circuit-based quantification
//! and every fixpoint or intersection test answered by SAT — in either
//! [`Direction`], on the partitioned state-set representation of
//! [`crate::stateset`].
//!
//! Backward, the paper's direction, starts from F₀ = ∃i. bad and forms
//! each pre-image by in-lining the next-state functions, which leaves
//! only the primary inputs to quantify.
//!
//! Forward starts from the initial states, and its **image** enjoys no
//! such free next-state elimination: `Img(R)(s') = ∃s,i. T(s,i,s') ∧
//! R(s)` requires quantifying *all* current-state and input variables
//! out of a genuine transition-relation conjunction, then renaming
//! `s' → s`. This exercises the quantification machinery far harder than
//! pre-image, and the between-iterations state-set sweep
//! ([`crate::sweep`]) matters much more there — image computation
//! churns through far more temporary nodes per step.
//! Partitioning pays off accordingly: each partition images its own
//! window in its own manager, in parallel.

use cbq_aig::{AigPerfCounters, Lit, Var};
use cbq_ckt::{Network, Trace};
use cbq_cnf::AigCnfStats;
use cbq_core::{exists_many, QuantConfig};
use cbq_sat::{SatResult, SolverStats};

use crate::engine::{Budget, Direction, Engine, Meter};
use crate::stateset::{state_cube, Partition, PartitionCount, PartitionStats, StateSet};
use crate::sweep::{SweepConfig as StateSweepConfig, SweepStats};
use crate::verdict::{McRun, McStats, Resource, Verdict};

/// Reachability model checker over AIG state sets — the paper's engine,
/// on the partitioned [`StateSet`] representation, in either direction.
///
/// "Given an invariant property P we start reachability from its
/// complement and we terminate as soon as no newly reached states are
/// found (fix-point) or we intersect the initial state set, delivering a
/// counter-example. In our implementation all state sets are represented
/// and manipulated using AIGs instead of BDDs. Operations on AIGs, e.g.,
/// equivalence, are performed using a SAT engine."
///
/// [`CircuitUmc::default`] is that backward routine (registry name
/// `circuit`); [`CircuitUmc::forward`] runs the same traversal from the
/// initial states with image computation (registry name `forward`).
///
/// With the default partition count ([`PartitionCount::Fixed`]`(1)`) the
/// traversal is the paper's monolithic routine. With `--partitions N|auto` the state
/// set is tiled into window-disjoint partitions, each owning its own AIG
/// manager and clause database, and every iteration's image,
/// quantification, and sweep runs in parallel across partitions —
/// verdicts, fixpoint iteration counts, and minimal counterexample
/// depths are identical for any partition count.
#[derive(Clone, Debug)]
pub struct CircuitUmc {
    /// Traversal direction.
    pub direction: Direction,
    /// Quantification engine configuration (merge/optimise/budget).
    /// Variables a growth budget aborts ("it accepts effective
    /// quantification and aborts the expensive ones", Section 4) are
    /// finished by the naive cofactor disjunction.
    pub quant: QuantConfig,
    /// Between-iterations state-set sweeping; `None` disables it.
    pub sweep: Option<StateSweepConfig>,
    /// Initial partition count of the state set (default: monolithic).
    pub partition: PartitionCount,
    /// Iteration bound (a safety net; reaching it yields `Unknown`).
    pub max_iterations: usize,
}

impl Default for CircuitUmc {
    /// The paper's backward traversal.
    fn default() -> CircuitUmc {
        CircuitUmc {
            direction: Direction::Backward,
            quant: QuantConfig::full(),
            sweep: Some(StateSweepConfig::default()),
            partition: PartitionCount::Fixed(1),
            max_iterations: 10_000,
        }
    }
}

impl CircuitUmc {
    /// The forward traversal: reachability from the initial states.
    pub fn forward() -> CircuitUmc {
        CircuitUmc {
            direction: Direction::Forward,
            ..CircuitUmc::default()
        }
    }
}

/// Statistics of a [`CircuitUmc`] run, in either direction.
#[derive(Clone, Debug, Default)]
pub struct CircuitUmcStats {
    /// Image steps completed: the fixpoint iteration of a safe run, the
    /// counterexample depth of an unsafe one.
    pub iterations: usize,
    /// AND-gate count of each frontier after quantification and merge
    /// (summed over partitions).
    pub frontier_sizes: Vec<usize>,
    /// AND-gate count of the final reached-set representation (summed
    /// over partitions).
    pub reached_size: usize,
    /// Peak node count of the working AIG managers (summed over
    /// partitions; with sweeping, garbage collection makes this a true
    /// peak rather than a monotone total).
    pub peak_nodes: usize,
    /// Assumption-based SAT checks issued (all partitions, all purposes,
    /// including checks on clause databases retired by sweeping).
    pub sat_checks: u64,
    /// Variables aborted by partial quantification, total.
    pub quant_aborts: usize,
    /// AIG-manager hot-path counters accumulated over every
    /// quantification (all partitions): strash probes, scratchpad walk
    /// nodes, cofactor-cache hits.
    pub quant_perf: AigPerfCounters,
    /// Cofactors enumerated by all-solutions residual completion. Always
    /// 0: the traversal finishes residuals by naive disjunction. Kept
    /// because `perfbench` reads it.
    pub ganai_cofactors: usize,
    /// State-set sweeping counters (all partitions).
    pub sweep: SweepStats,
    /// Partition lifecycle counters (trajectory, max cone, splits).
    pub partitions: PartitionStats,
    /// SAT-bridge counters (all partitions): encodings, checks, cone
    /// retirements, learnt clauses retained across GCs.
    pub cnf: AigCnfStats,
    /// Solver-core counters (all partitions): conflicts, restarts, arena
    /// bytes, LBD histogram, reductions.
    pub solver: SolverStats,
}

/// The forward traversal's statistics: both directions report
/// [`CircuitUmcStats`].
pub type ForwardCircuitUmcStats = CircuitUmcStats;

impl CircuitUmcStats {
    /// Adds one quantification's counters.
    fn absorb(&mut self, q: &PartQuant) {
        self.quant_aborts += q.aborts;
        self.quant_perf.add(q.perf);
    }
}

/// Result of quantifying one partition's pre-image/image, residuals
/// included. `complete == false` means a cooperative budget
/// cancellation interrupted the quantification — the literal still
/// carries un-eliminated variables and must not be used as a frontier
/// (the worker reports [`Verdict::Bounded`] instead).
struct PartQuant {
    lit: Lit,
    aborts: usize,
    complete: bool,
    /// Hot-path counter deltas of this quantification's `exists_many`
    /// calls (residual passes included).
    perf: AigPerfCounters,
}

/// The manager hot-path counters an [`exists_many`] run charged to its
/// quantification.
fn quant_perf(s: &cbq_core::QuantStats) -> AigPerfCounters {
    AigPerfCounters {
        strash_probes: s.strash_probes,
        scratch_walk_nodes: s.scratch_walk_nodes,
        cofactor_cache_hits: 0,
    }
}

/// Quantifies `vars` out of `f` inside partition `p`, honouring the
/// partial-quantification growth budget and the partition's cooperative
/// deadline/node budget. Growth-budget residuals are finished by the
/// naive cofactor disjunction.
fn quantify_in_partition(
    p: &mut Partition,
    f: Lit,
    vars: &[Var],
    quant: &QuantConfig,
) -> PartQuant {
    let deadline = match (quant.deadline, p.deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let mut cfg = quant.clone().with_deadline(deadline);
    if cfg.node_limit.is_none() {
        cfg.node_limit = p.node_limit;
    }
    let q = exists_many(&mut p.aig, f, vars, &mut p.cnf, &cfg);
    let mut out = PartQuant {
        lit: q.lit,
        aborts: q.remaining.len(),
        complete: true,
        perf: quant_perf(&q.stats),
    };
    if q.remaining.is_empty() {
        return out;
    }
    if cfg.out_of_budget(&p.aig) {
        // Cooperative cancellation, not a growth abort: leave the
        // residual variables unprocessed and let the worker go Bounded.
        out.complete = false;
        return out;
    }
    let naive = QuantConfig::naive().with_deadline(deadline);
    let q2 = exists_many(&mut p.aig, q.lit, &q.remaining, &mut p.cnf, &naive);
    out.perf.add(quant_perf(&q2.stats));
    out.lit = q2.lit;
    out.complete = q2.remaining.is_empty();
    out
}

/// The verdict of a quantification that a budget interrupted: the
/// exhausted limit, or the wall clock when only the partition's own
/// cooperative deadline has passed so far.
fn interrupted(meter: &Meter, steps: usize, nodes: usize, sat_checks: u64) -> Verdict {
    meter
        .exceeded(steps, nodes, sat_checks)
        .unwrap_or(Verdict::Bounded {
            resource: Resource::WallClock,
            limit: 0,
        })
}

/// One partition worker's share of an image step.
struct PartStep {
    /// The partition's image over current-state variables (`FALSE` when
    /// the step stopped early).
    image: Lit,
    /// Forward only: some frontier state fires `bad` under some input.
    fires_bad: bool,
    /// The budget that stopped the step, if any.
    bounded: Option<Verdict>,
    /// The step's quantification, if one ran.
    quant: Option<PartQuant>,
}

impl PartStep {
    fn empty() -> PartStep {
        PartStep {
            image: Lit::FALSE,
            fires_bad: false,
            bounded: None,
            quant: None,
        }
    }
}

impl Engine for CircuitUmc {
    fn name(&self) -> &'static str {
        match self.direction {
            Direction::Backward => "circuit",
            Direction::Forward => "forward",
        }
    }

    /// Runs reachability on `net` within `budget`.
    fn check(&self, net: &Network, budget: &Budget) -> McRun {
        let meter = Meter::start(budget);
        let mut stats = CircuitUmcStats::default();
        let verdict = self.traverse(net, &meter, &mut stats);
        let common = McStats {
            engine: self.name(),
            iterations: stats.iterations,
            peak_nodes: stats.peak_nodes,
            sat_checks: stats.sat_checks,
            elapsed: meter.elapsed(),
        };
        McRun::new(verdict, common).with_detail(stats)
    }
}

impl CircuitUmc {
    fn traverse(&self, net: &Network, meter: &Meter, stats: &mut CircuitUmcStats) -> Verdict {
        let mut ss = StateSet::new(
            net,
            self.direction,
            self.partition,
            self.sweep.clone(),
            meter.deadline(),
            meter.node_limit(),
        );
        stats.peak_nodes = ss.total_nodes();
        if let Some(bounded) = meter.exceeded(0, ss.total_nodes(), 0) {
            return self.seal(bounded, stats, &ss);
        }
        if self.direction == Direction::Backward {
            if let Some(verdict) = self.install_bad_frontier(&mut ss, net, meter, stats) {
                return self.seal(verdict, stats, &ss);
            }
        }
        stats.frontier_sizes.push(ss.frontier_size());
        ss.split_to_target();
        ss.record_iteration();

        for iter in 1..=self.max_iterations {
            let done = iter - 1;
            if let Some(bounded) = meter.exceeded(done, ss.total_nodes(), ss.total_sat_checks()) {
                return self.seal(bounded, stats, &ss);
            }
            // Per-partition image + quantification + sweep, in parallel
            // across the partitions' private managers.
            let steps = ss.par_map(|_, p| self.partition_step(p, done, meter));
            if steps.iter().any(Option::is_none) {
                let verdict = Verdict::Unknown {
                    reason: format!(
                        "partition worker panicked (partitions {:?})",
                        ss.stats.worker_panics
                    ),
                };
                return self.seal(verdict, stats, &ss);
            }
            let steps: Vec<PartStep> = steps.into_iter().flatten().collect();
            for q in steps.iter().filter_map(|s| s.quant.as_ref()) {
                stats.absorb(q);
            }
            if let Some(bounded) = steps.iter().find_map(|s| s.bounded.clone()) {
                return self.seal(bounded, stats, &ss);
            }
            // Forward counterexample: a frontier state fires bad (lowest
            // partition index, for determinism).
            if let Some(t) = steps.iter().position(|s| s.fires_bad) {
                let trace = forward_trace(&mut ss, done, t);
                return self.seal(Verdict::Unsafe { trace }, stats, &ss);
            }
            stats.iterations = iter;
            // Deterministic merge: redistribute images onto windows,
            // subtract reached, detect fixpoint / backward counterexample.
            let images: Vec<Lit> = steps.iter().map(|s| s.image).collect();
            let outcome = ss.merge_images(&images);
            if !outcome.any_new {
                return self.seal(Verdict::Safe { iterations: iter }, stats, &ss);
            }
            stats.frontier_sizes.push(ss.frontier_size());
            if outcome.cex_partition.is_some() {
                let trace = backward_trace(&mut ss, net, iter);
                return self.seal(Verdict::Unsafe { trace }, stats, &ss);
            }
            ss.resplit();
            stats.peak_nodes = stats.peak_nodes.max(ss.total_nodes());
        }
        let verdict = Verdict::Unknown {
            reason: format!("iteration bound {} reached", self.max_iterations),
        };
        self.seal(verdict, stats, &ss)
    }

    /// The backward prologue: installs F₀ = ∃i. bad(s, i) on the seed
    /// partition, before the state space is tiled, and sweeps it.
    /// Returns the verdict when the traversal ends here: an initial state
    /// is already bad, or a budget interrupted the quantification.
    fn install_bad_frontier(
        &self,
        ss: &mut StateSet,
        net: &Network,
        meter: &Meter,
        stats: &mut CircuitUmcStats,
    ) -> Option<Verdict> {
        let p = &mut ss.parts[0];
        let (bad, pis) = (p.bad, p.pis.clone());
        let q = quantify_in_partition(p, bad, &pis, &self.quant);
        stats.absorb(&q);
        if !q.complete {
            return Some(interrupted(
                meter,
                0,
                ss.total_nodes(),
                ss.total_sat_checks(),
            ));
        }
        let p = &mut ss.parts[0];
        p.frontier = q.lit;
        p.frontiers.push(q.lit);
        p.reached = q.lit;
        if p.cnf.solve_under(&p.aig, &[p.frontier, p.init]) == SatResult::Sat {
            let trace = backward_trace(ss, net, 0);
            return Some(Verdict::Unsafe { trace });
        }
        stats.peak_nodes = stats.peak_nodes.max(ss.total_nodes());
        ss.parts[0].sweep_if_due(&mut []);
        None
    }

    /// One partition's share of an image step, then the partition-local
    /// sweep. Backward: the pre-image by in-lining, then ∃ inputs.
    /// Forward: the bad-intersection check, then ∃ latches and inputs of
    /// `T ∧ frontier`, then the rename `s' → s`. `done` counts the
    /// completed steps.
    fn partition_step(&self, p: &mut Partition, done: usize, meter: &Meter) -> PartStep {
        if let Some(bounded) = meter.exceeded(done, p.aig.num_nodes(), 0) {
            return PartStep {
                bounded: Some(bounded),
                ..PartStep::empty()
            };
        }
        if p.frontier == Lit::FALSE {
            return PartStep::empty();
        }
        let (f, vars) = match self.direction {
            Direction::Backward => (p.preimage(p.frontier), p.pis.clone()),
            Direction::Forward => {
                if p.cnf.solve_under(&p.aig, &[p.frontier, p.bad]) == SatResult::Sat {
                    return PartStep {
                        fires_bad: true,
                        ..PartStep::empty()
                    };
                }
                (p.aig.and(p.trans, p.frontier), p.elim_vars())
            }
        };
        let q = quantify_in_partition(p, f, &vars, &self.quant);
        if !q.complete {
            return PartStep {
                bounded: Some(interrupted(meter, done, p.aig.num_nodes(), 0)),
                quant: Some(q),
                ..PartStep::empty()
            };
        }
        let mut image = [match self.direction {
            Direction::Backward => q.lit,
            Direction::Forward => {
                let rename = p.rename();
                p.aig.compose(q.lit, &rename)
            }
        }];
        p.sweep_if_due(&mut image);
        PartStep {
            image: image[0],
            quant: Some(q),
            ..PartStep::empty()
        }
    }

    /// Final bookkeeping shared by every exit path.
    fn seal(&self, verdict: Verdict, stats: &mut CircuitUmcStats, ss: &StateSet) -> Verdict {
        stats.sat_checks = ss.total_sat_checks();
        stats.reached_size = ss.reached_size();
        stats.peak_nodes = stats.peak_nodes.max(ss.total_nodes());
        stats.sweep = ss.aggregate_sweep();
        stats.partitions = ss.stats.clone();
        stats.cnf = ss.aggregate_cnf();
        stats.solver = ss.aggregate_solver();
        verdict
    }
}

/// Walks a backward counterexample forward: from the initial state, at
/// each level find a partition (in index order) and an input leading into
/// its share of the next (closer-to-bad) frontier, finishing with an
/// input that fires `bad` itself.
fn backward_trace(ss: &mut StateSet, net: &Network, level: usize) -> Trace {
    let mut inputs_seq: Vec<Vec<bool>> = Vec::with_capacity(level + 1);
    let mut state = net.initial_state();
    for l in (0..level).rev() {
        let mut found = false;
        for idx in 0..ss.parts.len() {
            let p = &mut ss.parts[idx];
            if p.frontiers.len() <= l || p.frontiers[l] == Lit::FALSE {
                continue;
            }
            let target = p.frontiers[l];
            let pre_raw = p.preimage(target);
            let cube = state_cube(&mut p.aig, &p.latches, &state);
            if p.cnf.solve_under(&p.aig, &[pre_raw, cube]) == SatResult::Sat {
                let inputs = p.cnf.model_of(&p.pis);
                let (next, _) = net.step(&state, &inputs);
                inputs_seq.push(inputs);
                state = next;
                found = true;
                break;
            }
        }
        debug_assert!(found, "trace step must be satisfiable in some partition");
        if !found {
            break;
        }
    }
    // Final step: fire bad from the current state (bad is a global
    // function; any partition's view works).
    let p = &mut ss.parts[0];
    let cube = state_cube(&mut p.aig, &p.latches, &state);
    let r = p.cnf.solve_under(&p.aig, &[p.bad, cube]);
    debug_assert_eq!(r, SatResult::Sat, "bad must fire at trace end");
    inputs_seq.push(p.cnf.model_of(&p.pis));
    Trace::new(inputs_seq)
}

/// Walks a forward counterexample backwards through the forward frontiers
/// (searching partitions in index order at each level), from a state of
/// partition `t0`'s frontier at `level` that fires `bad`, then emits the
/// input sequence in forward order.
fn forward_trace(ss: &mut StateSet, level: usize, t0: usize) -> Trace {
    // Concrete final state (in partition t0's frontier) plus the bad
    // input.
    let (mut states_rev, mut inputs_rev) = {
        let p = &mut ss.parts[t0];
        let r = p.cnf.solve_under(&p.aig, &[p.frontiers[level], p.bad]);
        debug_assert_eq!(r, SatResult::Sat);
        (
            vec![p.cnf.model_of(&p.latches)],
            vec![p.cnf.model_of(&p.pis)],
        )
    };
    for l in (0..level).rev() {
        let target = states_rev.last().expect("non-empty").clone();
        let mut found = false;
        for idx in 0..ss.parts.len() {
            let p = &mut ss.parts[idx];
            if p.frontiers.len() <= l || p.frontiers[l] == Lit::FALSE {
                continue;
            }
            // Predecessor: F_l(s) ∧ (δ(s,i) == target).
            let eq = {
                let eqs: Vec<Lit> = p
                    .deltas
                    .iter()
                    .zip(&target)
                    .map(|(delta, v)| delta.xor_sign(!v))
                    .collect();
                p.aig.and_many(&eqs)
            };
            if p.cnf.solve_under(&p.aig, &[p.frontiers[l], eq]) == SatResult::Sat {
                states_rev.push(p.cnf.model_of(&p.latches));
                inputs_rev.push(p.cnf.model_of(&p.pis));
                found = true;
                break;
            }
        }
        debug_assert!(found, "predecessor must exist in some partition");
        if !found {
            break;
        }
    }
    inputs_rev.reverse();
    Trace::new(inputs_rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{check_safe, check_unsafe};
    use cbq_ckt::generators;

    /// Both directions in their registry defaults.
    fn engines() -> [CircuitUmc; 2] {
        [CircuitUmc::default(), CircuitUmc::forward()]
    }

    #[test]
    fn safe_circuits_both_directions() {
        for engine in engines() {
            for net in [
                generators::token_ring(5),
                generators::token_ring(6),
                generators::bounded_counter(4, 9),
                generators::gray_counter(4),
                generators::lfsr(5, &[0, 2]),
                generators::arbiter(4),
                generators::mutex(),
            ] {
                check_safe(&engine, &net);
            }
        }
    }

    #[test]
    fn unsafe_circuits_both_directions_with_minimal_traces() {
        for engine in engines() {
            for (net, depth) in [
                (generators::token_ring_bug(5), 3),
                (generators::mutex_bug(), 2),
                (generators::shift_ones(4), 4),
                (generators::counter_bug(4, 5), 5),
                (generators::counter_bug(4, 6), 6),
            ] {
                check_unsafe(&engine, &net, Some(depth));
            }
        }
    }

    #[test]
    fn fixpoint_iteration_counts() {
        // Backward, the gap circuit converges in exactly gap+1
        // iterations. Forward, bounded_counter(3, 5) reaches its 5
        // states (0..4) in 4 image steps, and the 5th finds nothing new.
        for (engine, net, expected) in [
            (
                CircuitUmc::default(),
                generators::bounded_counter_gap(4, 6, 12),
                12 - 6 + 1,
            ),
            (CircuitUmc::forward(), generators::bounded_counter(3, 5), 5),
        ] {
            let run = engine.check(&net, &Budget::unlimited());
            match run.verdict {
                Verdict::Safe { iterations } => assert_eq!(iterations, expected),
                other => panic!("{}: expected safe, got {other}", engine.name()),
            }
        }
    }

    #[test]
    fn iterations_count_completed_image_steps() {
        // A safe run completes exactly `proved_at` image steps; an unsafe
        // one completes as many steps as its counterexample is deep.
        for engine in engines() {
            for net in [
                generators::bounded_counter_gap(5, 10, 20),
                generators::bounded_counter_gap(4, 6, 12),
                generators::bounded_counter(3, 5),
                generators::token_ring(4),
                generators::mutex_bug(),
                generators::token_ring_bug(5),
                generators::counter_bug(4, 5),
            ] {
                let run = engine.check(&net, &Budget::unlimited());
                let steps = match &run.verdict {
                    Verdict::Safe { iterations } => *iterations,
                    Verdict::Unsafe { trace } => trace.len() - 1,
                    other => panic!("{} on {}: got {other}", engine.name(), net.name()),
                };
                let detail = run.detail::<CircuitUmcStats>().expect("typed stats");
                assert_eq!(
                    (run.stats.iterations, detail.iterations),
                    (steps, steps),
                    "{} on {}: iterations vs {}",
                    engine.name(),
                    net.name(),
                    run.verdict
                );
            }
        }
    }

    #[test]
    fn tight_growth_budget_residuals_complete_naively() {
        // 0.5 aborts variables in both directions on shift_ones(5), so the
        // naive completion of the residuals is exercised.
        for direction in [Direction::Backward, Direction::Forward] {
            for factor in [1.05, 0.5] {
                let tight = CircuitUmc {
                    direction,
                    quant: QuantConfig::full().with_budget(factor),
                    ..CircuitUmc::default()
                };
                let net = generators::shift_ones(5);
                let run = tight.check(&net, &Budget::unlimited());
                let detail = run.detail::<CircuitUmcStats>().expect("typed stats");
                assert!(
                    factor > 1.0 || detail.quant_aborts > 0,
                    "{direction:?} x{factor}: nothing aborted"
                );
                assert_eq!(detail.ganai_cofactors, 0);
                match run.verdict {
                    Verdict::Unsafe { trace } => assert!(trace.validates(&net)),
                    other => panic!("{direction:?} x{factor}: expected unsafe, got {other}"),
                }
                let run = tight.check(&generators::token_ring(4), &Budget::unlimited());
                assert!(
                    run.verdict.is_safe(),
                    "{direction:?} x{factor}: got {}",
                    run.verdict
                );
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        for engine in engines() {
            let run = engine.check(&generators::token_ring(4), &Budget::unlimited());
            assert_eq!(run.stats.engine, engine.name());
            assert!(run.stats.iterations >= 1);
            assert!(run.stats.sat_checks > 0);
            assert!(run.stats.peak_nodes > 0);
            let detail = run.detail::<CircuitUmcStats>().expect("typed stats");
            assert!(!detail.frontier_sizes.is_empty());
            assert!(detail.reached_size > 0);
            assert_eq!(detail.iterations, run.stats.iterations);
            assert_eq!(detail.sat_checks, run.stats.sat_checks);
            assert!(!detail.partitions.trajectory.is_empty());
            assert!(detail.partitions.trajectory.iter().all(|&n| n == 1));
        }
    }

    #[test]
    fn step_budget_bounds_the_traversal() {
        // The gap circuit needs 7 steps either way; 2 are not enough.
        let net = generators::bounded_counter_gap(4, 6, 12);
        for engine in engines() {
            let run = engine.check(&net, &Budget::unlimited().with_steps(2));
            match run.verdict {
                Verdict::Bounded { resource, limit } => {
                    assert_eq!(resource, crate::Resource::Steps);
                    assert_eq!(limit, 2);
                }
                other => panic!("{}: expected bounded, got {other}", engine.name()),
            }
            assert_eq!(run.stats.iterations, 2);
        }
    }

    /// Structural verdict comparison: concrete counterexample inputs may
    /// legitimately differ between runs (different SAT models), but the
    /// classification and the minimal depth must not.
    fn verdict_key(v: &Verdict) -> String {
        match v {
            Verdict::Safe { iterations } => format!("safe@{iterations}"),
            Verdict::Unsafe { trace } => format!("cex@{}", trace.len()),
            other => format!("{other}"),
        }
    }

    #[test]
    fn sweeping_and_plain_traversals_agree() {
        // Same verdicts with sweeping forced on every iteration, forced
        // off, and gc-less.
        for engine in engines() {
            for net in [
                generators::token_ring(4),
                generators::token_ring(5),
                generators::bounded_counter_gap(4, 6, 12),
                generators::token_ring_bug(5),
                generators::shift_ones(4),
                generators::counter_bug(4, 6),
            ] {
                let plain = CircuitUmc {
                    sweep: None,
                    ..engine.clone()
                };
                let eager = CircuitUmc {
                    sweep: Some(StateSweepConfig::eager()),
                    ..engine.clone()
                };
                let merge_only = CircuitUmc {
                    sweep: Some(StateSweepConfig {
                        gc: false,
                        ..StateSweepConfig::eager()
                    }),
                    ..engine.clone()
                };
                let rp = plain.check(&net, &Budget::unlimited());
                let re = eager.check(&net, &Budget::unlimited());
                let rm = merge_only.check(&net, &Budget::unlimited());
                let what = format!("{} on {}", engine.name(), net.name());
                let key = verdict_key(&rp.verdict);
                assert_eq!(
                    key,
                    verdict_key(&re.verdict),
                    "{what}: sweep changed verdict"
                );
                assert_eq!(
                    key,
                    verdict_key(&rm.verdict),
                    "{what}: gc-less sweep changed verdict"
                );
                let de = re.detail::<CircuitUmcStats>().expect("stats");
                assert!(de.sweep.runs > 0, "{what}: eager sweep never ran");
                // Checked backward only: forward reached sets are not
                // monotone under sweeping (ring4's comes out larger with
                // the eager sweep).
                let dp = rp.detail::<CircuitUmcStats>().expect("stats");
                assert!(
                    engine.direction == Direction::Forward || de.reached_size <= dp.reached_size,
                    "{what}: sweeping grew the reached set"
                );
                if let Verdict::Unsafe { trace } = &re.verdict {
                    assert!(trace.validates(&net), "{what}: swept trace bogus");
                }
            }
        }
    }

    #[test]
    fn partitioned_traversals_agree_with_monolithic() {
        // Window-disjoint partitioning is exact: identical verdicts and
        // fixpoint iterations / cex depths for any partition count.
        for engine in engines() {
            for net in [
                generators::bounded_counter(3, 5),
                generators::token_ring(4),
                generators::token_ring(5),
                generators::bounded_counter_gap(4, 6, 12),
                generators::gray_counter(4),
                generators::token_ring_bug(5),
                generators::counter_bug(4, 5),
                generators::counter_bug(4, 6),
            ] {
                let mono = engine.check(&net, &Budget::unlimited());
                let key = verdict_key(&mono.verdict);
                let partitioned = CircuitUmc {
                    partition: PartitionCount::Fixed(3),
                    ..engine.clone()
                };
                let run = partitioned.check(&net, &Budget::unlimited());
                let what = format!("{} on {}", engine.name(), net.name());
                assert_eq!(
                    key,
                    verdict_key(&run.verdict),
                    "{what}: partitioning changed the verdict"
                );
                if let Verdict::Unsafe { trace } = &run.verdict {
                    assert!(trace.validates(&net), "{what}: partitioned trace bogus");
                }
                let detail = run.detail::<CircuitUmcStats>().expect("stats");
                assert!(
                    detail.partitions.trajectory.iter().any(|&n| n > 1),
                    "{what}: never actually partitioned"
                );
            }
        }
    }
}
