//! Bounded model checking (Biere, Cimatti, Clarke, Fujita, Zhu — DAC
//! 1999, reference [1] of the paper).
//!
//! The transition system is unrolled *functionally*: frame `t`'s state
//! bits are AIG functions of the initial constants and the input frames
//! `i₀ … i_{t-1}`, so no next-state variables ever exist — the circuit
//! analogue of in-lining. Each depth is one assumption-based SAT call on
//! the shared clause database. The [`Unroller`] here is the crate's only
//! functional unrolling: k-induction and interpolation unroll through it
//! too.

use std::sync::Arc;

use cbq_aig::sim::TernSim;
use cbq_aig::{Aig, Lit, Var};
use cbq_ckt::{Network, Trace};
use cbq_cnf::{AigCnf, AigCnfStats};
use cbq_sat::{SatLit, SatResult, SolverStats};

use crate::bus::{BusClientStats, BusConsumer, LemmaBus};
use crate::engine::{Budget, Engine, Meter};
use crate::verdict::{McRun, McStats, Verdict};

/// Pre-unrolling reduction derived from ternary X-propagation: latches
/// proved stuck-at-constant unroll as constants, and latches that cannot
/// influence `bad` through the remaining transition functions are never
/// composed at all.
///
/// Stuck-at facts hold in *every reachable state*, and a functional
/// unrolling only ever valuates reachable states, so the reduced
/// unrolling has exactly the same counterexamples at every depth. The
/// k-induction step case ranges over arbitrary states, so it must not
/// use this reduction.
#[derive(Debug)]
struct CoiReduction {
    /// `Some(b)` when ternary X-propagation proved the latch holds `b`
    /// in every reachable state.
    stuck: Vec<Option<bool>>,
    /// Whether the latch's transition function must be unrolled (it can
    /// reach `bad` through non-stuck dependencies).
    active: Vec<bool>,
}

impl CoiReduction {
    /// Runs the widening fixpoint (all primary inputs X; a latch that can
    /// leave its current definite value widens to X) and then closes
    /// `bad`'s latch support over the non-stuck transition functions.
    fn analyse(net: &Network) -> CoiReduction {
        let aig = net.aig();
        let latches = net.latches();
        let mut sim = TernSim::new(aig, 1);
        for pi in net.primary_inputs() {
            sim.broadcast_var(*pi, None);
        }
        // Monotone: entries only ever go definite -> X, so the loop runs
        // at most |latches| + 1 iterations.
        let mut stuck: Vec<Option<bool>> = latches.iter().map(|l| Some(l.init)).collect();
        loop {
            for (l, v) in latches.iter().zip(&stuck) {
                sim.broadcast_var(l.var, *v);
            }
            sim.run(aig);
            let mut changed = false;
            for (i, l) in latches.iter().enumerate() {
                if stuck[i].is_some() && sim.lit_value(l.next, 0) != stuck[i] {
                    stuck[i] = None;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Latch ordinal by AIG variable, for reading latch supports.
        let top = latches
            .iter()
            .map(|l| l.var.index())
            .max()
            .map_or(0, |i| i + 1);
        let mut ord_of = vec![usize::MAX; top];
        for (i, l) in latches.iter().enumerate() {
            ord_of[l.var.index()] = i;
        }
        let latch_support = |root: Lit, out: &mut Vec<usize>| {
            for v in aig.collect_cone(&[root]) {
                if let Some(&o) = ord_of.get(v.index()) {
                    if o != usize::MAX {
                        out.push(o);
                    }
                }
            }
        };
        // Stuck latches read as constants, so they propagate no
        // dependencies; the closure runs over the others only.
        let mut active = vec![false; latches.len()];
        let mut support = Vec::new();
        let mut work: Vec<usize> = Vec::new();
        latch_support(net.bad(), &mut support);
        loop {
            for o in support.drain(..) {
                if stuck[o].is_none() && !active[o] {
                    active[o] = true;
                    work.push(o);
                }
            }
            match work.pop() {
                None => break,
                Some(i) => latch_support(latches[i].next, &mut support),
            }
        }
        CoiReduction { stuck, active }
    }
}

/// The crate's one functional unroller. Frame `t`'s state bits are AIG
/// functions of the start state and the input frames `i₀ … i_{t-1}`, and
/// every frame is built by [`Unroller::push_frame`]. Three start states:
///
/// - the reset constants: BMC (with [`Unroller::with_coi_reduction`])
///   and the base case of k-induction ([`Unroller::new`]);
/// - fresh free state variables: the k-induction step case
///   ([`Unroller::free_state`]);
/// - a caller's cut on the caller's own manager and bridge: the `B`
///   frames of interpolation ([`Unroller::from_state`]).
#[derive(Debug)]
pub(crate) struct Unroller {
    pub aig: Aig,
    pub cnf: AigCnf,
    /// The state entering each frame unrolled so far (`states[0]` is the
    /// start state), kept so bus lemmas can be instantiated at frames
    /// that already exist by the time they are admitted.
    pub states: Vec<Vec<Lit>>,
    /// `bad` per unrolled frame.
    pub bads: Vec<Lit>,
    /// Fresh input variables per frame.
    frame_inputs: Vec<Vec<Var>>,
    /// When set, stuck latches stay constants and pruned latches keep a
    /// frozen placeholder that no composed root — and no instantiated
    /// lemma — is allowed to read.
    coi: Option<CoiReduction>,
}

impl Unroller {
    /// From the reset constants, unreduced.
    pub fn new(net: &Network) -> Unroller {
        Unroller::from_reset(net, None)
    }

    /// From the reset constants with the ternary X-propagation COI
    /// reduction. Sound for exact-depth reachability queries only (see
    /// [`CoiReduction`]).
    pub fn with_coi_reduction(net: &Network) -> Unroller {
        Unroller::from_reset(net, Some(CoiReduction::analyse(net)))
    }

    fn from_reset(net: &Network, coi: Option<CoiReduction>) -> Unroller {
        let reset = net
            .latches()
            .iter()
            .map(|l| if l.init { Lit::TRUE } else { Lit::FALSE })
            .collect();
        let mut u = Unroller::from_state(net.aig().clone(), AigCnf::new(), reset);
        u.coi = coi;
        u
    }

    /// From one fresh free variable per latch.
    pub fn free_state(net: &Network) -> Unroller {
        let mut aig = net.aig().clone();
        let free = net
            .latches()
            .iter()
            .map(|_| aig.add_input().lit())
            .collect();
        Unroller::from_state(aig, AigCnf::new(), free)
    }

    /// From `start` (one literal per latch) on a manager that extends the
    /// network's AIG, encoding into `cnf`.
    pub fn from_state(aig: Aig, cnf: AigCnf, start: Vec<Lit>) -> Unroller {
        Unroller {
            aig,
            cnf,
            states: vec![start],
            bads: Vec::new(),
            frame_inputs: Vec::new(),
            coi: None,
        }
    }

    /// Latch-count summary of the reduction: `(stuck, pruned)`. Both 0
    /// when the reduction is off.
    pub fn coi_summary(&self) -> (usize, usize) {
        let stuck = self
            .coi
            .as_ref()
            .map_or(0, |c| c.stuck.iter().flatten().count());
        let pruned = (0..self.states[0].len())
            .filter(|&i| self.pruned(i))
            .count();
        (stuck, pruned)
    }

    /// Whether latch `i` is pruned: its per-frame value is never computed.
    fn pruned(&self, i: usize) -> bool {
        self.coi
            .as_ref()
            .is_some_and(|c| !c.active[i] && c.stuck[i].is_none())
    }

    /// Whether a bus cube may be instantiated on this unrolling: no
    /// literal may touch a pruned latch, whose frozen placeholder must
    /// never reach the solver.
    pub fn cube_instantiable(&self, cube: &[(usize, bool)]) -> bool {
        cube.iter().all(|&(ord, _)| !self.pruned(ord))
    }

    /// Unrolls one more frame and returns its `bad`: a fresh input for
    /// every primary input (even under COI reduction, so trace
    /// extraction is uniform), then one shared cone walk composing `bad`
    /// and every live next-state function. Stuck latches keep their
    /// constant, pruned ones their placeholder.
    pub fn push_frame(&mut self, net: &Network) -> Lit {
        let fresh: Vec<Var> = net
            .primary_inputs()
            .iter()
            .map(|_| self.aig.add_input())
            .collect();
        let latches = net.latches();
        let state = self.states.last().expect("start state");
        // Pruned latches are unread by every composed root; their
        // placeholder must not enter the substitution.
        let mut subst: Vec<(Var, Lit)> = latches
            .iter()
            .zip(state)
            .enumerate()
            .filter(|&(i, _)| !self.pruned(i))
            .map(|(_, (l, s))| (l.var, *s))
            .collect();
        subst.extend(
            net.primary_inputs()
                .iter()
                .zip(&fresh)
                .map(|(pi, f)| (*pi, f.lit())),
        );
        let live: Vec<usize> = (0..latches.len())
            .filter(|&i| self.coi.as_ref().is_none_or(|c| c.active[i]))
            .collect();
        let mut roots: Vec<Lit> = Vec::with_capacity(1 + live.len());
        roots.push(net.bad());
        roots.extend(live.iter().map(|&i| latches[i].next));
        let composed = self.aig.compose_many(&roots, &subst);
        let mut next = state.clone();
        for (&i, &f) in live.iter().zip(&composed[1..]) {
            next[i] = f;
        }
        self.bads.push(composed[0]);
        self.frame_inputs.push(fresh);
        self.states.push(next);
        composed[0]
    }

    /// Ensures frames `0..=depth` exist and returns `bad` at `depth`.
    pub fn bad_at(&mut self, net: &Network, depth: usize) -> Lit {
        while self.bads.len() <= depth {
            self.push_frame(net);
        }
        self.bads[depth]
    }

    /// Instantiates an admitted lemma cube as a clause under `guard` over
    /// the state entering frame `t`: `⋁ ¬(states[t][ord] == val)`.
    /// Constants fold away (see
    /// [`cbq_cnf::AigCnf::add_guarded_clause_lits`]); an identically
    /// false clause is skipped — dropping an instantiation is always
    /// sound.
    pub fn assume_cube(&mut self, guard: SatLit, t: usize, cube: &[(usize, bool)]) {
        let clause: Vec<Lit> = cube
            .iter()
            .map(|&(ord, val)| self.states[t][ord].xor_sign(val))
            .collect();
        self.cnf.add_guarded_clause_lits(&self.aig, guard, &clause);
    }

    /// Solves `bad` at exactly `depth` under `extra` assumptions (the
    /// lemma guard of the bus consumer; empty when no bus is attached).
    pub fn check_depth_assuming(
        &mut self,
        net: &Network,
        depth: usize,
        extra: &[SatLit],
    ) -> SatResult {
        let bad = self.bad_at(net, depth);
        self.cnf.solve_under_assuming(&self.aig, &[bad], extra)
    }

    /// Extracts the trace for a satisfiable `depth` query (model must be
    /// current).
    pub fn extract_trace(&self, depth: usize) -> Trace {
        Trace::new(
            self.frame_inputs[..=depth]
                .iter()
                .map(|inputs| self.cnf.model_of(inputs))
                .collect(),
        )
    }
}

/// Bounded model checker: searches for counterexamples of increasing
/// depth up to `max_depth`.
///
/// Returns `Unsafe` with a minimal-depth trace, or `Unknown` (BMC alone
/// can never prove safety).
#[derive(Clone, Debug)]
pub struct Bmc {
    /// Maximum unrolling depth (inclusive).
    pub max_depth: usize,
    /// The parallel portfolio's [`LemmaBus`]. When set, BMC re-validates
    /// every published IC3 cube with its own [`crate::LemmaValidator`] and
    /// instantiates the admitted clauses at every unrolled frame under
    /// one guard. In a functional unrolling from the concrete initial
    /// state every frame valuation is a reachable state, so admitted
    /// lemmas are *implied* — they can only prune the solver's search,
    /// never add or remove a counterexample.
    pub bus: Option<Arc<LemmaBus>>,
}

impl Default for Bmc {
    fn default() -> Bmc {
        Bmc {
            max_depth: 64,
            bus: None,
        }
    }
}

/// Statistics of a [`Bmc`] run.
#[derive(Clone, Debug, Default)]
pub struct BmcStats {
    /// Deepest frame unrolled.
    pub depth_reached: usize,
    /// Total nodes in the unrolled AIG.
    pub unrolled_nodes: usize,
    /// SAT checks issued (one per depth, plus lemma validation).
    pub sat_checks: u64,
    /// Latches in the model.
    pub latches_total: usize,
    /// Latches proved stuck-at-constant by ternary X-propagation.
    pub latches_stuck: usize,
    /// Non-stuck latches pruned as outside the reduced COI of `bad`.
    pub latches_pruned: usize,
    /// Validated bus cubes dropped because they touch a pruned latch.
    pub coi_lemmas_skipped: u64,
    /// Lemma-bus traffic (cubes admitted/rejected after re-validation).
    pub bus: BusClientStats,
    /// Solver-core counters of the unrolling's bridge.
    pub solver: SolverStats,
    /// SAT-bridge counters of the unrolling's bridge.
    pub cnf: AigCnfStats,
}

/// Bundles the typed stats into the uniform run record.
fn finish(verdict: Verdict, stats: BmcStats, meter: &Meter) -> McRun {
    let common = McStats {
        engine: "bmc",
        iterations: stats.depth_reached,
        peak_nodes: stats.unrolled_nodes,
        sat_checks: stats.sat_checks,
        elapsed: meter.elapsed(),
    };
    McRun::new(verdict, common).with_detail(stats)
}

impl Engine for Bmc {
    fn name(&self) -> &'static str {
        "bmc"
    }

    /// Runs BMC on `net` within `budget` (`max_steps` caps the depth).
    ///
    /// The unrolling always runs the ternary X-propagation COI
    /// reduction: stuck-at-constant latches unroll as constants, and
    /// latches that cannot influence `bad` are never composed. Verdicts
    /// and minimal counterexample depths are unchanged — stuck values
    /// hold in every reachable state, and a functional unrolling only
    /// valuates reachable states.
    fn check(&self, net: &Network, budget: &Budget) -> McRun {
        let meter = Meter::start(budget);
        let mut u = Unroller::with_coi_reduction(net);
        let (latches_stuck, latches_pruned) = u.coi_summary();
        let mut stats = BmcStats {
            latches_total: net.latches().len(),
            latches_stuck,
            latches_pruned,
            ..BmcStats::default()
        };
        // The bus consumer, and one guard carrying every instantiated
        // lemma clause.
        let mut consumer = self
            .bus
            .clone()
            .map(|bus| (BusConsumer::new(bus, net), u.cnf.new_guard()));
        let extra: Vec<SatLit> = consumer.iter().map(|&(_, guard)| guard).collect();
        let mut verdict = Verdict::Unknown {
            reason: format!("no counterexample up to depth {}", self.max_depth),
        };
        for d in 0..=self.max_depth {
            let bus_checks = consumer.as_ref().map_or(0, |(c, _)| c.checks());
            let checks = u.cnf.stats().checks + bus_checks;
            if let Some(bounded) = meter.exceeded(d, u.aig.num_nodes(), checks) {
                verdict = bounded;
                break;
            }
            stats.depth_reached = d;
            u.bad_at(net, d);
            if let Some((c, guard)) = consumer.as_mut() {
                // Previously admitted lemmas reach the newly opened frame
                // first, then fresh admissions cover frames 1..=d (the
                // frame-0 instantiation is a constant-true clause — skip).
                // A cube over a pruned latch has no per-frame value to
                // bind against — dropping it only loses pruning power,
                // never soundness.
                if d >= 1 {
                    for cube in c.admitted() {
                        if u.cube_instantiable(cube) {
                            u.assume_cube(*guard, d, cube);
                        }
                    }
                }
                for cube in c.poll() {
                    if !u.cube_instantiable(cube) {
                        stats.coi_lemmas_skipped += 1;
                        continue;
                    }
                    for t in 1..=d {
                        u.assume_cube(*guard, t, cube);
                    }
                }
            }
            match u.check_depth_assuming(net, d, &extra) {
                SatResult::Sat => {
                    verdict = Verdict::Unsafe {
                        trace: u.extract_trace(d),
                    };
                    break;
                }
                SatResult::Unsat => {}
                SatResult::Unknown => {
                    verdict = Verdict::Unknown {
                        reason: format!("solver budget at depth {d}"),
                    };
                    break;
                }
            }
        }
        stats.unrolled_nodes = u.aig.num_nodes();
        stats.sat_checks = u.cnf.stats().checks;
        stats.solver = u.cnf.solver_stats();
        stats.cnf = u.cnf.stats();
        if let Some((c, _)) = &consumer {
            stats.sat_checks += c.checks();
            stats.bus = c.stats();
        }
        finish(verdict, stats, &meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_ckt::generators;
    use proptest::prelude::*;

    #[test]
    fn finds_minimal_depth_counterexamples() {
        for (net, depth) in [
            (generators::counter_bug(5, 7), 7),
            (generators::token_ring_bug(5), 3),
            (generators::mutex_bug(), 2),
            (generators::shift_ones(4), 4),
        ] {
            let run = Bmc::default().check(&net, &Budget::unlimited());
            match run.verdict {
                Verdict::Unsafe { trace } => {
                    assert_eq!(trace.len(), depth + 1, "{}", net.name());
                    assert!(trace.validates(&net), "{}", net.name());
                }
                other => panic!("{} expected unsafe, got {other}", net.name()),
            }
        }
    }

    #[test]
    fn safe_circuit_is_unknown() {
        let run = Bmc {
            max_depth: 20,
            ..Bmc::default()
        }
        .check(&generators::token_ring(4), &Budget::unlimited());
        assert!(matches!(run.verdict, Verdict::Unknown { .. }));
        assert_eq!(run.detail::<BmcStats>().unwrap().depth_reached, 20);
        assert_eq!(run.stats.iterations, 20);
    }

    #[test]
    fn depth_budget_bounds_the_search() {
        // The bug sits at depth 7; a 3-step budget must trip first.
        let run = Bmc::default().check(
            &generators::counter_bug(5, 7),
            &Budget::unlimited().with_steps(3),
        );
        assert!(run.verdict.is_bounded(), "got {}", run.verdict);
        assert!(run.stats.iterations <= 3);
    }

    #[test]
    fn bound_below_bug_depth_misses_it() {
        let run = Bmc {
            max_depth: 5,
            ..Bmc::default()
        }
        .check(&generators::counter_bug(5, 7), &Budget::unlimited());
        assert!(matches!(run.verdict, Verdict::Unknown { .. }));
    }

    #[test]
    fn coi_reduction_prunes_and_preserves_counterexamples() {
        // Four latches: `stuck` never leaves its init, `dead` toggles
        // forever but feeds nothing, and a two-stage pipeline carries a
        // 1 into `bad` (gated on the stuck latch staying 0) at depth 2.
        let mut b = cbq_ckt::Network::builder("coi");
        let stuck = b.add_latch(false);
        b.set_next(stuck, stuck.lit());
        let dead = b.add_latch(false);
        b.set_next(dead, !dead.lit());
        let p0 = b.add_latch(false);
        b.set_next(p0, Lit::TRUE);
        let p1 = b.add_latch(false);
        b.set_next(p1, p0.lit());
        let bad = b.aig_mut().and(p1.lit(), !stuck.lit());
        let net = b.build(bad);

        let reduced = Bmc::default().check(&net, &Budget::unlimited());
        match &reduced.verdict {
            Verdict::Unsafe { trace } => {
                assert_eq!(trace.len(), 3);
                assert!(trace.validates(&net));
            }
            other => panic!("expected unsafe, got {other}"),
        }
        // The unreduced side: the plain unroller, one depth at a time.
        let mut full = Unroller::new(&net);
        assert_eq!(full.coi_summary(), (0, 0));
        let depth = (0..=2)
            .find(|&d| full.check_depth_assuming(&net, d, &[]) == SatResult::Sat)
            .expect("the unreduced unrolling finds the bug");
        let trace = full.extract_trace(depth);
        assert_eq!(trace.len(), 3);
        assert!(trace.validates(&net));
        let rs = reduced.detail::<BmcStats>().unwrap();
        assert_eq!(rs.latches_total, 4);
        assert_eq!(rs.latches_stuck, 1, "stuck latch not detected");
        assert_eq!(rs.latches_pruned, 1, "dead latch not pruned");
        assert!(
            rs.unrolled_nodes <= full.aig.num_nodes(),
            "reduction grew the unrolling: {} > {}",
            rs.unrolled_nodes,
            full.aig.num_nodes()
        );
    }

    #[test]
    fn bad_at_initial_state() {
        // Latch initialised to 1 with bad = latch: depth-0 cex.
        let mut b = cbq_ckt::Network::builder("badinit");
        let s = b.add_latch(true);
        b.set_next(s, s.lit());
        let net = b.build(s.lit());
        let run = Bmc::default().check(&net, &Budget::unlimited());
        match run.verdict {
            Verdict::Unsafe { trace } => assert_eq!(trace.len(), 1),
            other => panic!("expected unsafe, got {other}"),
        }
    }

    #[test]
    fn consumes_prepublished_bus_lemmas() {
        // `a` and `b` toggle together outside `bad`'s cone (pruned); a
        // two-stage pipeline `p0' = 1`, `p1' = p0` fires `bad = p1` at
        // depth 2. The pair `a ∧ ¬b`, `¬a ∧ b` is unreachable and
        // mutually inductive: admitted, but skipped on the reduced
        // unrolling. `¬p0 ∧ p1` is unreachable, inductive, and over live
        // latches: admitted and instantiated.
        let mut b = cbq_ckt::Network::builder("toggles");
        let a = b.add_latch(false);
        b.set_next(a, !a.lit());
        let bv = b.add_latch(false);
        b.set_next(bv, !bv.lit());
        let p0 = b.add_latch(false);
        b.set_next(p0, Lit::TRUE);
        let p1 = b.add_latch(false);
        b.set_next(p1, p0.lit());
        let net = b.build(p1.lit());
        let bus = Arc::new(LemmaBus::new());
        bus.publish_cube(vec![(0, true), (1, false)]);
        bus.publish_cube(vec![(0, false), (1, true)]);
        bus.publish_inductive(vec![(2, false), (3, true)]);
        let with_bus = Bmc {
            bus: Some(bus),
            ..Bmc::default()
        }
        .check(&net, &Budget::unlimited());
        let without = Bmc::default().check(&net, &Budget::unlimited());
        assert_eq!(with_bus.verdict, without.verdict);
        assert_eq!(with_bus.verdict.trace().map(Trace::len), Some(3));
        let d = with_bus.detail::<BmcStats>().expect("stats");
        assert_eq!(d.latches_pruned, 2, "stats: {d:?}");
        assert_eq!(d.bus.lemmas_admitted, 3, "stats: {d:?}");
        assert_eq!(d.bus.lemmas_rejected, 0, "stats: {d:?}");
        assert_eq!(d.coi_lemmas_skipped, 2, "stats: {d:?}");
    }

    #[test]
    fn bus_validation_counts_against_the_sat_check_budget() {
        // Five untagged pair cubes make the consumer's validator issue
        // its batch queries before the depth-0 check; the next depth must
        // see them on the meter.
        let bus = Arc::new(LemmaBus::new());
        for i in 0..5 {
            bus.publish_cube(vec![(i, true), ((i + 1) % 5, true)]);
        }
        let run = Bmc {
            bus: Some(bus),
            ..Bmc::default()
        }
        .check(
            &generators::counter_bug(5, 7),
            &Budget::unlimited().with_sat_checks(5),
        );
        let limit = Verdict::Bounded {
            resource: crate::verdict::Resource::SatChecks,
            limit: 5,
        };
        assert_eq!(run.verdict, limit, "after {} checks", run.stats.sat_checks);
        let d = run.detail::<BmcStats>().expect("stats");
        assert_eq!(d.depth_reached, 0, "stats: {d:?}");
    }

    /// A random network: three latches with the given resets and two
    /// inputs; each next-state function, then `bad`, is a short random
    /// AND expression over all five.
    fn random_network(inits: &[bool], fns: &[Vec<(usize, bool, usize, bool)>]) -> Network {
        let mut b = Network::builder("random");
        let latches: Vec<Var> = inits.iter().map(|&i| b.add_latch(i)).collect();
        let inputs: Vec<Var> = (0..2).map(|_| b.add_input()).collect();
        let leaves: Vec<Lit> = latches.iter().chain(&inputs).map(|v| v.lit()).collect();
        let mut roots = Vec::new();
        for ops in fns {
            let mut pool = leaves.clone();
            for &(x, px, y, py) in ops {
                let l = pool[x % pool.len()].xor_sign(px);
                let r = pool[y % pool.len()].xor_sign(py);
                let g = b.aig_mut().and(l, r);
                pool.push(g);
            }
            roots.push(*pool.last().expect("leaves"));
        }
        for (l, r) in latches.iter().zip(&roots) {
            b.set_next(*l, *r);
        }
        b.build(roots[latches.len()])
    }

    /// Unrolls frames 0–4 and evaluates every state and `bad` under the
    /// input assignment `bits` (bit `i` for the unrolled manager's `i`-th
    /// input): they must match iterating [`Network::step`] from the start
    /// state the assignment gives. `checked` selects the latches that must
    /// match. Returns the evaluated start state.
    fn frames_follow_steps(
        net: &Network,
        u: &mut Unroller,
        bits: u64,
        checked: impl Fn(usize) -> bool,
    ) -> Result<Vec<bool>, TestCaseError> {
        u.bad_at(net, 4);
        let asg: Vec<bool> = (0..u.aig.num_inputs())
            .map(|i| bits >> (i % 64) & 1 == 1)
            .collect();
        let eval = |l: Lit| u.aig.eval(l, &asg);
        let start: Vec<bool> = u.states[0].iter().map(|&l| eval(l)).collect();
        let mut state = start.clone();
        for t in 0..=5 {
            for i in (0..state.len()).filter(|&i| checked(i)) {
                prop_assert_eq!(eval(u.states[t][i]), state[i], "latch {} at frame {}", i, t);
            }
            if t == 5 {
                break;
            }
            let inputs: Vec<bool> = u.frame_inputs[t].iter().map(|v| eval(v.lit())).collect();
            let (next, bad) = net.step(&state, &inputs);
            prop_assert_eq!(eval(u.bads[t]), bad, "bad at frame {}", t);
            state = next;
        }
        Ok(start)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every start state unrolls the network's own semantics: from
        /// the reset constants (plain and COI-reduced, where live and
        /// stuck latches must match) and from free state variables.
        #[test]
        fn frames_match_network_steps(
            inits in prop::collection::vec(any::<bool>(), 3..=3),
            fns in prop::collection::vec(
                prop::collection::vec(
                    (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>()),
                    0..=4,
                ),
                4..=4,
            ),
            bits: u64,
        ) {
            let net = random_network(&inits, &fns);
            let start = frames_follow_steps(&net, &mut Unroller::new(&net), bits, |_| true)?;
            prop_assert_eq!(start, net.initial_state());
            let mut free = Unroller::free_state(&net);
            frames_follow_steps(&net, &mut free, bits, |_| true)?;
            let mut reduced = Unroller::with_coi_reduction(&net);
            let coi = reduced.coi.as_ref().expect("reduction");
            let computed: Vec<bool> = (0..3)
                .map(|i| coi.active[i] || coi.stuck[i].is_some())
                .collect();
            let start = frames_follow_steps(&net, &mut reduced, bits, |i| computed[i])?;
            prop_assert_eq!(start, net.initial_state());
        }
    }
}
