//! BDD-based reachability — the canonical-representation baseline the
//! paper argues against ("traditional methodologies resort to BDD, or
//! BDD-like, representations; these suffer the well known memory
//! explosion problem, due to their canonicity").
//!
//! Backward traversal mirrors the circuit engine: pre-image is functional
//! substitution ([`cbq_bdd::BddManager::vector_compose`]) followed by
//! input quantification; fixpoint checks are free thanks to canonicity.
//! A forward engine (relational product over a monolithic transition
//! relation) is provided for completeness.

use std::collections::HashMap;

use cbq_bdd::{BddManager, BddRef};
use cbq_ckt::{Network, Trace};

use crate::engine::{Budget, Direction, Engine, Meter};
use crate::verdict::{McRun, McStats, Verdict};

/// BDD-based reachability engine.
#[derive(Clone, Debug)]
pub struct BddUmc {
    /// Traversal direction.
    pub direction: Direction,
    /// Abort with `Unknown` once the manager exceeds this many nodes.
    pub node_cap: usize,
    /// Iteration bound.
    pub max_iterations: usize,
}

impl Default for BddUmc {
    fn default() -> BddUmc {
        BddUmc {
            direction: Direction::Backward,
            node_cap: 5_000_000,
            max_iterations: 10_000,
        }
    }
}

/// Statistics of a [`BddUmc`] run.
#[derive(Clone, Debug, Default)]
pub struct BddUmcStats {
    /// Iterations executed.
    pub iterations: usize,
    /// BDD node count of each frontier.
    pub frontier_sizes: Vec<usize>,
    /// Node count of the final reached set.
    pub reached_size: usize,
    /// Total nodes allocated in the manager.
    pub peak_nodes: usize,
}

/// Level layout: latches at `0..L`, inputs at `L..L+I`, next-state copies
/// at `L+I..2L+I` (forward only).
struct Levels {
    num_latches: usize,
    num_inputs: usize,
}

impl Levels {
    fn latch(&self, j: usize) -> u32 {
        j as u32
    }
    fn input(&self, j: usize) -> u32 {
        (self.num_latches + j) as u32
    }
    fn next(&self, j: usize) -> u32 {
        (self.num_latches + self.num_inputs + j) as u32
    }
    fn input_levels(&self) -> Vec<u32> {
        (0..self.num_inputs).map(|j| self.input(j)).collect()
    }
    fn current_levels(&self) -> Vec<u32> {
        (0..self.num_latches).map(|j| self.latch(j)).collect()
    }
}

impl Engine for BddUmc {
    fn name(&self) -> &'static str {
        match self.direction {
            Direction::Backward => "bdd",
            Direction::Forward => "bdd-forward",
        }
    }

    /// Runs BDD reachability on `net` within `budget`.
    fn check(&self, net: &Network, budget: &Budget) -> McRun {
        let meter = Meter::start(budget);
        match self.direction {
            Direction::Backward => self.check_backward(net, &meter),
            Direction::Forward => self.check_forward(net, &meter),
        }
    }
}

impl BddUmc {
    /// Bundles the typed stats into the uniform run record.
    fn finish(&self, verdict: Verdict, stats: BddUmcStats, meter: &Meter) -> McRun {
        let common = McStats {
            engine: self.name(),
            iterations: stats.iterations,
            peak_nodes: stats.peak_nodes,
            sat_checks: 0,
            elapsed: meter.elapsed(),
        };
        McRun::new(verdict, common).with_detail(stats)
    }

    fn build_common(
        &self,
        net: &Network,
        mgr: &mut BddManager,
        lv: &Levels,
    ) -> Option<(BddRef, Vec<BddRef>, BddRef)> {
        // Map AIG inputs to levels.
        let mut var_level = HashMap::new();
        for (j, l) in net.latches().iter().enumerate() {
            var_level.insert(l.var, lv.latch(j));
        }
        for (j, v) in net.primary_inputs().iter().enumerate() {
            var_level.insert(*v, lv.input(j));
        }
        let bad = mgr.from_aig(net.aig(), net.bad(), &var_level, self.node_cap)?;
        let deltas: Vec<BddRef> = net
            .latches()
            .iter()
            .map(|l| mgr.from_aig(net.aig(), l.next, &var_level, self.node_cap))
            .collect::<Option<_>>()?;
        let init = {
            let mut cube = mgr.one();
            for (j, l) in net.latches().iter().enumerate() {
                let v = mgr.var(lv.latch(j));
                let lit = if l.init { v } else { mgr.not(v) };
                cube = mgr.and(cube, lit);
            }
            cube
        };
        Some((bad, deltas, init))
    }

    fn check_backward(&self, net: &Network, meter: &Meter) -> McRun {
        let lv = Levels {
            num_latches: net.num_latches(),
            num_inputs: net.num_inputs(),
        };
        let mut mgr = BddManager::new(lv.num_latches + lv.num_inputs);
        let mut stats = BddUmcStats::default();
        if let Some(bounded) = meter.exceeded(0, mgr.num_nodes(), 0) {
            return self.finish(bounded, stats, meter);
        }
        let Some((bad, deltas, init)) = self.build_common(net, &mut mgr, &lv) else {
            return self.blowup(stats, &mgr, meter);
        };
        let subst: HashMap<u32, BddRef> = deltas
            .iter()
            .enumerate()
            .map(|(j, d)| (lv.latch(j), *d))
            .collect();
        let input_levels = lv.input_levels();

        // F₀ = ∃i. bad. Keep the *raw* (pre-quantification) formulas for
        // counterexample input extraction.
        let mut raws: Vec<BddRef> = vec![bad];
        let Some(f0) = mgr.exists_limited(bad, &input_levels, self.node_cap) else {
            return self.blowup(stats, &mgr, meter);
        };
        let mut frontier = f0;
        let mut frontiers = vec![f0];
        let mut reached = f0;
        stats.frontier_sizes.push(mgr.size(f0));
        if mgr.and(frontier, init) != mgr.zero() {
            let trace = extract_trace(net, &mut mgr, &lv, &raws, 0);
            stats.peak_nodes = mgr.num_nodes();
            return self.finish(Verdict::Unsafe { trace }, stats, meter);
        }
        for iter in 1..=self.max_iterations {
            if let Some(bounded) = meter.exceeded(iter - 1, mgr.num_nodes(), 0) {
                stats.peak_nodes = mgr.num_nodes();
                return self.finish(bounded, stats, meter);
            }
            stats.iterations = iter;
            let pre_raw = mgr.vector_compose(frontier, &subst);
            let Some(pre) = mgr.exists_limited(pre_raw, &input_levels, self.node_cap) else {
                return self.blowup(stats, &mgr, meter);
            };
            let nr = mgr.not(reached);
            let new = mgr.and(pre, nr);
            if new == mgr.zero() {
                stats.reached_size = mgr.size(reached);
                stats.peak_nodes = mgr.num_nodes();
                return self.finish(Verdict::Safe { iterations: iter }, stats, meter);
            }
            raws.push(pre_raw);
            frontiers.push(new);
            stats.frontier_sizes.push(mgr.size(new));
            if mgr.and(new, init) != mgr.zero() {
                let trace = extract_trace(net, &mut mgr, &lv, &raws, iter);
                stats.peak_nodes = mgr.num_nodes();
                return self.finish(Verdict::Unsafe { trace }, stats, meter);
            }
            reached = mgr.or(reached, new);
            frontier = new;
            if mgr.num_nodes() > self.node_cap {
                return self.blowup(stats, &mgr, meter);
            }
        }
        stats.peak_nodes = mgr.num_nodes();
        let verdict = Verdict::Unknown {
            reason: format!("iteration bound {} reached", self.max_iterations),
        };
        self.finish(verdict, stats, meter)
    }

    fn check_forward(&self, net: &Network, meter: &Meter) -> McRun {
        let lv = Levels {
            num_latches: net.num_latches(),
            num_inputs: net.num_inputs(),
        };
        let mut mgr = BddManager::new(2 * lv.num_latches + lv.num_inputs);
        let mut stats = BddUmcStats::default();
        if let Some(bounded) = meter.exceeded(0, mgr.num_nodes(), 0) {
            return self.finish(bounded, stats, meter);
        }
        let Some((bad, deltas, init)) = self.build_common(net, &mut mgr, &lv) else {
            return self.blowup(stats, &mgr, meter);
        };
        // Monolithic transition relation T(s, i, s') = ∧ⱼ s'ⱼ ≡ δⱼ.
        let mut trans = mgr.one();
        for (j, d) in deltas.iter().enumerate() {
            let nv = mgr.var(lv.next(j));
            let eq = mgr.iff(nv, *d);
            trans = mgr.and(trans, eq);
            if mgr.num_nodes() > self.node_cap {
                return self.blowup(stats, &mgr, meter);
            }
        }
        // Quantify s and i in the relational product; then rename s' → s.
        let mut cur_and_inputs = lv.current_levels();
        cur_and_inputs.extend(lv.input_levels());
        let rename: HashMap<u32, BddRef> = (0..lv.num_latches)
            .map(|j| {
                let v = mgr.var(lv.latch(j));
                (lv.next(j), v)
            })
            .collect();

        let mut reached = init;
        let mut frontier = init;
        let mut frontiers = vec![init];
        stats.frontier_sizes.push(mgr.size(init));
        for iter in 0..=self.max_iterations {
            if let Some(bounded) = meter.exceeded(iter, mgr.num_nodes(), 0) {
                stats.peak_nodes = mgr.num_nodes();
                return self.finish(bounded, stats, meter);
            }
            stats.iterations = iter;
            // Counterexample: a reached state fires bad under some input.
            if mgr.and(frontier, bad) != mgr.zero() {
                let trace = extract_forward_trace(net, &mut mgr, &lv, &frontiers, bad, trans, iter);
                stats.peak_nodes = mgr.num_nodes();
                return self.finish(Verdict::Unsafe { trace }, stats, meter);
            }
            let img = mgr.and_exists(trans, frontier, &cur_and_inputs);
            let img = mgr.vector_compose(img, &rename);
            let nr = mgr.not(reached);
            let new = mgr.and(img, nr);
            if new == mgr.zero() {
                stats.reached_size = mgr.size(reached);
                stats.peak_nodes = mgr.num_nodes();
                return self.finish(
                    Verdict::Safe {
                        iterations: iter + 1,
                    },
                    stats,
                    meter,
                );
            }
            frontiers.push(new);
            stats.frontier_sizes.push(mgr.size(new));
            reached = mgr.or(reached, new);
            frontier = new;
            if mgr.num_nodes() > self.node_cap {
                return self.blowup(stats, &mgr, meter);
            }
        }
        stats.peak_nodes = mgr.num_nodes();
        let verdict = Verdict::Unknown {
            reason: format!("iteration bound {} reached", self.max_iterations),
        };
        self.finish(verdict, stats, meter)
    }

    fn blowup(&self, mut stats: BddUmcStats, mgr: &BddManager, meter: &Meter) -> McRun {
        stats.peak_nodes = mgr.num_nodes();
        let verdict = Verdict::Unknown {
            reason: format!("BDD blow-up beyond {} nodes", self.node_cap),
        };
        self.finish(verdict, stats, meter)
    }
}

/// Backward-traversal counterexample: walk forward from the initial
/// state; at each level restrict the raw (state × input) pre-image
/// formula by the current state and read an input assignment off the BDD.
fn extract_trace(
    net: &Network,
    mgr: &mut BddManager,
    lv: &Levels,
    raws: &[BddRef],
    level: usize,
) -> Trace {
    let mut inputs_seq = Vec::with_capacity(level + 1);
    let mut state = net.initial_state();
    for l in (0..=level).rev() {
        // raws[l] is over (s, i): for l ≥ 1 the pairs whose successor lies
        // in frontier l-1, and bad itself for l = 0. Walking forward from
        // the initial state consumes raws[level], …, raws[0].
        let mut g = raws[l];
        for (j, v) in state.iter().enumerate() {
            g = mgr.restrict(g, lv.latch(j), *v);
        }
        let asg = mgr
            .one_sat(g)
            .expect("counterexample step must be satisfiable");
        let inputs: Vec<bool> = (0..lv.num_inputs)
            .map(|j| asg[lv.input(j) as usize].unwrap_or(false))
            .collect();
        let (next, _) = net.step(&state, &inputs);
        inputs_seq.push(inputs);
        state = next;
    }
    Trace::new(inputs_seq)
}

/// Forward-traversal counterexample: pick a bad state in the last
/// frontier, then walk backwards through the frontiers using the
/// transition relation, collecting inputs; emit them in forward order.
fn extract_forward_trace(
    net: &Network,
    mgr: &mut BddManager,
    lv: &Levels,
    frontiers: &[BddRef],
    bad: BddRef,
    trans: BddRef,
    level: usize,
) -> Trace {
    // Final state: in frontiers[level] ∧ ∃i.bad — take a concrete one,
    // with the bad-firing input.
    let final_sel = mgr.and(frontiers[level], bad);
    let asg = mgr.one_sat(final_sel).expect("bad intersection nonempty");
    let mut states_rev: Vec<Vec<bool>> = Vec::new();
    let mut inputs_rev: Vec<Vec<bool>> = Vec::new();
    let cur_state: Vec<bool> = (0..lv.num_latches)
        .map(|j| asg[lv.latch(j) as usize].unwrap_or(false))
        .collect();
    let final_inputs: Vec<bool> = (0..lv.num_inputs)
        .map(|j| asg[lv.input(j) as usize].unwrap_or(false))
        .collect();
    inputs_rev.push(final_inputs);
    states_rev.push(cur_state);
    for l in (0..level).rev() {
        let target = states_rev.last().expect("non-empty");
        // Predecessor in frontiers[l]: frontiers[l](s) ∧ T(s,i,s'=target).
        let mut g = mgr.and(frontiers[l], trans);
        for (j, v) in target.iter().enumerate() {
            g = mgr.restrict(g, lv.next(j), *v);
        }
        let asg = mgr.one_sat(g).expect("predecessor must exist");
        let state: Vec<bool> = (0..lv.num_latches)
            .map(|j| asg[lv.latch(j) as usize].unwrap_or(false))
            .collect();
        let inputs: Vec<bool> = (0..lv.num_inputs)
            .map(|j| asg[lv.input(j) as usize].unwrap_or(false))
            .collect();
        inputs_rev.push(inputs);
        states_rev.push(state);
    }
    inputs_rev.reverse();
    let _ = net;
    Trace::new(inputs_rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_ckt::generators;

    fn engines() -> [BddUmc; 2] {
        [
            BddUmc {
                direction: Direction::Backward,
                ..BddUmc::default()
            },
            BddUmc {
                direction: Direction::Forward,
                ..BddUmc::default()
            },
        ]
    }

    #[test]
    fn safe_circuits_both_directions() {
        for eng in engines() {
            for net in [
                generators::token_ring(5),
                generators::bounded_counter(4, 9),
                generators::gray_counter(4),
                generators::mutex(),
            ] {
                crate::testsupport::check_safe(&eng, &net);
            }
        }
    }

    #[test]
    fn unsafe_circuits_both_directions() {
        for eng in engines() {
            for (net, depth) in [
                (generators::token_ring_bug(5), 3),
                (generators::mutex_bug(), 2),
                (generators::shift_ones(4), 4),
                (generators::counter_bug(4, 5), 5),
            ] {
                crate::testsupport::check_unsafe(&eng, &net, Some(depth));
            }
        }
    }

    #[test]
    fn node_cap_aborts_cleanly() {
        let eng = BddUmc {
            node_cap: 50,
            ..BddUmc::default()
        };
        let run = eng.check(&generators::fifo_ctrl(3), &Budget::unlimited());
        assert!(matches!(run.verdict, Verdict::Unknown { .. }));
    }

    #[test]
    fn stats_are_populated() {
        let run = BddUmc::default().check(&generators::token_ring(4), &Budget::unlimited());
        assert!(run.stats.iterations >= 1);
        assert!(run.stats.peak_nodes > 0);
        let detail = run.detail::<BddUmcStats>().expect("typed stats");
        assert!(!detail.frontier_sizes.is_empty());
    }

    #[test]
    fn node_budget_is_bounded_not_unknown() {
        // Unlike the engine's own node_cap (an internal give-up, hence
        // Unknown), a caller-imposed node budget reports Bounded.
        let run = BddUmc::default().check(
            &generators::fifo_ctrl(3),
            &Budget::unlimited().with_nodes(10),
        );
        assert!(run.verdict.is_bounded(), "got {}", run.verdict);
    }
}
