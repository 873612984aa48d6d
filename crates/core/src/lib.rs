//! # cbq-core — circuit-based quantifier elimination
//!
//! The primary contribution of the DATE 2005 paper, reproduced in full.
//! Given a function *F* represented as an AIG and a variable *v*,
//! existential quantification is computed by cofactoring:
//!
//! ```text
//! ∃v. F  =  F|v=1  ∨  F|v=0
//! ```
//!
//! which in the worst case doubles the circuit — so each quantification is
//! followed by the two phases of the paper:
//!
//! 1. a **merge phase** ([`cbq_cec::sweep`]) that maximises sub-circuit
//!    sharing between the two cofactors via structural hashing, BDD
//!    sweeping, and factorised incremental SAT checks;
//! 2. an **optimisation phase** ([`cbq_synth::optimize_disjunction`]) that
//!    simplifies each cofactor under the input/observability don't-cares
//!    provided by the other.
//!
//! Multi-variable quantification ([`exists_many`]) schedules variables
//! cheapest-first and supports the paper's **partial quantification**
//! (Section 4): a variable whose elimination would exceed a growth budget
//! is *aborted* and returned as residual, so that downstream SAT-based
//! engines (all-solutions pre-image, BMC, induction) see fewer decision
//! variables while the representation stays small.
//!
//! [`substitute`] exposes *quantification by substitution (in-lining)*
//! (Section 3): `∃y. (y ≡ δ) ∧ P(y) = P(δ)`, the transformation backward
//! reachability uses to eliminate every next-state variable for free.
//!
//! ## Example
//!
//! ```
//! use cbq_aig::Aig;
//! use cbq_cnf::AigCnf;
//! use cbq_core::{exists_many, QuantConfig};
//!
//! let mut aig = Aig::new();
//! let x = aig.add_input();
//! let y = aig.add_input();
//! let z = aig.add_input();
//! // F = (x & y) | (!x & z): ∃x.F = y | z.
//! let t = aig.and(x.lit(), y.lit());
//! let e = aig.and(!x.lit(), z.lit());
//! let f = aig.or(t, e);
//! let mut cnf = AigCnf::new();
//! let res = exists_many(&mut aig, f, &[x], &mut cnf, &QuantConfig::default());
//! assert!(res.remaining.is_empty());
//! let expect = aig.or(y.lit(), z.lit());
//! assert_eq!(res.lit, expect);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cbq_aig::{Aig, Lit, Var};
use cbq_bdd::BddManager;
use cbq_cec::{sweep, SweepConfig, SweepStats};
use cbq_cnf::AigCnf;
use cbq_synth::{optimize_disjunction, restrash, OptConfig, OptStats};

/// Order in which [`exists_many`] eliminates variables.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum VarOrder {
    /// Re-estimate costs after each elimination and pick the variable with
    /// the fewest dependent AND gates first.
    #[default]
    CheapestFirst,
    /// Eliminate in the order given by the caller.
    AsGiven,
    /// Estimate every variable's fanin-support cost
    /// ([`Aig::occurrence_count`]) once per pass, sort ascending, and keep
    /// that order for the whole pass — `O(vars)` cost probes per pass
    /// instead of [`VarOrder::CheapestFirst`]'s `O(vars²)`, at the price
    /// of scheduling on slightly stale estimates.
    StaticCost,
}

impl VarOrder {
    /// Parses a CLI-facing name (`cheapest`, `static`, `given`).
    pub fn from_name(name: &str) -> Option<VarOrder> {
        match name {
            "cheapest" => Some(VarOrder::CheapestFirst),
            "static" => Some(VarOrder::StaticCost),
            "given" => Some(VarOrder::AsGiven),
            _ => None,
        }
    }

    /// The CLI-facing name of this order.
    pub fn name(&self) -> &'static str {
        match self {
            VarOrder::CheapestFirst => "cheapest",
            VarOrder::StaticCost => "static",
            VarOrder::AsGiven => "given",
        }
    }
}

/// Configuration of the quantification engine.
///
/// The default configuration is the paper's full flow: merge and
/// optimisation phases enabled, cheapest-first scheduling, no abort
/// budget.
#[derive(Clone, Debug)]
pub struct QuantConfig {
    /// Merge-phase configuration (tiers, order, budgets).
    pub sweep: SweepConfig,
    /// Optimisation-phase configuration (don't-care passes).
    pub opt: OptConfig,
    /// Run the merge phase (disable only for ablation experiments).
    pub use_merge: bool,
    /// Run the optimisation phase.
    pub use_opt: bool,
    /// Partial quantification: abort a variable if the result cone would
    /// exceed `factor ×` the size before quantifying it. `None` never
    /// aborts.
    pub growth_budget: Option<f64>,
    /// Variable scheduling policy.
    pub order: VarOrder,
    /// Cooperative cancellation: once this wall-clock instant passes, the
    /// inner elimination loop stops scheduling further variables and
    /// returns whatever is left as residual. Engines derive it from their
    /// budget deadline so one huge quantification can no longer overshoot
    /// the traversal's time budget unnoticed.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation on manager size: once the working AIG
    /// holds more than this many nodes, remaining variables are aborted
    /// (per-partition node budgets of the partitioned traversals).
    pub node_limit: Option<usize>,
    /// Cooperative cancellation by a shared flag: once another thread
    /// raises it, the elimination loop stops exactly as if the deadline
    /// had passed. Parallel portfolio members share one flag per member
    /// so a first conclusive answer cancels the losers' hot loops.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for QuantConfig {
    fn default() -> QuantConfig {
        QuantConfig::full()
    }
}

impl QuantConfig {
    /// The configuration used by the paper's main flow: merge and
    /// optimisation enabled, no abort budget.
    pub fn full() -> QuantConfig {
        QuantConfig {
            sweep: SweepConfig::default(),
            opt: OptConfig::default(),
            use_merge: true,
            use_opt: true,
            growth_budget: None,
            order: VarOrder::CheapestFirst,
            deadline: None,
            node_limit: None,
            cancel: None,
        }
    }

    /// Naive cofactor disjunction: no merge, no optimisation (the
    /// ablation baseline of experiment E1).
    pub fn naive() -> QuantConfig {
        QuantConfig {
            use_merge: false,
            use_opt: false,
            ..QuantConfig::full()
        }
    }

    /// Merge phase only.
    pub fn merge_only() -> QuantConfig {
        QuantConfig {
            use_merge: true,
            use_opt: false,
            ..QuantConfig::full()
        }
    }

    /// Partial quantification with the given growth factor.
    pub fn with_budget(mut self, factor: f64) -> QuantConfig {
        self.growth_budget = Some(factor);
        self
    }

    /// The given variable scheduling policy.
    pub fn with_order(mut self, order: VarOrder) -> QuantConfig {
        self.order = order;
        self
    }

    /// Cooperative wall-clock cancellation at the given instant; also
    /// propagated to the merge-phase candidate loop.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> QuantConfig {
        self.deadline = deadline;
        self.sweep.deadline = deadline;
        self
    }

    /// Cooperative node-count cancellation at the given manager size.
    pub fn with_node_limit(mut self, limit: Option<usize>) -> QuantConfig {
        self.node_limit = limit;
        self
    }

    /// Cooperative cancellation by a shared flag (raised by another
    /// thread, e.g. a parallel portfolio sibling that already concluded).
    pub fn with_cancel(mut self, cancel: Option<Arc<AtomicBool>>) -> QuantConfig {
        self.cancel = cancel;
        self
    }

    /// Whether a cooperative cancellation limit has been crossed — the
    /// *exact* check: the node limit and the cancel flag are compared
    /// and, when a deadline is set, the clock is read on every call.
    /// Engines use it at coarse boundaries (once per image, once per
    /// traversal iteration); hot loops poll through a [`DeadlineGate`]
    /// instead, which amortises the clock reads.
    pub fn out_of_budget(&self, aig: &Aig) -> bool {
        if let Some(limit) = self.node_limit {
            if aig.num_nodes() > limit {
                return true;
            }
        }
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }

    /// A fresh amortised budget poll for one quantification run (see
    /// [`DeadlineGate`]).
    pub fn deadline_gate(&self) -> DeadlineGate {
        DeadlineGate::new(self)
    }
}

/// Maximum polls a [`DeadlineGate`] answers between two clock reads: a
/// passed deadline is noticed within this many cheap polls (the
/// regression tolerance pinned by the tests).
pub const DEADLINE_STRIDE: u32 = 16;

/// Node-growth grain of the [`DeadlineGate`] amortisation: every
/// `NODE_GRAIN` nodes of manager growth (or shrinkage) since the last
/// poll buys one extra stride credit, so expensive eliminations force a
/// clock read almost immediately while cheap no-op eliminations share
/// one read per [`DEADLINE_STRIDE`] polls.
const NODE_GRAIN: usize = 512;

/// An amortised version of [`QuantConfig::out_of_budget`] for hot
/// elimination loops.
///
/// The naive check reads `Instant::now()` on every poll; inside
/// [`exists_many`] — which polls between every variable elimination, and
/// is itself called once per partition per traversal iteration — those
/// clock reads are pure overhead whenever the elimination was a cheap
/// no-op (variable not in support, constant collapse). The gate strides
/// the clock: node limits are still compared on every poll (one integer
/// compare), but the wall clock is read only once enough *work credit*
/// has accumulated — one credit per poll plus one per [`NODE_GRAIN`]
/// nodes of manager-size change since the previous poll. A passed
/// deadline is therefore noticed within at most [`DEADLINE_STRIDE`]
/// cheap polls, and essentially immediately after any elimination that
/// actually built nodes.
#[derive(Clone, Debug)]
pub struct DeadlineGate {
    deadline: Option<Instant>,
    node_limit: Option<usize>,
    cancel: Option<Arc<AtomicBool>>,
    credit: u32,
    last_nodes: usize,
    expired: bool,
}

impl DeadlineGate {
    /// A gate over `cfg`'s deadline, node limit, and cancel flag. The
    /// first poll always reads the clock (an already-expired deadline
    /// trips immediately).
    pub fn new(cfg: &QuantConfig) -> DeadlineGate {
        DeadlineGate {
            deadline: cfg.deadline,
            node_limit: cfg.node_limit,
            cancel: cfg.cancel.clone(),
            credit: DEADLINE_STRIDE,
            last_nodes: 0,
            expired: false,
        }
    }

    /// Whether a cooperative cancellation limit has been crossed, with
    /// the clock read amortised as described on [`DeadlineGate`]. The
    /// node limit and the cancel flag — both a single cheap load — are
    /// still checked on every poll, so a raised flag is noticed within
    /// one poll regardless of the clock stride.
    pub fn out_of_budget(&mut self, aig: &Aig) -> bool {
        let nodes = aig.num_nodes();
        if let Some(limit) = self.node_limit {
            if nodes > limit {
                return true;
            }
        }
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return true;
            }
        }
        if self.expired {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        self.credit = self
            .credit
            .saturating_add(1 + (nodes.abs_diff(self.last_nodes) / NODE_GRAIN) as u32);
        self.last_nodes = nodes;
        if self.credit < DEADLINE_STRIDE {
            return false;
        }
        self.credit = 0;
        self.expired = Instant::now() >= deadline;
        self.expired
    }
}

/// Per-variable record of one elimination attempt.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct VarQuantRecord {
    /// The eliminated (or aborted) variable.
    pub var: Var,
    /// Cone size of the function before this elimination.
    pub size_before: usize,
    /// Cone size of the naive disjunction `F₁ ∨ F₀` (after structural
    /// hashing only).
    pub size_naive: usize,
    /// Cone size after the merge phase.
    pub size_merged: usize,
    /// Cone size after the optimisation phase (== final size if kept).
    pub size_opt: usize,
    /// Whether the elimination was aborted by the growth budget.
    pub aborted: bool,
}

/// Aggregate statistics of an [`exists_many`] run.
#[derive(Clone, Debug, Default)]
pub struct QuantStats {
    /// Variables successfully eliminated.
    pub quantified: usize,
    /// Variables aborted (residual).
    pub aborted: usize,
    /// Cone size of the input function.
    pub nodes_before: usize,
    /// Cone size of the result.
    pub nodes_after: usize,
    /// Merge-phase counters accumulated over all variables.
    pub sweep: SweepStats,
    /// Optimisation-phase counters accumulated over all variables.
    pub opt: OptStats,
    /// Nodes visited by dense scratchpad cone walks during this run.
    pub scratch_walk_nodes: u64,
    /// Structural-hash slot probes during this run.
    pub strash_probes: u64,
    /// One record per attempted variable, in elimination order.
    pub per_var: Vec<VarQuantRecord>,
}

/// Result of [`exists_many`].
#[derive(Clone, Debug)]
pub struct QuantResult {
    /// The (possibly partially) quantified function.
    pub lit: Lit,
    /// Variables the growth budget refused to eliminate. The meaning of
    /// the result is `∃ remaining. lit`.
    pub remaining: Vec<Var>,
    /// What happened.
    pub stats: QuantStats,
}

/// Existentially quantifies a single variable; `None` if aborted by the
/// growth budget.
///
/// See [`exists_many`] for the multi-variable driver.
pub fn exists_one(
    aig: &mut Aig,
    f: Lit,
    v: Var,
    cnf: &mut AigCnf,
    cfg: &QuantConfig,
) -> (Option<Lit>, VarQuantRecord) {
    let (res, record, _sweep, _opt) = exists_one_full(aig, f, v, cnf, cfg);
    (res, record)
}

/// Like [`exists_one`], additionally returning the merge- and
/// optimisation-phase statistics of this variable's elimination.
pub fn exists_one_full(
    aig: &mut Aig,
    f: Lit,
    v: Var,
    cnf: &mut AigCnf,
    cfg: &QuantConfig,
) -> (Option<Lit>, VarQuantRecord, SweepStats, OptStats) {
    let size_before = aig.cone_size_cached(f);
    let mut sweep_stats = SweepStats::default();
    let mut opt_stats = OptStats::default();
    let mut record = VarQuantRecord {
        var: v,
        size_before,
        size_naive: size_before,
        size_merged: size_before,
        size_opt: size_before,
        aborted: false,
    };
    if !aig.support_contains(f, v) {
        return (Some(f), record, sweep_stats, opt_stats);
    }
    let (f1, f0) = aig.cofactors(f, v);
    let naive = aig.or(f1, f0);
    record.size_naive = aig.cone_size_cached(naive);
    if naive.is_const() || f1 == f0 {
        record.size_merged = record.size_naive;
        record.size_opt = record.size_naive;
        return (Some(naive), record, sweep_stats, opt_stats);
    }

    let (m1, m0) = if cfg.use_merge {
        let swept = sweep(aig, &[f1, f0], cnf, &cfg.sweep);
        sweep_stats = swept.stats;
        (swept.roots[0], swept.roots[1])
    } else {
        (f1, f0)
    };
    let merged = aig.or(m1, m0);
    record.size_merged = aig.cone_size_cached(merged);

    let result = if cfg.use_opt {
        let (o1, o0, stats) = optimize_disjunction(aig, m1, m0, cnf, &cfg.opt);
        opt_stats = stats;
        aig.or(o1, o0)
    } else {
        merged
    };
    let result = restrash(aig, &[result])[0];
    record.size_opt = aig.cone_size_cached(result);

    if let Some(factor) = cfg.growth_budget {
        let cap = (size_before as f64 * factor).ceil() as usize;
        if record.size_opt > cap {
            record.aborted = true;
            return (None, record, sweep_stats, opt_stats);
        }
    }
    (Some(result), record, sweep_stats, opt_stats)
}

fn accumulate_sweep(total: &mut SweepStats, s: SweepStats) {
    total.classes_initial += s.classes_initial;
    total.merged_bdd += s.merged_bdd;
    total.merged_sat += s.merged_sat;
    total.refuted_bdd += s.refuted_bdd;
    total.sat_checks += s.sat_checks;
    total.sat_cex += s.sat_cex;
    total.sat_unknown += s.sat_unknown;
    total.skipped_out_of_cone += s.skipped_out_of_cone;
    total.rounds += s.rounds;
}

fn accumulate_opt(total: &mut OptStats, s: OptStats) {
    total.const_applied += s.const_applied;
    total.merge_applied += s.merge_applied;
    total.odc_applied += s.odc_applied;
    total.checks += s.checks;
    total.rejected += s.rejected;
}

/// Existentially quantifies `vars` from `f`, scheduling cheap variables
/// first and aborting expensive ones when a growth budget is set
/// (partial quantification, Section 4 of the paper).
///
/// Scheduling follows [`QuantConfig::order`]: per-elimination cost
/// re-estimation, a per-pass static fanin-support-cost order, or the
/// caller's order.
///
/// Aborted variables are retried once after all others (their cost may
/// have collapsed); whatever still exceeds the budget is returned in
/// [`QuantResult::remaining`].
pub fn exists_many(
    aig: &mut Aig,
    f: Lit,
    vars: &[Var],
    cnf: &mut AigCnf,
    cfg: &QuantConfig,
) -> QuantResult {
    let perf_start = aig.perf_counters();
    let mut stats = QuantStats {
        nodes_before: aig.cone_size_cached(f),
        ..QuantStats::default()
    };
    let mut current = f;
    let mut pending: Vec<Var> = vars.to_vec();
    let mut remaining: Vec<Var> = Vec::new();
    let mut gate = cfg.deadline_gate();
    let mut passes = 0;
    while !pending.is_empty() && passes < 2 {
        passes += 1;
        if cfg.order == VarOrder::StaticCost {
            // One cost probe per variable per pass; stale-but-cheap. A
            // single batched cone walk prices every variable at once.
            let costs = aig.occurrence_counts(&[current], &pending);
            let mut costed: Vec<(usize, Var)> =
                costs.into_iter().zip(pending.iter().copied()).collect();
            costed.sort_unstable_by_key(|(cost, _)| *cost);
            pending = costed.into_iter().map(|(_, v)| v).collect();
        }
        let mut next_round: Vec<Var> = Vec::new();
        while !pending.is_empty() {
            // Cooperative cancellation between eliminations: a deadline or
            // node-limit crossing aborts every variable still scheduled
            // (they come back as residuals, exactly like growth aborts).
            // The gate amortises the clock reads against node growth.
            if gate.out_of_budget(aig) {
                next_round.append(&mut pending);
                remaining = next_round;
                stats.aborted = remaining.len();
                stats.nodes_after = aig.cone_size_cached(current);
                record_perf_delta(&mut stats, aig.perf_counters().since(perf_start));
                return QuantResult {
                    lit: current,
                    remaining,
                    stats,
                };
            }
            let idx = match cfg.order {
                VarOrder::AsGiven | VarOrder::StaticCost => 0,
                VarOrder::CheapestFirst => {
                    // One cone walk prices every pending variable; the
                    // old per-variable probe made re-estimation quadratic
                    // in the cone for every single elimination.
                    let costs = aig.occurrence_counts(&[current], &pending);
                    let mut best = 0;
                    let mut best_cost = usize::MAX;
                    for (i, &cost) in costs.iter().enumerate() {
                        if cost < best_cost {
                            best_cost = cost;
                            best = i;
                        }
                    }
                    best
                }
            };
            let v = pending.remove(idx);
            let (res, record, sw, op) = exists_one_full(aig, current, v, cnf, cfg);
            accumulate_sweep(&mut stats.sweep, sw);
            accumulate_opt(&mut stats.opt, op);
            stats.per_var.push(record);
            match res {
                Some(nf) => {
                    current = nf;
                    stats.quantified += 1;
                }
                None => next_round.push(v),
            }
        }
        if passes == 2 || next_round.is_empty() {
            remaining = next_round;
            break;
        }
        pending = next_round;
    }
    stats.aborted = remaining.len();
    stats.nodes_after = aig.cone_size_cached(current);
    record_perf_delta(&mut stats, aig.perf_counters().since(perf_start));
    QuantResult {
        lit: current,
        remaining,
        stats,
    }
}

/// Folds the manager's hot-path counter delta for this run into `stats`.
fn record_perf_delta(stats: &mut QuantStats, d: cbq_aig::AigPerfCounters) {
    stats.scratch_walk_nodes += d.scratch_walk_nodes;
    stats.strash_probes += d.strash_probes;
}

/// Quantification by substitution (in-lining, Section 3):
/// `∃y.(y ≡ δ) ∧ P(y)` becomes `P(δ)`.
///
/// `defs` maps each quantified variable to its definition; the
/// substitution is simultaneous.
pub fn substitute(aig: &mut Aig, f: Lit, defs: &[(Var, Lit)]) -> Lit {
    aig.compose(f, defs)
}

/// BDD-based quantifier elimination (the canonical baseline of
/// experiment E1): builds the BDD of `f`, quantifies, converts back.
///
/// Returns `None` if the BDD exceeds `cap` nodes; on success also reports
/// the peak BDD node count of the quantified result.
pub fn exists_bdd(aig: &mut Aig, f: Lit, vars: &[Var], cap: usize) -> Option<(Lit, usize)> {
    let support = aig.support(f);
    let var_level: HashMap<Var, u32> = support
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, i as u32))
        .collect();
    let mut mgr = BddManager::new(support.len());
    let b = mgr.from_aig(aig, f, &var_level, cap)?;
    let levels: Vec<u32> = vars
        .iter()
        .filter_map(|v| var_level.get(v).copied())
        .collect();
    let q = mgr.exists_limited(b, &levels, cap)?;
    let size = mgr.size(q);
    let mut level_lit = vec![Lit::FALSE; support.len()];
    for (v, lvl) in &var_level {
        level_lit[*lvl as usize] = v.lit();
    }
    let lit = mgr.to_aig(aig, q, &level_lit);
    Some((lit, size))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_exists_check(
        aig: &mut Aig,
        f: Lit,
        vars: &[Var],
        result: Lit,
        n_inputs: usize,
    ) -> bool {
        // ∃vars.f == result, checked by enumeration over all inputs.
        let var_idx: Vec<usize> = vars.iter().map(|v| aig.input_index(*v).unwrap()).collect();
        for mask in 0..1u32 << n_inputs {
            let mut asg: Vec<bool> = (0..n_inputs).map(|i| (mask >> i) & 1 != 0).collect();
            let mut any = false;
            for sub in 0..1u32 << var_idx.len() {
                for (j, &vi) in var_idx.iter().enumerate() {
                    asg[vi] = (sub >> j) & 1 != 0;
                }
                if aig.eval(f, &asg) {
                    any = true;
                    break;
                }
            }
            // Result must not depend on the quantified vars; evaluate with
            // the last assignment (they are irrelevant if correct).
            if aig.eval(result, &asg) != any {
                return false;
            }
        }
        true
    }

    #[test]
    fn single_variable_mux() {
        let mut aig = Aig::new();
        let x = aig.add_input();
        let y = aig.add_input();
        let z = aig.add_input();
        let f = {
            let t = aig.and(x.lit(), y.lit());
            let e = aig.and(!x.lit(), z.lit());
            aig.or(t, e)
        };
        let mut cnf = AigCnf::new();
        let (res, record) = exists_one(&mut aig, f, x, &mut cnf, &QuantConfig::full());
        let res = res.unwrap();
        assert!(!record.aborted);
        assert!(exhaustive_exists_check(&mut aig, f, &[x], res, 3));
        assert!(!aig.support_contains(res, x));
    }

    #[test]
    fn variable_not_in_support_is_free() {
        let mut aig = Aig::new();
        let x = aig.add_input();
        let y = aig.add_input();
        let z = aig.add_input();
        let f = aig.and(y.lit(), z.lit());
        let mut cnf = AigCnf::new();
        let (res, _) = exists_one(&mut aig, f, x, &mut cnf, &QuantConfig::full());
        assert_eq!(res.unwrap(), f);
    }

    #[test]
    fn tautology_collapse() {
        let mut aig = Aig::new();
        let x = aig.add_input();
        let y = aig.add_input();
        let f = aig.xor(x.lit(), y.lit());
        let mut cnf = AigCnf::new();
        let res = exists_many(&mut aig, f, &[x], &mut cnf, &QuantConfig::full());
        assert_eq!(res.lit, Lit::TRUE);
    }

    #[test]
    fn multi_variable_agrees_with_semantics() {
        let mut aig = Aig::new();
        let vars: Vec<Var> = (0..5).map(|_| aig.add_input()).collect();
        let f = {
            let t1 = aig.and(vars[0].lit(), vars[1].lit());
            let t2 = aig.xor(vars[2].lit(), vars[3].lit());
            let t3 = aig.and(t2, vars[4].lit());
            let o = aig.or(t1, t3);
            let guard = aig.implies(vars[0].lit(), vars[4].lit());
            aig.and(o, guard)
        };
        let mut cnf = AigCnf::new();
        let res = exists_many(
            &mut aig,
            f,
            &[vars[1], vars[3]],
            &mut cnf,
            &QuantConfig::full(),
        );
        assert!(res.remaining.is_empty());
        assert!(exhaustive_exists_check(
            &mut aig,
            f,
            &[vars[1], vars[3]],
            res.lit,
            5
        ));
        assert!(!aig.support_contains(res.lit, vars[1]));
        assert!(!aig.support_contains(res.lit, vars[3]));
    }

    #[test]
    fn naive_config_still_correct() {
        let mut aig = Aig::new();
        let vars: Vec<Var> = (0..4).map(|_| aig.add_input()).collect();
        let f = {
            let t = aig.xor(vars[0].lit(), vars[1].lit());
            let u = aig.and(t, vars[2].lit());
            aig.or(u, vars[3].lit())
        };
        let mut cnf = AigCnf::new();
        let res = exists_many(
            &mut aig,
            f,
            &[vars[0], vars[2]],
            &mut cnf,
            &QuantConfig::naive(),
        );
        assert!(exhaustive_exists_check(
            &mut aig,
            f,
            &[vars[0], vars[2]],
            res.lit,
            4
        ));
    }

    #[test]
    fn growth_budget_aborts_and_reports_residuals() {
        // A function where quantifying any variable roughly doubles the
        // cone: an xor chain.
        let mut aig = Aig::new();
        let vars: Vec<Var> = (0..8).map(|_| aig.add_input()).collect();
        // Use a function whose cofactors share little: random-ish mix.
        let mut f = Lit::FALSE;
        for w in vars.chunks(2) {
            let t = aig.xor(w[0].lit(), w[1].lit());
            let u = aig.and(t, f.xor_sign(false));
            f = aig.or(u, t);
        }
        let mut cnf = AigCnf::new();
        let tight = QuantConfig::naive().with_budget(0.01);
        let res = exists_many(&mut aig, f, &[vars[0], vars[2]], &mut cnf, &tight);
        // With an absurdly tight budget, something must abort — and the
        // result must still be sound: ∃remaining. lit == ∃vars. f.
        if !res.remaining.is_empty() {
            assert_eq!(res.stats.aborted, res.remaining.len());
            // Finish the job without a budget and compare against direct
            // quantification.
            let finished = exists_many(
                &mut aig,
                res.lit,
                &res.remaining,
                &mut cnf,
                &QuantConfig::full(),
            );
            assert!(exhaustive_exists_check(
                &mut aig,
                f,
                &[vars[0], vars[2]],
                finished.lit,
                8
            ));
        }
    }

    #[test]
    fn static_cost_order_is_exact() {
        let mut aig = Aig::new();
        let vars: Vec<Var> = (0..6).map(|_| aig.add_input()).collect();
        let f = {
            let t1 = aig.and(vars[0].lit(), vars[1].lit());
            let t2 = aig.xor(vars[2].lit(), vars[3].lit());
            let t3 = aig.ite(vars[4].lit(), t1, t2);
            aig.or(t3, vars[5].lit())
        };
        let mut cnf = AigCnf::new();
        let cfg = QuantConfig::full().with_order(VarOrder::StaticCost);
        let targets = [vars[0], vars[2], vars[4]];
        let res = exists_many(&mut aig, f, &targets, &mut cnf, &cfg);
        assert!(res.remaining.is_empty());
        assert!(exhaustive_exists_check(&mut aig, f, &targets, res.lit, 6));
    }

    #[test]
    fn var_order_names_round_trip() {
        for order in [
            VarOrder::CheapestFirst,
            VarOrder::StaticCost,
            VarOrder::AsGiven,
        ] {
            assert_eq!(VarOrder::from_name(order.name()), Some(order));
        }
        assert_eq!(VarOrder::from_name("nope"), None);
    }

    #[test]
    fn deadline_gate_fires_within_the_stride_tolerance() {
        use std::time::Duration;
        // Regression for the hot-path clock poll: an expired deadline
        // must be noticed (a) immediately on the first poll, and (b)
        // within DEADLINE_STRIDE cheap polls when it expires mid-run —
        // never silently deferred by the amortisation.
        let mut aig = Aig::new();
        let _ = aig.add_input();
        let mut expired = QuantConfig::full()
            .with_deadline(Some(Instant::now()))
            .deadline_gate();
        assert!(
            expired.out_of_budget(&aig),
            "first poll must read the clock"
        );
        assert!(expired.out_of_budget(&aig), "expiry must latch");
        // Mid-run expiry: the first poll reads the clock before the
        // deadline, then the deadline passes; subsequent cheap polls must
        // notice within the stride.
        let soon =
            QuantConfig::full().with_deadline(Some(Instant::now() + Duration::from_millis(2)));
        let mut gate = soon.deadline_gate();
        let _ = gate.out_of_budget(&aig);
        std::thread::sleep(Duration::from_millis(5));
        let mut polls = 0;
        loop {
            polls += 1;
            if gate.out_of_budget(&aig) {
                break;
            }
            assert!(
                polls <= DEADLINE_STRIDE,
                "expired deadline not noticed within {DEADLINE_STRIDE} polls"
            );
        }
        // Heavy node growth buys credits: a large manager-size change
        // since the previous poll forces the clock read right away
        // instead of waiting out the stride.
        let mut big = Aig::new();
        let ins: Vec<cbq_aig::Lit> = (0..12).map(|_| big.add_input().lit()).collect();
        let mut f = ins[0];
        while big.num_nodes() < 16 * 512 + 64 {
            for w in ins.windows(2) {
                let x = big.and(f, w[0]);
                f = big.xor(x, w[1]);
            }
        }
        let grow =
            QuantConfig::full().with_deadline(Some(Instant::now() + Duration::from_millis(2)));
        let mut gate = grow.deadline_gate();
        let _ = gate.out_of_budget(&aig); // clock read on the tiny manager
        std::thread::sleep(Duration::from_millis(5));
        assert!(
            gate.out_of_budget(&big),
            "a stride's worth of node growth must force the clock read"
        );
        // No deadline, no node limit: never out of budget, however often
        // polled.
        let mut free = QuantConfig::full().deadline_gate();
        for _ in 0..100 {
            assert!(!free.out_of_budget(&aig));
        }
        // Node limits stay exact (checked on every poll, unstrided).
        let mut capped = QuantConfig::full().with_node_limit(Some(1)).deadline_gate();
        assert!(capped.out_of_budget(&big));
    }

    #[test]
    fn exists_many_still_honours_an_expired_deadline() {
        // End-to-end: the gate inside exists_many aborts every pending
        // variable when the deadline has already passed.
        let mut aig = Aig::new();
        let vars: Vec<Var> = (0..6).map(|_| aig.add_input()).collect();
        let f = {
            let t = aig.and(vars[0].lit(), vars[1].lit());
            let u = aig.xor(vars[2].lit(), vars[3].lit());
            aig.or(t, u)
        };
        let mut cnf = AigCnf::new();
        let cfg = QuantConfig::full().with_deadline(Some(Instant::now()));
        let res = exists_many(&mut aig, f, &vars[..4], &mut cnf, &cfg);
        assert_eq!(res.remaining.len(), 4, "expired deadline must abort all");
        assert_eq!(res.lit, f);
    }

    #[test]
    fn substitute_inlines_definitions() {
        let mut aig = Aig::new();
        let y = aig.add_input();
        let s = aig.add_input();
        let i = aig.add_input();
        // P(y) = y & s ; y := s ^ i  =>  P = (s^i) & s = s & !i
        let p = aig.and(y.lit(), s.lit());
        let delta = aig.xor(s.lit(), i.lit());
        let inlined = substitute(&mut aig, p, &[(y, delta)]);
        let expect = aig.and(s.lit(), !i.lit());
        assert!(!aig.support_contains(inlined, y));
        for mask in 0..8u32 {
            let asg = [(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0];
            assert_eq!(aig.eval(inlined, &asg), aig.eval(expect, &asg));
        }
    }

    #[test]
    fn bdd_baseline_agrees() {
        let mut aig = Aig::new();
        let vars: Vec<Var> = (0..4).map(|_| aig.add_input()).collect();
        let f = {
            let t = aig.and(vars[0].lit(), vars[1].lit());
            let u = aig.xor(vars[2].lit(), vars[3].lit());
            aig.or(t, u)
        };
        let (blit, _size) = exists_bdd(&mut aig, f, &[vars[1]], usize::MAX).unwrap();
        let mut cnf = AigCnf::new();
        let circ = exists_many(&mut aig, f, &[vars[1]], &mut cnf, &QuantConfig::full());
        // Both methods must produce semantically equal results.
        assert!(cnf.prove_equiv(&aig, blit, circ.lit, None).is_equiv());
    }

    #[test]
    fn quantifying_all_support_gives_constant() {
        let mut aig = Aig::new();
        let vars: Vec<Var> = (0..3).map(|_| aig.add_input()).collect();
        let f = {
            let t = aig.and(vars[0].lit(), vars[1].lit());
            aig.and(t, vars[2].lit())
        };
        let mut cnf = AigCnf::new();
        let res = exists_many(&mut aig, f, &vars, &mut cnf, &QuantConfig::full());
        assert_eq!(res.lit, Lit::TRUE); // f is satisfiable
        let res2 = exists_many(&mut aig, Lit::FALSE, &vars, &mut cnf, &QuantConfig::full());
        assert_eq!(res2.lit, Lit::FALSE);
    }
}
