//! # cbq-synth — synthesis-based optimisation of circuit state sets
//!
//! Implements the **optimisation phase** of the DATE 2005 paper
//! (Section 2.2): after the cofactors of a quantified variable are merged,
//! "there is still a margin for size reduction, because we do not need
//! individual representations for F₁ and F₀, but we must represent their
//! disjunction F₁ ∨ F₀". Any transformation `F₁ ∨ F₀ → F₁' ∨ F₀'` with the
//! same disjunction is allowed.
//!
//! The passes provided here:
//!
//! * [`restrash`] — rebuilds a cone through the AIG's hashing and local
//!   rewriting rules (constant propagation, factorisation by sharing);
//! * [`dc_simplify`] — the paper's main transformation: using the *onset of
//!   the reference cofactor as an input don't-care set*, nodes of the other
//!   cofactor are replaced by constants or merged with existing nodes. A
//!   guess `n'` is valid iff `(n ⊕ n') ∧ ¬F_ref` is unsatisfiable — "the
//!   above check can be easily achieved by a SAT solver". The guesses are
//!   exactly the paper's two kinds, *constant value (redundancy)* and
//!   *merge, modulo complementation*, and come from the merge phase's class
//!   engine run under the care literal `¬F_ref` ([`cbq_cec::sweep_care`]):
//!   care-masked simulation classes over the target's cone, checked
//!   outputs-first, so a target that is constant on the care set costs one
//!   SAT check, and counterexamples drop the pairs they separate;
//! * [`odc_simplify`] — the observability variant: a transform is accepted
//!   when the difference is "not observable on the output of F₁ ∨ F₀",
//!   validated by the extra equivalence check `F₁ ∨ F₀ ≡ F₁ ∨ F₀'`
//!   (equivalently, redundancy of the comparing EXOR gate);
//! * [`optimize_disjunction`] — the driver used by the quantification
//!   engine: mutually simplifies both cofactors.
//!
//! ## Example
//!
//! ```
//! use cbq_aig::Aig;
//! use cbq_cec::SweepConfig;
//! use cbq_cnf::AigCnf;
//! use cbq_synth::{dc_simplify, OptConfig};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input().lit();
//! let b = aig.add_input().lit();
//! let c = aig.add_input().lit();
//! // Reference cofactor: a. Target: (!a & b & c).
//! // Outside the DC set (i.e. where !a holds) the target equals (b & c).
//! let t0 = aig.and(!a, b);
//! let target = aig.and(t0, c);
//! let mut cnf = AigCnf::new();
//! let (smaller, _stats) = dc_simplify(
//!     &mut aig,
//!     a,
//!     target,
//!     &mut cnf,
//!     &OptConfig::default(),
//!     &SweepConfig::default(),
//! );
//! assert!(aig.cone_size(smaller) < aig.cone_size(target));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use cbq_aig::{Aig, Lit, Node, Var};
use cbq_cec::{apply_merges, sweep_care, SweepConfig};
use cbq_cnf::{AigCnf, EquivResult};

/// Configuration for the optimisation passes.
#[derive(Clone, Debug)]
pub struct OptConfig {
    /// Simulation words used for candidate guessing.
    pub sim_words: usize,
    /// Seed for simulation patterns.
    pub seed: u64,
    /// Conflict budget per validation SAT check.
    pub sat_budget: Option<u64>,
    /// Maximum constant/merge validation checks per pass.
    pub max_checks: usize,
    /// Enable the observability-don't-care variant.
    pub use_odc: bool,
    /// Maximum ODC validation checks per pass (each needs a full
    /// equivalence proof, so keep this small).
    pub max_odc_checks: usize,
}

impl Default for OptConfig {
    fn default() -> OptConfig {
        OptConfig {
            sim_words: 4,
            seed: 0xDC0DE,
            sat_budget: Some(10_000),
            max_checks: 512,
            use_odc: false,
            max_odc_checks: 32,
        }
    }
}

/// Counters describing what an optimisation pass accomplished.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Constant-replacement candidates validated by SAT.
    pub const_applied: usize,
    /// Merge candidates validated by SAT.
    pub merge_applied: usize,
    /// Transforms accepted by the ODC check.
    pub odc_applied: usize,
    /// SAT validation checks issued.
    pub checks: u64,
    /// Checks rejected (candidate was simulation noise).
    pub rejected: u64,
}

impl OptStats {
    /// Adds another pass's counters to these.
    pub fn absorb(&mut self, other: &OptStats) {
        self.const_applied += other.const_applied;
        self.merge_applied += other.merge_applied;
        self.odc_applied += other.odc_applied;
        self.checks += other.checks;
        self.rejected += other.rejected;
    }
}

/// Rebuilds the cones of `roots` through the manager's hashing and local
/// rewriting rules, dropping structure the rules can now simplify.
///
/// Cheap (no SAT) and always sound; returns the rebuilt roots.
pub fn restrash(aig: &mut Aig, roots: &[Lit]) -> Vec<Lit> {
    let cone = aig.collect_cone(roots);
    // Dense memo (no cone index exceeds a root's). Every gate is
    // deliberately re-issued through `Aig::and` — unlike compose's
    // identity shortcut, the whole point here is letting remapped fanins
    // re-trigger the two-level rules.
    let top = roots.iter().map(|r| r.var().index()).max().unwrap_or(0);
    let mut memo = vec![Lit::FALSE; top + 1];
    for v in cone {
        memo[v.index()] = match aig.node(v) {
            Node::Const => Lit::FALSE,
            Node::Input { .. } => v.lit(),
            Node::And { f0, f1 } => {
                let a = memo[f0.var().index()].xor_sign(f0.is_complemented());
                let b = memo[f1.var().index()].xor_sign(f1.is_complemented());
                aig.and(a, b)
            }
        };
    }
    roots
        .iter()
        .map(|r| memo[r.var().index()].xor_sign(r.is_complemented()))
        .collect()
}

/// Simplifies `target` under the input don't-care set given by the onset
/// of `dc_ref` (Section 2.2): the result may differ from `target`
/// anywhere `dc_ref` is true, so it is interchangeable with `target`
/// inside the disjunction `dc_ref ∨ target`.
///
/// Candidates (constants and merges, modulo complementation) are guessed
/// by care-masked simulation and validated by the SAT check
/// `(n ⊕ n') ∧ ¬dc_ref` unsatisfiable, in one care-masked run of the
/// class engine ([`cbq_cec::sweep_care`]) with this configuration's
/// simulation, seed, conflict budget and check cap. The run stops early
/// once `merge`'s deadline passes or its cancel flag is raised.
pub fn dc_simplify(
    aig: &mut Aig,
    dc_ref: Lit,
    target: Lit,
    cnf: &mut AigCnf,
    cfg: &OptConfig,
    merge: &SweepConfig,
) -> (Lit, OptStats) {
    if dc_ref == Lit::TRUE {
        // Everything is don't-care; the disjunction is already true.
        return (Lit::FALSE, OptStats::default());
    }
    if dc_ref == Lit::FALSE || target.is_const() {
        return (target, OptStats::default());
    }
    let care_run = SweepConfig {
        sim_words: cfg.sim_words,
        seed: cfg.seed,
        sat_budget: cfg.sat_budget,
        ..merge.clone()
    };
    let run = sweep_care(aig, &[target], !dc_ref, cnf, &care_run, cfg.max_checks);
    let s = run.stats;
    let stats = OptStats {
        const_applied: s.merged_const,
        merge_applied: s.merged_sat - s.merged_const,
        checks: s.sat_checks,
        rejected: s.sat_cex + s.sat_unknown,
        ..OptStats::default()
    };
    (run.roots[0], stats)
}

/// Observability-don't-care simplification (Section 2.2's "further
/// optimization degree"): node transforms inside `target` are accepted if
/// the *disjunction* `dc_ref ∨ target` is unchanged, even where the node
/// value differs within the care set.
///
/// Each accepted transform needs a full equivalence check
/// `dc_ref ∨ target ≡ dc_ref ∨ target'` — the redundancy check of the
/// EXOR gate comparing the old and new node — so this pass is budgeted
/// separately and applied sequentially.
pub fn odc_simplify(
    aig: &mut Aig,
    dc_ref: Lit,
    target: Lit,
    cnf: &mut AigCnf,
    cfg: &OptConfig,
) -> (Lit, OptStats) {
    let mut stats = OptStats::default();
    let mut current = target;
    let mut checks = 0usize;
    let whole = aig.or(dc_ref, target);
    // Try replacing each AND node (largest cones first) by a constant and,
    // failing that, by its own fanins — accepting whenever the disjunction
    // is preserved.
    let mut nodes: Vec<Var> = aig
        .collect_cone(&[current])
        .into_iter()
        .filter(|v| aig.node(*v).is_and())
        .collect();
    nodes.sort_unstable_by_key(|v| std::cmp::Reverse(aig.node_level(*v)));
    for v in nodes {
        if checks >= cfg.max_odc_checks {
            break;
        }
        if !aig.support_contains(current, v) && current.var() != v {
            continue; // already rewritten away
        }
        let (f0, f1) = match aig.node(v) {
            Node::And { f0, f1 } => (f0, f1),
            _ => continue,
        };
        for candidate in [Lit::FALSE, Lit::TRUE, f0, f1] {
            if checks >= cfg.max_odc_checks {
                break;
            }
            checks += 1;
            stats.checks += 1;
            let subst = HashMap::from([(v, candidate)]);
            let trial = apply_merges(aig, &[current], &subst)[0];
            if trial == current {
                continue;
            }
            let trial_whole = aig.or(dc_ref, trial);
            if aig.cone_size(trial_whole) >= aig.cone_size(whole) {
                stats.rejected += 1;
                continue;
            }
            match cnf.prove_equiv(aig, whole, trial_whole, cfg.sat_budget) {
                EquivResult::Equiv => {
                    current = trial;
                    stats.odc_applied += 1;
                    break;
                }
                _ => stats.rejected += 1,
            }
        }
    }
    (current, stats)
}

/// Mutually simplifies the two cofactors of a disjunction (the paper's
/// category-1 optimisation): `f0` is simplified under the onset of `f1`,
/// then `f1` under the onset of the new `f0`; optionally the ODC pass
/// runs on both. `merge` is the merge phase's configuration, whose
/// deadline and cancel flag the don't-care passes share. Returns the new
/// pair and combined statistics.
pub fn optimize_disjunction(
    aig: &mut Aig,
    f1: Lit,
    f0: Lit,
    cnf: &mut AigCnf,
    cfg: &OptConfig,
    merge: &SweepConfig,
) -> (Lit, Lit, OptStats) {
    let (nf0, mut total) = dc_simplify(aig, f1, f0, cnf, cfg, merge);
    let (nf1, s1) = dc_simplify(aig, nf0, f1, cnf, cfg, merge);
    total.absorb(&s1);
    if !cfg.use_odc {
        return (nf1, nf0, total);
    }
    let (of0, s2) = odc_simplify(aig, nf1, nf0, cnf, cfg);
    let (of1, s3) = odc_simplify(aig, of0, nf1, cnf, cfg);
    total.absorb(&s2);
    total.absorb(&s3);
    (of1, of0, total)
}

/// Depth-balancing pass: maximal AND trees are collected and rebuilt as
/// balanced trees, pairing shallowest operands first (the classical
/// `balance` of logic synthesis). Never changes functions; typically
/// reduces depth, which speeds up both simulation and SAT.
///
/// ```
/// use cbq_aig::Aig;
/// use cbq_synth::balance;
/// let mut aig = Aig::new();
/// let ins: Vec<_> = (0..8).map(|_| aig.add_input().lit()).collect();
/// // A degenerate left-leaning chain of depth 7.
/// let mut f = ins[0];
/// for l in &ins[1..] {
///     f = aig.and(f, *l);
/// }
/// let b = balance(&mut aig, &[f])[0];
/// assert!(aig.node_level(b.var()) <= 3 + 1);
/// ```
pub fn balance(aig: &mut Aig, roots: &[Lit]) -> Vec<Lit> {
    let cone = aig.collect_cone(roots);
    let top = roots.iter().map(|r| r.var().index()).max().unwrap_or(0);
    let mut memo: Vec<Option<Lit>> = vec![None; top + 1];
    for v in &cone {
        let rebuilt = match aig.node(*v) {
            Node::Const => Lit::FALSE,
            Node::Input { .. } => v.lit(),
            Node::And { .. } => {
                // Gather the maximal AND-tree leaves under this node
                // (descending through non-complemented AND fanins).
                let mut leaves: Vec<Lit> = Vec::new();
                let mut stack = vec![v.lit()];
                while let Some(l) = stack.pop() {
                    match aig.node(l.var()) {
                        Node::And { f0, f1 } if !l.is_complemented() => {
                            stack.push(f0);
                            stack.push(f1);
                        }
                        _ => {
                            let m = memo
                                .get(l.var().index())
                                .copied()
                                .flatten()
                                .unwrap_or_else(|| l.abs());
                            leaves.push(m.xor_sign(l.is_complemented()));
                        }
                    }
                }
                // Pair shallowest operands first (min-heap on level).
                let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, Lit)>> = leaves
                    .into_iter()
                    .map(|l| std::cmp::Reverse((aig.node_level(l.var()), l)))
                    .collect();
                loop {
                    let std::cmp::Reverse((_, a)) = heap.pop().expect("non-empty");
                    match heap.pop() {
                        None => break a,
                        Some(std::cmp::Reverse((_, b))) => {
                            let g = aig.and(a, b);
                            heap.push(std::cmp::Reverse((aig.node_level(g.var()), g)));
                        }
                    }
                }
            }
        };
        memo[v.index()] = Some(rebuilt);
    }
    roots
        .iter()
        .map(|r| {
            memo[r.var().index()]
                .expect("root rebuilt")
                .xor_sign(r.is_complemented())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge() -> SweepConfig {
        SweepConfig::default()
    }

    fn exhaustive_equal(aig: &Aig, a: Lit, b: Lit, n: usize) -> bool {
        (0..1u32 << n).all(|mask| {
            let asg: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 != 0).collect();
            aig.eval(a, &asg) == aig.eval(b, &asg)
        })
    }

    #[test]
    fn restrash_drops_dead_structure() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let f = aig.and(a, b);
        let roots = restrash(&mut aig, &[f]);
        assert_eq!(roots[0], f);
    }

    #[test]
    fn dc_simplify_preserves_disjunction() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..4).map(|_| aig.add_input().lit()).collect();
        let f1 = aig.and(ins[0], ins[1]);
        let f0 = {
            // Contains a term that is subsumed once f1's onset is DC.
            let t = aig.and(ins[0], ins[1]);
            let u = aig.and(t, ins[2]);
            aig.or(u, ins[3])
        };
        let before = aig.or(f1, f0);
        let mut cnf = AigCnf::new();
        let (nf0, _stats) =
            dc_simplify(&mut aig, f1, f0, &mut cnf, &OptConfig::default(), &merge());
        let after = aig.or(f1, nf0);
        assert!(exhaustive_equal(&aig, before, after, 4));
    }

    #[test]
    fn dc_simplify_true_reference_kills_target() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let t = aig.and(a, b);
        let mut cnf = AigCnf::new();
        let (nt, stats) = dc_simplify(
            &mut aig,
            Lit::TRUE,
            t,
            &mut cnf,
            &OptConfig::default(),
            &merge(),
        );
        assert_eq!(nt, Lit::FALSE);
        assert_eq!(stats.checks, 0);
    }

    #[test]
    fn dc_simplify_shrinks_known_case() {
        // Reference: a. Target: !a & b & c. Under care set !a, the target
        // equals b & c: one AND node is saved.
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let c = aig.add_input().lit();
        let t0 = aig.and(!a, b);
        let target = aig.and(t0, c);
        let mut cnf = AigCnf::new();
        let (nt, stats) = dc_simplify(
            &mut aig,
            a,
            target,
            &mut cnf,
            &OptConfig::default(),
            &merge(),
        );
        assert!(aig.cone_size(nt) < aig.cone_size(target));
        assert!(stats.const_applied + stats.merge_applied >= 1);
        let before = aig.or(a, target);
        let after = aig.or(a, nt);
        assert!(exhaustive_equal(&aig, before, after, 3));
    }

    #[test]
    fn odc_simplify_preserves_disjunction() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..4).map(|_| aig.add_input().lit()).collect();
        let f1 = aig.or(ins[0], ins[1]);
        let f0 = {
            let t = aig.xor(ins[1], ins[2]);
            let u = aig.and(t, ins[3]);
            aig.or(u, ins[0])
        };
        let before = aig.or(f1, f0);
        let mut cnf = AigCnf::new();
        let cfg = OptConfig {
            use_odc: true,
            ..OptConfig::default()
        };
        let (nf0, _stats) = odc_simplify(&mut aig, f1, f0, &mut cnf, &cfg);
        let after = aig.or(f1, nf0);
        assert!(exhaustive_equal(&aig, before, after, 4));
        assert!(aig.cone_size_many(&[f1, nf0]) <= aig.cone_size_many(&[f1, f0]));
    }

    #[test]
    fn optimize_disjunction_end_to_end() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..5).map(|_| aig.add_input().lit()).collect();
        let f1 = {
            let t = aig.and(ins[0], ins[1]);
            aig.or(t, ins[2])
        };
        let f0 = {
            let t = aig.and(ins[0], ins[1]);
            let u = aig.and(t, ins[3]);
            let v = aig.xor(ins[2], ins[4]);
            aig.or(u, v)
        };
        let before = aig.or(f1, f0);
        let mut cnf = AigCnf::new();
        let cfg = OptConfig {
            use_odc: true,
            ..OptConfig::default()
        };
        let (nf1, nf0, _stats) = optimize_disjunction(&mut aig, f1, f0, &mut cnf, &cfg, &merge());
        let after = aig.or(nf1, nf0);
        assert!(exhaustive_equal(&aig, before, after, 5));
        assert!(aig.cone_size_many(&[nf1, nf0]) <= aig.cone_size_many(&[f1, f0]));
    }

    #[test]
    fn balance_preserves_semantics_and_reduces_depth() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..8).map(|_| aig.add_input().lit()).collect();
        // Left-leaning chain mixing phases: ((((a&!b)&c)&!d)&...)
        let mut f = ins[0];
        for (i, l) in ins[1..].iter().enumerate() {
            f = aig.and(f, l.xor_sign(i % 2 == 0));
        }
        let depth_before = aig.node_level(f.var());
        let b = balance(&mut aig, &[f])[0];
        assert!(aig.node_level(b.var()) < depth_before);
        for mask in 0..256u32 {
            let asg: Vec<bool> = (0..8).map(|i| (mask >> i) & 1 != 0).collect();
            assert_eq!(aig.eval(f, &asg), aig.eval(b, &asg));
        }
    }

    #[test]
    fn balance_handles_or_chains_through_complements() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..8).map(|_| aig.add_input().lit()).collect();
        let mut f = ins[0];
        for l in &ins[1..] {
            f = aig.or(f, *l);
        }
        let b = balance(&mut aig, &[f])[0];
        for mask in [0u32, 1, 128, 255, 37] {
            let asg: Vec<bool> = (0..8).map(|i| (mask >> i) & 1 != 0).collect();
            assert_eq!(aig.eval(f, &asg), aig.eval(b, &asg));
        }
        assert!(aig.node_level(b.var()) <= aig.node_level(f.var()));
    }
}
