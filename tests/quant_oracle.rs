//! Differential quantification oracle: on random AIGs small enough to
//! enumerate (≤ 10 inputs), `exists_many` must agree with truth-table
//! cofactor expansion for **every** configuration — each preset, each
//! variable order, both residual-completion policies, and the BDD
//! baseline. The same oracle is applied to the state-set sweeper: swept
//! AIGs must be equivalent on all assignments.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cbq::cec::BddTier;
use cbq::mc::ganai::all_solutions_exists;
use cbq::mc::sweep::{StateSetSweeper, SweepConfig};
use cbq::prelude::*;
use cbq::quant::{exists_bdd, VarOrder};

/// Number of random instances per test (fixed seeds: 0..CASES).
const CASES: u64 = 24;

/// Builds a random AIG over `n` inputs with `ops` random gates; returns
/// the manager, the full literal pool, and the last literal built.
fn random_aig(rng: &mut SmallRng, n: usize, ops: usize) -> (Aig, Vec<Lit>, Lit) {
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..n).map(|_| aig.add_input().lit()).collect();
    for _ in 0..ops {
        let pick = |rng: &mut SmallRng, pool: &[Lit]| {
            let l = pool[rng.gen_range(0..pool.len())];
            l.xor_sign(rng.gen::<bool>())
        };
        let a = pick(rng, &pool);
        let b = pick(rng, &pool);
        let l = match rng.gen_range(0..3) {
            0 => aig.and(a, b),
            1 => aig.xor(a, b),
            _ => {
                let c = pick(rng, &pool);
                aig.ite(a, b, c)
            }
        };
        pool.push(l);
    }
    let root = *pool.last().expect("non-empty");
    (aig, pool, root)
}

/// The truth table of `∃vars. f` by cofactor expansion: entry `mask` is
/// true iff some assignment to `vars` (on top of `mask`) satisfies `f`.
fn exists_truth_table(aig: &Aig, f: Lit, vars: &[Var], n: usize) -> Vec<bool> {
    let var_idx: Vec<usize> = vars
        .iter()
        .map(|v| aig.input_index(*v).expect("quantified var is an input"))
        .collect();
    (0..1u32 << n)
        .map(|mask| {
            let mut asg: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 != 0).collect();
            (0..1u32 << var_idx.len()).any(|sub| {
                for (j, &vi) in var_idx.iter().enumerate() {
                    asg[vi] = (sub >> j) & 1 != 0;
                }
                aig.eval(f, &asg)
            })
        })
        .collect()
}

/// Asserts `result` matches the oracle table on every assignment (the
/// quantified variables were overwritten by the oracle loop, so a correct
/// result must not depend on them — checked via the support).
fn assert_matches_oracle(
    aig: &Aig,
    result: Lit,
    table: &[bool],
    vars: &[Var],
    n: usize,
    ctx: &str,
) {
    for v in vars {
        assert!(
            !aig.support_contains(result, *v),
            "{ctx}: quantified variable {v:?} still in support"
        );
    }
    for (mask, expect) in table.iter().enumerate() {
        let asg: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 != 0).collect();
        assert_eq!(
            aig.eval(result, &asg),
            *expect,
            "{ctx}: wrong value at assignment {mask:#b}"
        );
    }
}

/// Every preset × every variable order.
fn configurations() -> Vec<(String, QuantConfig)> {
    let mut cfgs = Vec::new();
    let presets = [
        ("naive", QuantConfig::naive()),
        ("merge", QuantConfig::merge_only()),
        ("full", QuantConfig::full()),
    ];
    let orders = [
        VarOrder::CheapestFirst,
        VarOrder::StaticCost,
        VarOrder::AsGiven,
    ];
    for (pname, preset) in &presets {
        for order in orders {
            cfgs.push((
                format!("{pname}/{}", order.name()),
                preset.clone().with_order(order),
            ));
        }
    }
    cfgs
}

#[test]
fn every_configuration_matches_the_truth_table_oracle() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 4 + rng.gen_range(0..5); // 4..=8 inputs (≤ 10)
        let ops = 8 + rng.gen_range(0..18);
        let (aig0, _, f) = random_aig(&mut rng, n, ops);
        let nvars = 1 + rng.gen_range(0..3.min(n));
        let vars: Vec<Var> = (0..nvars).map(|i| aig0.input_var(i)).collect();
        let table = exists_truth_table(&aig0, f, &vars, n);
        for (name, cfg) in configurations() {
            let mut aig = aig0.clone();
            let mut cnf = AigCnf::new();
            let res = exists_many(&mut aig, f, &vars, &mut cnf, &cfg);
            assert!(
                res.remaining.is_empty(),
                "seed {seed} {name}: unbudgeted run aborted variables"
            );
            let ctx = format!("seed {seed} cfg {name}");
            assert_matches_oracle(&aig, res.lit, &table, &vars, n, &ctx);
        }
        // The canonical baseline agrees too.
        let mut aig = aig0.clone();
        let (blit, _) = exists_bdd(&mut aig, f, &vars, usize::MAX).expect("no cap");
        assert_matches_oracle(&aig, blit, &table, &vars, n, &format!("seed {seed} bdd"));
    }
}

#[test]
fn budgeted_runs_complete_correctly_under_both_residual_policies() {
    // Partial quantification (tight growth budget) leaves residuals;
    // both ways of finishing them — naive completion (what `CircuitUmc`
    // does) and all-solutions enumeration — must reach the exact result.
    let mut saw_residuals = false;
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let n = 5 + rng.gen_range(0..4); // 5..=8 inputs
        let ops = 12 + rng.gen_range(0..20);
        let (aig0, _, f) = random_aig(&mut rng, n, ops);
        let nvars = 2 + rng.gen_range(0..2);
        let vars: Vec<Var> = (0..nvars).map(|i| aig0.input_var(i)).collect();
        let table = exists_truth_table(&aig0, f, &vars, n);
        let tight = QuantConfig::naive().with_budget(0.5);
        for policy in ["naive", "enumerate"] {
            let mut aig = aig0.clone();
            let mut cnf = AigCnf::new();
            let partial = exists_many(&mut aig, f, &vars, &mut cnf, &tight);
            // Soundness of the partial result itself: quantifying the
            // residuals by truth table must reproduce the oracle.
            let partial_table = exists_truth_table(&aig, partial.lit, &partial.remaining, n);
            assert_eq!(
                partial_table, table,
                "seed {seed}: partial result is not ∃remaining-equivalent"
            );
            saw_residuals |= !partial.remaining.is_empty();
            let finished = match policy {
                "naive" => {
                    exists_many(
                        &mut aig,
                        partial.lit,
                        &partial.remaining,
                        &mut cnf,
                        &QuantConfig::naive(),
                    )
                    .lit
                }
                _ => {
                    all_solutions_exists(&mut aig, partial.lit, &partial.remaining, &mut cnf, 4096)
                        .expect("enumeration converges on tiny instances")
                        .0
                }
            };
            let ctx = format!("seed {seed} residual policy {policy}");
            assert_matches_oracle(&aig, finished, &table, &vars, n, &ctx);
        }
    }
    assert!(
        saw_residuals,
        "the tight budget never aborted anything — the test exercises nothing"
    );
}

#[test]
fn swept_aigs_are_equivalent_on_all_assignments() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(2000 + seed);
        let n = 4 + rng.gen_range(0..5);
        let ops = 12 + rng.gen_range(0..24);
        let (mut aig, pool, root) = random_aig(&mut rng, n, ops);
        // A few live roots spread across the pool, plus the main root.
        let mut roots = vec![root];
        for _ in 0..2 {
            roots.push(pool[rng.gen_range(0..pool.len())]);
        }
        let reference = std::mem::replace(&mut aig, Aig::new());
        let ref_roots = roots.clone();
        let vars: Vec<Var> = (0..n).map(|i| reference.input_var(i)).collect();
        // Sweep with gc on and off; both must preserve semantics.
        for gc in [true, false] {
            let mut work = reference.clone();
            let mut work_roots = ref_roots.clone();
            let mut work_vars = vars.clone();
            let mut cnf = AigCnf::new();
            let cfg = SweepConfig {
                gc,
                ..SweepConfig::eager()
            };
            let mut sweeper = StateSetSweeper::new(cfg);
            let lit_refs: Vec<&mut Lit> = work_roots.iter_mut().collect();
            let var_refs: Vec<&mut Var> = work_vars.iter_mut().collect();
            sweeper.run(&mut work, &mut cnf, &mut BddTier::new(), lit_refs, var_refs);
            for mask in 0..1u32 << n {
                let asg: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 != 0).collect();
                for (orig, swept) in ref_roots.iter().zip(&work_roots) {
                    assert_eq!(
                        reference.eval(*orig, &asg),
                        work.eval(*swept, &asg),
                        "seed {seed} gc={gc}: sweep changed semantics at {mask:#b}"
                    );
                }
            }
            // Remapped vars must still name the same input ordinals.
            for (i, v) in work_vars.iter().enumerate() {
                assert_eq!(work.input_index(*v), Some(i), "seed {seed}: ordinal moved");
            }
        }
    }
}
