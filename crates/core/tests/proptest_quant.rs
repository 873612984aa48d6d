//! Property-based tests of the quantification engine: every configuration
//! (naive, merge-only, full, budgeted, BDD baseline, SAT enumeration) must
//! compute the same `∃vars. F` on random functions.

use proptest::prelude::*;

use cbq_aig::{Aig, Lit, Var};
use cbq_cnf::AigCnf;
use cbq_core::{exists_bdd, exists_many, QuantConfig};

const N: usize = 6;

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

fn build(ops: &[Op]) -> (Aig, Lit) {
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..N).map(|_| aig.add_input().lit()).collect();
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()];
        let l = match *op {
            Op::And(a, pa, b, pb) => {
                let (x, y) = (pick(a).xor_sign(pa), pick(b).xor_sign(pb));
                aig.and(x, y)
            }
            Op::Xor(a, pa, b, pb) => {
                let (x, y) = (pick(a).xor_sign(pa), pick(b).xor_sign(pb));
                aig.xor(x, y)
            }
        };
        pool.push(l);
    }
    (aig, *pool.last().expect("non-empty"))
}

/// Exhaustive ∃ oracle.
fn exists_oracle(aig: &Aig, f: Lit, vars: &[Var], asg: &mut Vec<bool>) -> bool {
    match vars.split_first() {
        None => aig.eval(f, asg),
        Some((v, rest)) => {
            let idx = aig.input_index(*v).expect("input");
            let old = asg[idx];
            asg[idx] = false;
            let a = exists_oracle(aig, f, rest, asg);
            asg[idx] = true;
            let b = exists_oracle(aig, f, rest, asg);
            asg[idx] = old;
            a || b
        }
    }
}

fn check_result(aig: &Aig, f: Lit, vars: &[Var], result: Lit) -> Result<(), TestCaseError> {
    for v in vars {
        prop_assert!(
            !aig.support_contains(result, *v),
            "quantified variable {v:?} still in support"
        );
    }
    for mask in 0..1u32 << N {
        let mut asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
        let expect = exists_oracle(aig, f, vars, &mut asg);
        prop_assert_eq!(aig.eval(result, &asg), expect, "mask {}", mask);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full flow computes ∃ correctly.
    #[test]
    fn full_flow_is_exact(ops in ops_strategy(20), nvars in 1..4usize) {
        let (mut aig, f) = build(&ops);
        let vars: Vec<Var> = (0..nvars).map(|i| aig.input_var(i)).collect();
        let mut cnf = AigCnf::new();
        let res = exists_many(&mut aig, f, &vars, &mut cnf, &QuantConfig::full());
        prop_assert!(res.remaining.is_empty());
        check_result(&aig, f, &vars, res.lit)?;
    }

    /// All ablation configurations agree with each other.
    #[test]
    fn configurations_agree(ops in ops_strategy(20), nvars in 1..3usize) {
        let (aig0, f) = build(&ops);
        let vars: Vec<Var> = (0..nvars).map(|i| aig0.input_var(i)).collect();
        let mut results = Vec::new();
        for cfg in [QuantConfig::naive(), QuantConfig::merge_only(), QuantConfig::full()] {
            let mut aig = aig0.clone();
            let mut cnf = AigCnf::new();
            let res = exists_many(&mut aig, f, &vars, &mut cnf, &cfg);
            check_result(&aig, f, &vars, res.lit)?;
            results.push(());
        }
        prop_assert_eq!(results.len(), 3);
    }

    /// The BDD baseline agrees with the circuit flow.
    #[test]
    fn bdd_baseline_agrees(ops in ops_strategy(20), nvars in 1..3usize) {
        let (mut aig, f) = build(&ops);
        let vars: Vec<Var> = (0..nvars).map(|i| aig.input_var(i)).collect();
        let (blit, _) = exists_bdd(&mut aig, f, &vars, usize::MAX).expect("no cap");
        check_result(&aig, f, &vars, blit)?;
    }

    /// The cofactor cache only memoises what recomputation returns: a
    /// second `exists_many` on the manager the first one left behind,
    /// where every cofactor is a cache or strash hit, returns the same
    /// literal without growing the manager.
    #[test]
    fn warm_manager_recomputes_the_same_exists(ops in ops_strategy(20), nvars in 1..3usize) {
        let (mut aig, f) = build(&ops);
        let vars: Vec<Var> = (0..nvars).map(|i| aig.input_var(i)).collect();
        let cold = exists_many(&mut aig, f, &vars, &mut AigCnf::new(), &QuantConfig::full());
        let nodes = aig.num_nodes();
        let warm = exists_many(&mut aig, f, &vars, &mut AigCnf::new(), &QuantConfig::full());
        prop_assert_eq!(warm.lit, cold.lit);
        prop_assert_eq!(aig.num_nodes(), nodes, "the warm run grew the manager");
    }

    /// Partial quantification is sound: finishing the residuals yields
    /// the exact result.
    #[test]
    fn partial_quantification_is_sound(ops in ops_strategy(20), nvars in 1..4usize) {
        let (mut aig, f) = build(&ops);
        let vars: Vec<Var> = (0..nvars).map(|i| aig.input_var(i)).collect();
        let mut cnf = AigCnf::new();
        let tight = QuantConfig::full().with_budget(0.9);
        let res = exists_many(&mut aig, f, &vars, &mut cnf, &tight);
        // Finish the residuals without a budget.
        let fin = exists_many(&mut aig, res.lit, &res.remaining, &mut cnf, &QuantConfig::full());
        prop_assert!(fin.remaining.is_empty());
        check_result(&aig, f, &vars, fin.lit)?;
    }
}
