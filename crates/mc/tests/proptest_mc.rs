//! Property-based cross-checks of the model-checking layer: all-solutions
//! enumeration vs circuit quantification on random functions, and all
//! four engines vs the explicit-state oracle on random small networks.

use proptest::prelude::*;

use cbq_aig::{Aig, Lit, Var};
use cbq_ckt::Network;
use cbq_cnf::AigCnf;
use cbq_core::{exists_many, QuantConfig};
use cbq_mc::ganai::all_solutions_exists;
use cbq_mc::{explicit, BddUmc, Bmc, Budget, CircuitUmc, Engine, KInduction, Verdict};

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

fn emit(aig: &mut Aig, pool: &mut Vec<Lit>, ops: &[Op]) -> Lit {
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
    *pool.last().expect("non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Enumeration by circuit cofactoring equals circuit quantification.
    #[test]
    fn enumeration_equals_quantification(ops in ops_strategy(18), nvars in 1..3usize) {
        let mut aig = Aig::new();
        let mut pool: Vec<Lit> = (0..N).map(|_| aig.add_input().lit()).collect();
        let f = emit(&mut aig, &mut pool, &ops);
        let vars: Vec<Var> = (0..nvars).map(|i| aig.input_var(i)).collect();
        let mut cnf = AigCnf::new();
        let (enumerated, _) =
            all_solutions_exists(&mut aig, f, &vars, &mut cnf, 4096).expect("converges");
        let quantified = exists_many(&mut aig, f, &vars, &mut cnf, &QuantConfig::full());
        prop_assert!(cnf.prove_equiv(&aig, enumerated, quantified.lit, None).is_equiv());
    }

    /// Random 3-latch/1-input networks: every engine agrees with the
    /// explicit-state oracle, and counterexamples replay.
    #[test]
    fn engines_agree_on_random_networks(
        next_ops in prop::collection::vec(ops_strategy(10), 3..=3),
        bad_ops in ops_strategy(8),
        inits in prop::collection::vec(any::<bool>(), 3..=3),
    ) {
        let mut b = Network::builder("random");
        let latches: Vec<Var> = inits.iter().map(|i| b.add_latch(*i)).collect();
        let _input = b.add_input();
        // Next-state and bad functions over all AIG inputs created so far.
        let base: Vec<Lit> = {
            let aig = b.aig_mut();
            aig.inputs().to_vec().iter().map(|v| v.lit()).collect()
        };
        let mut nexts = Vec::new();
        for ops in &next_ops {
            let mut pool = base.clone();
            let aig = b.aig_mut();
            nexts.push(emit(aig, &mut pool, ops));
        }
        let bad = {
            let mut pool = base.clone();
            let aig = b.aig_mut();
            emit(aig, &mut pool, &bad_ops)
        };
        for (l, n) in latches.iter().zip(nexts) {
            b.set_next(*l, n);
        }
        let net = b.build(bad);
        let oracle = explicit::shortest_cex_depth(&net, 4, 1 << 10);
        let verdicts: Vec<(&str, Verdict)> = vec![
            ("circuit", CircuitUmc::default().check(&net, &Budget::unlimited()).verdict),
            ("bdd", BddUmc::default().check(&net, &Budget::unlimited()).verdict),
            ("kind", KInduction { max_k: 20, ..KInduction::default() }.check(&net, &Budget::unlimited()).verdict),
        ];
        for (name, v) in &verdicts {
            match (oracle, v) {
                (None, Verdict::Safe { .. }) => {}
                (Some(d), Verdict::Unsafe { trace }) => {
                    prop_assert!(trace.validates(&net), "{} bogus trace", name);
                    prop_assert_eq!(trace.len(), d + 1, "{} non-minimal", name);
                }
                (expected, got) => {
                    return Err(TestCaseError::fail(format!(
                        "{name}: oracle {expected:?} vs engine {got}"
                    )));
                }
            }
        }
        if let Some(d) = oracle {
            let bmc = Bmc { max_depth: d + 1, ..Bmc::default() }.check(&net, &Budget::unlimited());
            prop_assert!(bmc.verdict.is_unsafe());
        }
    }
}
