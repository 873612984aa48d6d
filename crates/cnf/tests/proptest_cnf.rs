//! Property-based differential tests of the activation-literal cone
//! lifetimes: a persistent [`AigCnf`] driven through add/solve/retire
//! cycles must answer exactly like a fresh bridge at every step, across
//! manager compactions.

use proptest::prelude::*;

use cbq_aig::{Aig, Lit};
use cbq_cnf::{AigCnf, EquivResult};
use cbq_sat::SatResult;

/// A recipe for building a random combinational cone over `N` inputs.
#[derive(Clone, Debug)]
enum GateOp {
    And(usize, bool, usize, bool),
    Xor(usize, bool, usize, bool),
}

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<GateOp>> {
    prop::collection::vec(
        prop_oneof![
            (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>())
                .prop_map(|(a, pa, b, pb)| GateOp::And(a, pa, b, pb)),
            (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>())
                .prop_map(|(a, pa, b, pb)| GateOp::Xor(a, pa, b, pb)),
        ],
        2..=max_ops,
    )
}

const N: usize = 6;

/// Materialises a recipe; returns the AIG and the last three literals
/// built (the roots the workload checks and the GC keeps alive).
fn build(ops: &[GateOp]) -> (Aig, Vec<Lit>) {
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..N).map(|_| aig.add_input().lit()).collect();
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()];
        let l = match *op {
            GateOp::And(a, pa, b, pb) => {
                let x = pick(a).xor_sign(pa);
                let y = pick(b).xor_sign(pb);
                aig.and(x, y)
            }
            GateOp::Xor(a, pa, b, pb) => {
                let x = pick(a).xor_sign(pa);
                let y = pick(b).xor_sign(pb);
                aig.xor(x, y)
            }
        };
        pool.push(l);
    }
    let roots: Vec<Lit> = pool[pool.len().saturating_sub(3)..].to_vec();
    (aig, roots)
}

/// Exhaustive satisfiability of `root` over all 2^N input assignments.
fn oracle_sat(aig: &Aig, root: Lit) -> bool {
    (0..1u32 << N).any(|mask| {
        let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
        aig.eval(root, &asg)
    })
}

/// Exhaustive equivalence of two roots.
fn oracle_equiv(aig: &Aig, a: Lit, b: Lit) -> bool {
    (0..1u32 << N).all(|mask| {
        let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
        aig.eval(a, &asg) == aig.eval(b, &asg)
    })
}

/// How the bridge is carried across the per-round manager compaction.
#[derive(Copy, Clone, Debug, PartialEq)]
enum GcHandoff {
    /// `AigCnf::retire_cones` — the whole generation is disabled and the
    /// next round re-encodes.
    Retire,
    /// `AigCnf::migrate` — surviving cones keep their SAT variables (the
    /// sweep-GC path).
    Migrate,
}

/// Runs the workload rounds against one persistent bridge: every check is
/// compared to the exhaustive oracle, then the manager is compacted and
/// the bridge handed across (retired or migrated), and the next round
/// continues on the new manager.
fn drive(mut aig: Aig, mut roots: Vec<Lit>, handoff: GcHandoff) {
    let rounds = 3;
    let mut cnf = AigCnf::new();
    for round in 0..rounds {
        for &r in &roots {
            let expect = oracle_sat(&aig, r);
            let got = cnf.solve_under(&aig, &[r]);
            assert_eq!(
                got.is_sat(),
                expect,
                "round {round} ({handoff:?}): solve_under disagrees with the oracle on {r:?}"
            );
            if got == SatResult::Sat {
                let m = cnf.model_inputs(&aig);
                assert!(aig.eval(r, &m), "round {round}: model does not satisfy");
            }
        }
        for i in 0..roots.len() {
            for j in i + 1..roots.len() {
                let expect = oracle_equiv(&aig, roots[i], roots[j]);
                match cnf.prove_equiv(&aig, roots[i], roots[j], None) {
                    EquivResult::Equiv => assert!(expect, "round {round}: bogus Equiv"),
                    EquivResult::NotEquiv(cex) => {
                        assert!(!expect, "round {round}: bogus NotEquiv");
                        assert_ne!(
                            aig.eval(roots[i], &cex),
                            aig.eval(roots[j], &cex),
                            "round {round}: counterexample does not distinguish"
                        );
                    }
                    EquivResult::Unknown => panic!("no budget was set"),
                }
            }
        }
        // The engines' sweep-GC step: compact the manager around the live
        // roots and hand the bridge across.
        let (packed, packed_roots, var_map) = aig.compact_with_map(&roots);
        match handoff {
            GcHandoff::Retire => {
                cnf.retire_cones();
                assert_eq!(cnf.stats().retirements as usize, round + 1);
            }
            GcHandoff::Migrate => {
                cnf.migrate(&var_map, packed.num_nodes());
                assert_eq!(
                    (cnf.stats().migrations + cnf.stats().retirements) as usize,
                    round + 1
                );
            }
        }
        aig = packed;
        roots = packed_roots;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Activation-mode add/retire cycles agree with the exhaustive oracle
    /// at every round (the persistent solver never contaminates a later
    /// generation) and models/counterexamples stay concrete.
    #[test]
    fn activation_retire_cycles_agree_with_oracle(ops in ops_strategy(20)) {
        let (aig, roots) = build(&ops);
        drive(aig, roots, GcHandoff::Retire);
    }

    /// The sweep-GC path: add/solve/*migrate* cycles — surviving cones
    /// keep their SAT variables (strash-collision losers, constant
    /// mappings, and orphan purging included) and every post-migration
    /// answer still matches the exhaustive oracle.
    #[test]
    fn activation_migrate_cycles_agree_with_oracle(ops in ops_strategy(20)) {
        let (aig, roots) = build(&ops);
        drive(aig, roots, GcHandoff::Migrate);
    }

    /// Interleaved generation checks: queries answered *after* a retire
    /// must not be influenced by constraints asserted *before* it.
    #[test]
    fn assertions_die_with_their_generation(ops in ops_strategy(16)) {
        let (aig, roots) = build(&ops);
        let root = roots[0];
        // Constrain generation 0 to `root` (only meaningful when `root`
        // is satisfiable — otherwise the recipe is skipped).
        if oracle_sat(&aig, root) {
            let mut cnf = AigCnf::new();
            assert!(cnf.assert_lit(&aig, root));
            assert_eq!(cnf.solve_under(&aig, &[!root]), SatResult::Unsat);
            cnf.retire_cones();
            // Generation 1: the negation must be decidable purely by the
            // oracle again.
            let expect_neg = oracle_sat(&aig, !root);
            assert_eq!(cnf.solve_under(&aig, &[!root]).is_sat(), expect_neg);
        }
    }
}
