//! Property-based tests of the class engine's care-masked runs and of the
//! cone-local simulation they stand on, against exhaustive evaluation
//! over random AIGs of at most eight inputs.

use proptest::prelude::*;

use cbq_aig::sim::{BitSim, ConeSim};
use cbq_aig::{Aig, Lit};
use cbq_cec::{sweep_care, SweepConfig};
use cbq_cnf::AigCnf;

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
        1..=max_ops,
    )
}

/// The AIG over `inputs` inputs and every literal of the pool (the
/// inputs, then one literal per gate).
fn build(inputs: usize, ops: &[GateOp]) -> (Aig, Vec<Lit>) {
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..inputs).map(|_| aig.add_input().lit()).collect();
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()];
        let l = match *op {
            GateOp::And(a, pa, b, pb) => aig.and(pick(a).xor_sign(pa), pick(b).xor_sign(pb)),
            GateOp::Xor(a, pa, b, pb) => aig.xor(pick(a).xor_sign(pa), pick(b).xor_sign(pb)),
        };
        pool.push(l);
    }
    (aig, pool)
}

fn assignment(inputs: usize, mask: u32) -> Vec<bool> {
    (0..inputs).map(|i| (mask >> i) & 1 != 0).collect()
}

/// A small simulation, so that random patterns leave noise candidates
/// for SAT to refute.
fn config() -> SweepConfig {
    SweepConfig {
        sim_words: 1,
        ..SweepConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A care-masked run keeps `dc_ref ∨ target`: the rebuilt target
    /// equals the original wherever the care literal `¬dc_ref` holds.
    /// Half the targets differ from a pool gate on one minterm only, so
    /// the simulation often puts a wrong pair in one class.
    #[test]
    fn care_runs_preserve_the_disjunction(
        inputs in 1..=8usize,
        ops in ops_strategy(24),
        pick in any::<usize>(),
        seed in any::<u64>(),
        rare in any::<bool>(),
        phases in any::<u32>(),
    ) {
        let (mut aig, pool) = build(inputs, &ops);
        let mut target = *pool.last().expect("non-empty");
        if rare {
            let lits: Vec<Lit> = (0..inputs)
                .map(|i| aig.input_var(i).lit().xor_sign((phases >> i) & 1 != 0))
                .collect();
            let m = aig.and_many(&lits);
            target = aig.xor(target, m);
        }
        let dc_ref = pool[pick % pool.len()];
        let cfg = SweepConfig { seed, ..config() };
        let res = sweep_care(&mut aig, &[target], !dc_ref, &mut AigCnf::new(), &cfg, 512);
        for mask in 0..1u32 << inputs {
            let asg = assignment(inputs, mask);
            if !aig.eval(dc_ref, &asg) {
                prop_assert_eq!(aig.eval(res.roots[0], &asg), aig.eval(target, &asg), "mask {}", mask);
            }
        }
    }

    /// A target that is constant on the care set costs exactly one SAT
    /// check (one solve): it is checked first, and once it merges into
    /// the constant the rest of its cone drops out.
    #[test]
    fn a_target_constant_on_the_care_set_costs_one_check(
        inputs in 1..=8usize,
        ops in ops_strategy(24),
        pick in any::<usize>(),
        negate in any::<bool>(),
    ) {
        let (mut aig, pool) = build(inputs, &ops);
        let dc_ref = pool[pick % pool.len()];
        let last = *pool.last().expect("non-empty");
        // False wherever `¬dc_ref` holds, or true when negated.
        let target = aig.and(last, dc_ref).xor_sign(negate);
        if target.is_const() || dc_ref.is_const() {
            return Ok(());
        }
        let mut cnf = AigCnf::new();
        let res = sweep_care(&mut aig, &[target], !dc_ref, &mut cnf, &config(), 512);
        prop_assert_eq!(res.roots[0], Lit::FALSE.xor_sign(negate));
        prop_assert_eq!(res.stats.sat_checks, 1);
        prop_assert_eq!(cnf.stats().checks, 1);
    }

    /// Cone-local simulation equals whole-manager simulation on every
    /// cone node, on the seeded patterns and after a counterexample is
    /// injected and its word re-simulated.
    #[test]
    fn cone_simulation_equals_whole_manager_simulation(
        inputs in 1..=8usize,
        ops in ops_strategy(24),
        picks in prop::collection::vec(any::<usize>(), 1..=3),
        seed in any::<u64>(),
        words in 1..=3usize,
        bit in any::<usize>(),
        mask in any::<u32>(),
    ) {
        let (aig, pool) = build(inputs, &ops);
        let roots: Vec<Lit> = picks.iter().map(|p| pool[p % pool.len()]).collect();
        let mut cone = ConeSim::random(&aig, &roots, words, seed);
        let mut whole = BitSim::random(&aig, words, seed);
        let same = |cone: &ConeSim, whole: &BitSim| {
            cone.nodes().iter().all(|v| {
                (0..words).all(|w| cone.lit_word(v.lit(), w) == whole.lit_word(v.lit(), w))
            })
        };
        prop_assert!(same(&cone, &whole));
        let bit = bit % (64 * words);
        let asg = assignment(inputs, mask);
        cone.set_pattern(bit, &asg);
        cone.run_word(bit / 64);
        whole.set_pattern(&aig, bit, &asg);
        whole.run(&aig);
        prop_assert!(same(&cone, &whole));
        for r in &roots {
            let simulated = (cone.lit_word(*r, bit / 64) >> (bit % 64)) & 1 != 0;
            prop_assert_eq!(simulated, aig.eval(*r, &asg));
        }
    }
}
