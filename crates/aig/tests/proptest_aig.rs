//! Property-based tests of the AIG manager: algebraic laws, cofactor and
//! composition semantics, bit-identity with the test-side oracle,
//! compaction, simulation-vs-eval agreement and AIGER round-trips on
//! random circuits.

mod oracle;

use proptest::prelude::*;

use cbq_aig::io::{parse_aag, write_aag};
use cbq_aig::sim::{BitSim, TernSim};
use cbq_aig::{Aig, Lit, Var};

/// A recipe for building a random circuit: a list of gate descriptors
/// over a pool that starts with `num_inputs` inputs.
#[derive(Clone, Debug)]
enum GateOp {
    And(usize, bool, usize, bool),
    Xor(usize, bool, usize, bool),
    Ite(usize, usize, usize),
}

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<GateOp>> {
    prop::collection::vec(
        prop_oneof![
            (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>())
                .prop_map(|(a, pa, b, pb)| GateOp::And(a, pa, b, pb)),
            (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>())
                .prop_map(|(a, pa, b, pb)| GateOp::Xor(a, pa, b, pb)),
            (any::<usize>(), any::<usize>(), any::<usize>())
                .prop_map(|(c, t, e)| GateOp::Ite(c, t, e)),
        ],
        1..=max_ops,
    )
}

/// Materialises a recipe; returns the AIG and the last literal built.
fn build(num_inputs: usize, ops: &[GateOp]) -> (Aig, Lit) {
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..num_inputs).map(|_| aig.add_input().lit()).collect();
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
            GateOp::Ite(c, t, e) => {
                let (c, t, e) = (pick(c), pick(t), pick(e));
                aig.ite(c, t, e)
            }
        };
        pool.push(l);
    }
    let root = *pool.last().expect("non-empty pool");
    (aig, root)
}

const N: usize = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Gates built through the rewriting rules agree with direct Boolean
    /// evaluation on all 2^N inputs.
    #[test]
    fn structural_rules_preserve_semantics(ops in ops_strategy(24)) {
        let (aig, root) = build(N, &ops);
        // Rebuild the same recipe in a "rule-free" way: via the reference
        // evaluator on each assignment (the recipe semantics).
        let eval_recipe = |asg: &[bool]| -> bool {
            let mut pool: Vec<bool> = asg.to_vec();
            for op in &ops {
                let pick = |i: usize| pool[i % pool.len()];
                let v = match *op {
                    GateOp::And(a, pa, b, pb) => (pick(a) ^ pa) && (pick(b) ^ pb),
                    GateOp::Xor(a, pa, b, pb) => (pick(a) ^ pa) ^ (pick(b) ^ pb),
                    GateOp::Ite(c, t, e) => if pick(c) { pick(t) } else { pick(e) },
                };
                pool.push(v);
            }
            *pool.last().expect("non-empty")
        };
        for mask in 0..1u32 << N {
            let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
            prop_assert_eq!(aig.eval(root, &asg), eval_recipe(&asg), "mask {}", mask);
        }
    }

    /// Shannon expansion: f == (v & f|v=1) | (!v & f|v=0).
    #[test]
    fn cofactors_satisfy_shannon(ops in ops_strategy(24), vi in 0..N) {
        let (mut aig, root) = build(N, &ops);
        let v = aig.input_var(vi);
        let (f1, f0) = aig.cofactors(root, v);
        prop_assert!(!aig.support_contains(f1, v));
        prop_assert!(!aig.support_contains(f0, v));
        let shannon = {
            let hi = aig.and(v.lit(), f1);
            let lo = aig.and(!v.lit(), f0);
            aig.or(hi, lo)
        };
        for mask in 0..1u32 << N {
            let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
            prop_assert_eq!(aig.eval(root, &asg), aig.eval(shannon, &asg));
        }
    }

    /// Composition with the identity map is the identity; composing a
    /// variable with a constant equals the cofactor.
    #[test]
    fn compose_laws(ops in ops_strategy(24), vi in 0..N, value: bool) {
        let (mut aig, root) = build(N, &ops);
        let v = aig.input_var(vi);
        let same = aig.compose(root, &[(v, v.lit())]);
        prop_assert_eq!(same, root);
        let direct = aig.cofactor(root, v, value);
        let via_compose = aig.compose(
            root,
            &[(v, if value { Lit::TRUE } else { Lit::FALSE })],
        );
        prop_assert_eq!(direct, via_compose);
    }

    /// Compaction preserves semantics and never grows the AND count.
    #[test]
    fn compact_preserves_semantics(ops in ops_strategy(24)) {
        let (aig, root) = build(N, &ops);
        let (packed, roots) = aig.compact(&[root]);
        prop_assert!(packed.num_ands() <= aig.num_ands());
        prop_assert_eq!(packed.num_inputs(), aig.num_inputs());
        for mask in 0..1u32 << N {
            let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
            prop_assert_eq!(aig.eval(root, &asg), packed.eval(roots[0], &asg));
        }
    }

    /// 64-way simulation agrees with single-pattern evaluation.
    #[test]
    fn simulation_matches_eval(ops in ops_strategy(24), seed: u64) {
        let (aig, root) = build(N, &ops);
        let sim = BitSim::random(&aig, 2, seed);
        for bit in [0usize, 17, 63, 64, 127] {
            let asg = sim.pattern_assignment(&aig, bit);
            let word = sim.lit_word(root, bit / 64);
            prop_assert_eq!((word >> (bit % 64)) & 1 != 0, aig.eval(root, &asg));
        }
    }

    /// AIGER text round-trips preserve function.
    #[test]
    fn aag_roundtrip(ops in ops_strategy(24)) {
        let (aig, root) = build(N, &ops);
        let text = write_aag(&aig, &[root]);
        let file = parse_aag(&text).unwrap();
        let (aig2, _, outs) = file.build().unwrap();
        for mask in 0..1u32 << N {
            let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
            prop_assert_eq!(aig.eval(root, &asg), aig2.eval(outs[0], &asg));
        }
    }

    /// Differential: on X-free inputs the ternary simulator agrees with
    /// the two-valued one *exactly*, at every node of the circuit.
    #[test]
    fn ternary_matches_bitsim_when_definite(ops in ops_strategy(24), mask in 0..1usize << N) {
        let (aig, root) = build(N, &ops);
        let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
        let mut tern = TernSim::new(&aig, 1);
        let mut bit = BitSim::new(&aig, 1);
        bit.set_pattern(&aig, 0, &asg);
        for (i, &v) in asg.iter().enumerate() {
            tern.set_var(aig.input_var(i), 0, Some(v));
        }
        bit.run(&aig);
        tern.run(&aig);
        for idx in 0..aig.num_nodes() {
            let l = Var::from_index(idx).lit();
            prop_assert_eq!(
                tern.lit_value(l, 0),
                Some(bit.lit_word(l, 0) & 1 != 0),
                "node {} diverges", idx
            );
        }
        prop_assert_eq!(tern.lit_value(root, 0), Some(aig.eval(root, &asg)));
    }

    /// Differential: X inputs are a sound over-approximation — wherever
    /// the ternary simulator reports a *definite* value, every
    /// concretization of the X inputs agrees with it (checked against
    /// BitSim over all assignments of the X-ed variables).
    #[test]
    fn ternary_definite_values_are_sound(ops in ops_strategy(24), xmask in 0..1usize << N, base in 0..1usize << N) {
        let (aig, root) = build(N, &ops);
        let mut tern = TernSim::new(&aig, 1);
        for i in 0..N {
            let val = if (xmask >> i) & 1 != 0 { None } else { Some((base >> i) & 1 != 0) };
            tern.set_var(aig.input_var(i), 0, val);
        }
        tern.run(&aig);
        let xs: Vec<usize> = (0..N).filter(|i| (xmask >> *i) & 1 != 0).collect();
        let mut bit = BitSim::new(&aig, 1);
        for choice in 0..1u32 << xs.len() {
            let mut asg: Vec<bool> = (0..N).map(|i| (base >> i) & 1 != 0).collect();
            for (j, &i) in xs.iter().enumerate() {
                asg[i] = (choice >> j) & 1 != 0;
            }
            bit.set_pattern(&aig, 0, &asg);
            bit.run(&aig);
            for idx in 0..aig.num_nodes() {
                let l = Var::from_index(idx).lit();
                if let Some(def) = tern.lit_value(l, 0) {
                    prop_assert_eq!(
                        def,
                        bit.lit_word(l, 0) & 1 != 0,
                        "definite node {} contradicted by concretization {}", idx, choice
                    );
                }
            }
            let _ = root;
        }
    }

    /// Differential: the manager's substitutions — `compose`,
    /// `compose_many`, and `cofactor` on its first call and on a cache hit
    /// — return the literals the test-side oracle computes on a clone of
    /// the same manager, and both clones end with the same node list.
    #[test]
    fn substitutions_match_the_oracle(
        ops in ops_strategy(24),
        vi in 0..N,
        wi in 0..N,
        value: bool,
        phase: bool,
    ) {
        let (mut aig, root) = build(N, &ops);
        let mut slow = aig.clone();
        let v = aig.input_var(vi);
        let w = aig.input_var(wi);
        // Input-only substitution: swap v for (w ^ phase).
        let swap = [(v, w.lit().xor_sign(phase))];
        let composed = aig.compose(root, &swap);
        prop_assert_eq!(composed, oracle::compose(&mut slow, root, &swap));
        // First call, then an immediate cache hit.
        let cof = aig.cofactor(root, v, value);
        prop_assert_eq!(cof, oracle::cofactor(&mut slow, root, v, value));
        prop_assert!(!aig.support_contains(cof, v));
        let hits = aig.perf_counters().cofactor_cache_hits;
        prop_assert_eq!(aig.cofactor(root, v, value), cof);
        prop_assert_eq!(aig.perf_counters().cofactor_cache_hits, hits + 1);
        let (f1, f0) = aig.cofactors(composed, w);
        prop_assert_eq!(f1, oracle::cofactor(&mut slow, composed, w, true));
        prop_assert_eq!(f0, oracle::cofactor(&mut slow, composed, w, false));
        // One shared walk over several roots; a gate of the cone, when
        // there is one, is a substitution target too.
        let mut map = vec![(w, v.lit().xor_sign(!phase))];
        if let Some(gate) = aig
            .collect_cone(&[root])
            .into_iter()
            .find(|g| aig.node(*g).is_and())
        {
            map.push((gate, w.lit()));
        }
        let roots = [root, !composed, f1, f0];
        prop_assert_eq!(
            aig.compose_many(&roots, &map),
            oracle::compose_many(&mut slow, &roots, &map)
        );
        // After the manager has grown, a repeated cofactor still answers
        // what a full recomputation does.
        prop_assert_eq!(aig.cofactor(root, v, value), oracle::cofactor(&mut slow, root, v, value));
        prop_assert_eq!(aig.nodes(), slow.nodes());
        oracle::check_strash(&mut aig)?;
    }

    /// Structural hashing holds across table growth and compaction: no
    /// two gates share normalised fanins, and `and` of an existing gate's
    /// fanins returns that gate without growing the manager.
    #[test]
    fn strash_is_canonical_across_growth_and_compaction(ops in ops_strategy(48)) {
        let (mut aig, root) = build(N, &ops);
        oracle::check_strash(&mut aig)?;
        let (mut packed, _) = aig.compact(&[root]);
        oracle::check_strash(&mut packed)?;
    }

    /// The support really is the set of variables the function depends on
    /// *at most*: flipping a non-support variable never changes the value.
    #[test]
    fn support_is_sound(ops in ops_strategy(24)) {
        let (aig, root) = build(N, &ops);
        let support: Vec<Var> = aig.support(root);
        for mask in 0..1u32 << N {
            let mut asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
            let base = aig.eval(root, &asg);
            for vi in 0..N {
                let v = aig.input_var(vi);
                if support.contains(&v) {
                    continue;
                }
                asg[vi] = !asg[vi];
                prop_assert_eq!(aig.eval(root, &asg), base, "non-support var changed value");
                asg[vi] = !asg[vi];
            }
        }
    }
}
