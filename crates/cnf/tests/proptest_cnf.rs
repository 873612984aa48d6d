//! Property-based differential tests of the activation-literal cone
//! lifetimes: a persistent [`AigCnf`] driven through add/solve/retire
//! cycles must answer exactly like a fresh bridge at every step, across
//! manager compactions. A second workload checks query-local answers:
//! every satisfiable answer, completed by reading unassigned inputs as
//! `false` and evaluating the AIG, satisfies the query and every active
//! constraint.

use std::collections::HashMap;

use proptest::prelude::*;

use cbq_aig::{Aig, Lit, Node, Var};
use cbq_cnf::{AigCnf, EquivResult};
use cbq_sat::{SatLit, SatResult};

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
    let (aig, pool) = build_pool(ops);
    let roots: Vec<Lit> = pool[pool.len().saturating_sub(3)..].to_vec();
    (aig, roots)
}

/// Materialises a recipe; returns the AIG and every literal of the pool
/// (the inputs, then one literal per gate).
fn build_pool(ops: &[GateOp]) -> (Aig, Vec<Lit>) {
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
    (aig, pool)
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

/// Truth table of every node over the `N` inputs: bit `m` is the node's
/// value under the input assignment whose bit `k` is input `k`.
fn truth_tables(aig: &Aig) -> Vec<u64> {
    let mut tt = vec![0u64; aig.num_nodes()];
    for i in 0..aig.num_nodes() {
        let v = Var::from_index(i);
        tt[i] = match aig.node(v) {
            Node::Const => 0,
            Node::Input { .. } => {
                let k = aig.input_index(v).expect("input ordinal");
                (0..1u64 << N)
                    .filter(|m| (m >> k) & 1 == 1)
                    .fold(0, |t, m| t | 1 << m)
            }
            Node::And { f0, f1 } => lit_table(&tt, f0) & lit_table(&tt, f1),
        };
    }
    tt
}

fn lit_table(tt: &[u64], l: Lit) -> u64 {
    let t = tt[l.var().index()];
    if l.is_complemented() {
        !t
    } else {
        t
    }
}

/// The sweep-GC step with merges: rebuilds the cone of `roots` in a new
/// manager and maps every node whose function (or its complement, or a
/// constant) already has an image onto that image, as a functional sweep
/// followed by compaction does. So the old-to-new map has
/// strash-collision losers and constant-mapped nodes, and nodes outside
/// the cone have no image.
fn merge_compact(aig: &Aig, roots: &[Lit]) -> (Aig, Vec<Option<Lit>>) {
    let tt = truth_tables(aig);
    let mut out = Aig::new();
    let mut map = vec![None; aig.num_nodes()];
    map[Var::CONST.index()] = Some(Lit::FALSE);
    let mut image: HashMap<u64, Lit> = HashMap::from([(0, Lit::FALSE), (!0, Lit::TRUE)]);
    for i in 0..aig.num_inputs() {
        let v = aig.input_var(i);
        let l = out.add_input().lit();
        map[v.index()] = Some(l);
        image.insert(tt[v.index()], l);
        image.insert(!tt[v.index()], !l);
    }
    for v in aig.collect_cone(roots) {
        let Node::And { f0, f1 } = aig.node(v) else {
            continue;
        };
        let t = tt[v.index()];
        let l = match image.get(&t) {
            Some(&l) => l,
            None => {
                let fanin = |f: Lit| {
                    map[f.var().index()]
                        .expect("fanin mapped")
                        .xor_sign(f.is_complemented())
                };
                let l = out.and(fanin(f0), fanin(f1));
                image.insert(t, l);
                image.insert(!t, !l);
                l
            }
        };
        map[v.index()] = Some(l);
    }
    (out, map)
}

/// Number of guards of a query-local workload.
const G: usize = 3;

/// A pool literal: an index (taken modulo the pool size) and a phase.
type PoolLit = (usize, bool);

/// A query-local workload over one random AIG.
#[derive(Clone, Debug)]
struct LocalWorkload {
    ops: Vec<GateOp>,
    /// Constraint clauses, each under one of the `G` guards.
    clauses: Vec<(usize, Vec<PoolLit>)>,
    /// Asserted literals.
    units: Vec<PoolLit>,
    /// Per round, the queries: a root and a mask of the guards assumed.
    rounds: Vec<Vec<(PoolLit, u8)>>,
}

fn local_strategy() -> impl Strategy<Value = LocalWorkload> {
    let lit = || (any::<usize>(), any::<bool>());
    (
        ops_strategy(20),
        prop::collection::vec((0..G, prop::collection::vec(lit(), 1..=3)), 0..=6),
        prop::collection::vec(lit(), 0..=2),
        prop::collection::vec(prop::collection::vec((lit(), any::<u8>()), 1..=6), 4),
    )
        .prop_map(|(ops, clauses, units, rounds)| LocalWorkload {
            ops,
            clauses,
            units,
            rounds,
        })
}

/// Poses every round's queries to one bridge, with a merging migration
/// between rounds. A node dies once no later round names it, so a
/// strash-collision loser made by one migration can lose its last parent
/// at the next, with queries still to come; the purge then takes the
/// loser's cone too. Each answer must match the exhaustive oracle, and a
/// satisfiable one, completed by reading unassigned inputs as `false`
/// and evaluating the AIG, must satisfy the root, every clause under an
/// assumed guard, and every asserted literal.
fn drive_local(w: &LocalWorkload) {
    let (mut aig, pool) = build_pool(&w.ops);
    let mut pool: Vec<Option<Lit>> = pool.into_iter().map(Some).collect();
    let pick = |pool: &[Option<Lit>], (i, phase): PoolLit| {
        pool[i % pool.len()]
            .expect("live pool literal")
            .xor_sign(phase)
    };
    let mut cnf = AigCnf::new();
    let guards: Vec<SatLit> = (0..G).map(|_| cnf.new_guard()).collect();
    // An identically false clause is not added (see
    // `add_guarded_clause_lits`), so the oracle skips it too.
    let mut clauses: Vec<&(usize, Vec<PoolLit>)> = Vec::new();
    for c in &w.clauses {
        let lits: Vec<Lit> = c.1.iter().map(|&l| pick(&pool, l)).collect();
        cnf.add_guarded_clause_lits(&aig, guards[c.0], &lits);
        if lits.iter().any(|&l| l != Lit::FALSE) {
            clauses.push(c);
        }
    }
    for &u in &w.units {
        cnf.assert_lit(&aig, pick(&pool, u));
    }
    for (round, queries) in w.rounds.iter().enumerate() {
        let tt = truth_tables(&aig);
        for &(root, mask) in queries {
            let root = pick(&pool, root);
            let active: Vec<&Vec<PoolLit>> = clauses
                .iter()
                .filter(|(g, _)| mask >> g & 1 == 1)
                .map(|(_, lits)| lits)
                .collect();
            let extra: Vec<SatLit> = (0..G)
                .filter(|g| mask >> g & 1 == 1)
                .map(|g| guards[g])
                .collect();
            let mut want = lit_table(&tt, root);
            for lits in &active {
                want &= lits
                    .iter()
                    .fold(0, |t, &l| t | lit_table(&tt, pick(&pool, l)));
            }
            for &u in &w.units {
                want &= lit_table(&tt, pick(&pool, u));
            }
            let got = cnf.solve_under_assuming(&aig, &[root], &extra);
            assert_eq!(
                got.is_sat(),
                want != 0,
                "round {round}: answer disagrees with the oracle on {root:?} under mask {mask:#b}"
            );
            if got == SatResult::Sat {
                let inputs = cnf.model_inputs(&aig);
                let holds = |l: PoolLit| aig.eval(pick(&pool, l), &inputs);
                assert!(
                    aig.eval(root, &inputs),
                    "round {round}: completion misses the root"
                );
                for lits in &active {
                    assert!(
                        lits.iter().any(|&l| holds(l)),
                        "round {round}: completion violates a clause under an assumed guard"
                    );
                }
                for &u in &w.units {
                    assert!(
                        holds(u),
                        "round {round}: completion violates an asserted literal"
                    );
                }
            }
        }
        // Keep what later rounds name alive; merge and migrate.
        let live: Vec<Lit> = clauses
            .iter()
            .flat_map(|(_, lits)| lits.iter().copied())
            .chain(w.units.iter().copied())
            .chain(w.rounds[round + 1..].iter().flatten().map(|&(l, _)| l))
            .map(|l| pick(&pool, l))
            .collect();
        let (merged, map) = merge_compact(&aig, &live);
        cnf.migrate(&map, merged.num_nodes());
        assert_eq!(cnf.stats().retirements, 0, "asserted literals must survive");
        for l in pool.iter_mut() {
            *l = l.and_then(|l| map[l.var().index()].map(|n| n.xor_sign(l.is_complemented())));
        }
        aig = merged;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Query-local answers: random constraint clauses under random
    /// guards, asserted literals, and queries of a root plus a subset of
    /// the guards, with merging migrations between rounds. Every answer
    /// matches the exhaustive oracle, and every satisfiable one completes
    /// by evaluation to a model of the query and its active constraints.
    #[test]
    fn query_local_answers_complete_by_evaluation(w in local_strategy()) {
        drive_local(&w);
    }
}
