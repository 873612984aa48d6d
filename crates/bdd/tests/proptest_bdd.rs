//! Property-based tests of the BDD package: canonicity, Boolean algebra,
//! quantification semantics, AIG conversion agreement and the shared
//! AIG→BDD memo, kept across compactions.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use cbq_aig::{Aig, Lit, Var};
use cbq_bdd::{AigBdds, BddManager, BddRef};

const N: usize = 5;

#[derive(Clone, Debug)]
enum Op {
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Not(usize),
    Ite(usize, usize, usize),
}

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::And(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Or(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Xor(a, b)),
            any::<usize>().prop_map(Op::Not),
            (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(a, b, c)| Op::Ite(a, b, c)),
        ],
        1..=max_ops,
    )
}

fn build(mgr: &mut BddManager, ops: &[Op]) -> BddRef {
    let mut pool: Vec<BddRef> = (0..N as u32).map(|i| mgr.var(i)).collect();
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()];
        let r = match *op {
            Op::And(a, b) => {
                let (x, y) = (pick(a), pick(b));
                mgr.and(x, y)
            }
            Op::Or(a, b) => {
                let (x, y) = (pick(a), pick(b));
                mgr.or(x, y)
            }
            Op::Xor(a, b) => {
                let (x, y) = (pick(a), pick(b));
                mgr.xor(x, y)
            }
            Op::Not(a) => {
                let x = pick(a);
                mgr.not(x)
            }
            Op::Ite(a, b, c) => {
                let (x, y, z) = (pick(a), pick(b), pick(c));
                mgr.ite(x, y, z)
            }
        };
        pool.push(r);
    }
    *pool.last().expect("non-empty")
}

/// The same structure as [`build`], as an AIG over `n` inputs; returns
/// the AIG and its last literal.
fn aig_from_ops(n: usize, ops: &[Op]) -> (Aig, Lit) {
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..n).map(|_| aig.add_input().lit()).collect();
    push_ops(&mut aig, &mut pool, ops);
    let root = *pool.last().expect("non-empty");
    (aig, root)
}

/// Builds `ops` over `pool` in `aig`, appending each result to `pool`.
fn push_ops(aig: &mut Aig, pool: &mut Vec<Lit>, ops: &[Op]) {
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()];
        let l = match *op {
            Op::And(a, b) => {
                let (x, y) = (pick(a), pick(b));
                aig.and(x, y)
            }
            Op::Or(a, b) => {
                let (x, y) = (pick(a), pick(b));
                aig.or(x, y)
            }
            Op::Xor(a, b) => {
                let (x, y) = (pick(a), pick(b));
                aig.xor(x, y)
            }
            Op::Not(a) => !pick(a),
            Op::Ite(a, b, c) => {
                let (x, y, z) = (pick(a), pick(b), pick(c));
                aig.ite(x, y, z)
            }
        };
        pool.push(l);
    }
}

fn truth_table(mgr: &BddManager, f: BddRef) -> u64 {
    let mut tt = 0u64;
    for mask in 0..1u32 << N {
        let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
        if mgr.eval(f, &asg) {
            tt |= 1 << mask;
        }
    }
    tt
}

/// Mask of all `2^(2^N)`-entry truth-table bits that are in use.
fn tt_mask() -> u64 {
    if (1usize << N) >= 64 {
        u64::MAX
    } else {
        (1u64 << (1 << N)) - 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Canonicity: equal truth tables iff equal node references.
    #[test]
    fn canonicity(ops1 in ops_strategy(16), ops2 in ops_strategy(16)) {
        let mut mgr = BddManager::new(N);
        let f = build(&mut mgr, &ops1);
        let g = build(&mut mgr, &ops2);
        prop_assert_eq!(truth_table(&mgr, f) == truth_table(&mgr, g), f == g);
    }

    /// Negation is an involution with complementary truth table.
    #[test]
    fn negation_involution(ops in ops_strategy(16)) {
        let mut mgr = BddManager::new(N);
        let f = build(&mut mgr, &ops);
        let nf = mgr.not(f);
        prop_assert_eq!(mgr.not(nf), f);
        prop_assert_eq!(truth_table(&mgr, nf), !truth_table(&mgr, f) & tt_mask());
    }

    /// ∃x.f evaluates as f|x=0 | f|x=1, and ∀x.f as the conjunction.
    #[test]
    fn quantification_semantics(ops in ops_strategy(16), vi in 0..N) {
        let mut mgr = BddManager::new(N);
        let f = build(&mut mgr, &ops);
        let ex = mgr.exists(f, &[vi as u32]);
        let all = mgr.forall(f, &[vi as u32]);
        let f1 = mgr.restrict(f, vi as u32, true);
        let f0 = mgr.restrict(f, vi as u32, false);
        let or = mgr.or(f1, f0);
        let and = mgr.and(f1, f0);
        prop_assert_eq!(ex, or);
        prop_assert_eq!(all, and);
    }

    /// sat_count matches exhaustive counting.
    #[test]
    fn sat_count_is_exact(ops in ops_strategy(16)) {
        let mut mgr = BddManager::new(N);
        let f = build(&mut mgr, &ops);
        let expect = truth_table(&mgr, f).count_ones() as f64;
        prop_assert_eq!(mgr.sat_count(f), expect);
    }

    /// one_sat returns a genuine satisfying assignment.
    #[test]
    fn one_sat_is_sound(ops in ops_strategy(16)) {
        let mut mgr = BddManager::new(N);
        let f = build(&mut mgr, &ops);
        match mgr.one_sat(f) {
            None => prop_assert_eq!(f, BddRef::ZERO),
            Some(partial) => {
                let asg: Vec<bool> = partial.iter().map(|o| o.unwrap_or(false)).collect();
                prop_assert!(mgr.eval(f, &asg));
            }
        }
    }

    /// AIG → BDD → AIG round-trips preserve the function.
    #[test]
    fn aig_bdd_roundtrip(ops in ops_strategy(16)) {
        let (mut aig, root) = aig_from_ops(N, &ops);
        let var_level: HashMap<_, _> = (0..N)
            .map(|i| (aig.input_var(i), i as u32))
            .collect();
        let mut mgr = BddManager::new(N);
        let b = mgr.from_aig(&aig, root, &var_level, usize::MAX).unwrap();
        let lits: Vec<Lit> = (0..N).map(|i| aig.input_var(i).lit()).collect();
        let back = mgr.to_aig(&mut aig, b, &lits);
        for mask in 0..1u32 << N {
            let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
            prop_assert_eq!(aig.eval(root, &asg), aig.eval(back, &asg));
            prop_assert_eq!(aig.eval(root, &asg), mgr.eval(b, &asg));
        }
    }

    /// One memo shared by every node of a random AIG, visited in a
    /// scrambled order so cones meet half-built memos, gives each node
    /// the `BddRef` that `from_aig` builds in the same manager, and that
    /// BDD agrees with `Aig::eval` on every assignment.
    #[test]
    fn shared_memo_matches_from_aig_and_eval(
        n in 1..=10usize,
        ops in ops_strategy(16),
        scramble in any::<u64>(),
    ) {
        let (aig, _) = aig_from_ops(n, &ops);
        let ordinal: HashMap<Var, u32> =
            (0..n).map(|i| (aig.input_var(i), i as u32)).collect();
        let mut vars: Vec<Var> = (0..aig.num_nodes()).map(Var::from_index).collect();
        vars.sort_by_key(|v| (v.index() as u64 ^ scramble).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut mgr = BddManager::new(n);
        let mut memo = AigBdds::new();
        for v in vars {
            for l in [v.lit(), !v.lit()] {
                let b = memo.build(&mut mgr, &aig, l, usize::MAX, usize::MAX);
                prop_assert_eq!(b, mgr.from_aig(&aig, l, &ordinal, usize::MAX));
                let b = b.expect("uncapped builds resolve");
                if l.is_complemented() || !aig.node(v).is_and() {
                    continue;
                }
                for mask in 0..1u32 << n {
                    let asg: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 != 0).collect();
                    prop_assert_eq!(mgr.eval(b, &asg), aig.eval(l, &asg));
                }
            }
        }
    }
}

/// One round of [`remap_carries_the_memo_across_compactions`]: ops that
/// grow the AIG, nodes whose BDDs the kept memo builds, the compaction's
/// roots (indices into the pool), the bits choosing which images are sent
/// onto a complement, and the per-node cap of the builds.
type Round = (Vec<Op>, Vec<usize>, Vec<usize>, u64, usize);

fn round_strategy() -> impl Strategy<Value = Round> {
    (
        ops_strategy(24),
        prop::collection::vec(any::<usize>(), 1..=16),
        prop::collection::vec(any::<usize>(), 1..=4),
        any::<u64>(),
        1..=8usize,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A memo kept across several compactions. Each round grows the AIG,
    /// builds the BDDs of random nodes under a small per-node cap (so some
    /// abort), compacts around random roots with `compact_with_map` and
    /// remaps. Compaction alone never complements an image, so the round
    /// also sends chosen old nodes onto the complement of a survivor that
    /// computes their negation, as a compaction that merged complementary
    /// nodes would. Afterwards the memo holds exactly the images of the
    /// nodes it had built, each with the `BddRef` a fresh memo builds in
    /// the same manager.
    #[test]
    fn remap_carries_the_memo_across_compactions(
        n in 1..=8usize,
        rounds in prop::collection::vec(round_strategy(), 1..=4),
    ) {
        let mut aig = Aig::new();
        let mut pool: Vec<Lit> = (0..n).map(|_| aig.add_input().lit()).collect();
        let mut mgr = BddManager::new(n);
        let mut kept = AigBdds::new();
        for (ops, fill, roots, flips, cap) in rounds {
            push_ops(&mut aig, &mut pool, &ops);
            for pick in fill {
                let v = Var::from_index(pick % aig.num_nodes());
                kept.build(&mut mgr, &aig, v.lit(), cap, usize::MAX);
            }
            let roots: Vec<Lit> = roots.iter().map(|r| pool[r % pool.len()]).collect();
            let (packed, packed_roots, mut map) = aig.compact_with_map(&roots);
            let mut fresh_memo = AigBdds::new();
            let fresh: Vec<BddRef> = (0..packed.num_nodes())
                .map(|i| {
                    let l = Var::from_index(i).lit();
                    fresh_memo.build(&mut mgr, &packed, l, usize::MAX, usize::MAX)
                })
                .collect::<Option<_>>()
                .expect("uncapped builds resolve");
            let mut survivor: HashMap<BddRef, Var> = HashMap::new();
            for (i, &b) in fresh.iter().enumerate() {
                survivor.entry(b).or_insert(Var::from_index(i));
            }
            for (i, image) in map.iter_mut().enumerate() {
                let Some(img) = *image else { continue };
                if (flips >> (i % 64)) & 1 == 0 {
                    continue;
                }
                let f = fresh[img.var().index()];
                let f = if img.is_complemented() { mgr.not(f) } else { f };
                let nf = mgr.not(f);
                if let Some(&w) = survivor.get(&nf) {
                    *image = Some(!w.lit());
                }
            }
            let images: HashSet<Var> = (0..aig.num_nodes())
                .filter(|&i| kept.get(Var::from_index(i)).is_some())
                .filter_map(|i| map[i].map(Lit::var))
                .collect();
            kept.remap(&mut mgr, &map);
            prop_assert_eq!(kept.len(), images.len());
            for w in images {
                prop_assert_eq!(kept.get(w), Some(fresh[w.index()]));
            }
            aig = packed;
            pool = (0..n).map(|i| aig.input_var(i).lit()).collect();
            pool.extend(packed_roots);
        }
    }
}

/// `(x0 ∧ y0) ∨ … ∨ (x{k-1} ∧ y{k-1})` with every `x` ordered before
/// every `y`: the classic exponential BDD. Returns the AIG and the
/// partial disjunctions, one per pair.
fn interleaved_or(k: usize) -> (Aig, Vec<Lit>) {
    let mut aig = Aig::new();
    let xs: Vec<Lit> = (0..k).map(|_| aig.add_input().lit()).collect();
    let ys: Vec<Lit> = (0..k).map(|_| aig.add_input().lit()).collect();
    let mut acc = Lit::FALSE;
    let mut partial = Vec::new();
    for (x, y) in xs.into_iter().zip(ys) {
        let t = aig.and(x, y);
        acc = aig.or(acc, t);
        partial.push(acc);
    }
    (aig, partial)
}

#[test]
fn node_cap_aborts_the_node_past_it_and_everything_above() {
    let (mut aig, partial) = interleaved_or(8);
    let z = aig.add_input().lit();
    let w = aig.add_input().lit();
    let full = *partial.last().expect("eight pairs");
    let above = aig.and(full, z);
    let top = aig.and(!above, w);
    let sibling = aig.and(partial[1], z); // shares inputs, not the big node

    // Uncapped, the last disjunction adds far more than 40 nodes.
    let mut free = BddManager::new(aig.num_inputs());
    let mut free_memo = AigBdds::new();
    free_memo.build(&mut free, &aig, partial[6], usize::MAX, usize::MAX);
    let before = free.num_nodes();
    free_memo.build(&mut free, &aig, full, usize::MAX, usize::MAX);
    let added = free.num_nodes() - before;
    assert!(added > 40, "{added} nodes");

    let mut mgr = BddManager::new(aig.num_inputs());
    let mut memo = AigBdds::new();
    assert_eq!(memo.build(&mut mgr, &aig, top, 40, usize::MAX), None);
    for aborted in [full, above, top, !top] {
        assert_eq!(memo.build(&mut mgr, &aig, aborted, 40, usize::MAX), None);
    }
    let ordinal: HashMap<Var, u32> = (0..aig.num_inputs())
        .map(|i| (aig.input_var(i), i as u32))
        .collect();
    for resolved in [sibling, partial[1], partial[0]] {
        let b = memo.build(&mut mgr, &aig, resolved, 40, usize::MAX);
        assert!(b.is_some());
        assert_eq!(b, mgr.from_aig(&aig, resolved, &ordinal, usize::MAX));
    }
}

#[test]
fn total_cap_stops_further_builds() {
    let mut aig = Aig::new();
    let ins: Vec<Lit> = (0..5).map(|_| aig.add_input().lit()).collect();
    let first = {
        let t = aig.xor(ins[0], ins[1]);
        aig.xor(t, ins[2])
    };
    let second = aig.and(ins[3], ins[4]);
    let mut mgr = BddManager::new(aig.num_inputs());
    let mut memo = AigBdds::new();
    let b = memo.build(&mut mgr, &aig, first, usize::MAX, usize::MAX);
    assert!(b.is_some());
    let full = mgr.num_nodes();
    // Past the total cap, a cone that needs new nodes aborts...
    assert_eq!(memo.build(&mut mgr, &aig, second, usize::MAX, full), None);
    // ...while memoised cones still answer.
    assert_eq!(memo.build(&mut mgr, &aig, first, usize::MAX, full), b);
}
