//! Reference implementations the manager's hot path is checked against.
//!
//! Written for obviousness, not speed: a `HashMap`-memo substitution that
//! rebuilds the whole cone through the public [`Aig::and`], and a
//! structural-hashing check over [`Aig::nodes`]. The property tests run
//! the manager and these oracles on clones of one manager and require
//! bit-identical answers.

use std::collections::HashMap;

use cbq_aig::{Aig, Lit, Node, Var};
use proptest::prelude::*;

/// Simultaneous substitution of `map` into the union cone of `roots`.
/// Every gate of the cone is re-issued through [`Aig::and`] in ascending
/// index order: no support limiting, no scratchpad, no cache.
/// Substitution targets, inputs and gates alike, take their image from
/// `map` and are not rebuilt.
pub fn compose_many(aig: &mut Aig, roots: &[Lit], map: &[(Var, Lit)]) -> Vec<Lit> {
    let subst: HashMap<Var, Lit> = map.iter().copied().collect();
    let mut memo: HashMap<Var, Lit> = HashMap::new();
    for var in aig.collect_cone(roots) {
        let image = match (subst.get(&var), aig.node(var)) {
            (Some(&l), _) => l,
            (None, Node::Const) => Lit::FALSE,
            (None, Node::Input { .. }) => var.lit(),
            (None, Node::And { f0, f1 }) => {
                let a = memo[&f0.var()].xor_sign(f0.is_complemented());
                let b = memo[&f1.var()].xor_sign(f1.is_complemented());
                aig.and(a, b)
            }
        };
        memo.insert(var, image);
    }
    roots
        .iter()
        .map(|r| memo[&r.var()].xor_sign(r.is_complemented()))
        .collect()
}

/// [`compose_many`] for one root.
pub fn compose(aig: &mut Aig, f: Lit, map: &[(Var, Lit)]) -> Lit {
    compose_many(aig, &[f], map)[0]
}

/// The cofactor `f|v=value`, as a substitution by a constant.
pub fn cofactor(aig: &mut Aig, f: Lit, v: Var, value: bool) -> Lit {
    let constant = if value { Lit::TRUE } else { Lit::FALSE };
    compose(aig, f, &[(v, constant)])
}

/// Structural hashing over the whole node list: every gate's fanins are
/// normalised (`f0 >= f1`), no two gates share them, and [`Aig::and`] of
/// an existing gate's fanins, in either order, returns that gate without
/// growing the manager.
pub fn check_strash(aig: &mut Aig) -> Result<(), TestCaseError> {
    let mut seen: HashMap<(Lit, Lit), Var> = HashMap::new();
    let nodes = aig.nodes().to_vec();
    let before = aig.num_nodes();
    for (i, node) in nodes.into_iter().enumerate() {
        let Node::And { f0, f1 } = node else {
            continue;
        };
        let gate = Var::from_index(i);
        prop_assert!(f0.code() >= f1.code(), "gate {} fanins not normalised", i);
        if let Some(other) = seen.insert((f0, f1), gate) {
            return Err(TestCaseError::fail(format!(
                "gates {} and {} share fanins",
                other.index(),
                i
            )));
        }
        prop_assert_eq!(aig.and(f0, f1), gate.lit(), "gate {}", i);
        prop_assert_eq!(aig.and(f1, f0), gate.lit(), "gate {}", i);
    }
    prop_assert_eq!(aig.num_nodes(), before, "re-issued fanins grew the manager");
    Ok(())
}
