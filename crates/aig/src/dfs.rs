//! Cone traversal, support computation, statistics and compaction.
//!
//! All traversals here are *dense*: visited sets are `Vec`s indexed by
//! [`Var::index`], sized by the largest root index (fanins always precede
//! their gates in an append-only manager, so no cone node can exceed its
//! root's index). No hashing happens on any walk.

use crate::aig::Aig;
use crate::lit::{Lit, Var};
use crate::node::Node;

/// Size/shape statistics of a cone, as reported by [`Aig::cone_stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ConeStats {
    /// Number of AND gates in the cone.
    pub ands: usize,
    /// Number of distinct primary inputs in the cone's support.
    pub inputs: usize,
    /// Maximum structural depth over the roots.
    pub depth: u32,
}

impl Aig {
    /// Returns the variables in the transitive fanin cone of `roots`
    /// (including the roots, inputs and constant, if reached) in
    /// topological order (ascending index).
    pub fn collect_cone(&self, roots: &[Lit]) -> Vec<Var> {
        let Some(max) = roots.iter().map(|r| r.var().index()).max() else {
            return Vec::new();
        };
        let mut seen = vec![false; max + 1];
        let mut stack: Vec<Var> = Vec::new();
        let mut cone: Vec<Var> = Vec::new();
        for r in roots {
            let v = r.var();
            if !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
                cone.push(v);
            }
        }
        while let Some(v) = stack.pop() {
            if let Node::And { f0, f1 } = self.node(v) {
                for f in [f0, f1] {
                    let w = f.var();
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        stack.push(w);
                        cone.push(w);
                    }
                }
            }
        }
        cone.sort_unstable();
        cone
    }

    /// Number of AND gates in the cone of `root`.
    ///
    /// ```
    /// use cbq_aig::Aig;
    /// let mut aig = Aig::new();
    /// let a = aig.add_input().lit();
    /// let b = aig.add_input().lit();
    /// let f = aig.xor(a, b);
    /// assert_eq!(aig.cone_size(f), 3);
    /// ```
    pub fn cone_size(&self, root: Lit) -> usize {
        self.cone_size_many(&[root])
    }

    /// Number of AND gates in the union of the cones of `roots`.
    pub fn cone_size_many(&self, roots: &[Lit]) -> usize {
        self.collect_cone(roots)
            .iter()
            .filter(|v| self.node(**v).is_and())
            .count()
    }

    /// The set of input variables `root` structurally depends on.
    pub fn support(&self, root: Lit) -> Vec<Var> {
        self.support_many(&[root])
    }

    /// The union of the supports of `roots`, sorted by variable index.
    pub fn support_many(&self, roots: &[Lit]) -> Vec<Var> {
        self.collect_cone(roots)
            .into_iter()
            .filter(|v| self.is_input(*v))
            .collect()
    }

    /// Whether `v` occurs in the structural support of `root`.
    ///
    /// Early-exits on first hit, so cheaper than [`Aig::support`] when the
    /// answer is yes.
    pub fn support_contains(&self, root: Lit, v: Var) -> bool {
        if root.var() == v {
            return true;
        }
        // Fanins precede gates: nothing below v's index can reach v, so
        // the walk only descends through the region above it.
        if root.var().index() < v.index() {
            return false;
        }
        let mut seen = vec![false; root.var().index() + 1];
        let mut stack = vec![root.var()];
        seen[root.var().index()] = true;
        while let Some(n) = stack.pop() {
            if let Node::And { f0, f1 } = self.node(n) {
                for f in [f0, f1] {
                    let w = f.var();
                    if w == v {
                        return true;
                    }
                    if w.index() > v.index() && !seen[w.index()] {
                        seen[w.index()] = true;
                        stack.push(w);
                    }
                }
            }
        }
        false
    }

    /// Counts how many AND gates in the cone of `roots` have `v` in their
    /// fanin support — a cheap cost estimate for quantification scheduling.
    pub fn occurrence_count(&self, roots: &[Lit], v: Var) -> usize {
        self.occurrence_counts(roots, &[v])[0]
    }

    /// [`Aig::occurrence_count`] for many variables in **one** cone walk:
    /// `result[i]` is the number of AND gates in the cone depending on
    /// `vars[i]`. Dependence masks are k-bit sets propagated bottom-up, so
    /// scheduling a whole quantification pass costs one walk instead of
    /// one per candidate variable (which made cost estimation quadratic).
    ///
    /// The walk is support-limited: it never descends below the smallest
    /// tracked variable index, since nothing there can depend on any of
    /// them. If `vars` contains duplicates, only the last copy is counted.
    pub fn occurrence_counts(&self, roots: &[Lit], vars: &[Var]) -> Vec<usize> {
        let k = vars.len();
        let mut counts = vec![0usize; k];
        if k == 0 || roots.is_empty() {
            return counts;
        }
        let min_idx = vars.iter().map(|v| v.index()).min().expect("non-empty");
        let max = roots
            .iter()
            .map(|r| r.var().index())
            .max()
            .expect("non-empty");
        if max < min_idx {
            return counts; // no gate above any tracked variable
        }
        // Collect the pruned cone (indices >= min_idx only). Every cone
        // node above the cut is reachable without passing below it: a
        // path through a lower-index node only leads to even lower ones.
        let mut seen = vec![false; max + 1 - min_idx];
        let mut stack: Vec<Var> = Vec::new();
        let mut cone: Vec<Var> = Vec::new();
        for r in roots {
            let v = r.var();
            if v.index() >= min_idx && !seen[v.index() - min_idx] {
                seen[v.index() - min_idx] = true;
                stack.push(v);
                cone.push(v);
            }
        }
        while let Some(v) = stack.pop() {
            if let Node::And { f0, f1 } = self.node(v) {
                for f in [f0, f1] {
                    let w = f.var();
                    if w.index() >= min_idx && !seen[w.index() - min_idx] {
                        seen[w.index() - min_idx] = true;
                        stack.push(w);
                        cone.push(w);
                    }
                }
            }
        }
        cone.sort_unstable();
        // Bit position of each tracked variable, dense by node index.
        let blocks = k.div_ceil(64);
        let mut pos = vec![u32::MAX; max + 1 - min_idx];
        for (j, v) in vars.iter().enumerate() {
            if v.index() <= max {
                pos[v.index() - min_idx] = j as u32;
            }
        }
        let mut mask = vec![0u64; (max + 1 - min_idx) * blocks];
        for &v in &cone {
            let off = (v.index() - min_idx) * blocks;
            match self.node(v) {
                Node::Const => {}
                Node::Input { .. } => {
                    let p = pos[v.index() - min_idx];
                    if p != u32::MAX {
                        mask[off + p as usize / 64] |= 1u64 << (p % 64);
                    }
                }
                Node::And { f0, f1 } => {
                    for b in 0..blocks {
                        let fetch = |l: Lit| {
                            let i = l.var().index();
                            if i >= min_idx {
                                mask[(i - min_idx) * blocks + b]
                            } else {
                                0
                            }
                        };
                        let m = fetch(f0) | fetch(f1);
                        if m != 0 {
                            mask[off + b] = m;
                            let mut mm = m;
                            while mm != 0 {
                                counts[b * 64 + mm.trailing_zeros() as usize] += 1;
                                mm &= mm - 1;
                            }
                        }
                    }
                }
            }
        }
        counts
    }

    /// A structural hash of the cone of `root` — see
    /// [`Aig::cone_hash_many`].
    pub fn cone_hash(&self, root: Lit) -> u64 {
        self.cone_hash_many(&[root])
    }

    /// A structural hash of the union cone of `roots`, canonical across
    /// managers: nodes are numbered by first visit of a deterministic
    /// depth-first traversal (fanin 0 before fanin 1, roots in list
    /// order), inputs contribute their **ordinal** (which clones, splits,
    /// and GC compactions preserve), and AND gates contribute their
    /// fanins' canonical numbers and complement bits. Two root lists hash
    /// equal iff the traversals see the same shapes — independent of
    /// variable indices, node creation order, or dead nodes elsewhere in
    /// the manager. This is the content-addressing primitive for
    /// structural result caches over the ordinal-stable cone export.
    pub fn cone_hash_many(&self, roots: &[Lit]) -> u64 {
        // FNV-1a, 64-bit.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
            }
        };
        // Canonical id per variable, assigned in post-order (fanins
        // numbered before their gate, so ids reference earlier ids only).
        // Dense plane: no cone index exceeds the largest root index.
        let top = roots.iter().map(|r| r.var().index()).max().unwrap_or(0);
        let mut id_of = vec![u64::MAX; top + 1];
        let mut next_id = 0u64;
        for &root in roots {
            // Iterative post-order: (var, fanins_expanded).
            let mut stack: Vec<(Var, bool)> = vec![(root.var(), false)];
            while let Some((v, expanded)) = stack.pop() {
                if id_of[v.index()] != u64::MAX {
                    continue;
                }
                match self.node(v) {
                    Node::Const => {
                        id_of[v.index()] = next_id;
                        mix(0);
                        next_id += 1;
                    }
                    Node::Input { index } => {
                        id_of[v.index()] = next_id;
                        mix(1);
                        mix(u64::from(index));
                        next_id += 1;
                    }
                    Node::And { f0, f1 } => {
                        if expanded {
                            id_of[v.index()] = next_id;
                            mix(2);
                            mix(id_of[f0.var().index()] * 2 + u64::from(f0.is_complemented()));
                            mix(id_of[f1.var().index()] * 2 + u64::from(f1.is_complemented()));
                            next_id += 1;
                        } else {
                            stack.push((v, true));
                            stack.push((f1.var(), false));
                            stack.push((f0.var(), false));
                        }
                    }
                }
            }
            mix(3);
            mix(id_of[root.var().index()] * 2 + u64::from(root.is_complemented()));
        }
        h
    }

    /// Aggregate statistics over the union cone of `roots`.
    pub fn cone_stats(&self, roots: &[Lit]) -> ConeStats {
        let cone = self.collect_cone(roots);
        let mut stats = ConeStats::default();
        for v in &cone {
            match self.node(*v) {
                Node::And { .. } => stats.ands += 1,
                Node::Input { .. } => stats.inputs += 1,
                Node::Const => {}
            }
        }
        stats.depth = roots
            .iter()
            .map(|r| self.node_level(r.var()))
            .max()
            .unwrap_or(0);
        stats
    }

    /// Fanout counts (within the cone of `roots`) for every node, indexed by
    /// [`Var::index`]. Root references are **not** counted.
    pub fn fanout_counts(&self, roots: &[Lit]) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_nodes()];
        for v in self.collect_cone(roots) {
            if let Node::And { f0, f1 } = self.node(v) {
                counts[f0.var().index()] += 1;
                counts[f1.var().index()] += 1;
            }
        }
        counts
    }

    /// Garbage-collects the manager: produces a fresh AIG containing all
    /// primary inputs (same ordinals) but only the AND gates reachable from
    /// `roots`, plus the translation of each root.
    ///
    /// Dead nodes accumulated by cofactoring and rewriting are dropped;
    /// input variables keep their *ordinals* (and, when every input was
    /// created before any gate, their variable indices too).
    ///
    /// ```
    /// use cbq_aig::Aig;
    /// let mut aig = Aig::new();
    /// let a = aig.add_input().lit();
    /// let b = aig.add_input().lit();
    /// let f = aig.and(a, b);
    /// let _dead = aig.xor(f, a);
    /// let (packed, roots) = aig.compact(&[f]);
    /// assert_eq!(packed.num_ands(), 1);
    /// assert_eq!(roots.len(), 1);
    /// ```
    pub fn compact(&self, roots: &[Lit]) -> (Aig, Vec<Lit>) {
        let (out, new_roots, _) = self.compact_with_map(roots);
        (out, new_roots)
    }

    /// Like [`Aig::compact`], additionally returning the translation of
    /// every old variable: `map[old_var.index()]` is the literal of the
    /// new manager computing the same function (`None` for dead nodes).
    ///
    /// This is what lets an incremental SAT bridge carry its
    /// node↔variable map — and therefore its whole learnt-clause
    /// database — across a garbage collection instead of re-encoding.
    pub fn compact_with_map(&self, roots: &[Lit]) -> (Aig, Vec<Lit>, Vec<Option<Lit>>) {
        // Pre-size the compacted manager's strash to the incoming cone,
        // avoiding the rehash ladder while it refills.
        let mut out = Aig::new();
        let cone = self.collect_cone(roots);
        out.reserve_ands(cone.len());
        let mut map: Vec<Option<Lit>> = vec![None; self.num_nodes()];
        map[Var::CONST.index()] = Some(Lit::FALSE);
        // Recreate every input so ordinals are preserved.
        for i in 0..self.num_inputs() {
            let v = self.input_var(i);
            let nv = out.add_input();
            map[v.index()] = Some(nv.lit());
        }
        for v in cone {
            if let Node::And { f0, f1 } = self.node(v) {
                let a = map[f0.var().index()]
                    .expect("fanin mapped")
                    .xor_sign(f0.is_complemented());
                let b = map[f1.var().index()]
                    .expect("fanin mapped")
                    .xor_sign(f1.is_complemented());
                let nl = out.and(a, b);
                map[v.index()] = Some(nl);
            }
        }
        let new_roots = roots
            .iter()
            .map(|r| {
                map[r.var().index()]
                    .expect("root mapped")
                    .xor_sign(r.is_complemented())
            })
            .collect();
        (out, new_roots, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cone_is_topological() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let f = aig.xor(a, b);
        let cone = aig.collect_cone(&[f]);
        for (i, v) in cone.iter().enumerate() {
            if let Node::And { f0, f1 } = aig.node(*v) {
                let pos0 = cone.iter().position(|x| *x == f0.var()).unwrap();
                let pos1 = cone.iter().position(|x| *x == f1.var()).unwrap();
                assert!(pos0 < i && pos1 < i);
            }
        }
    }

    #[test]
    fn support_and_occurrence() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a.lit(), b.lit());
        let f = aig.or(ab, c.lit());
        assert_eq!(aig.support(f), vec![a, b, c]);
        assert!(aig.support_contains(f, a));
        assert!(!aig.support_contains(ab, c));
        assert_eq!(aig.occurrence_count(&[f], a), 2); // ab and the or-gate
        assert_eq!(aig.occurrence_count(&[f], c), 1);
    }

    #[test]
    fn occurrence_counts_match_single_variable_walks() {
        let mut aig = Aig::new();
        let vars: Vec<_> = (0..70).map(|_| aig.add_input()).collect();
        // A chain mixing most variables, leaving some unused (count 0).
        let mut f = vars[0].lit();
        for v in vars.iter().skip(1).step_by(2) {
            f = aig.xor(f, v.lit());
        }
        let g = aig.and(f, vars[2].lit());
        // More than 64 tracked vars forces the multi-block mask path.
        let batched = aig.occurrence_counts(&[g, !f], &vars);
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(
                batched[i],
                aig.occurrence_count(&[g, !f], *v),
                "var {i} diverges"
            );
        }
        // An And variable is never an occurrence seed.
        assert_eq!(aig.occurrence_counts(&[g], &[g.var()]), vec![0]);
        assert_eq!(aig.occurrence_counts(&[], &vars), vec![0; vars.len()]);
        assert_eq!(aig.occurrence_counts(&[g], &[]), Vec::<usize>::new());
    }

    #[test]
    fn compact_drops_garbage_keeps_inputs() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let c = aig.add_input().lit();
        let keep = aig.and(a, b);
        let _dead1 = aig.xor(keep, c);
        let _dead2 = aig.or(a, c);
        let (packed, roots) = aig.compact(&[keep]);
        assert_eq!(packed.num_inputs(), 3);
        assert_eq!(packed.num_ands(), 1);
        for (va, vb) in [(false, false), (true, false), (true, true)] {
            assert_eq!(
                aig.eval(keep, &[va, vb, false]),
                packed.eval(roots[0], &[va, vb, false])
            );
        }
    }

    #[test]
    fn compact_translates_complemented_roots() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let f = aig.and(a, b);
        let (packed, roots) = aig.compact(&[!f]);
        assert!(packed.eval(roots[0], &[false, true]));
        assert!(!packed.eval(roots[0], &[true, true]));
    }

    #[test]
    fn fanout_counts_within_cone() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let c = aig.add_input().lit();
        let ab = aig.and(a, b);
        let ac = aig.and(a, c);
        let f = aig.and(ab, ac);
        let counts = aig.fanout_counts(&[f]);
        assert_eq!(counts[a.var().index()], 2);
        assert_eq!(counts[ab.var().index()], 1);
        assert_eq!(counts[ac.var().index()], 1);
        assert_eq!(counts[f.var().index()], 0); // roots not counted
    }

    #[test]
    fn cone_stats_shape() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let f = aig.xor(a, b);
        let s = aig.cone_stats(&[f]);
        assert_eq!(s.ands, 3);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.depth, 2);
    }

    #[test]
    fn cone_hash_is_manager_independent() {
        // Same structure built in two managers, one of which carries
        // extra dead nodes that shift every variable index.
        let mut m1 = Aig::new();
        let a1 = m1.add_input().lit();
        let b1 = m1.add_input().lit();
        let f1 = m1.xor(a1, b1);

        let mut m2 = Aig::new();
        let a2 = m2.add_input().lit();
        let b2 = m2.add_input().lit();
        let _dead = m2.and(a2, b2); // shared with xor but also changes history
        let c2 = m2.add_input().lit();
        let _dead2 = m2.and(b2, c2);
        let f2 = m2.xor(a2, b2);

        assert_eq!(m1.cone_hash(f1), m2.cone_hash(f2));
        assert_eq!(m1.cone_hash(!f1), m2.cone_hash(!f2));
    }

    #[test]
    fn cone_hash_discriminates() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let and = aig.and(a, b);
        let or = !aig.and(!a, !b);
        let xor = aig.xor(a, b);
        let hashes = [
            aig.cone_hash(and),
            aig.cone_hash(!and),
            aig.cone_hash(or),
            aig.cone_hash(xor),
            aig.cone_hash(a),
            aig.cone_hash(b), // differs from `a` via input ordinal
            aig.cone_hash(Lit::TRUE),
            aig.cone_hash_many(&[and, xor]),
            aig.cone_hash_many(&[xor, and]), // root order matters
        ];
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "hash collision {i} vs {j}");
            }
        }
    }
}
