//! Partitioned state sets: the disjunctive, parallel state-set
//! representation of the circuit-based traversals.
//!
//! The paper manipulates one monolithic AIG state set inside one shared
//! manager — every pre-image, quantification pass, and sweep serialises
//! on one cone and one clause database. This module splits the traversal
//! state into a [`StateSet`]: a disjunction of [`Partition`]s, each
//! owning its **own AIG manager and clause database** plus the mapping
//! from network latches to partition input variables, so the expensive
//! per-iteration work (pre-image/image, `exists_many`, sweeping) runs
//! **in parallel across partitions** with `std::thread::scope`.
//!
//! # Partition lifecycle: split → image → sweep → merge
//!
//! * **split** — a partition's window cube is extended by the latch with
//!   the best balance score, producing two window-disjoint partitions.
//!   Splitting triggers eagerly at construction (up to
//!   `--partitions N|auto`) and again whenever a partition's state cone
//!   outgrows the resplit watermark (4096 AND gates; an explicit count
//!   of 1 never re-splits).
//! * **image** — each partition computes its pre-image (or image) and
//!   quantification independently, in parallel, inside its own manager.
//! * **sweep** — the per-partition [`StateSetSweeper`] fraigs and
//!   garbage-collects each manager independently (still inside the
//!   worker threads).
//! * **merge** — deterministic, index-ordered: every quantified image is
//!   cofactored onto every window, moved across managers by
//!   ordinal-stable cone export/import, conjoined with the window cube,
//!   and subtracted against the target's reached set.
//!
//! # Exactness
//!
//! The windows of a state set's partitions are pairwise disjoint and
//! tile the state space, so the union of partition frontiers/reached
//! sets equals the monolithic sets **exactly** at every iteration:
//! verdicts, fixpoint iteration counts, and minimal counterexample
//! depths are identical for any partition count.

use std::time::Instant;

use cbq_aig::{Aig, Lit, Node, Var};
use cbq_ckt::Network;
use cbq_cnf::{AigCnf, AigCnfStats};
use cbq_sat::{SatResult, SolverStats};

use crate::engine::Direction;
use crate::sweep::{StateSetSweeper, SweepConfig as StateSweepConfig, SweepStats};

/// Hard cap on the total partition count.
const MAX_PARTITIONS: usize = 64;

/// A partition whose state cone (reached ∪ frontier AND gates) outgrows
/// this many nodes is split again.
const RESPLIT_WATERMARK: usize = 4096;

/// How many partitions a traversal starts with.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PartitionCount {
    /// Exactly this many partitions (1 = the monolithic traversal).
    Fixed(usize),
    /// One partition per available CPU core.
    Auto,
}

impl PartitionCount {
    /// Parses a CLI-facing value: `auto` or a positive number.
    pub fn from_name(name: &str) -> Option<PartitionCount> {
        if name == "auto" {
            return Some(PartitionCount::Auto);
        }
        name.parse::<usize>()
            .ok()
            .filter(|n| *n >= 1)
            .map(PartitionCount::Fixed)
    }

    /// Resolves the count against the machine's parallelism.
    pub fn resolve(&self) -> usize {
        match self {
            PartitionCount::Fixed(n) => (*n).max(1),
            PartitionCount::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Per-run counters of a partitioned traversal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Partition count after each iteration.
    pub trajectory: Vec<usize>,
    /// Largest per-partition state cone (reached ∪ frontier AND gates)
    /// observed at any iteration boundary.
    pub max_cone: usize,
    /// Splits performed (initial and watermark-triggered).
    pub splits: usize,
    /// Indices of partitions whose [`StateSet::par_map`] worker panicked.
    /// The panic is caught — the engine reports a clean
    /// [`crate::Verdict::Unknown`] instead of aborting the process — and
    /// the partition ids land here for diagnosis.
    pub worker_panics: Vec<usize>,
}

/// One disjunct of a [`StateSet`]: a self-contained share of the
/// traversal state inside its own AIG manager and clause database.
pub struct Partition {
    /// The partition-private AIG manager.
    pub aig: Aig,
    /// The partition-private incremental SAT bridge.
    pub cnf: AigCnf,
    /// Primary-input variables, in network order.
    pub pis: Vec<Var>,
    /// Latch variables, in network order (the latch-to-partition-input
    /// mapping; ordinals are stable across splits and GC).
    pub latches: Vec<Var>,
    /// Fresh next-state variables `s'` (forward traversals only).
    pub next_vars: Vec<Var>,
    /// Next-state functions δ, in latch order.
    pub deltas: Vec<Lit>,
    /// The transition relation `∧ⱼ (s'ⱼ ≡ δⱼ)` (forward traversals;
    /// [`Lit::TRUE`] for backward ones, which in-line instead).
    pub trans: Lit,
    /// The bad-state function.
    pub bad: Lit,
    /// The initial-state cube.
    pub init: Lit,
    /// The window cube as (latch ordinal, value) pairs; empty = the whole
    /// state space. No two partitions of a [`StateSet`] share a window.
    pub window: Vec<(usize, bool)>,
    /// The window cube as a literal of this manager.
    pub window_lit: Lit,
    /// States reached within this partition's window.
    pub reached: Lit,
    /// The active frontier (window-restricted).
    pub frontier: Lit,
    /// Every frontier in discovery order (trace extraction walks them).
    pub frontiers: Vec<Lit>,
    /// Cooperative wall-clock cancellation for quantification and sweeps.
    pub deadline: Option<Instant>,
    /// Cooperative per-partition node budget for quantification.
    pub node_limit: Option<usize>,
    sweeper: Option<StateSetSweeper>,
}

impl Partition {
    fn seed(
        net: &Network,
        direction: Direction,
        sweep: Option<StateSweepConfig>,
        deadline: Option<Instant>,
        node_limit: Option<usize>,
    ) -> Partition {
        let mut aig = net.aig().clone();
        let forward = direction == Direction::Forward;
        let (next_vars, trans) = if forward {
            let next_vars: Vec<Var> = net.latches().iter().map(|_| aig.add_input()).collect();
            let eqs: Vec<Lit> = net
                .latches()
                .iter()
                .zip(&next_vars)
                .map(|(l, nv)| aig.iff(nv.lit(), l.next))
                .collect();
            let trans = aig.and_many(&eqs);
            (next_vars, trans)
        } else {
            (Vec::new(), Lit::TRUE)
        };
        let init = net.initial_cube().to_lit(&mut aig);
        let (reached, frontier, frontiers) = if forward {
            (init, init, vec![init])
        } else {
            (Lit::FALSE, Lit::FALSE, Vec::new())
        };
        let mut sweeper = sweep.map(StateSetSweeper::new);
        if let Some(sw) = &mut sweeper {
            sw.set_deadline(deadline);
        }
        Partition {
            aig,
            cnf: AigCnf::new(),
            pis: net.primary_inputs().to_vec(),
            latches: net.latch_vars(),
            next_vars,
            deltas: net.latches().iter().map(|l| l.next).collect(),
            trans,
            bad: net.bad(),
            init,
            window: Vec::new(),
            window_lit: Lit::TRUE,
            reached,
            frontier,
            frontiers,
            deadline,
            node_limit,
            sweeper,
        }
    }

    /// A twin for splitting: same manager image, fresh clause database and
    /// fresh sweeper (so SAT-check and sweep counters are not double
    /// counted across siblings).
    fn clone_for_split(&self) -> Partition {
        Partition {
            aig: self.aig.clone(),
            cnf: AigCnf::new(),
            pis: self.pis.clone(),
            latches: self.latches.clone(),
            next_vars: self.next_vars.clone(),
            deltas: self.deltas.clone(),
            trans: self.trans,
            bad: self.bad,
            init: self.init,
            window: self.window.clone(),
            window_lit: self.window_lit,
            reached: self.reached,
            frontier: self.frontier,
            frontiers: self.frontiers.clone(),
            deadline: self.deadline,
            node_limit: self.node_limit,
            sweeper: self.sweeper.as_ref().map(|s| {
                let mut fresh = StateSetSweeper::new(s.config().clone());
                fresh.set_deadline(self.deadline);
                fresh
            }),
        }
    }

    /// Restricts every state cone to `latch ordinal == value`, extending
    /// the window cube.
    fn restrict(&mut self, ord: usize, value: bool) {
        let v = self.latches[ord];
        let wlit = v.lit().xor_sign(!value);
        self.window.push((ord, value));
        self.window_lit = self.aig.and(self.window_lit, wlit);
        let restrict_lit = |aig: &mut Aig, l: Lit| {
            let cof = aig.cofactor(l, v, value);
            aig.and(cof, wlit)
        };
        self.frontier = restrict_lit(&mut self.aig, self.frontier);
        self.reached = restrict_lit(&mut self.aig, self.reached);
        for slot in self.frontiers.iter_mut() {
            *slot = restrict_lit(&mut self.aig, *slot);
        }
    }

    /// The raw pre-image of `target`: quantification by substitution of
    /// the next-state functions (Section 3 in-lining).
    pub fn preimage(&mut self, target: Lit) -> Lit {
        let defs: Vec<(Var, Lit)> = self
            .latches
            .iter()
            .copied()
            .zip(self.deltas.iter().copied())
            .collect();
        self.aig.compose(target, &defs)
    }

    /// Variables eliminated per forward image: current latches + inputs.
    pub fn elim_vars(&self) -> Vec<Var> {
        let mut elim = self.latches.clone();
        elim.extend_from_slice(&self.pis);
        elim
    }

    /// The forward renaming `s' → s` applied after quantification.
    pub fn rename(&self) -> Vec<(Var, Lit)> {
        self.next_vars
            .iter()
            .zip(&self.latches)
            .map(|(nv, l)| (*nv, l.lit()))
            .collect()
    }

    /// AND gates of this partition's state cone (reached ∪ frontier).
    pub fn state_cone(&self) -> usize {
        self.aig.cone_size_many(&[self.reached, self.frontier])
    }

    /// Runs the partition's sweeper if due, remapping every partition
    /// literal/variable plus the caller's `extra` literals. Returns
    /// whether a sweep ran.
    pub fn sweep_if_due(&mut self, extra: &mut [Lit]) -> bool {
        let Some(mut sweeper) = self.sweeper.take() else {
            return false;
        };
        let mut lits: Vec<&mut Lit> = vec![
            &mut self.trans,
            &mut self.bad,
            &mut self.init,
            &mut self.window_lit,
            &mut self.reached,
            &mut self.frontier,
        ];
        lits.extend(self.deltas.iter_mut());
        lits.extend(self.frontiers.iter_mut());
        lits.extend(extra.iter_mut());
        let vars: Vec<&mut Var> = self
            .pis
            .iter_mut()
            .chain(self.latches.iter_mut())
            .chain(self.next_vars.iter_mut())
            .collect();
        let ran = sweeper.run_if_due(&mut self.aig, &mut self.cnf, lits, vars);
        self.sweeper = Some(sweeper);
        ran
    }

    /// SAT checks issued by this partition. The bridge's counters are
    /// monotone across sweep-GC retirements, so no separate retired-check
    /// bookkeeping exists any more.
    pub fn sat_checks(&self) -> u64 {
        self.cnf.stats().checks
    }

    /// This partition's sweeping counters (zeroed when sweeping is off).
    pub fn sweep_stats(&self) -> SweepStats {
        self.sweeper
            .as_ref()
            .map_or_else(SweepStats::default, |s| s.stats)
    }
}

/// Outcome of one [`StateSet::merge_images`] call.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    /// Whether any partition gained new states (false = global fixpoint).
    pub any_new: bool,
    /// Lowest-index partition whose new frontier intersects the initial
    /// states, if any (backward traversals' counterexample signal).
    pub cex_partition: Option<usize>,
}

/// A disjunctive set of [`Partition`]s — the traversal state of the
/// partitioned circuit engines.
pub struct StateSet {
    /// The partitions, in deterministic index order. The represented set
    /// is the union of the partitions' sets.
    pub parts: Vec<Partition>,
    /// Lifecycle counters.
    pub stats: PartitionStats,
    count: PartitionCount,
    /// Re-split a partition whose state cone outgrows this many nodes;
    /// `None` (an explicit count of 1) never re-splits.
    resplit_watermark: Option<usize>,
    direction: Direction,
}

impl StateSet {
    /// A state set with one seed partition that [`StateSet::split_to_target`]
    /// tiles into `count` partitions. Backward, its reached set and
    /// frontier start empty (the engine installs F₀ before splitting);
    /// forward, both start as the initial states, and the partition
    /// carries the transition relation and next-state variables.
    pub fn new(
        net: &Network,
        direction: Direction,
        count: PartitionCount,
        sweep: Option<StateSweepConfig>,
        deadline: Option<Instant>,
        node_limit: Option<usize>,
    ) -> StateSet {
        // An explicit count of 1 stays genuinely monolithic.
        let resplit_watermark = match count {
            PartitionCount::Fixed(1) => None,
            _ => Some(RESPLIT_WATERMARK),
        };
        StateSet {
            parts: vec![Partition::seed(net, direction, sweep, deadline, node_limit)],
            stats: PartitionStats::default(),
            count,
            resplit_watermark,
            direction,
        }
    }

    /// The configured initial partition count, resolved against the
    /// machine.
    pub fn target_count(&self) -> usize {
        self.count.resolve().min(MAX_PARTITIONS)
    }

    /// Splits the largest partitions until the configured initial count
    /// is reached (or no partition can split further).
    pub fn split_to_target(&mut self) {
        let target = self.target_count();
        while self.parts.len() < target {
            // Candidates in descending state-cone order (ties: lowest
            // index); take the first that actually splits.
            let mut order: Vec<(usize, usize)> = self
                .parts
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.state_cone()))
                .collect();
            order.sort_by_key(|&(i, size)| (std::cmp::Reverse(size), i));
            if !order.into_iter().any(|(i, _)| self.split_partition(i)) {
                break;
            }
        }
    }

    /// Latch-cofactor split of partition `idx`: picks the unused latch
    /// with the best balance score over the partition's state cone and
    /// extends the window by it, leaving two window-disjoint partitions.
    /// Returns whether a split happened.
    pub fn split_partition(&mut self, idx: usize) -> bool {
        if self.parts.len() >= MAX_PARTITIONS {
            return false;
        }
        let ord = {
            let p = &mut self.parts[idx];
            let used: Vec<usize> = p.window.iter().map(|(o, _)| *o).collect();
            let state = p.aig.or(p.frontier, p.reached);
            let mut best: Option<(usize, usize)> = None;
            for ord in 0..p.latches.len() {
                if used.contains(&ord) {
                    continue;
                }
                let v = p.latches[ord];
                if !p.aig.support_contains(state, v) {
                    continue;
                }
                let (c1, c0) = p.aig.cofactors(state, v);
                let score = p.aig.cone_size(c1).max(p.aig.cone_size(c0));
                if best.is_none_or(|(s, _)| score < s) {
                    best = Some((score, ord));
                }
            }
            match best {
                Some((_, ord)) => ord,
                // State cone ignores every unused latch: split on the
                // first free ordinal anyway (content lands on one side).
                None => match (0..p.latches.len()).find(|o| !used.contains(o)) {
                    Some(ord) => ord,
                    None => return false,
                },
            }
        };
        let mut child = self.parts[idx].clone_for_split();
        self.parts[idx].restrict(ord, false);
        child.restrict(ord, true);
        self.parts.push(child);
        self.stats.splits += 1;
        true
    }

    /// Runs `f` over every partition — in parallel via `thread::scope`
    /// when more than one partition and more than one core are available,
    /// batched so no more than `available_parallelism` workers run at
    /// once (watermark re-splitting can push the partition count well
    /// past the core count). Results are returned in partition index
    /// order regardless of thread completion order (the determinism
    /// guard).
    ///
    /// A panicking worker does **not** abort the process: its slot comes
    /// back as `None` and the partition index is recorded in
    /// [`PartitionStats::worker_panics`], so the engine can surface a
    /// clean [`crate::Verdict::Unknown`] instead of crashing the whole
    /// traversal (the panicked partition's state is no longer trusted).
    pub fn par_map<R, F>(&mut self, f: F) -> Vec<Option<R>>
    where
        R: Send,
        F: Fn(usize, &mut Partition) -> R + Sync,
    {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let results: Vec<Option<R>> = if self.parts.len() <= 1 || cores <= 1 {
            self.parts
                .iter_mut()
                .enumerate()
                // AssertUnwindSafe: on panic the partition is recorded as
                // poisoned and the traversal stops using it.
                .map(|(i, p)| catch_unwind(AssertUnwindSafe(|| f(i, p))).ok())
                .collect()
        } else {
            let f = &f;
            let mut results = Vec::with_capacity(self.parts.len());
            let mut base = 0;
            for chunk in self.parts.chunks_mut(cores) {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = chunk
                        .iter_mut()
                        .enumerate()
                        .map(|(off, p)| scope.spawn(move || f(base + off, p)))
                        .collect();
                    for h in handles {
                        // Err = the worker panicked; the payload is
                        // dropped and the slot reported as None.
                        results.push(h.join().ok());
                    }
                });
                base += cores;
            }
            results
        };
        for (i, r) in results.iter().enumerate() {
            if r.is_none() {
                self.stats.worker_panics.push(i);
            }
        }
        results
    }

    /// The deterministic merge step: redistributes the per-partition
    /// quantified images (`images[i]` lives in partition `i`'s manager,
    /// over latch variables) onto every window, subtracts each target's
    /// reached set, installs the new frontiers, and reports fixpoint /
    /// counterexample signals. Index-ordered throughout, so repeated runs
    /// produce identical frontiers and stats.
    ///
    /// Backward state sets also scan for a counterexample: does any new
    /// frontier intersect the initial states? Forward traversals detect
    /// counterexamples against `bad` instead, before imaging.
    pub fn merge_images(&mut self, images: &[Lit]) -> MergeOutcome {
        let n = self.parts.len();
        debug_assert_eq!(images.len(), n);
        // Phase 1: cofactor every image onto every window and export the
        // cones (ordinal-stable, so they import into any partition).
        let windows: Vec<Vec<(usize, bool)>> =
            self.parts.iter().map(|p| p.window.clone()).collect();
        let mut pieces: Vec<Vec<ConeExport>> = vec![Vec::new(); n];
        for (s, &image) in images.iter().enumerate() {
            if image == Lit::FALSE {
                continue;
            }
            let src = &mut self.parts[s];
            for (t, w) in windows.iter().enumerate() {
                let map: Vec<(Var, Lit)> = w
                    .iter()
                    .map(|(ord, val)| {
                        (src.latches[*ord], if *val { Lit::TRUE } else { Lit::FALSE })
                    })
                    .collect();
                let cof = src.aig.compose(image, &map);
                if cof == Lit::FALSE {
                    continue;
                }
                pieces[t].push(export_cone(&src.aig, cof));
            }
        }
        // Phase 2: per target (index order), import its pieces, restrict
        // to its window, and subtract its reached set; what is left is the
        // new frontier.
        let mut any_new = false;
        for (p, pieces) in self.parts.iter_mut().zip(&pieces) {
            let old_reached = p.reached;
            let mut fresh: Vec<Lit> = Vec::new();
            for exp in pieces {
                let piece = import_cone(&mut p.aig, exp);
                let piece = p.aig.and(piece, p.window_lit);
                let new = p.aig.and(piece, !old_reached);
                if new != Lit::FALSE {
                    fresh.push(new);
                }
            }
            let added = p.aig.or_many(&fresh);
            let front =
                if added != Lit::FALSE && p.cnf.solve_under(&p.aig, &[added]) == SatResult::Unsat {
                    Lit::FALSE
                } else {
                    added
                };
            p.frontier = front;
            p.frontiers.push(front);
            if added != Lit::FALSE {
                p.reached = p.aig.or(old_reached, added);
            }
            any_new |= front != Lit::FALSE;
        }
        // Counterexample signal: lowest-index partition whose new
        // frontier intersects the initial states.
        let mut cex_partition = None;
        if self.direction == Direction::Backward {
            for t in 0..n {
                let p = &mut self.parts[t];
                if p.frontier != Lit::FALSE
                    && p.cnf.solve_under(&p.aig, &[p.frontier, p.init]) == SatResult::Sat
                {
                    cex_partition = Some(t);
                    break;
                }
            }
        }
        MergeOutcome {
            any_new,
            cex_partition,
        }
    }

    /// The post-merge lifecycle step: re-splits partitions past the
    /// watermark and records the trajectory/max-cone statistics.
    pub fn resplit(&mut self) {
        if let Some(watermark) = self.resplit_watermark {
            let mut idx = 0;
            while idx < self.parts.len() && self.parts.len() < MAX_PARTITIONS {
                if self.parts[idx].state_cone() > watermark {
                    self.split_partition(idx);
                }
                idx += 1;
            }
        }
        self.record_iteration();
    }

    /// Records the per-iteration partition statistics.
    pub fn record_iteration(&mut self) {
        self.stats.trajectory.push(self.parts.len());
        let max = self.parts.iter().map(|p| p.state_cone()).max().unwrap_or(0);
        self.stats.max_cone = self.stats.max_cone.max(max);
    }

    /// Total nodes across every partition manager.
    pub fn total_nodes(&self) -> usize {
        self.parts.iter().map(|p| p.aig.num_nodes()).sum()
    }

    /// Total SAT checks across every partition (live + retired bridges).
    pub fn total_sat_checks(&self) -> u64 {
        self.parts.iter().map(|p| p.sat_checks()).sum()
    }

    /// Summed AND-gate count of the partition frontiers.
    pub fn frontier_size(&self) -> usize {
        self.parts.iter().map(|p| p.aig.cone_size(p.frontier)).sum()
    }

    /// Summed AND-gate count of the partition reached sets.
    pub fn reached_size(&self) -> usize {
        self.parts.iter().map(|p| p.aig.cone_size(p.reached)).sum()
    }

    /// Sweeping counters folded across every partition, in index order.
    pub fn aggregate_sweep(&self) -> SweepStats {
        let mut total = SweepStats::default();
        for p in &self.parts {
            total.absorb(&p.sweep_stats());
        }
        total
    }

    /// SAT-bridge counters folded across every partition.
    pub fn aggregate_cnf(&self) -> AigCnfStats {
        let mut total = AigCnfStats::default();
        for p in &self.parts {
            total.absorb(&p.cnf.stats());
        }
        total
    }

    /// Solver-core counters (conflicts, arena bytes, LBD histogram, …)
    /// folded across every partition's persistent solver.
    pub fn aggregate_solver(&self) -> SolverStats {
        let mut total = SolverStats::default();
        for p in &self.parts {
            total.absorb(&p.cnf.solver_stats());
        }
        total
    }
}

/// A manager-independent serialisation of one cone. Inputs are identified
/// by their **ordinal**, which every partition manager preserves across
/// clones, splits, and GC compactions — so a cone exported from one
/// partition imports into any other with identical semantics.
#[derive(Clone, Debug)]
pub struct ConeExport {
    nodes: Vec<ExportNode>,
    root_idx: usize,
    root_neg: bool,
}

#[derive(Copy, Clone, Debug)]
enum ExportNode {
    Const,
    Input(usize),
    And(usize, bool, usize, bool),
}

/// Serialises the cone of `root` out of `aig`.
pub fn export_cone(aig: &Aig, root: Lit) -> ConeExport {
    let cone = aig.collect_cone(&[root]);
    // Dense cone-position plane: fanins precede gates, so no cone index
    // exceeds the root's.
    let mut idx_of = vec![usize::MAX; root.var().index() + 1];
    let mut nodes = Vec::with_capacity(cone.len());
    for v in cone {
        let node = match aig.node(v) {
            Node::Const => ExportNode::Const,
            Node::Input { .. } => {
                ExportNode::Input(aig.input_index(v).expect("input has an ordinal"))
            }
            Node::And { f0, f1 } => ExportNode::And(
                idx_of[f0.var().index()],
                f0.is_complemented(),
                idx_of[f1.var().index()],
                f1.is_complemented(),
            ),
        };
        idx_of[v.index()] = nodes.len();
        nodes.push(node);
    }
    ConeExport {
        nodes,
        root_idx: idx_of[root.var().index()],
        root_neg: root.is_complemented(),
    }
}

/// Rebuilds an exported cone inside `aig` (structural hashing dedups any
/// part that already exists) and returns the translated root.
pub fn import_cone(aig: &mut Aig, exp: &ConeExport) -> Lit {
    let mut lits: Vec<Lit> = Vec::with_capacity(exp.nodes.len());
    for node in &exp.nodes {
        let l = match *node {
            ExportNode::Const => Lit::FALSE,
            ExportNode::Input(ord) => aig.input_var(ord).lit(),
            ExportNode::And(a, na, b, nb) => {
                let la = lits[a].xor_sign(na);
                let lb = lits[b].xor_sign(nb);
                aig.and(la, lb)
            }
        };
        lits.push(l);
    }
    lits[exp.root_idx].xor_sign(exp.root_neg)
}

/// The conjunction of latch literals pinning `state` (trace extraction).
pub(crate) fn state_cube(aig: &mut Aig, latches: &[Var], state: &[bool]) -> Lit {
    let lits: Vec<Lit> = latches
        .iter()
        .zip(state)
        .map(|(l, v)| l.lit().xor_sign(!v))
        .collect();
    aig.and_many(&lits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_ckt::generators;

    #[test]
    fn cone_export_round_trips_across_managers() {
        let mut a = Aig::new();
        let ins: Vec<Lit> = (0..4).map(|_| a.add_input().lit()).collect();
        let f = {
            let x = a.xor(ins[0], ins[1]);
            let y = a.and(x, !ins[2]);
            a.or(y, ins[3])
        };
        let exp = export_cone(&a, f);
        let mut b = Aig::with_inputs(4);
        let g = import_cone(&mut b, &exp);
        for mask in 0..16u32 {
            let asg: Vec<bool> = (0..4).map(|i| (mask >> i) & 1 != 0).collect();
            assert_eq!(a.eval(f, &asg), b.eval(g, &asg));
        }
        // Constants survive too.
        let c = import_cone(&mut b, &export_cone(&a, Lit::TRUE));
        assert_eq!(c, Lit::TRUE);
    }

    #[test]
    fn latch_split_tiles_the_state_space() {
        let net = generators::token_ring(4);
        let mut ss = StateSet::new(
            &net,
            Direction::Backward,
            PartitionCount::Fixed(4),
            None,
            None,
            None,
        );
        // Install a frontier so the split has something to balance.
        let p = &mut ss.parts[0];
        let bad = p.bad;
        let f0 = p.preimage(bad);
        p.frontier = f0;
        p.frontiers.push(f0);
        p.reached = f0;
        ss.split_to_target();
        assert_eq!(ss.parts.len(), 4);
        assert_windows_disjoint(&ss);
        assert_eq!(ss.stats.splits, 3);
    }

    /// Window cubes must be pairwise disjoint: two distinct windows
    /// always disagree on some shared latch ordinal.
    fn assert_windows_disjoint(ss: &StateSet) {
        for i in 0..ss.parts.len() {
            for j in i + 1..ss.parts.len() {
                let wi = &ss.parts[i].window;
                let wj = &ss.parts[j].window;
                let disjoint = wi
                    .iter()
                    .any(|(o, v)| wj.iter().any(|(o2, v2)| o == o2 && v != v2));
                assert!(disjoint, "windows {wi:?} and {wj:?} overlap");
            }
        }
    }

    /// For every latch assignment of a model without primary inputs:
    /// whether the state lies in the union of the partitions' reached
    /// sets and frontiers, and how many windows contain it.
    fn union_and_window_hits(ss: &StateSet) -> Vec<(bool, usize)> {
        (0..1u32 << ss.parts[0].latches.len())
            .map(|mask| {
                let mut member = false;
                let mut hits = 0;
                for p in &ss.parts {
                    let mut asg = vec![false; p.aig.num_inputs()];
                    for (ord, v) in p.latches.iter().enumerate() {
                        asg[p.aig.input_index(*v).expect("latch is an input")] =
                            (mask >> ord) & 1 != 0;
                    }
                    member |= p.aig.eval(p.reached, &asg) || p.aig.eval(p.frontier, &asg);
                    hits += usize::from(p.aig.eval(p.window_lit, &asg));
                }
                (member, hits)
            })
            .collect()
    }

    #[test]
    fn watermark_resplits_keep_windows_disjoint_and_the_set_unchanged() {
        // Eight latches and a watermark of 0: every partition whose state
        // cone still holds an AND gate splits again, until the cap stops
        // it (exactly-one over eight latches needs more than 64 windows).
        let net = generators::token_ring(8);
        let mut ss = StateSet::new(
            &net,
            Direction::Backward,
            PartitionCount::Fixed(2),
            None,
            None,
            None,
        );
        let p = &mut ss.parts[0];
        let (l0, l3) = (p.latches[0].lit(), p.latches[3].lit());
        p.reached = p.bad;
        p.frontier = p.aig.xor(l0, l3);
        p.frontiers.push(p.frontier);
        let before = union_and_window_hits(&ss);
        ss.split_to_target();
        assert_eq!(ss.parts.len(), 2);
        assert_eq!(ss.resplit_watermark, Some(RESPLIT_WATERMARK));
        ss.resplit_watermark = Some(0);
        // Passes after the one that reaches the cap must not pass it.
        for _ in 0..3 {
            ss.resplit();
        }
        assert!(ss.stats.splits > 1, "the lowered watermark never split");
        assert_eq!(ss.parts.len(), MAX_PARTITIONS);
        assert!(ss.stats.trajectory.iter().all(|&n| n <= MAX_PARTITIONS));
        assert_windows_disjoint(&ss);
        // The partitions still tile the state space, and their union is
        // the set installed before any split.
        let after = union_and_window_hits(&ss);
        for (mask, (&(was, _), &(now, hits))) in before.iter().zip(&after).enumerate() {
            assert_eq!(was, now, "state {mask:#010b} changed membership");
            assert_eq!(hits, 1, "state {mask:#010b} lies in {hits} windows");
        }
    }

    #[test]
    fn par_map_catches_worker_panics() {
        // A panicking partition worker must not abort the process: its
        // slot returns None, every healthy partition's result survives,
        // and the panicked index is recorded for the engine's verdict.
        let net = generators::token_ring(4);
        let mut ss = StateSet::new(
            &net,
            Direction::Backward,
            PartitionCount::Fixed(2),
            None,
            None,
            None,
        );
        let p = &mut ss.parts[0];
        let bad = p.bad;
        p.frontier = bad;
        p.frontiers.push(bad);
        p.reached = bad;
        ss.split_to_target();
        assert!(ss.parts.len() >= 2);
        let results = ss.par_map(|i, _| {
            if i == 1 {
                panic!("injected worker failure");
            }
            i * 10
        });
        assert_eq!(results[0], Some(0));
        assert_eq!(results[1], None);
        assert_eq!(ss.stats.worker_panics, vec![1]);
        // The next sweep over the same set still works (and records a
        // second panic independently).
        let results = ss.par_map(|i, _| i);
        assert!(results.iter().all(Option::is_some));
        assert_eq!(ss.stats.worker_panics, vec![1]);
    }

    #[test]
    fn partition_counts_parse() {
        assert_eq!(
            PartitionCount::from_name("4"),
            Some(PartitionCount::Fixed(4))
        );
        assert_eq!(
            PartitionCount::from_name("auto"),
            Some(PartitionCount::Auto)
        );
        assert_eq!(PartitionCount::from_name("0"), None);
        assert_eq!(PartitionCount::from_name("many"), None);
        assert_eq!(PartitionCount::Fixed(3).resolve(), 3);
        assert!(PartitionCount::Auto.resolve() >= 1);
    }
}
