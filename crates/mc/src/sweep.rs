//! SAT-sweeping state-set compaction between reachability iterations.
//!
//! The paper keeps individual quantification results small through its
//! merge and optimisation phases, but a *traversal* accumulates state: the
//! reached set is a growing disjunction of frontiers, the working manager
//! keeps every dead cofactor ever built, and redundancy **across**
//! iterations (a frontier re-deriving logic an earlier frontier already
//! contains) is invisible to the per-quantification passes. This module
//! closes that gap with a fraig-then-collect pipeline run between
//! backward (or forward) iterations:
//!
//! 1. **Simulation-guided candidate classes** — [`cbq_aig::sim::ConeSim`]
//!    signatures group the live cones into equivalence candidates;
//! 2. **Assumption-based SAT confirmation** — candidates are proven or
//!    refuted on the shared clause database ([`cbq_cnf::AigCnf`]), with
//!    counterexamples refining the classes (both via [`cbq_cec::sweep`]);
//! 3. **Node merging with structural rehash** — proven merges are applied
//!    and the cones rebuilt over the strashed manager;
//! 4. **Garbage collection** — the manager is rebuilt around the live
//!    roots ([`cbq_aig::Aig::compact`]), actually reclaiming the nodes
//!    that `peak_nodes` used to count forever.
//!
//! Because collection produces a *fresh* manager, every literal and input
//! variable an engine holds must be remapped; [`StateSetSweeper::run`]
//! takes them by mutable reference and rewrites them in place. The SAT
//! bridge is **not** re-created: [`cbq_cnf::AigCnf::migrate`] carries the
//! node↔variable map across the compaction, so surviving cones keep
//! their SAT variables and the solver — learnt clauses, variable
//! activities, phases, and every counter — outlives the collection with
//! nothing re-encoded; orphaned cones are released and purged, and under
//! memory pressure the whole generation is retired by asserting the
//! negated activation literal instead. The merge phase's kept BDD tier
//! crosses the compaction the same way ([`cbq_cec::BddTier::remap`]):
//! surviving nodes keep their BDDs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cbq_aig::sim::ConeSim;
use cbq_aig::{Aig, Lit, Var};
use cbq_cec::{sweep_with as fraig, BddTier, SweepConfig as FraigConfig};
use cbq_cnf::AigCnf;

use crate::bus::LemmaBus;

/// Configuration of the between-iterations state-set sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The fraiging tiers (simulation words, BDD sweep, SAT budget).
    pub fraig: FraigConfig,
    /// Trigger a sweep once the manager grows past
    /// `growth_factor ×` its size after the previous sweep.
    pub growth_factor: f64,
    /// Never trigger below this many manager nodes (sweeping a tiny
    /// graph costs more than it reclaims).
    pub min_nodes: usize,
    /// Garbage-collect the manager after merging (rebuilds a fresh AIG
    /// holding only live cones and retires the SAT bridge's cone
    /// generation).
    pub gc: bool,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            fraig: FraigConfig {
                // Confirmation checks should never dominate an iteration:
                // an undecided candidate pair is simply left unmerged.
                sat_budget: Some(20_000),
                ..FraigConfig::default()
            },
            growth_factor: 1.5,
            min_nodes: 256,
            gc: true,
        }
    }
}

impl SweepConfig {
    /// A configuration that sweeps at *every* opportunity — used by the
    /// compaction experiments and tests; too eager for production runs.
    pub fn eager() -> SweepConfig {
        SweepConfig {
            growth_factor: 1.0,
            min_nodes: 0,
            ..SweepConfig::default()
        }
    }
}

/// Per-run counters of a [`StateSetSweeper`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Sweeps executed.
    pub runs: usize,
    /// Equivalences proven and merged (BDD + SAT tiers), total.
    pub merged: usize,
    /// Manager nodes before each sweep, summed.
    pub nodes_before: usize,
    /// Manager nodes after each sweep, summed.
    pub nodes_after: usize,
    /// Live AND gates (union cone of all roots) before each sweep, summed.
    pub live_before: usize,
    /// Live AND gates after each sweep, summed.
    pub live_after: usize,
    /// SAT-bridge hand-offs at garbage collection: map migrations that
    /// kept the encoding alive, or full activation-literal retirements
    /// when the memory-pressure valve tripped (the bridge itself always
    /// persists; see [`cbq_cnf::AigCnf::migrate`]).
    pub cnf_gcs: usize,
    /// AIG nodes whose BDD the fraig sweeps built.
    pub bdd_built: u64,
    /// Kept BDD tiers the fraig sweeps replaced.
    pub bdd_resets: u64,
}

impl SweepStats {
    /// Manager nodes reclaimed by garbage collection, total.
    pub fn reclaimed(&self) -> usize {
        self.nodes_before.saturating_sub(self.nodes_after)
    }

    /// Accumulates another counter record into this one (used to fold the
    /// per-partition sweepers of a partitioned traversal into one total).
    pub fn absorb(&mut self, other: &SweepStats) {
        self.runs += other.runs;
        self.merged += other.merged;
        self.nodes_before += other.nodes_before;
        self.nodes_after += other.nodes_after;
        self.live_before += other.live_before;
        self.live_after += other.live_after;
        self.cnf_gcs += other.cnf_gcs;
        self.bdd_built += other.bdd_built;
        self.bdd_resets += other.bdd_resets;
    }
}

/// Drives state-set sweeping across the iterations of one traversal.
///
/// The engine calls [`StateSetSweeper::run_if_due`] at each iteration
/// boundary with every literal and input variable it still needs; the
/// sweeper fires only when the manager has outgrown its watermark.
///
/// ```
/// use cbq_aig::Aig;
/// use cbq_cec::BddTier;
/// use cbq_cnf::AigCnf;
/// use cbq_mc::sweep::{StateSetSweeper, SweepConfig};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input().lit();
/// let b = aig.add_input().lit();
/// // Two structurally different builds of a ^ b, plus garbage.
/// let x1 = aig.xor(a, b);
/// let or = aig.or(a, b);
/// let nand = !aig.and(a, b);
/// let mut x2 = aig.and(or, nand);
/// let _dead = aig.and(x1, a);
/// let mut x1 = x1;
///
/// let mut cnf = AigCnf::new();
/// let mut bdds = BddTier::new();
/// let mut sweeper = StateSetSweeper::new(SweepConfig::eager());
/// sweeper.run(&mut aig, &mut cnf, &mut bdds, vec![&mut x1, &mut x2], vec![]);
/// assert_eq!(x1, x2); // merged
/// assert_eq!(aig.num_ands(), 3); // one xor cone, garbage collected
/// ```
#[derive(Clone, Debug)]
pub struct StateSetSweeper {
    cfg: SweepConfig,
    /// Manager size right after the previous sweep (or the first `due`
    /// probe); growth is measured against this.
    watermark: Option<usize>,
    /// What happened so far.
    pub stats: SweepStats,
}

impl StateSetSweeper {
    /// Creates a sweeper; nothing happens until the manager crosses the
    /// growth threshold.
    pub fn new(cfg: SweepConfig) -> StateSetSweeper {
        StateSetSweeper {
            cfg,
            watermark: None,
            stats: SweepStats::default(),
        }
    }

    /// Whether the manager has outgrown the watermark enough to justify a
    /// sweep. The first call records the baseline (so with a growth factor
    /// above 1 it never fires immediately).
    pub fn due(&mut self, aig: &Aig) -> bool {
        let nodes = aig.num_nodes();
        let mark = *self.watermark.get_or_insert(nodes);
        nodes >= self.cfg.min_nodes && nodes as f64 >= mark as f64 * self.cfg.growth_factor
    }

    /// The sweeper's configuration (partition splitting clones it into
    /// fresh, zero-counter sweepers for the new siblings).
    pub fn config(&self) -> &SweepConfig {
        &self.cfg
    }

    /// Sets the per-traversal cooperative cancellation: the budget's
    /// deadline and cancel flag. A sweep due after the deadline or with
    /// the flag raised is skipped, and the fraig candidate loop stops
    /// early once either trips, so a sweep never pushes an engine far past
    /// its budget or keeps a cancelled one running.
    pub fn set_deadline(&mut self, deadline: Option<Instant>, cancel: Option<Arc<AtomicBool>>) {
        self.cfg.fraig.deadline = deadline;
        self.cfg.fraig.cancel = cancel;
    }

    /// Runs the sweep if [`StateSetSweeper::due`]; returns whether it ran.
    /// A sweep that would start past the configured deadline, or with the
    /// cancel flag raised, is skipped.
    pub fn run_if_due(
        &mut self,
        aig: &mut Aig,
        cnf: &mut AigCnf,
        bdds: &mut BddTier,
        lits: Vec<&mut Lit>,
        vars: Vec<&mut Var>,
    ) -> bool {
        if self.cfg.fraig.interrupted() {
            return false;
        }
        if !self.due(aig) {
            return false;
        }
        self.run(aig, cnf, bdds, lits, vars);
        true
    }

    /// Unconditionally sweeps: fraigs the union cone of `lits` on the
    /// kept BDD tier `bdds`, applies the proven merges, and (if
    /// configured) garbage-collects the manager. All `lits` are rewritten
    /// to their post-sweep form and all `vars` (which must be primary
    /// inputs) to their post-collection variables; the SAT bridge and the
    /// BDD tier are carried into the new manager.
    ///
    /// # Panics
    ///
    /// Panics if any of `vars` is not an input of `aig`.
    pub fn run(
        &mut self,
        aig: &mut Aig,
        cnf: &mut AigCnf,
        bdds: &mut BddTier,
        mut lits: Vec<&mut Lit>,
        mut vars: Vec<&mut Var>,
    ) {
        let roots: Vec<Lit> = lits.iter().map(|l| **l).collect();
        self.stats.runs += 1;
        self.stats.nodes_before += aig.num_nodes();
        self.stats.live_before += aig.cone_size_many(&roots);

        let swept = fraig(aig, &roots, cnf, bdds, &self.cfg.fraig);
        self.stats.merged += swept.stats.merged_bdd + swept.stats.merged_sat;
        self.stats.bdd_built += swept.stats.bdd_built;
        self.stats.bdd_resets += swept.stats.bdd_resets;
        let mut new_roots = swept.roots;

        if self.cfg.gc {
            // Input *ordinals* survive compaction; variable indices do not.
            let ordinals: Vec<usize> = vars
                .iter()
                .map(|v| aig.input_index(**v).expect("sweep var must be an input"))
                .collect();
            let (packed, packed_roots, var_map) = aig.compact_with_map(&new_roots);
            // Carry the bridge and the BDD tier across the compaction:
            // surviving cones keep their SAT variables and their BDDs, so
            // the solver's learnt clauses stay live and nothing re-encodes
            // or rebuilds.
            cnf.migrate(&var_map, packed.num_nodes());
            bdds.remap(&var_map);
            self.stats.cnf_gcs += 1;
            *aig = packed;
            new_roots = packed_roots;
            for (slot, ord) in vars.iter_mut().zip(ordinals) {
                **slot = aig.input_var(ord);
            }
        }
        for (slot, lit) in lits.iter_mut().zip(&new_roots) {
            **slot = *lit;
        }
        self.stats.nodes_after += aig.num_nodes();
        self.stats.live_after += aig.cone_size_many(&new_roots);
        self.watermark = Some(aig.num_nodes());
    }
}

/// The parallel portfolio's merge **scout**: proves node equivalences
/// over the *original* network's next-state/bad cones — simulation
/// signatures group the candidates, budgeted SAT confirms them — and
/// publishes every proven pair on the lemma bus in original-network
/// coordinates, where IC3's queries (which range over exactly those
/// cones) can absorb them. Consumers re-prove each pair in their own
/// database, so the scout's work is advisory, never trusted.
///
/// Cooperatively cancelled: the candidate loop stops as soon as `cancel`
/// is raised (a sibling found a conclusive answer). Returns the number
/// of merges published.
pub fn merge_scout(net: &cbq_ckt::Network, bus: &LemmaBus, cancel: &AtomicBool) -> usize {
    const SIM_WORDS: usize = 8;
    const SIM_SEED: u64 = 0x5EED;
    const PROOF_CONFLICTS: u64 = 20_000;
    let aig = net.aig();
    let mut roots: Vec<Lit> = net.latches().iter().map(|l| l.next).collect();
    roots.push(net.bad());
    let sim = ConeSim::random(aig, &roots, SIM_WORDS, SIM_SEED);
    let classes = sim.classes(None, |p| p != 0);
    let mut pairs: Vec<(Lit, Lit)> = classes
        .iter()
        .flat_map(|c| c[1..].iter().map(move |&m| (c[0], m)))
        .collect();
    pairs.sort_unstable();
    let mut cnf = AigCnf::new();
    let mut published = 0;
    for (a, b) in pairs {
        if cancel.load(Ordering::Relaxed) {
            break;
        }
        if cnf.prove_equiv(aig, a, b, Some(PROOF_CONFLICTS)).is_equiv() {
            bus.publish_merge(a, b);
            published += 1;
        }
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair of equivalent-but-structurally-different functions plus
    /// dead logic, for exercising both the merge and the collection.
    fn redundant_setup() -> (Aig, Lit, Lit) {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..4).map(|_| aig.add_input().lit()).collect();
        let f = {
            let x = aig.xor(ins[0], ins[1]);
            aig.or(x, ins[2])
        };
        let g = {
            // Mux re-derivation of the same xor: strashing misses it.
            let or = aig.or(ins[0], ins[1]);
            let nand = !aig.and(ins[0], ins[1]);
            let x = aig.and(or, nand);
            aig.or(x, ins[2])
        };
        let _dead = aig.xor(f, ins[3]);
        (aig, f, g)
    }

    #[test]
    fn sweep_merges_and_collects() {
        let (mut aig, mut f, mut g) = redundant_setup();
        let nodes_before = aig.num_nodes();
        let mut cnf = AigCnf::new();
        let mut sweeper = StateSetSweeper::new(SweepConfig::eager());
        sweeper.run(
            &mut aig,
            &mut cnf,
            &mut BddTier::new(),
            vec![&mut f, &mut g],
            vec![],
        );
        assert_eq!(f, g, "equivalent roots must merge");
        assert!(aig.num_nodes() < nodes_before, "gc must reclaim nodes");
        assert_eq!(sweeper.stats.runs, 1);
        assert!(sweeper.stats.merged >= 1);
        assert!(sweeper.stats.reclaimed() > 0);
        assert_eq!(sweeper.stats.cnf_gcs, 1);
        assert_eq!(
            cnf.stats().migrations + cnf.stats().retirements,
            1,
            "the GC must hand the bridge across exactly once"
        );
    }

    #[test]
    fn learnt_clauses_persist_across_gc() {
        // Two structurally different parity cones checked under a tiny
        // conflict budget: the equivalence stays undecided (no merge, so
        // both cones survive the GC) but the conflicts spent have learnt
        // real clauses over the surviving cones — and with map migration
        // those clauses must outlive the garbage collection.
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..10).map(|_| aig.add_input().lit()).collect();
        let mut f = Lit::FALSE;
        for &x in &ins {
            f = aig.xor(f, x);
        }
        let mut g = Lit::FALSE;
        for &x in ins.iter().rev() {
            g = aig.xor(g, x);
        }
        let _dead = aig.and(f, ins[0]);
        let mut cnf = AigCnf::new();
        let mut cfg = SweepConfig::eager();
        cfg.fraig.use_bdd_sweep = false;
        cfg.fraig.sat_budget = Some(5); // Unknown → no merge, learnts stay
        let mut sweeper = StateSetSweeper::new(cfg);
        let (mut f, mut g) = (f, g);
        let nodes_before = aig.num_nodes();
        sweeper.run(
            &mut aig,
            &mut cnf,
            &mut BddTier::new(),
            vec![&mut f, &mut g],
            vec![],
        );
        assert_ne!(f, g, "budgeted check must stay undecided");
        assert!(
            aig.num_nodes() < nodes_before,
            "gc must reclaim the dead node"
        );
        assert_eq!(sweeper.stats.cnf_gcs, 1, "gc must have run");
        assert!(
            cnf.stats().learnts_retained > 0,
            "no learnt clause survived the sweep GC: {:?}",
            cnf.stats()
        );
        assert!(
            cnf.solver().stats().learnts > 0,
            "solver lost its learnt database across GC"
        );
        let encoded = cnf.stats().encoded_ands;
        // The persistent solver still answers correctly on the migrated
        // cones — and without re-encoding anything.
        assert_eq!(cnf.solve_under(&aig, &[f]), cbq_sat::SatResult::Sat);
        assert_eq!(
            cnf.prove_equiv(&aig, f, g, None),
            cbq_cnf::EquivResult::Equiv
        );
        assert_eq!(
            cnf.stats().encoded_ands,
            encoded,
            "migrated cones re-encoded"
        );
    }

    #[test]
    fn sweep_preserves_semantics_and_remaps_vars() {
        let (mut aig, mut f, mut g) = redundant_setup();
        let reference = aig.clone();
        let (rf, rg) = (f, g);
        let mut v2 = aig.input_var(2);
        let mut cnf = AigCnf::new();
        let mut sweeper = StateSetSweeper::new(SweepConfig::eager());
        sweeper.run(
            &mut aig,
            &mut cnf,
            &mut BddTier::new(),
            vec![&mut f, &mut g],
            vec![&mut v2],
        );
        assert_eq!(aig.input_index(v2), Some(2), "ordinal must survive");
        for mask in 0..16u32 {
            let asg: Vec<bool> = (0..4).map(|i| (mask >> i) & 1 != 0).collect();
            assert_eq!(reference.eval(rf, &asg), aig.eval(f, &asg));
            assert_eq!(reference.eval(rg, &asg), aig.eval(g, &asg));
        }
    }

    #[test]
    fn gc_disabled_keeps_manager_and_bridge() {
        let (mut aig, mut f, mut g) = redundant_setup();
        let mut cnf = AigCnf::new();
        let cfg = SweepConfig {
            gc: false,
            ..SweepConfig::eager()
        };
        let mut sweeper = StateSetSweeper::new(cfg);
        sweeper.run(
            &mut aig,
            &mut cnf,
            &mut BddTier::new(),
            vec![&mut f, &mut g],
            vec![],
        );
        assert_eq!(f, g);
        assert_eq!(sweeper.stats.cnf_gcs, 0);
        // Live size still shrinks even though the manager is kept.
        assert!(sweeper.stats.live_after <= sweeper.stats.live_before);
    }

    #[test]
    fn due_respects_watermark_and_floor() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let _f = aig.and(a, b);
        let mut sweeper = StateSetSweeper::new(SweepConfig {
            growth_factor: 2.0,
            min_nodes: 0,
            ..SweepConfig::default()
        });
        assert!(!sweeper.due(&aig), "first probe only sets the baseline");
        assert!(!sweeper.due(&aig), "no growth yet");
        let mut last = aig.and(a, b);
        for _ in 0..8 {
            let x = aig.add_input().lit();
            last = aig.xor(last, x);
        }
        assert!(sweeper.due(&aig), "manager more than doubled");
        let floor = StateSetSweeper::new(SweepConfig {
            growth_factor: 1.0,
            min_nodes: 1_000_000,
            ..SweepConfig::default()
        });
        let mut floor = floor;
        assert!(!floor.due(&aig));
        assert!(!floor.due(&aig), "below the node floor");
    }
}
