//! The cross-engine **lemma bus** of the parallel [`crate::Portfolio`].
//!
//! Concurrent members discover facts about the *same* transition
//! structure from very different angles: IC3 learns frame clauses over
//! the latches (cubes of unreachable states), and the SAT-sweeping path
//! proves node merges over the original next-state/bad cones. The bus is
//! the channel between them — a mutex-guarded append-only store with an
//! atomic generation counter, so consumers poll with one cheap load and
//! only take the lock when something new was published.
//!
//! ## Zero-trust admission
//!
//! Nothing read off the bus is believed. Every consumer re-validates a
//! published lemma with the same admission discipline as the PR-6
//! warm-start seeds before using it:
//!
//! * **latch cubes** (from IC3): well-formed, excludes the initial
//!   state, and passes one relative-induction query against the
//!   consumer's own admitted set ([`LemmaValidator::admit`]) — so the
//!   admitted conjunction is always a genuine inductive invariant and
//!   each admitted clause holds in every reachable state;
//! * **node merges** (from the sweep scout): re-proved equivalent by the
//!   consumer's own SAT database ([`cbq_cnf::AigCnf::prove_equiv`] under
//!   a small conflict budget) before [`cbq_cnf::AigCnf::learn_equiv`]
//!   records it.
//!
//! A bad, stale, or even adversarial publication therefore costs the
//! consumer a few queries — never a verdict.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cbq_aig::{Aig, Lit, Var};
use cbq_ckt::Network;
use cbq_cnf::AigCnf;
use cbq_sat::{SatLit, SatResult};

/// A lemma cube over latches: `(latch ordinal, value)` pairs.
pub type LatchCube = Vec<(usize, bool)>;

/// Append-only cube store with exact-duplicate suppression (IC3 pushes
/// the same cube through several frames; siblings only want it once).
/// Each entry carries an *already inductive* tag: `F_∞` clauses — proved
/// inductive outright by the publisher — may be re-published tagged even
/// after an untagged copy went out, so consumers get the upgrade.
#[derive(Debug, Default)]
struct CubeStore {
    list: Vec<(LatchCube, bool)>,
    seen: HashSet<LatchCube>,
    seen_inductive: HashSet<LatchCube>,
}

/// The shared lemma channel of one parallel portfolio run.
///
/// Publications are never removed; consumers track how far they have
/// read with a [`BusCursor`] and fetch only the new tail. All locks
/// recover from poisoning — a panicking member must not silence the bus
/// for its siblings (the store is append-only, so a lock held across a
/// panic can at worst leave one half-pushed entry's allocation, never a
/// torn lemma).
#[derive(Debug, Default)]
pub struct LemmaBus {
    cube_gen: AtomicU64,
    merge_gen: AtomicU64,
    cubes: Mutex<CubeStore>,
    merges: Mutex<Vec<(Lit, Lit)>>,
}

/// A consumer's read position on the bus.
#[derive(Clone, Copy, Debug, Default)]
pub struct BusCursor {
    cube_gen: u64,
    merge_gen: u64,
    cubes: usize,
    merges: usize,
}

/// Publication counters of a [`LemmaBus`], for run stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusCounts {
    /// Distinct latch cubes published (IC3 frame clauses).
    pub cubes: u64,
    /// Node merges published (sweep-proven equivalences, in original
    /// network coordinates).
    pub merges: u64,
}

impl LemmaBus {
    /// An empty bus.
    pub fn new() -> LemmaBus {
        LemmaBus::default()
    }

    /// Publishes an IC3 frame clause (as its blocked cube). Exact
    /// duplicates are dropped. Returns whether the cube was new.
    pub fn publish_cube(&self, cube: LatchCube) -> bool {
        let mut store = self.cubes.lock().unwrap_or_else(|p| p.into_inner());
        if !store.seen.insert(cube.clone()) {
            return false;
        }
        store.list.push((cube, false));
        drop(store);
        self.cube_gen.fetch_add(1, Ordering::Release);
        true
    }

    /// Publishes an `F_∞` clause with the *already inductive* tag: the
    /// publisher proved `¬c` inductive outright, so consumers may
    /// fast-path admission ([`LemmaValidator::admit_inductive`]) instead
    /// of waiting for a mutual-induction batch. A cube previously
    /// published *untagged* is re-published tagged (the upgrade is
    /// news); a tagged duplicate is dropped. Returns whether the tagged
    /// entry was new.
    pub fn publish_inductive(&self, cube: LatchCube) -> bool {
        let mut store = self.cubes.lock().unwrap_or_else(|p| p.into_inner());
        if !store.seen_inductive.insert(cube.clone()) {
            return false;
        }
        store.seen.insert(cube.clone());
        store.list.push((cube, true));
        drop(store);
        self.cube_gen.fetch_add(1, Ordering::Release);
        true
    }

    /// Publishes a SAT-proven node merge `a ≡ b`, in the coordinates of
    /// the *original* network AIG (both literals' nodes predate any
    /// unrolling or sweep GC).
    pub fn publish_merge(&self, a: Lit, b: Lit) {
        self.merges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((a, b));
        self.merge_gen.fetch_add(1, Ordering::Release);
    }

    /// Whether anything was published since `cursor` last read.
    pub fn has_news(&self, cursor: &BusCursor) -> bool {
        self.cube_gen.load(Ordering::Acquire) != cursor.cube_gen
            || self.merge_gen.load(Ordering::Acquire) != cursor.merge_gen
    }

    /// The cubes published since `cursor` last read them, each with its
    /// *already inductive* tag (advances the cursor). Cheap when nothing
    /// new was published: one atomic load, no lock.
    pub fn cubes_since(&self, cursor: &mut BusCursor) -> Vec<(LatchCube, bool)> {
        let gen = self.cube_gen.load(Ordering::Acquire);
        if gen == cursor.cube_gen {
            return Vec::new();
        }
        cursor.cube_gen = gen;
        let store = self.cubes.lock().unwrap_or_else(|p| p.into_inner());
        let fresh = store.list[cursor.cubes.min(store.list.len())..].to_vec();
        cursor.cubes = store.list.len();
        fresh
    }

    /// The merges published since `cursor` last read them (advances the
    /// cursor).
    pub fn merges_since(&self, cursor: &mut BusCursor) -> Vec<(Lit, Lit)> {
        let gen = self.merge_gen.load(Ordering::Acquire);
        if gen == cursor.merge_gen {
            return Vec::new();
        }
        cursor.merge_gen = gen;
        let merges = self.merges.lock().unwrap_or_else(|p| p.into_inner());
        let fresh = merges[cursor.merges.min(merges.len())..].to_vec();
        cursor.merges = merges.len();
        fresh
    }

    /// Total publication counts so far.
    pub fn counts(&self) -> BusCounts {
        BusCounts {
            cubes: self
                .cubes
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .list
                .len() as u64,
            merges: self.merges.lock().unwrap_or_else(|p| p.into_inner()).len() as u64,
        }
    }
}

/// The admission filter every cube passes before any query: `cube`
/// normalized (sorted by latch ordinal, exact duplicates dropped) when
/// it is well-formed — non-empty, one literal per latch, every ordinal
/// below `init.len()` — and excludes the single, fully specified reset
/// state `init`. Shared by bus admission and IC3's warm-start seeds.
pub(crate) fn admissible_cube(cube: &[(usize, bool)], init: &[bool]) -> Option<LatchCube> {
    let mut cube = cube.to_vec();
    cube.sort_unstable_by_key(|&(ord, _)| ord);
    cube.dedup();
    let well_formed = !cube.is_empty()
        && cube.windows(2).all(|w| w[0].0 != w[1].0)
        && cube.iter().all(|&(ord, _)| ord < init.len());
    let excludes_init = || cube.iter().any(|&(ord, val)| init[ord] != val);
    (well_formed && excludes_init()).then_some(cube)
}

/// Re-validates bus cubes for one consumer: a private one-step model of
/// the transition structure (latches as free inputs, functional `δ`)
/// plus the conjunction of everything admitted so far.
///
/// [`LemmaValidator::admit`] runs the PR-6 seed discipline: normalize,
/// well-formedness, init-exclusion, then one relative-induction query
/// `SAT? [A ∧ ¬c ∧ c(δ)]` against the admitted set `A`. By induction
/// over admission order the conjunction `A` stays a genuine inductive
/// invariant that the initial state satisfies, so *each* admitted clause
/// holds in every reachable state and may be assumed at any frame of any
/// unrolling.
pub struct LemmaValidator {
    aig: Aig,
    cnf: AigCnf,
    latches: Vec<Var>,
    deltas: Vec<Lit>,
    init_state: Vec<bool>,
    /// Guard of the admitted set `A`.
    admitted: SatLit,
    retired: u32,
}

impl LemmaValidator {
    /// A validator for `net`'s transition structure.
    pub fn new(net: &Network) -> LemmaValidator {
        let mut cnf = AigCnf::new();
        let admitted = cnf.new_guard();
        LemmaValidator {
            aig: net.aig().clone(),
            cnf,
            latches: net.latch_vars(),
            deltas: net.latches().iter().map(|l| l.next).collect(),
            init_state: net.initial_state(),
            admitted,
            retired: 0,
        }
    }

    /// The AIG literal asserting latch `ord == val`.
    fn latch_lit(&self, ord: usize, val: bool) -> Lit {
        self.latches[ord].lit().xor_sign(!val)
    }

    /// Normalizes and validates `cube`; on success the clause `¬cube`
    /// joins the admitted set and the normalized cube is returned.
    pub fn admit(&mut self, cube: &[(usize, bool)]) -> Option<LatchCube> {
        let cube = admissible_cube(cube, &self.init_state)?;
        // One relative-induction query: can a state satisfying A ∧ ¬c
        // step into c? The ¬c clause lives under a per-query guard; each
        // c(δ) conjunct is its own assumption.
        let actq = self.cnf.new_guard();
        let neg_cube: Vec<SatLit> = cube
            .iter()
            .map(|&(ord, val)| !self.cnf.ensure(&self.aig, self.latch_lit(ord, val)))
            .collect();
        self.cnf.add_guarded_by(actq, &neg_cube);
        let mut assumptions = vec![actq, self.admitted];
        for &(ord, val) in &cube {
            let succ = self.deltas[ord].xor_sign(!val);
            assumptions.push(self.cnf.ensure(&self.aig, succ));
        }
        let result = self.cnf.solve_under_assuming(&self.aig, &[], &assumptions);
        self.cnf.retire_guard(actq);
        self.retired += 1;
        if self.retired.is_multiple_of(256) {
            self.cnf.reclaim_guards();
        }
        match result {
            SatResult::Unsat => {
                let clause: Vec<SatLit> = cube
                    .iter()
                    .map(|&(ord, val)| !self.cnf.ensure(&self.aig, self.latch_lit(ord, val)))
                    .collect();
                self.cnf.add_guarded_by(self.admitted, &clause);
                Some(cube)
            }
            _ => None,
        }
    }

    /// Admits the **maximal inductive subset** of `cubes` relative to
    /// the admitted set, by the classic peeling iteration: assume the
    /// whole candidate set in the pre-state, check each candidate's
    /// one-step consecution, drop every candidate that fails, repeat
    /// until a round survives intact. This is strictly stronger than
    /// per-cube [`LemmaValidator::admit`]: IC3's pushed frame clauses
    /// are usually inductive only *as a set* (mutual induction), and
    /// one-at-a-time admission rejects all of them.
    ///
    /// Returns the normalized admitted cubes; rejected candidates cost
    /// queries, never soundness — the surviving set plus `A` passes the
    /// same consecution check as sequential admission would.
    pub fn admit_batch(&mut self, cubes: &[LatchCube]) -> Vec<LatchCube> {
        let mut candidates: Vec<LatchCube> = Vec::new();
        for cube in cubes {
            if let Some(cube) = admissible_cube(cube, &self.init_state) {
                if !candidates.contains(&cube) {
                    candidates.push(cube);
                }
            }
        }
        while !candidates.is_empty() {
            // One peeling round: ¬c for every candidate (and everything
            // previously admitted) holds in the pre-state; each c must
            // then be unreachable in one step.
            let round = self.cnf.new_guard();
            for cube in &candidates {
                let clause: Vec<SatLit> = cube
                    .iter()
                    .map(|&(ord, val)| !self.cnf.ensure(&self.aig, self.latch_lit(ord, val)))
                    .collect();
                self.cnf.add_guarded_by(round, &clause);
            }
            let mut survivors = Vec::new();
            for cube in &candidates {
                let mut assumptions = vec![round, self.admitted];
                for &(ord, val) in cube {
                    let succ = self.deltas[ord].xor_sign(!val);
                    assumptions.push(self.cnf.ensure(&self.aig, succ));
                }
                let result = self.cnf.solve_under_assuming(&self.aig, &[], &assumptions);
                if result == SatResult::Unsat {
                    survivors.push(cube.clone());
                }
            }
            self.cnf.retire_guard(round);
            self.retired += 1;
            if self.retired.is_multiple_of(256) {
                self.cnf.reclaim_guards();
            }
            let stable = survivors.len() == candidates.len();
            candidates = survivors;
            if stable {
                break;
            }
        }
        for cube in &candidates {
            let clause: Vec<SatLit> = cube
                .iter()
                .map(|&(ord, val)| !self.cnf.ensure(&self.aig, self.latch_lit(ord, val)))
                .collect();
            self.cnf.add_guarded_by(self.admitted, &clause);
        }
        candidates
    }

    /// Fast-path admission for cubes published with the *already
    /// inductive* tag ([`LemmaBus::publish_inductive`]): sequential
    /// [`LemmaValidator::admit`] in publication order. The publisher
    /// proved each clause inductive relative to the tagged clauses
    /// before it, so in-order single queries succeed without the
    /// quadratic peeling of [`LemmaValidator::admit_batch`] — while the
    /// zero-trust discipline is fully retained: a mistagged or poisoned
    /// publication still fails its own consecution query and is
    /// rejected. Returns the normalized admitted cubes.
    pub fn admit_inductive(&mut self, cubes: &[LatchCube]) -> Vec<LatchCube> {
        cubes.iter().filter_map(|cube| self.admit(cube)).collect()
    }

    /// SAT checks issued so far (consumers fold this into their stats).
    pub fn checks(&self) -> u64 {
        self.cnf.stats().checks
    }
}

/// The one cube consumer of the unrolling engines (BMC and k-induction):
/// a private [`LemmaValidator`], the bus read position, every cube
/// admitted so far, the pool of untagged cubes still pending, and the
/// count of cubes refused for good.
///
/// The engines only instantiate what [`BusConsumer::poll`] admits on
/// their frames; every admitted clause holds in every reachable state.
pub(crate) struct BusConsumer {
    bus: Arc<LemmaBus>,
    validator: LemmaValidator,
    cursor: BusCursor,
    admitted: Vec<LatchCube>,
    pending: Vec<LatchCube>,
    refused: u64,
}

impl BusConsumer {
    /// A consumer of `bus` validating against `net`'s transition structure.
    pub fn new(bus: Arc<LemmaBus>, net: &Network) -> BusConsumer {
        BusConsumer {
            bus,
            validator: LemmaValidator::new(net),
            cursor: BusCursor::default(),
            admitted: Vec::new(),
            pending: Vec::new(),
            refused: 0,
        }
    }

    /// Reads the bus once and returns the cubes newly admitted, in
    /// normalized form. Tagged (already inductive) publications take the
    /// sequential fast path, where a rejection is final. Untagged ones
    /// join the pending pool, normalized so an admitted cube leaves it,
    /// and the pool is retried as one mutual-induction batch on every
    /// read that brings news: IC3's frame clauses usually hold only as a
    /// set, and a set that failed mid-convergence can become inductive
    /// once its missing siblings arrive.
    pub fn poll(&mut self) -> &[LatchCube] {
        let start = self.admitted.len();
        let fresh = self.bus.cubes_since(&mut self.cursor);
        if !fresh.is_empty() {
            let mut tagged: Vec<LatchCube> = Vec::new();
            for (cube, inductive) in fresh {
                if inductive {
                    tagged.push(cube);
                } else if let Some(cube) = admissible_cube(&cube, &self.validator.init_state) {
                    self.pending.push(cube);
                } else {
                    self.refused += 1;
                }
            }
            let fast = self.validator.admit_inductive(&tagged);
            self.refused += (tagged.len() - fast.len()) as u64;
            self.admitted.extend(fast);
            if !self.pending.is_empty() {
                let from_pool = self.validator.admit_batch(&self.pending);
                self.pending.retain(|c| !from_pool.contains(c));
                self.admitted.extend(from_pool);
            }
        }
        &self.admitted[start..]
    }

    /// Every cube admitted so far, in admission order.
    pub fn admitted(&self) -> &[LatchCube] {
        &self.admitted
    }

    /// SAT checks of the private validator.
    pub fn checks(&self) -> u64 {
        self.validator.checks()
    }

    /// Traffic so far: every admitted cube, and as rejected the cubes
    /// refused for good plus the ones still pending.
    pub fn stats(&self) -> BusClientStats {
        BusClientStats {
            lemmas_admitted: self.admitted.len() as u64,
            lemmas_rejected: self.refused + self.pending.len() as u64,
            ..BusClientStats::default()
        }
    }
}

/// Per-consumer bus traffic counters, shared by the BMC, k-induction,
/// and IC3 stats records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusClientStats {
    /// Bus cubes admitted after re-validation.
    pub lemmas_admitted: u64,
    /// Bus cubes rejected (malformed, init-intersecting, or not
    /// inductive relative to the consumer's admitted set).
    pub lemmas_rejected: u64,
    /// Bus merges re-proved and learned into the consumer's database.
    pub merges_learned: u64,
    /// Bus merges the consumer could not re-prove (out of coordinate
    /// range, budget, or genuinely not equivalent).
    pub merges_rejected: u64,
}

impl BusClientStats {
    /// Whether any bus traffic reached this consumer.
    pub fn any(&self) -> bool {
        *self != BusClientStats::default()
    }

    /// Sums the counters of `other` into `self`.
    pub fn absorb(&mut self, other: &BusClientStats) {
        self.lemmas_admitted += other.lemmas_admitted;
        self.lemmas_rejected += other.lemmas_rejected;
        self.merges_learned += other.merges_learned;
        self.merges_rejected += other.merges_rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_ckt::generators;

    #[test]
    fn bus_delivers_each_publication_once() {
        let bus = LemmaBus::new();
        let mut cursor = BusCursor::default();
        assert!(bus.cubes_since(&mut cursor).is_empty());
        assert!(bus.publish_cube(vec![(0, true)]));
        assert!(!bus.publish_cube(vec![(0, true)]), "duplicate suppressed");
        assert!(bus.publish_cube(vec![(1, false)]));
        assert_eq!(bus.cubes_since(&mut cursor).len(), 2);
        assert!(bus.cubes_since(&mut cursor).is_empty());
        bus.publish_merge(Lit::TRUE, Lit::FALSE);
        assert_eq!(bus.merges_since(&mut cursor).len(), 1);
        assert_eq!(
            bus.counts(),
            BusCounts {
                cubes: 2,
                merges: 1
            }
        );
        // A second consumer starts from scratch and sees everything.
        let mut fresh = BusCursor::default();
        assert_eq!(bus.cubes_since(&mut fresh).len(), 2);
        assert_eq!(bus.merges_since(&mut fresh).len(), 1);
    }

    #[test]
    fn inductive_tag_rides_the_cube_stream() {
        let bus = LemmaBus::new();
        let mut cursor = BusCursor::default();
        assert!(bus.publish_cube(vec![(0, true)]));
        assert!(bus.publish_inductive(vec![(1, false)]));
        assert_eq!(
            bus.cubes_since(&mut cursor),
            vec![(vec![(0, true)], false), (vec![(1, false)], true)]
        );
        // An untagged cube upgrades to a tagged re-publication; the
        // reverse (and a tagged duplicate) is suppressed.
        assert!(bus.publish_inductive(vec![(0, true)]));
        assert!(!bus.publish_inductive(vec![(0, true)]), "tagged dup");
        assert!(!bus.publish_cube(vec![(1, false)]), "downgrade is not news");
        assert_eq!(bus.cubes_since(&mut cursor), vec![(vec![(0, true)], true)]);
    }

    #[test]
    fn inductive_fast_path_admits_in_order_and_stays_zero_trust() {
        // a' = a (init 0), b' = a (init 0): {b} is inductive only
        // relative to {a} — in publication order the fast path admits
        // both with one query each, while a mistagged junk cube and a
        // genuinely non-inductive cube are still rejected.
        let mut b = cbq_ckt::Network::builder("ford");
        let a = b.add_latch(false);
        let bv = b.add_latch(false);
        b.set_next(a, a.lit());
        b.set_next(bv, a.lit());
        let net = b.build(cbq_aig::Lit::FALSE);
        let mut v = LemmaValidator::new(&net);
        let admitted = v.admit_inductive(&[
            vec![(0, true)],
            vec![(1, true)],              // needs {a} admitted first — it is
            vec![(99, true)],             // mistagged junk
            vec![(0, false), (1, false)], // intersects init
        ]);
        assert_eq!(admitted, vec![vec![(0, true)], vec![(1, true)]]);
    }

    #[test]
    fn validator_admits_real_invariants_and_rejects_junk() {
        let net = generators::token_ring(4);
        let mut v = LemmaValidator::new(&net);
        // Malformed / init-intersecting candidates fall before any query.
        assert!(v.admit(&[]).is_none(), "empty");
        assert!(v.admit(&[(0, true), (0, false)]).is_none(), "contradictory");
        assert!(v.admit(&[(99, true)]).is_none(), "out of range");
        // {l0, l1} (two adjacent tokens) is truly unreachable, but NOT
        // inductive on its own (a {l3, l0} state rotates into it), so
        // the zero-trust validator must reject it — a sound loss.
        assert!(v.admit(&[(0, true), (1, true)]).is_none());
        // The all-zero state loses the token and no state maps to it
        // (rotation is a bijection): inductive alone, admissible.
        assert!(v
            .admit(&[(0, false), (1, false), (2, false), (3, false)])
            .is_some());
        assert!(v.checks() > 0);
    }

    #[test]
    fn validator_admission_is_relative_to_the_admitted_set() {
        // a' = a (init 0), b' = a (init 0), bad = false. The cube {b}
        // is not inductive alone (a state with a=1 steps into b=1) but
        // becomes inductive once {a} is admitted.
        let mut b = cbq_ckt::Network::builder("rel");
        let a = b.add_latch(false);
        let bv = b.add_latch(false);
        b.set_next(a, a.lit());
        b.set_next(bv, a.lit());
        let net = b.build(cbq_aig::Lit::FALSE);
        let mut v = LemmaValidator::new(&net);
        assert!(v.admit(&[(1, true)]).is_none(), "not inductive alone");
        assert!(v.admit(&[(0, true)]).is_some(), "inductive alone");
        assert!(
            v.admit(&[(1, true)]).is_some(),
            "inductive relative to the admitted set"
        );
        // Unordered, duplicated input is normalized before admission.
        let normalized = v.admit(&[(1, true), (0, true), (1, true)]).unwrap();
        assert_eq!(normalized, vec![(0, true), (1, true)]);
    }

    #[test]
    fn batch_admission_handles_mutual_induction() {
        // a' = b, b' = a (both init 0): the states (1,0) and (0,1) swap
        // into each other, so neither cube is inductive alone but the
        // pair is — exactly the shape of IC3's pushed frame clauses.
        let mut b = cbq_ckt::Network::builder("swap");
        let a = b.add_latch(false);
        let bv = b.add_latch(false);
        b.set_next(a, bv.lit());
        b.set_next(bv, a.lit());
        let net = b.build(cbq_aig::Lit::FALSE);
        let c1 = vec![(0, true), (1, false)];
        let c2 = vec![(0, false), (1, true)];
        let mut v = LemmaValidator::new(&net);
        assert!(v.admit(&c1).is_none(), "not inductive alone");
        assert!(v.admit(&c2).is_none(), "not inductive alone");
        // The peeling iteration keeps the mutually inductive pair and
        // drops the junk: an init-intersecting cube and an out-of-range
        // ordinal fall in the filter, a genuinely non-inductive cube in
        // the consecution rounds.
        let batch = v.admit_batch(&[
            c1.clone(),
            c2.clone(),
            vec![(99, true)],
            vec![(0, false), (1, false)],
        ]);
        assert_eq!(batch, vec![c1.clone(), c2]);
        // Once the pair is admitted, each member re-admits trivially.
        assert!(v.admit(&c1).is_some());
    }

    #[test]
    fn consumer_keeps_untagged_cubes_pending_until_their_siblings_arrive() {
        // a' = b, b' = a (both init 0): the two one-hot cubes are
        // inductive only as a pair.
        let mut b = cbq_ckt::Network::builder("swap");
        let a = b.add_latch(false);
        let bv = b.add_latch(false);
        b.set_next(a, bv.lit());
        b.set_next(bv, a.lit());
        let net = b.build(cbq_aig::Lit::FALSE);
        let bus = Arc::new(LemmaBus::new());
        let mut consumer = BusConsumer::new(bus.clone(), &net);
        let c1 = vec![(0, true), (1, false)];
        let c2 = vec![(0, false), (1, true)];
        bus.publish_cube(c1.clone());
        assert!(consumer.poll().is_empty(), "half a pair is not inductive");
        let pending = BusClientStats {
            lemmas_rejected: 1,
            ..BusClientStats::default()
        };
        assert_eq!(consumer.stats(), pending);
        assert!(consumer.poll().is_empty(), "no news, no retry");
        bus.publish_cube(c2.clone());
        assert_eq!(consumer.poll(), [c1, c2].as_slice());
        assert_eq!(consumer.admitted().len(), 2);
        let admitted = BusClientStats {
            lemmas_admitted: 2,
            ..BusClientStats::default()
        };
        assert_eq!(consumer.stats(), admitted);
    }

    #[test]
    fn consumer_rejects_a_tagged_junk_cube_once() {
        // {l0, l1} is unreachable on the ring but not inductive: the
        // fast path refuses it for good. A later untagged invariant,
        // published out of order, costs only its own batch query.
        let net = generators::token_ring(4);
        let bus = Arc::new(LemmaBus::new());
        let mut consumer = BusConsumer::new(bus.clone(), &net);
        bus.publish_inductive(vec![(0, true), (1, true)]);
        assert!(consumer.poll().is_empty());
        assert_eq!(consumer.stats().lemmas_rejected, 1);
        let checks = consumer.checks();
        assert!(checks > 0, "the tagged cube was queried");
        bus.publish_cube(vec![(3, false), (2, false), (1, false), (0, false)]);
        let all_zero = vec![(0, false), (1, false), (2, false), (3, false)];
        assert_eq!(consumer.poll(), [all_zero].as_slice());
        assert_eq!(consumer.checks(), checks + 1, "the junk was retried");
        let stats = BusClientStats {
            lemmas_admitted: 1,
            lemmas_rejected: 1,
            ..BusClientStats::default()
        };
        assert_eq!(consumer.stats(), stats);
        // The admitted cube left the pool: news brings no second copy.
        bus.publish_cube(vec![(0, true), (2, true)]);
        assert!(consumer.poll().is_empty());
        assert_eq!(consumer.stats().lemmas_admitted, 1);
    }
}
