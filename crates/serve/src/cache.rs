//! Content-addressed result cache keyed by structural AIG hashes.
//!
//! Three tiers, from strongest to weakest reuse:
//!
//! 1. **Whole-run memoization** — the full model structure (every δ cone,
//!    the bad cone, latch/input bindings, reset values) plus the engine
//!    name maps to a finished [`McRun`]. Only *conclusive* verdicts are
//!    stored: `Safe`/`Unsafe` are budget-independent facts about the
//!    model, so replaying one under any later budget is sound (and
//!    strictly more informative than re-running with a tight budget).
//! 2. **Depth-0 sub-query memoization** — when a run refutes the property
//!    in the initial state (`cex_depth == 0`), the verdict depends only
//!    on the reset assignment and the bad cone; the δ cones never
//!    participate. The run is re-keyed without them, so a near-duplicate
//!    model that rewired its transition logic but kept the same failing
//!    property still hits. Keys include the engine name because the
//!    replayed record must match what *that* engine's cold run would
//!    report (iteration counting differs across engines).
//! 3. **Warm-start seeding** — an IC3 run's exported frame lemmas are
//!    keyed by the δ cones and reset values alone (no bad cone, no
//!    engine). A structurally perturbed property over the same
//!    transition structure replays the lemmas as [`cbq_mc::Ic3::seed`]
//!    candidates; the engine re-validates each one, so a colliding or
//!    stale entry costs wasted queries, never a wrong verdict.
//!
//! All keys are FNV-1a combinations of [`cbq_aig::Aig::cone_hash_many`]
//! digests with the latch/input ordinal bindings, so they are independent
//! of node numbering, dead logic, and construction order.

use std::collections::HashMap;

use cbq_ckt::Network;
use cbq_mc::json::{field, Json};
use cbq_mc::McRun;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

fn mix_str(base: u64, s: &str) -> u64 {
    let mut h = base;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The structural digests of one model, computed once per request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ModelKey {
    /// Full structure: δ cones + bad cone + bindings. Tier-1 base.
    pub full: u64,
    /// Bad cone + bindings only (no δ cones). Tier-2 base.
    pub bad_only: u64,
    /// δ cones + bindings only (no bad cone). Tier-3 base.
    pub delta_only: u64,
}

impl ModelKey {
    /// Digests `net`'s structure. Node numbering and dead logic do not
    /// affect the result; latch order, input-ordinal bindings, reset
    /// values, and cone shapes all do.
    pub fn of(net: &Network) -> ModelKey {
        let aig = net.aig();
        let deltas: Vec<_> = net.latches().iter().map(|l| l.next).collect();
        let mut all = deltas.clone();
        all.push(net.bad());
        // The binding words pin down which input ordinal is latch i's
        // state variable (and its reset value) and which ordinals are
        // free inputs — cone hashes alone see ordinals only where they
        // appear inside a cone.
        let mut bindings: Vec<u64> = vec![net.num_latches() as u64, net.num_inputs() as u64];
        for l in net.latches() {
            let ord = aig.input_index(l.var).expect("latch is an input") as u64;
            bindings.push(ord * 2 + u64::from(l.init));
        }
        for v in net.primary_inputs() {
            bindings.push(aig.input_index(*v).expect("PI is an input") as u64);
        }
        let keyed = |cone: u64| fnv(std::iter::once(cone).chain(bindings.iter().copied()));
        ModelKey {
            full: keyed(aig.cone_hash_many(&all)),
            bad_only: keyed(aig.cone_hash(net.bad())),
            delta_only: keyed(aig.cone_hash_many(&deltas)),
        }
    }
}

/// Which cache tier answered (0 = cold run).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum CacheTier {
    /// No tier applied; the engine ran cold.
    #[default]
    Miss,
    /// Tier 1: whole-run verdict replay.
    WholeRun,
    /// Tier 2: depth-0 sub-query replay.
    Depth0,
    /// Tier 3: IC3 warm start from cached lemmas.
    WarmStart,
}

impl CacheTier {
    /// The tier number as reported on the wire (0 for a miss).
    pub fn number(self) -> u8 {
        match self {
            CacheTier::Miss => 0,
            CacheTier::WholeRun => 1,
            CacheTier::Depth0 => 2,
            CacheTier::WarmStart => 3,
        }
    }
}

/// Hit/miss counters, reported as JSON in every result record.
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    /// Cache consultations (one per cached check request).
    pub lookups: u64,
    /// Tier-1 whole-run hits.
    pub tier1_hits: u64,
    /// Tier-2 depth-0 hits.
    pub tier2_hits: u64,
    /// Tier-3 warm-start hits (lemma sets handed to IC3).
    pub tier3_hits: u64,
    /// Lookups no tier could serve.
    pub misses: u64,
    /// Conclusive runs stored (tier-1 entries written).
    pub runs_cached: u64,
    /// Lemma sets stored (tier-3 entries written).
    pub lemma_sets_cached: u64,
}

impl CacheStats {
    /// Renders the counters as one JSON object (the benchmark package's
    /// name for `Json::from(&stats)`).
    pub fn to_json(&self) -> String {
        Json::from(self).to_string()
    }
}

impl From<&CacheStats> for Json {
    fn from(s: &CacheStats) -> Json {
        Json::Obj(vec![
            field("lookups", s.lookups),
            field("tier1_hits", s.tier1_hits),
            field("tier2_hits", s.tier2_hits),
            field("tier3_hits", s.tier3_hits),
            field("misses", s.misses),
            field("runs_cached", s.runs_cached),
            field("lemma_sets_cached", s.lemma_sets_cached),
        ])
    }
}

/// The three-tier structural cache (see the module docs for the soundness
/// argument behind each tier).
#[derive(Default)]
pub struct StructuralCache {
    whole_runs: HashMap<u64, McRun>,
    depth0_runs: HashMap<u64, McRun>,
    lemma_sets: HashMap<u64, Vec<Vec<(usize, bool)>>>,
    /// Counters, readable by the `stats` protocol command.
    pub stats: CacheStats,
}

impl StructuralCache {
    /// An empty cache.
    pub fn new() -> StructuralCache {
        StructuralCache::default()
    }

    /// Tier-1/2 lookup: a finished run for this exact model (tier 1) or
    /// for its initial-state refutation (tier 2), under `engine`.
    /// Counts the lookup; a `None` here does *not* yet count as a miss —
    /// [`StructuralCache::seed_for`] gets the final say.
    pub fn lookup_run(&mut self, key: &ModelKey, engine: &str) -> Option<(McRun, CacheTier)> {
        self.stats.lookups += 1;
        if let Some(run) = self.whole_runs.get(&mix_str(key.full, engine)) {
            self.stats.tier1_hits += 1;
            return Some((run.clone(), CacheTier::WholeRun));
        }
        if let Some(run) = self.depth0_runs.get(&mix_str(key.bad_only, engine)) {
            self.stats.tier2_hits += 1;
            return Some((run.clone(), CacheTier::Depth0));
        }
        None
    }

    /// Tier-3 lookup: lemmas proved over the same transition structure,
    /// usable as IC3 warm-start candidates. Counts a tier-3 hit when
    /// found, a miss otherwise — call only after
    /// [`StructuralCache::lookup_run`] returned `None`.
    pub fn seed_for(&mut self, key: &ModelKey, engine: &str) -> Option<Vec<Vec<(usize, bool)>>> {
        if engine == "ic3" {
            if let Some(lemmas) = self.lemma_sets.get(&key.delta_only) {
                if !lemmas.is_empty() {
                    self.stats.tier3_hits += 1;
                    return Some(lemmas.clone());
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Stores what a finished run teaches: the run itself when the
    /// verdict is conclusive (tier 1), its depth-0 refutation re-keyed
    /// without the δ cones when applicable (tier 2), and any exported
    /// IC3 frame lemmas (tier 3).
    pub fn record(&mut self, key: &ModelKey, engine: &str, run: &McRun) {
        if run.verdict.is_conclusive() {
            // Strip the job tag: cached entries are request-independent;
            // replays re-tag with the requesting job's id.
            let entry = run.clone().with_job(0);
            if let Some(trace) = run.verdict.trace() {
                if trace.len() == 1 {
                    self.depth0_runs
                        .insert(mix_str(key.bad_only, engine), entry.clone());
                }
            }
            if self
                .whole_runs
                .insert(mix_str(key.full, engine), entry)
                .is_none()
            {
                self.stats.runs_cached += 1;
            }
        }
        if engine == "ic3" {
            if let Some(detail) = run.detail::<cbq_mc::Ic3Stats>() {
                if !detail.lemmas.is_empty()
                    && self
                        .lemma_sets
                        .insert(key.delta_only, detail.lemmas.clone())
                        .is_none()
                {
                    self.stats.lemma_sets_cached += 1;
                }
            }
        }
    }

    /// Number of tier-1 entries currently stored.
    pub fn len(&self) -> usize {
        self.whole_runs.len()
    }

    /// Whether no tier holds any entry.
    pub fn is_empty(&self) -> bool {
        self.whole_runs.is_empty() && self.depth0_runs.is_empty() && self.lemma_sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_ckt::generators;
    use cbq_mc::{Budget, Engine, Ic3};

    #[test]
    fn key_is_structural_not_nominal() {
        // Same circuit built twice (generator is deterministic).
        let a = ModelKey::of(&generators::token_ring(4));
        let b = ModelKey::of(&generators::token_ring(4));
        assert_eq!(a, b);
        // A different model differs in every component.
        let c = ModelKey::of(&generators::mutex());
        assert_ne!(a.full, c.full);
        assert_ne!(a.bad_only, c.bad_only);
        assert_ne!(a.delta_only, c.delta_only);
    }

    #[test]
    fn dead_logic_does_not_perturb_the_key() {
        let clean = generators::bounded_counter(4, 9);
        let mut noisy = generators::bounded_counter(4, 9);
        {
            // Dead nodes shift raw AIG indices but stay outside every
            // cone — and an unregistered AIG input is not a PI binding.
            let aig = noisy.aig_mut();
            let x = aig.add_input().lit();
            let _dead = aig.and(x, !x);
        }
        assert_eq!(ModelKey::of(&clean), ModelKey::of(&noisy));
    }

    #[test]
    fn property_perturbation_moves_full_but_not_delta() {
        let base = generators::token_ring(4);
        let mut variant = generators::token_ring(4);
        let strengthened = {
            let bad = variant.bad();
            let guard = variant.latches()[0].var.lit();
            variant.aig_mut().and(bad, guard)
        };
        variant.set_bad(strengthened);
        let kb = ModelKey::of(&base);
        let kv = ModelKey::of(&variant);
        assert_ne!(kb.full, kv.full, "bad cone changed");
        assert_ne!(kb.bad_only, kv.bad_only);
        assert_eq!(kb.delta_only, kv.delta_only, "transition structure kept");
    }

    #[test]
    fn whole_run_round_trips_with_tiers() {
        // The gap model converges deep enough for IC3 to export lemmas.
        let net = generators::bounded_counter_gap(4, 6, 12);
        let key = ModelKey::of(&net);
        let mut cache = StructuralCache::new();
        assert!(cache.lookup_run(&key, "ic3").is_none());
        assert!(cache.seed_for(&key, "ic3").is_none());

        let run = Ic3::default().check(&net, &Budget::unlimited());
        assert!(run.verdict.is_safe());
        cache.record(&key, "ic3", &run);
        assert_eq!(cache.stats.runs_cached, 1);
        assert_eq!(cache.stats.lemma_sets_cached, 1);

        let (hit, tier) = cache.lookup_run(&key, "ic3").expect("tier-1 hit");
        assert_eq!(tier, CacheTier::WholeRun);
        assert_eq!(hit.verdict, run.verdict);
        // Engine-keyed: a different engine does not see the entry...
        assert!(cache.lookup_run(&key, "bmc").is_none());
        // ...but the engine-free lemma tier still serves IC3 under a
        // perturbed property (simulated here by asking for seeds only).
        assert!(cache.seed_for(&key, "ic3").is_some());
        assert!(cache.seed_for(&key, "bmc").is_none(), "ic3-only tier");
        assert_eq!(cache.stats.lookups, 3);
        assert_eq!(cache.stats.tier1_hits, 1);
        assert_eq!(cache.stats.tier3_hits, 1);
        assert_eq!(cache.stats.misses, 2);
        let json = cache.stats.to_json();
        assert!(json.contains("\"tier1_hits\":1"), "{json}");
    }

    /// A one-latch net failing in its initial state; `delta` picks the
    /// next-state function so variants share the bad cone but not the
    /// transition structure.
    fn depth0_bug(hold: bool) -> cbq_ckt::Network {
        let mut b = cbq_ckt::Network::builder("depth0");
        let s = b.add_latch(true);
        let next = if hold { s.lit() } else { !s.lit() };
        b.set_next(s, next);
        b.build(s.lit())
    }

    #[test]
    fn depth0_refutations_survive_delta_rewiring() {
        let net = depth0_bug(true);
        let run = cbq_mc::by_name("bmc")
            .expect("bmc")
            .check(&net, &Budget::unlimited());
        let trace = run.verdict.trace().expect("fails at reset");
        assert_eq!(trace.len(), 1, "fails at depth 0");

        let mut cache = StructuralCache::new();
        cache.record(&ModelKey::of(&net), "bmc", &run);

        let rewired = depth0_bug(false);
        let k2 = ModelKey::of(&rewired);
        assert_ne!(ModelKey::of(&net).full, k2.full, "δ cone changed");
        let (hit, tier) = cache.lookup_run(&k2, "bmc").expect("tier-2 hit");
        assert_eq!(tier, CacheTier::Depth0);
        assert_eq!(hit.verdict, run.verdict);
        assert!(cache.lookup_run(&k2, "kind").is_none(), "engine-keyed");
    }

    #[test]
    fn inconclusive_runs_are_not_cached() {
        let net = generators::token_ring(6);
        let key = ModelKey::of(&net);
        let mut cache = StructuralCache::new();
        let run = Ic3::default().check(&net, &Budget::unlimited().with_sat_checks(1));
        assert!(!run.verdict.is_conclusive());
        cache.record(&key, "ic3", &run);
        assert_eq!(cache.len(), 0);
        assert!(cache.lookup_run(&key, "ic3").is_none());
    }

    #[test]
    fn bindings_discriminate_reset_values() {
        let k1 = ModelKey::of(&generators::bounded_counter(4, 9));
        // Flip one latch's reset bit through the aag round-trip (latch
        // lines precede AND lines, so the first ` 0\n` is latch 0's
        // init field).
        let text = cbq_ckt::io::write_network(&generators::bounded_counter(4, 9));
        let flipped = text.replacen(" 0\n", " 1\n", 1);
        assert_ne!(flipped, text, "expected an init-0 latch line");
        let net2 = cbq_ckt::io::read_network(&flipped, "flipped").unwrap();
        let k2 = ModelKey::of(&net2);
        assert_ne!(k1.full, k2.full, "init bit must enter the key");
    }
}
