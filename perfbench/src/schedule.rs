//! Seeded workloads: which (engine, model) checks run, in which order.
//!
//! A umc workload is a cycle of rounds. A round runs every item of the
//! workload's catalogue once; an item is one engine over `ROUNDS`
//! parameter draws that cost within a small factor of each other, and
//! the seed permutes each item's draws across the rounds. A full cycle
//! therefore holds the same multiset of checks for every seed, and since
//! each item's draws cost about the same, so does any run of whole
//! rounds: `checks_per_s` and the percentiles do not move with the
//! seed's luck. The catalogue lists items cheapest first, from about
//! 0.05 ms to 300 ms per check in small steps, so costs spread roughly
//! log-uniformly with no gap for `check_ms_p50` or `check_ms_p90` to
//! fall into. Within a round the checks alternate across five cost
//! classes, so a time window that ends mid-round still sees the whole mix.

use std::collections::{HashMap, HashSet};

use crate::models::{Model, Rng};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Circuit-based quantification against its BDD baseline.
    UmcQuant,
    /// The SAT-based engines, where the quantifier never runs.
    UmcSat,
    /// Regression traffic to an in-process `cbq serve`.
    ServeRegress,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] = [Workload::UmcQuant, Workload::UmcSat, Workload::ServeRegress];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UmcQuant => "umc-quant",
            Workload::UmcSat => "umc-sat",
            Workload::ServeRegress => "serve-regress",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One (engine, model) request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Check {
    /// Registry engine name.
    pub engine: &'static str,
    /// The model to check.
    pub model: Model,
}

/// Rounds per umc cycle; every catalogue item lists this many draws.
pub const ROUNDS: usize = 10;
/// Cost classes a umc round alternates across.
const CLASSES: usize = 5;

/// One engine over `ROUNDS` parameter draws that cost within a small
/// factor of each other.
struct Item {
    engine: &'static str,
    models: Vec<Model>,
}

fn item(engine: &'static str, models: impl IntoIterator<Item = Model>) -> Item {
    let models: Vec<Model> = models.into_iter().collect();
    assert_eq!(
        models.len(),
        ROUNDS,
        "{engine} item must list {ROUNDS} draws"
    );
    Item { engine, models }
}

/// `ROUNDS` values cycling through `values`.
fn cycle<T: Copy>(values: &[T]) -> impl Iterator<Item = T> + '_ {
    values.iter().copied().cycle().take(ROUNDS)
}

fn ring(ns: impl IntoIterator<Item = usize>) -> Vec<Model> {
    ns.into_iter().map(|n| Model::Ring { n }).collect()
}

fn ring_bug(ns: impl IntoIterator<Item = usize>) -> Vec<Model> {
    ns.into_iter().map(|n| Model::RingBug { n }).collect()
}

fn arb(ns: impl IntoIterator<Item = usize>) -> Vec<Model> {
    ns.into_iter().map(|n| Model::Arbiter { n }).collect()
}

fn arb_bug(ns: impl IntoIterator<Item = usize>) -> Vec<Model> {
    ns.into_iter().map(|n| Model::ArbiterBug { n }).collect()
}

fn shift(ns: impl IntoIterator<Item = usize>) -> Vec<Model> {
    ns.into_iter().map(|n| Model::ShiftOnes { n }).collect()
}

fn gray(ns: impl IntoIterator<Item = usize>) -> Vec<Model> {
    ns.into_iter().map(|n| Model::Gray { n }).collect()
}

fn fifo(ks: impl IntoIterator<Item = usize>) -> Vec<Model> {
    ks.into_iter().map(|k| Model::Fifo { k }).collect()
}

fn cnt_bug(n: usize, ks: impl IntoIterator<Item = u64>) -> Vec<Model> {
    ks.into_iter().map(|k| Model::CounterBug { n, k }).collect()
}

fn gap(n: usize, bound: u64, bads: impl IntoIterator<Item = u64>) -> Vec<Model> {
    bads.into_iter()
        .map(|bad| Model::CounterGap { n, bound, bad })
        .collect()
}

fn shadowed(
    n: usize,
    bound: u64,
    bad: u64,
    shadows: impl IntoIterator<Item = usize>,
) -> Vec<Model> {
    shadows
        .into_iter()
        .map(|shadow| Model::ShadowedGap {
            n,
            bound,
            bad,
            shadow,
        })
        .collect()
}

/// The umc-quant catalogue, cheapest item first: `circuit`, `forward`
/// and `bdd`. `forward` gets only the families it closes (it runs out of
/// time on larger `gray_counter`, `fifo_ctrl` and `shift_ones`).
fn quant_items() -> Vec<Item> {
    vec![
        item("bdd", ring(cycle(&[6, 7, 8, 9, 10]))),
        item("bdd", shift(cycle(&[8, 9, 10, 11, 12, 13]))),
        item("bdd", gray(cycle(&[6, 7, 8, 9, 10, 11, 12, 13]))),
        item("bdd", cnt_bug(6, (0..10).map(|i| 4 + 3 * i))),
        item("circuit", ring(12..22)),
        item("circuit", gray(cycle(&[5, 6, 7, 8]))),
        item("circuit", arb_bug(cycle(&[5, 6, 7, 8]))),
        item("bdd", ring(cycle(&[20, 22, 24, 26, 28, 30]))),
        item("circuit", fifo(cycle(&[2, 3, 4, 5]))),
        item("forward", ring_bug(cycle(&[4, 5, 6]))),
        item("bdd", arb(cycle(&[8, 9, 10]))),
        item("circuit", shift(cycle(&[8, 9, 10, 11]))),
        item("circuit", gray(cycle(&[9, 10, 11, 12, 13]))),
        item("forward", arb(cycle(&[6, 7]))),
        item("circuit", ring_bug(cycle(&[5, 6, 7, 8, 9]))),
        item("forward", gap(5, 10, cycle(&[16, 18, 20, 22, 24]))),
        item("circuit", arb(cycle(&[9, 10, 11]))),
        item("forward", ring_bug(cycle(&[8, 9, 10]))),
        item("bdd", arb_bug(cycle(&[10, 11]))),
        item("forward", cnt_bug(6, (0..10).map(|i| 10 + i))),
        item("forward", ring(cycle(&[8, 9]))),
        item("circuit", shift(cycle(&[13, 14, 15, 16]))),
        item("forward", arb(cycle(&[9, 10]))),
        item("circuit", arb(cycle(&[12, 13]))),
        item("circuit", cnt_bug(5, (0..10).map(|i| 10 + i))),
        item("forward", cnt_bug(7, (0..10).map(|i| 20 + i))),
        item("circuit", gap(5, 4, (0..10).map(|i| 20 + i / 2))),
        item("forward", cnt_bug(8, (0..10).map(|i| 30 + i))),
        item("circuit", cnt_bug(6, cycle(&[10, 11, 12, 13, 14]))),
        item("circuit", gap(6, 20, cycle(&[30, 31, 32, 33, 34]))),
        item("forward", ring(cycle(&[12, 13, 14]))),
        item("circuit", cnt_bug(6, cycle(&[18, 19, 20, 21, 22]))),
    ]
}

/// The umc-sat catalogue, cheapest item first: `ic3`, `bmc`, `kind` and
/// `itp`. `bmc` sees only bugs within its depth cap of 64.
fn sat_items() -> Vec<Item> {
    vec![
        item("bmc", ring_bug(4..14)),
        item("bmc", arb_bug(4..14)),
        item("bmc", shift((0..10).map(|i| 20 + 4 * i))),
        item("ic3", arb_bug(4..14)),
        item("ic3", shift(cycle(&[4, 5, 6, 7, 8, 9]))),
        item("kind", arb_bug(4..14)),
        item("kind", arb(cycle(&[4, 5, 6, 7, 8]))),
        item("bmc", cnt_bug(6, cycle(&[4, 5, 6, 7, 8, 9, 10]))),
        item("ic3", ring_bug(cycle(&[4, 5, 6, 7, 8]))),
        item("kind", shift(cycle(&[6, 7, 8, 9, 10]))),
        item("itp", arb_bug((0..10).map(|i| 8 + 2 * i))),
        item("ic3", cnt_bug(6, cycle(&[6, 7, 8, 9, 10, 11, 12]))),
        item("kind", gap(5, 10, cycle(&[14, 15, 16, 17, 18]))),
        item("ic3", ring_bug(cycle(&[10, 11, 12, 13]))),
        item("kind", shift(cycle(&[12, 13, 14, 15, 16]))),
        item("ic3", arb(cycle(&[6, 7]))),
        item("kind", arb(cycle(&[11, 12, 13]))),
        item("ic3", cnt_bug(8, (0..10).map(|i| 15 + i))),
        item("itp", shift(cycle(&[10, 11, 12, 13]))),
        item("kind", gap(6, 20, cycle(&[30, 31, 32, 33, 34, 35]))),
        item("bmc", cnt_bug(8, (0..10).map(|i| 20 + i))),
        item("ic3", shadowed(6, 20, 40, (0..10).map(|i| 8 + 3 * i))),
        item("ic3", arb(cycle(&[9, 10]))),
        item("itp", cnt_bug(6, cycle(&[6, 7, 8]))),
        item("kind", cnt_bug(6, cycle(&[12, 13, 14, 15, 16, 17, 18]))),
        item("ic3", gap(7, 50, (0..10).map(|i| 75 + 2 * i))),
        item("kind", shadowed(6, 20, 40, (0..10).map(|i| 16 + 3 * i))),
        item("bmc", cnt_bug(8, (0..10).map(|i| 38 + i))),
        item("itp", cnt_bug(6, cycle(&[10, 11, 12]))),
        item("itp", gap(6, 20, cycle(&[31, 32, 33]))),
        item("ic3", shadowed(7, 50, 100, (0..10).map(|i| 40 + 2 * i))),
        item("kind", gap(7, 50, cycle(&[88, 89, 90, 91, 92, 93, 94, 95]))),
        item("itp", cnt_bug(8, cycle(&[14, 15, 16, 17, 18]))),
        item("itp", gap(6, 20, cycle(&[35, 36, 37, 38]))),
    ]
}

/// One umc cycle: `ROUNDS` rounds of the workload's catalogue. The timed
/// phase repeats the cycle; nothing carries over between checks.
pub fn umc_schedule(workload: Workload, seed: u64) -> Vec<Check> {
    let items = match workload {
        Workload::UmcQuant => quant_items(),
        Workload::UmcSat => sat_items(),
        Workload::ServeRegress => panic!("serve-regress has no umc schedule"),
    };
    let mut rng = Rng::new(seed, 1);
    // Each item's draws in a seeded order; round r takes the r-th.
    let mut draws: Vec<Vec<Model>> = items
        .iter()
        .map(|it| {
            let mut d = it.models.clone();
            rng.shuffle(&mut d);
            d
        })
        .collect();
    // Items are listed cheapest first; split them into CLASSES cost
    // classes and alternate across classes within each round.
    let class_of = |i: usize| i * CLASSES / items.len();
    let mut out = Vec::with_capacity(items.len() * ROUNDS);
    for _ in 0..ROUNDS {
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); CLASSES];
        for i in 0..items.len() {
            by_class[class_of(i)].push(i);
        }
        for members in &mut by_class {
            rng.shuffle(members);
        }
        let mut order: Vec<usize> = (0..CLASSES).collect();
        while by_class.iter().any(|m| !m.is_empty()) {
            rng.shuffle(&mut order);
            for &c in &order {
                if let Some(i) = by_class[c].pop() {
                    out.push(Check {
                        engine: items[i].engine,
                        model: draws[i].pop().expect("one draw per round"),
                    });
                }
            }
        }
    }
    out
}

/// Requests per serve-regress round, by kind. First-seen requests (the
/// misses and the base run) are 4 of 20: the 20% first-seen share of the
/// traffic this workload was sized on. No request log or published hit
/// rate backs the other shares; they are synthetic.
pub const SERVE_MISSES: usize = 3; // first-seen portfolio models
pub const SERVE_BASES: usize = 1; // first ic3 run on a new transition structure
pub const SERVE_VARIANTS: usize = 4; // ic3 property variants: tier-3 warm starts
/// Exact resubmits (tier-1 replays) of library models to `portfolio`.
pub const SERVE_LIBRARY_REPLAYS: usize = 10;
/// Exact resubmits of `ic3` requests.
pub const SERVE_IC3_REPLAYS: usize = 2;
/// Requests in one serve-regress round.
pub const SERVE_ROUND: usize =
    SERVE_MISSES + SERVE_BASES + SERVE_VARIANTS + SERVE_LIBRARY_REPLAYS + SERVE_IC3_REPLAYS;

/// How a request should meet the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// First-seen (model, engine): a cold engine run.
    Miss,
    /// An `ic3` property variant of a cached transition structure.
    WarmStart,
    /// An exact resubmit.
    Replay,
}

/// One request of the serve schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index into [`ServeSchedule::models`].
    pub model: usize,
    /// Registry engine name.
    pub engine: &'static str,
    /// What the schedule intends the cache to do.
    pub kind: Kind,
}

/// A serve-regress schedule: the distinct models with their AAG text,
/// an untimed history that puts the resubmitted library and the first
/// ic3 structures in the cache, and the timed rounds.
pub struct ServeSchedule {
    /// Distinct models, each with its AAG serialisation.
    pub models: Vec<(Model, String)>,
    /// Requests sent before timing starts.
    pub history: Vec<Request>,
    /// The timed requests, `SERVE_ROUND` per round.
    pub timed: Vec<Request>,
}

/// Draws without replacement from a pool, refilling with a fresh
/// shuffle of the pool once every member has been drawn, so each member
/// comes up equally often whatever the seed.
#[derive(Clone, Default)]
struct Bag {
    left: Vec<usize>,
}

impl Bag {
    fn draw(&mut self, rng: &mut Rng, pool: &[usize]) -> usize {
        if self.left.is_empty() {
            self.left = pool.to_vec();
            rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("non-empty pool")
    }
}

/// Shuffle-bags over each cost-bearing parameter's range, so every
/// value of it comes up equally often whatever the seed.
#[derive(Default)]
struct Levels {
    bags: HashMap<&'static str, Bag>,
}

impl Levels {
    fn draw(&mut self, rng: &mut Rng, name: &'static str, lo: u64, hi: u64) -> u64 {
        let pool: Vec<usize> = (lo as usize..=hi as usize).collect();
        self.bags.entry(name).or_default().draw(rng, &pool) as u64
    }
}

/// A first-seen model for the portfolio, whose first conclusive member
/// (bmc or kind) settles it in milliseconds: family `0` is a gap
/// counter, `1` a counter bug, `2` a gap counter with a shadow block.
/// These families have room for thousands of distinct models.
fn draw_small(rng: &mut Rng, lv: &mut Levels, family: usize) -> Model {
    match family {
        0 => {
            let n = lv.draw(rng, "gap.n", 6, 8) as usize;
            let bound = rng.range(3, (1 << n) - 32);
            Model::CounterGap {
                n,
                bound,
                bad: bound + lv.draw(rng, "gap.gap", 0, 30),
            }
        }
        1 => Model::CounterBug {
            n: rng.range(5, 44) as usize,
            k: lv.draw(rng, "bug.k", 2, 31),
        },
        _ => draw_structure(rng, lv),
    }
}

/// A new transition structure for ic3: a gap counter with a shadow block.
fn draw_structure(rng: &mut Rng, lv: &mut Levels) -> Model {
    let n = lv.draw(rng, "shadowed.n", 5, 7) as usize;
    let bound = rng.range(4, (1 << n) / 2);
    Model::ShadowedGap {
        n,
        bound,
        bad: (bound + lv.draw(rng, "shadowed.gap", 0, 20)).min((1 << n) - 1),
        shadow: lv.draw(rng, "shadowed.shadow", 2, 16) as usize,
    }
}

/// A property variant of `structure`: same δ, another bad value.
fn draw_variant(rng: &mut Rng, lv: &mut Levels, structure: Model) -> Model {
    match structure {
        Model::ShadowedGap {
            n, bound, shadow, ..
        } => Model::ShadowedGap {
            n,
            bound,
            bad: (bound + lv.draw(rng, "variant.gap", 6, 12)).min((1 << n) - 1),
            shadow,
        },
        other => panic!("no property variants for {other:?}"),
    }
}

/// Models in the resubmitted library.
const LIBRARY: usize = 36;

/// The resubmitted library: token rings, buggy token rings and buggy
/// arbiters whose size parameter steps geometrically from 14 to 40, so
/// their AAG text spreads log-uniformly from about 2 KB to 22 KB with no
/// gap between neighbours. Request cost grows smoothly with size
/// (`Json::parse` is quadratic in the line), so replay latencies have no
/// cliff for a percentile to sit on.
fn library() -> Vec<Model> {
    (0..LIBRARY)
        .map(|i| {
            let n = 14.0 * (40.0f64 / 14.0).powf(i as f64 / (LIBRARY - 1) as f64);
            let n = n.round() as usize;
            match i % 3 {
                0 => Model::Ring { n },
                1 => Model::RingBug { n },
                _ => Model::ArbiterBug { n },
            }
        })
        .collect()
}

struct ServeDraw {
    rng: Rng,
    models: Vec<(Model, String)>,
    seen: HashSet<Model>,
    /// Indices of the library models, and of the sent ic3 requests.
    library: Vec<usize>,
    ic3_sent: Vec<usize>,
    bags: [Bag; 2],
    levels: Levels,
    structures: Vec<Model>,
}

impl ServeDraw {
    fn add(&mut self, model: Model) -> usize {
        let fresh = self.seen.insert(model);
        assert!(fresh, "{model:?} drawn twice");
        let aag = cbq_ckt::io::write_network(&model.build());
        self.models.push((model, aag));
        self.models.len() - 1
    }

    fn fresh(&mut self, mut draw: impl FnMut(&mut Rng, &mut Levels) -> Model) -> usize {
        for _ in 0..10_000 {
            let model = draw(&mut self.rng, &mut self.levels);
            if !self.seen.contains(&model) {
                return self.add(model);
            }
        }
        panic!("no unseen model left to draw");
    }

    fn send(&mut self, out: &mut Vec<Request>, model: usize, engine: &'static str, kind: Kind) {
        if kind != Kind::Replay && engine == "ic3" {
            self.ic3_sent.push(model);
        }
        out.push(Request {
            model,
            engine,
            kind,
        });
    }

    /// An ic3 base run on a transition structure not used before, so
    /// no cached lemmas can warm-start it.
    fn new_structure(&mut self, out: &mut Vec<Request>) {
        loop {
            let model = draw_structure(&mut self.rng, &mut self.levels);
            let key = model.transition_key();
            if !self.structures.contains(&key) && !self.seen.contains(&model) {
                self.structures.push(key);
                let m = self.add(model);
                self.send(out, m, "ic3", Kind::Miss);
                return;
            }
        }
    }

    /// Resends a library model to `portfolio`, or a sent ic3 request.
    fn replay(&mut self, out: &mut Vec<Request>, engine: &'static str) {
        let (bag, pool) = if engine == "ic3" {
            (&mut self.bags[1], &self.ic3_sent)
        } else {
            (&mut self.bags[0], &self.library)
        };
        let model = bag.draw(&mut self.rng, pool);
        self.send(out, model, engine, Kind::Replay);
    }
}

/// Builds the serve-regress schedule with `rounds` timed rounds.
///
/// Each round is `SERVE_MISSES` first-seen portfolio models (one per
/// [`draw_small`] family), one ic3 run on a new transition structure,
/// `SERVE_VARIANTS` ic3 property variants of recent structures, and
/// exact resubmits: `SERVE_LIBRARY_REPLAYS` library models to
/// `portfolio` plus `SERVE_IC3_REPLAYS` ic3 requests, shuffled.
/// Resubmits come from shuffle-bags, so every round holds the same mix
/// and every library model recurs equally often, whatever the seed.
/// Every model is new when first sent, so a miss is a miss.
pub fn serve_schedule(seed: u64, rounds: usize) -> ServeSchedule {
    let mut b = ServeDraw {
        rng: Rng::new(seed, 2),
        models: Vec::new(),
        seen: HashSet::new(),
        library: Vec::new(),
        ic3_sent: Vec::new(),
        bags: [Bag::default(), Bag::default()],
        levels: Levels::default(),
        structures: Vec::new(),
    };
    let mut history = Vec::new();
    for model in library() {
        let m = b.add(model);
        b.library.push(m);
        b.send(&mut history, m, "portfolio", Kind::Miss);
    }
    for family in 0..SERVE_MISSES {
        let m = b.fresh(|rng, lv| draw_small(rng, lv, family));
        b.send(&mut history, m, "portfolio", Kind::Miss);
    }
    for _ in 0..4 {
        b.new_structure(&mut history);
    }
    let mut timed = Vec::with_capacity(rounds * SERVE_ROUND);
    for _ in 0..rounds {
        let mut round = Vec::with_capacity(SERVE_ROUND);
        // Replays draw from what was sent before this round, so every
        // one of them is a genuine resubmit whatever the shuffle does.
        for _ in 0..SERVE_LIBRARY_REPLAYS {
            b.replay(&mut round, "portfolio");
        }
        for _ in 0..SERVE_IC3_REPLAYS {
            b.replay(&mut round, "ic3");
        }
        for family in 0..SERVE_MISSES {
            let m = b.fresh(|rng, lv| draw_small(rng, lv, family));
            b.send(&mut round, m, "portfolio", Kind::Miss);
        }
        for _ in 0..SERVE_VARIANTS {
            let recent = b.structures[b.structures.len().saturating_sub(8)..].to_vec();
            let m = b.fresh(|rng, lv| {
                let structure = recent[rng.below(recent.len())];
                draw_variant(rng, lv, structure)
            });
            b.send(&mut round, m, "ic3", Kind::WarmStart);
        }
        // Variants above only target structures whose base run was sent
        // in an earlier round, so their lemmas are already cached.
        for _ in 0..SERVE_BASES {
            b.new_structure(&mut round);
        }
        b.rng.shuffle(&mut round);
        timed.extend(round);
    }
    ServeSchedule {
        models: b.models,
        history,
        timed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn umc_schedules_repeat_per_seed_and_keep_the_mix_across_seeds() {
        for w in [Workload::UmcQuant, Workload::UmcSat] {
            let a = umc_schedule(w, 1);
            assert_eq!(a, umc_schedule(w, 1), "{w:?} not deterministic");
            let b = umc_schedule(w, 2);
            assert_ne!(a, b, "{w:?} ignores the seed");
            let key = |c: &Check| format!("{}/{:?}", c.engine, c.model);
            let mut ka: Vec<String> = a.iter().map(key).collect();
            let mut kb: Vec<String> = b.iter().map(key).collect();
            ka.sort();
            kb.sort();
            assert_eq!(ka, kb, "{w:?}: a cycle must hold the same checks");
        }
    }

    #[test]
    fn bmc_never_sees_a_safe_model_or_a_bug_past_its_cap() {
        for c in umc_schedule(Workload::UmcSat, 3) {
            if c.engine == "bmc" {
                match c.model.expected() {
                    crate::models::Expected::Unsafe { depth } => assert!(depth <= 64),
                    crate::models::Expected::Safe => panic!("bmc on safe {:?}", c.model),
                }
            }
        }
    }

    #[test]
    fn serve_schedule_is_deterministic_and_keeps_its_shares() {
        let a = serve_schedule(5, 30);
        let b = serve_schedule(5, 30);
        assert_eq!(a.timed, b.timed);
        assert_eq!(a.history, b.history);
        assert!(a.models.iter().zip(&b.models).all(|(x, y)| x == y));
        assert_ne!(serve_schedule(6, 30).timed, a.timed);
        assert_eq!(a.timed.len(), 30 * SERVE_ROUND);
        // A fifth of the traffic is first-seen.
        assert_eq!(5 * (SERVE_MISSES + SERVE_BASES), SERVE_ROUND);
        let count = |k: Kind| a.timed.iter().filter(|r| r.kind == k).count();
        assert_eq!(count(Kind::Miss), 30 * (SERVE_MISSES + SERVE_BASES));
        assert_eq!(count(Kind::WarmStart), 30 * SERVE_VARIANTS);
        assert_eq!(
            count(Kind::Replay),
            30 * (SERVE_LIBRARY_REPLAYS + SERVE_IC3_REPLAYS)
        );
        // Misses and warm starts are first sends; replays resend.
        let mut sent = HashSet::new();
        for r in a.history.iter().chain(&a.timed) {
            let first = sent.insert((r.model, r.engine));
            assert_eq!(first, r.kind != Kind::Replay, "{r:?}");
        }
        // Request lines run from under 1 KB to tens of KB, and no two
        // neighbouring sizes of resubmitted library models are more than
        // 25% apart.
        let len = |r: &Request| a.models[r.model].1.len();
        assert!(a.timed.iter().any(|r| len(r) < 1_000));
        let mut sizes: Vec<usize> = a
            .timed
            .iter()
            .filter(|r| r.kind == Kind::Replay && r.engine == "portfolio")
            .map(len)
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        assert_eq!(sizes.len(), LIBRARY);
        assert!(sizes[LIBRARY - 1] > 20_000, "{sizes:?}");
        assert!(sizes.windows(2).all(|w| w[1] * 4 <= w[0] * 5), "{sizes:?}");
    }
}
