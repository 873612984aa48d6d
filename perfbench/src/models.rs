//! Benchmark models, their known answers, and the verdict oracle.
//!
//! Every model is a draw from one of the `cbq_ckt::generators` families,
//! and its expected verdict follows from how the family is built: no
//! answer comes from an engine under test. The unit tests pin each
//! construction rule against `cbq_mc::explicit::shortest_counterexample`
//! (breadth-first search over the explicit state space) on small
//! parameters.

use cbq_ckt::{generators, Network};
use cbq_mc::Verdict;

/// One parameterised draw from a generator family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Model {
    /// `counter_bug(n, k)`: unsafe at depth `k`.
    CounterBug { n: usize, k: u64 },
    /// `shift_ones(n)`: unsafe at depth `n`.
    ShiftOnes { n: usize },
    /// `bounded_counter_gap(n, bound, bad)`: safe.
    CounterGap { n: usize, bound: u64, bad: u64 },
    /// `shadowed_counter_gap(n, bound, bad, shadow)`: safe.
    ShadowedGap {
        n: usize,
        bound: u64,
        bad: u64,
        shadow: usize,
    },
    /// `arbiter(n)`: safe.
    Arbiter { n: usize },
    /// `arbiter_bug(n)`: unsafe at depth 1.
    ArbiterBug { n: usize },
    /// `fifo_ctrl(k)`: safe.
    Fifo { k: usize },
    /// `gray_counter(n)`: safe.
    Gray { n: usize },
    /// `token_ring(n)`: safe.
    Ring { n: usize },
    /// `token_ring_bug(n)`: unsafe at depth 3.
    RingBug { n: usize },
}

/// The known answer for a model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    /// The bad states are unreachable.
    Safe,
    /// The shortest counterexample fires `bad` at this 0-based step.
    Unsafe { depth: usize },
}

impl Model {
    /// Builds the network.
    pub fn build(self) -> Network {
        match self {
            Model::CounterBug { n, k } => generators::counter_bug(n, k),
            Model::ShiftOnes { n } => generators::shift_ones(n),
            Model::CounterGap { n, bound, bad } => generators::bounded_counter_gap(n, bound, bad),
            Model::ShadowedGap {
                n,
                bound,
                bad,
                shadow,
            } => generators::shadowed_counter_gap(n, bound, bad, shadow),
            Model::Arbiter { n } => generators::arbiter(n),
            Model::ArbiterBug { n } => generators::arbiter_bug(n),
            Model::Fifo { k } => generators::fifo_ctrl(k),
            Model::Gray { n } => generators::gray_counter(n),
            Model::Ring { n } => generators::token_ring(n),
            Model::RingBug { n } => generators::token_ring_bug(n),
        }
    }

    /// The verdict the construction guarantees.
    pub fn expected(self) -> Expected {
        match self {
            Model::CounterBug { k, .. } => Expected::Unsafe { depth: k as usize },
            Model::ShiftOnes { n } => Expected::Unsafe { depth: n },
            Model::ArbiterBug { .. } => Expected::Unsafe { depth: 1 },
            Model::RingBug { .. } => Expected::Unsafe { depth: 3 },
            Model::CounterGap { .. }
            | Model::ShadowedGap { .. }
            | Model::Arbiter { .. }
            | Model::Fifo { .. }
            | Model::Gray { .. }
            | Model::Ring { .. } => Expected::Safe,
        }
    }

    /// The structure a property variant keeps: models with equal
    /// transition keys differ only in their bad-state output.
    pub fn transition_key(self) -> Model {
        match self {
            Model::CounterGap { n, bound, .. } => Model::CounterGap { n, bound, bad: 0 },
            Model::ShadowedGap {
                n, bound, shadow, ..
            } => Model::ShadowedGap {
                n,
                bound,
                bad: 0,
                shadow,
            },
            Model::CounterBug { n, .. } => Model::CounterBug { n, k: 0 },
            other => other,
        }
    }
}

/// How one answer compares with the known one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Judgement {
    /// The verdict matches the known answer.
    Correct,
    /// Bounded, unknown, or an error: counts against `correct_frac`.
    Inconclusive,
    /// A verdict contradicting the known answer: fails the run.
    Wrong(String),
}

/// Whether the registry guarantees minimal counterexamples for `engine`.
pub fn minimal_cex(engine: &str) -> bool {
    cbq_mc::registry()
        .iter()
        .find(|spec| spec.name == engine)
        .is_some_and(|spec| spec.minimal_cex)
}

/// Judges a conclusive answer reduced to `Some(cex depth)` for unsafe
/// and `None` for safe.
pub fn judge_answer(expected: Expected, engine: &str, unsafe_at: Option<usize>) -> Judgement {
    match (expected, unsafe_at) {
        (Expected::Safe, None) => Judgement::Correct,
        (Expected::Safe, Some(d)) => Judgement::Wrong(format!("unsafe@{d} on a safe model")),
        (Expected::Unsafe { depth }, None) => {
            Judgement::Wrong(format!("safe on a model unsafe at depth {depth}"))
        }
        (Expected::Unsafe { depth }, Some(d)) if d < depth => {
            Judgement::Wrong(format!("cex depth {d} below the shortest possible {depth}"))
        }
        (Expected::Unsafe { depth }, Some(d)) if d != depth && minimal_cex(engine) => {
            Judgement::Wrong(format!(
                "minimal-cex engine `{engine}` reported depth {d}, shortest is {depth}"
            ))
        }
        (Expected::Unsafe { .. }, Some(_)) => Judgement::Correct,
    }
}

/// Judges an in-process verdict; every unsafe trace must replay on `net`.
pub fn judge(expected: Expected, engine: &str, verdict: &Verdict, net: &Network) -> Judgement {
    match verdict {
        Verdict::Safe { .. } => judge_answer(expected, engine, None),
        Verdict::Unsafe { trace } => {
            if !trace.validates(net) {
                return Judgement::Wrong("counterexample trace does not replay".to_string());
            }
            judge_answer(expected, engine, Some(trace.len() - 1))
        }
        Verdict::Bounded { .. } | Verdict::Unknown { .. } => Judgement::Inconclusive,
    }
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every draw on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_ckt::Trace;
    use cbq_mc::explicit::shortest_cex_depth;

    fn small_models() -> Vec<Model> {
        let mut models = vec![];
        for n in 2..=5 {
            for k in [1, 3, (1u64 << n) - 1] {
                models.push(Model::CounterBug { n, k });
            }
            models.push(Model::ShiftOnes { n });
            models.push(Model::Arbiter { n });
            models.push(Model::ArbiterBug { n });
            models.push(Model::Gray { n });
            models.push(Model::Ring { n });
            models.push(Model::CounterGap {
                n,
                bound: 2,
                bad: (1 << n) - 1,
            });
            models.push(Model::ShadowedGap {
                n,
                bound: 1,
                bad: 1,
                shadow: 3,
            });
        }
        for n in 4..=7 {
            models.push(Model::RingBug { n });
        }
        for k in 1..=2 {
            models.push(Model::Fifo { k });
        }
        models
    }

    #[test]
    fn construction_answers_match_explicit_search() {
        for model in small_models() {
            let net = model.build();
            let truth = shortest_cex_depth(&net, 12, 1 << 14);
            let want = match model.expected() {
                Expected::Safe => None,
                Expected::Unsafe { depth } => Some(depth),
            };
            assert_eq!(truth, want, "{model:?}");
        }
    }

    #[test]
    fn oracle_rejects_wrong_verdicts() {
        let model = Model::CounterBug { n: 4, k: 5 };
        let net = model.build();
        let good = cbq_mc::explicit::shortest_counterexample(&net, 8, 1 << 10).unwrap();
        let unsafe_run = Verdict::Unsafe {
            trace: good.clone(),
        };
        assert_eq!(
            judge(model.expected(), "bmc", &unsafe_run, &net),
            Judgement::Correct
        );
        // An injected safe verdict on an unsafe model.
        let safe = Verdict::Safe { iterations: 3 };
        assert!(matches!(
            judge(model.expected(), "ic3", &safe, &net),
            Judgement::Wrong(_)
        ));
        // A trace that never fires bad.
        let bogus = Verdict::Unsafe {
            trace: Trace::new(vec![vec![false]; 6]),
        };
        assert!(matches!(
            judge(model.expected(), "ic3", &bogus, &net),
            Judgement::Wrong(_)
        ));
        // A longer-than-minimal cex is fine from IC3, wrong from BMC.
        let mut steps = vec![vec![false]];
        steps.extend(good.inputs().iter().cloned());
        let long = Verdict::Unsafe {
            trace: Trace::new(steps),
        };
        assert_eq!(
            judge(model.expected(), "ic3", &long, &net),
            Judgement::Correct
        );
        assert!(matches!(
            judge(model.expected(), "bmc", &long, &net),
            Judgement::Wrong(_)
        ));
        // Unsafe reported on a safe model, and budget exhaustion.
        let ring = Model::Ring { n: 4 };
        assert!(matches!(
            judge_answer(ring.expected(), "portfolio", Some(2)),
            Judgement::Wrong(_)
        ));
        let bounded = Verdict::Unknown {
            reason: "gave up".to_string(),
        };
        assert_eq!(
            judge(ring.expected(), "bmc", &bounded, &ring.build()),
            Judgement::Inconclusive
        );
    }

    #[test]
    fn property_variants_share_a_transition_key() {
        let a = Model::CounterGap {
            n: 6,
            bound: 9,
            bad: 20,
        };
        let b = Model::CounterGap {
            n: 6,
            bound: 9,
            bad: 33,
        };
        assert_eq!(a.transition_key(), b.transition_key());
        let c = Model::CounterGap {
            n: 6,
            bound: 10,
            bad: 20,
        };
        assert_ne!(a.transition_key(), c.transition_key());
    }
}
