//! The unified engine API: the [`Engine`] trait, resource [`Budget`]s,
//! and the name-based engine registry.
//!
//! Every model checker in this crate — circuit-based and BDD
//! reachability in either [`Direction`], BMC, k-induction, IC3/PDR, and
//! the [`crate::Portfolio`] combinator — implements the same polymorphic
//! entry point:
//!
//! ```text
//! fn check(&self, net: &Network, budget: &Budget) -> McRun
//! ```
//!
//! A [`Budget`] carries optional step, node, SAT-check, and wall-clock
//! limits; exhausting any of them yields [`Verdict::Bounded`] — the
//! paper's "abort on growth budget" philosophy lifted from the
//! quantification kernel to whole traversals. Engines are constructible
//! by registry name (`<dyn Engine>::by_name("circuit")`), which is what
//! the CLI, the benchmark harness, and the cross-engine tests dispatch
//! through.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbq_ckt::Network;
use cbq_core::VarOrder;

use crate::bdd_umc::BddUmc;
use crate::bmc::Bmc;
use crate::circuit_umc::CircuitUmc;
use crate::ic3::{GenMode, Ic3};
use crate::induction::KInduction;
use crate::itp::Itp;
use crate::portfolio::Portfolio;
use crate::stateset::PartitionCount;
use crate::sweep::SweepConfig as StateSweepConfig;
use crate::verdict::{McRun, Resource, Verdict};

/// Resource limits for one [`Engine::check`] call.
///
/// All limits are optional; [`Budget::unlimited`] (also `Default`)
/// imposes none. A limit of zero is legal and forces an immediate
/// [`Verdict::Bounded`] — engines must never hang on a tiny budget.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum engine steps: fixpoint iterations, BMC depth frames, or
    /// induction depths, depending on the engine.
    pub max_steps: Option<usize>,
    /// Maximum nodes in the working representation (AIG or BDD).
    pub max_nodes: Option<usize>,
    /// Maximum assumption-based SAT checks.
    pub max_sat_checks: Option<u64>,
    /// Wall-clock deadline, relative to the start of the call.
    pub timeout: Option<Duration>,
    /// Cooperative cancellation flag, shared with whoever may decide the
    /// run's result is no longer needed (the parallel [`crate::Portfolio`]
    /// raises a loser's flag the moment a sibling concludes). Checked by
    /// [`Meter::exceeded`] alongside the limits; a cancelled run returns
    /// [`Verdict::Unknown`], never a conclusive answer.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// Budget equality compares the four limits only: the cancel flag is a
/// runtime channel, not a limit, and two budgets that differ only in
/// their flag describe the same resource envelope.
impl PartialEq for Budget {
    fn eq(&self, other: &Budget) -> bool {
        self.max_steps == other.max_steps
            && self.max_nodes == other.max_nodes
            && self.max_sat_checks == other.max_sat_checks
            && self.timeout == other.timeout
    }
}

impl Eq for Budget {}

impl Budget {
    /// No limits at all.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps engine steps (iterations / depth).
    pub fn with_steps(mut self, steps: usize) -> Budget {
        self.max_steps = Some(steps);
        self
    }

    /// Caps working-representation nodes.
    pub fn with_nodes(mut self, nodes: usize) -> Budget {
        self.max_nodes = Some(nodes);
        self
    }

    /// Caps SAT checks.
    pub fn with_sat_checks(mut self, checks: u64) -> Budget {
        self.max_sat_checks = Some(checks);
        self
    }

    /// Sets a wall-clock deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Budget {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches a shared cooperative-cancellation flag.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Budget {
        self.cancel = Some(cancel);
        self
    }
}

/// A running budget: captures the start instant and answers "is any
/// limit exhausted?" at engine-chosen safepoints.
#[derive(Clone, Debug)]
pub struct Meter {
    start: Instant,
    budget: Budget,
}

impl Meter {
    /// Starts metering `budget` now.
    pub fn start(budget: &Budget) -> Meter {
        Meter {
            start: Instant::now(),
            budget: budget.clone(),
        }
    }

    /// Time since the meter started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The absolute wall-clock deadline of this run, if the budget set a
    /// timeout — engines hand it to the quantification/sweep kernels for
    /// cooperative cancellation.
    pub fn deadline(&self) -> Option<Instant> {
        self.budget.timeout.map(|t| self.start + t)
    }

    /// The budget's node cap, handed to partition workers as their
    /// per-partition quantification node limit.
    pub fn node_limit(&self) -> Option<usize> {
        self.budget.max_nodes
    }

    /// The budget's cooperative-cancellation flag, if any — engines hand
    /// it to the quantification/sweep kernels alongside the deadline.
    pub fn cancel_flag(&self) -> Option<Arc<AtomicBool>> {
        self.budget.cancel.clone()
    }

    /// Whether the budget's cancel flag has been raised.
    pub fn cancelled(&self) -> bool {
        self.budget
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Checks the spend against every limit; `Some(Bounded)` as soon as
    /// one is exhausted — or `Some(Unknown)` if the budget's shared
    /// cancel flag has been raised, which outranks the limits: the run's
    /// answer is no longer wanted, so it must not spend more work and
    /// must not pretend a resource ran out. `steps` counts *completed*
    /// units, so a limit of `k` permits exactly `k` units and trips
    /// before the `k+1`-th.
    pub fn exceeded(&self, steps: usize, nodes: usize, sat_checks: u64) -> Option<Verdict> {
        if self.cancelled() {
            return Some(Verdict::Unknown {
                reason: "cancelled by a concurrent winner".to_string(),
            });
        }
        let trip = |resource, limit| Some(Verdict::Bounded { resource, limit });
        match self.budget.max_steps {
            Some(limit) if steps >= limit => return trip(Resource::Steps, limit as u64),
            _ => {}
        }
        match self.budget.max_nodes {
            Some(limit) if nodes > limit => return trip(Resource::Nodes, limit as u64),
            _ => {}
        }
        match self.budget.max_sat_checks {
            Some(limit) if sat_checks >= limit => return trip(Resource::SatChecks, limit),
            _ => {}
        }
        match self.budget.timeout {
            Some(limit) if self.start.elapsed() >= limit => {
                return trip(Resource::WallClock, limit.as_millis() as u64)
            }
            _ => {}
        }
        None
    }
}

/// The caller's own limit on `resource`. Delegates are only ever bounded
/// on axes the caller budgeted, so this is `Some` in practice.
fn caller_limit(budget: &Budget, resource: Resource) -> Option<u64> {
    match resource {
        Resource::Steps => budget.max_steps.map(|s| s as u64),
        Resource::Nodes => budget.max_nodes.map(|s| s as u64),
        Resource::SatChecks => budget.max_sat_checks,
        Resource::WallClock => budget.timeout.map(|t| t.as_millis() as u64),
    }
}

/// Rewrites a delegate's `Bounded` verdict to cite the caller's own limit:
/// a delegate (a portfolio member, interpolation's BMC run) sees what is
/// left of `budget`, but the caller set it.
pub(crate) fn cite_caller(budget: &Budget, verdict: Verdict) -> Verdict {
    match verdict {
        Verdict::Bounded { resource, limit } => Verdict::Bounded {
            resource,
            limit: caller_limit(budget, resource).unwrap_or(limit),
        },
        other => other,
    }
}

/// The common interface of every unbounded model checker in this crate.
///
/// Implementations must honour `budget` at every iteration boundary:
/// a zero budget returns [`Verdict::Bounded`] without doing unbounded
/// work, never hangs. Engines are `Send + Sync` — a check borrows the
/// engine and the network immutably, so the parallel portfolio can run
/// members from scoped worker threads.
pub trait Engine: Send + Sync {
    /// The engine's registry name (`"circuit"`, `"bmc"`, …).
    fn name(&self) -> &'static str;

    /// Model-checks `net` within `budget`.
    fn check(&self, net: &Network, budget: &Budget) -> McRun;
}

/// Traversal direction of the reachability engines ([`CircuitUmc`],
/// [`BddUmc`]) and of the state sets they traverse.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Direction {
    /// Backward from the bad states (the paper's direction).
    #[default]
    Backward,
    /// Forward from the initial states.
    Forward,
}

/// A tuning-aware constructor: builds an engine with [`EngineTuning`]
/// applied (see [`EngineSpec::tune`]).
pub type TunedBuild = fn(&EngineTuning) -> Box<dyn Engine>;

/// A registry entry: metadata plus a default-configuration constructor.
pub struct EngineSpec {
    /// Registry name, accepted by [`by_name`] and `cbq check --engine`.
    pub name: &'static str,
    /// One-line description for `cbq engines` and `--help`.
    pub summary: &'static str,
    /// Whether the engine settles every property given enough budget
    /// (BMC, for one, can only refute).
    pub complete: bool,
    /// Whether reported counterexamples are guaranteed minimal-cex.
    pub minimal_cex: bool,
    /// Builds the engine in its default configuration.
    pub build: fn() -> Box<dyn Engine>,
    /// Builds the engine with [`EngineTuning`] applied, for engines that
    /// honour it (`None` for engines with no quantifier or sweep to
    /// tune). Keeping the hook on the spec means the registry is the
    /// single source of which engines are tunable.
    pub tune: Option<TunedBuild>,
}

/// Every registered engine, in presentation order.
pub fn registry() -> &'static [EngineSpec] {
    const REGISTRY: &[EngineSpec] = &[
        EngineSpec {
            name: "circuit",
            summary: "backward reachability on partitioned AIG state sets (the paper's engine)",
            complete: true,
            minimal_cex: true,
            build: || Box::new(CircuitUmc::default()),
            tune: Some(|tuning| tuning.circuit(CircuitUmc::default())),
        },
        EngineSpec {
            name: "forward",
            summary: "forward reachability with circuit-based image computation",
            complete: true,
            minimal_cex: true,
            build: || Box::new(CircuitUmc::forward()),
            tune: Some(|tuning| tuning.circuit(CircuitUmc::forward())),
        },
        EngineSpec {
            name: "bdd",
            summary: "backward BDD reachability (the canonical baseline)",
            complete: true,
            minimal_cex: true,
            build: || Box::new(BddUmc::default()),
            tune: None,
        },
        EngineSpec {
            name: "bdd-forward",
            summary: "forward BDD reachability over a monolithic transition relation",
            complete: true,
            minimal_cex: true,
            build: || {
                Box::new(BddUmc {
                    direction: Direction::Forward,
                    ..BddUmc::default()
                })
            },
            tune: None,
        },
        EngineSpec {
            name: "bmc",
            summary: "bounded model checking (refutation only)",
            complete: false,
            minimal_cex: true,
            build: || Box::new(Bmc::default()),
            tune: None,
        },
        EngineSpec {
            name: "kind",
            summary: "k-induction with simple-path strengthening",
            complete: true,
            minimal_cex: true,
            build: || Box::new(KInduction::default()),
            tune: None,
        },
        EngineSpec {
            name: "ic3",
            summary: "IC3/PDR: clause frames with relative-induction generalization",
            complete: true,
            // IC3 counterexamples are genuine but need not be minimal.
            minimal_cex: false,
            build: || Box::new(Ic3::default()),
            tune: Some(|tuning| {
                let mut engine = Ic3::default();
                if let Some(frames) = tuning.ic3_frames {
                    engine.max_frames = frames;
                }
                if let Some(gen) = tuning.ic3_gen {
                    engine.gen = gen;
                }
                Box::new(engine)
            }),
        },
        EngineSpec {
            name: "itp",
            summary: "Craig-interpolation reachability on the proof-logging SAT core",
            complete: true,
            // Counterexamples are delegated to a depth-capped BMC run,
            // which reports minimal traces.
            minimal_cex: true,
            build: || Box::new(Itp::default()),
            tune: Some(|tuning| {
                let mut engine = Itp::default();
                if let Some(frames) = tuning.itp_frames {
                    engine.max_frames = frames;
                }
                Box::new(engine)
            }),
        },
        EngineSpec {
            name: "portfolio",
            summary: "bmc, kind, ic3, itp, circuit, bdd — sequential slices, or parallel \
                      with a lemma bus (--portfolio-par)",
            complete: true,
            // The BMC member finds minimal traces up to its depth cap,
            // but deeper counterexamples can fall through to the IC3
            // member, which guarantees validity, not minimality.
            minimal_cex: false,
            build: || Box::new(Portfolio::standard()),
            tune: Some(|tuning| {
                if tuning.portfolio_parallel {
                    Box::new(Portfolio::standard_parallel())
                } else {
                    Box::new(Portfolio::standard())
                }
            }),
        },
    ];
    REGISTRY
}

/// Builds the engine registered under `name`, if any.
pub fn by_name(name: &str) -> Option<Box<dyn Engine>> {
    registry()
        .iter()
        .find(|spec| spec.name == name)
        .map(|spec| (spec.build)())
}

/// CLI-facing knobs layered over a registry default build
/// (`cbq check --sweep ... --quant-order ...`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineTuning {
    /// Force state-set sweeping on (with the default
    /// [`StateSweepConfig`]) or off; `None` keeps the engine default.
    pub sweep: Option<bool>,
    /// Quantification variable-scheduling policy; `None` keeps the
    /// engine default.
    pub quant_order: Option<VarOrder>,
    /// Initial partition count of the state set (`cbq check
    /// --partitions N|auto`); `None` keeps the engine default
    /// (monolithic).
    pub partitions: Option<PartitionCount>,
    /// IC3 frame-count safety net (`cbq check --ic3-frames N`); `None`
    /// keeps the engine default.
    pub ic3_frames: Option<usize>,
    /// IC3 generalization effort (`cbq check --ic3-gen
    /// core|drop|ternary|ctg`); `None` keeps the engine default
    /// ([`GenMode::Ctg`] — the full ladder). `core` leaves only the
    /// unsat-core shrink — the `e6pdr`/`e6g` ablation baseline.
    pub ic3_gen: Option<GenMode>,
    /// Interpolation unrolling-bound cap (`cbq check --itp-frames N`);
    /// `None` keeps the engine default.
    pub itp_frames: Option<usize>,
    /// Run the portfolio members as concurrent workers sharing a lemma
    /// bus, with first-conclusive-answer cancellation (`cbq check
    /// --portfolio-par`); `false` keeps the sequential budget-sliced
    /// default.
    pub portfolio_parallel: bool,
}

impl EngineTuning {
    /// Whether this tuning changes nothing.
    pub fn is_default(&self) -> bool {
        *self == EngineTuning::default()
    }

    /// Applies the sweep, partitioning, and quantification-order
    /// overrides to a circuit-based traversal of either direction.
    fn circuit(&self, mut engine: CircuitUmc) -> Box<dyn Engine> {
        match self.sweep {
            None => {}
            Some(false) => engine.sweep = None,
            Some(true) => engine.sweep = Some(StateSweepConfig::default()),
        }
        if let Some(count) = self.partitions {
            engine.partition = count;
        }
        if let Some(order) = self.quant_order {
            engine.quant.order = order;
        }
        Box::new(engine)
    }
}

/// Whether the engine registered under `name` honours [`EngineTuning`]
/// (the circuit-based traversals do; BDD/BMC/induction have no
/// quantifier or sweep to tune). Driven by [`EngineSpec::tune`].
pub fn supports_tuning(name: &str) -> bool {
    registry()
        .iter()
        .any(|spec| spec.name == name && spec.tune.is_some())
}

/// Builds the engine registered under `name` with `tuning` applied via
/// its [`EngineSpec::tune`] hook. Engines without a hook are built in
/// their default configuration.
pub fn by_name_tuned(name: &str, tuning: &EngineTuning) -> Option<Box<dyn Engine>> {
    let spec = registry().iter().find(|spec| spec.name == name)?;
    Some(match spec.tune {
        Some(tune) => tune(tuning),
        None => (spec.build)(),
    })
}

/// All registered engine names, in presentation order.
pub fn engine_names() -> Vec<&'static str> {
    registry().iter().map(|spec| spec.name).collect()
}

impl dyn Engine {
    /// Builds the engine registered under `name` — the canonical entry
    /// point: `<dyn Engine>::by_name("portfolio")`.
    pub fn by_name(name: &str) -> Option<Box<dyn Engine>> {
        by_name(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_ckt::generators;

    #[test]
    fn registry_names_are_unique_and_buildable() {
        let names = engine_names();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
        for spec in registry() {
            let engine = (spec.build)();
            assert_eq!(engine.name(), spec.name);
        }
        assert!(by_name("no-such-engine").is_none());
    }

    #[test]
    fn dyn_dispatch_works_through_the_registry() {
        let net = generators::mutex();
        let engine = <dyn Engine>::by_name("circuit").expect("registered");
        let run = engine.check(&net, &Budget::unlimited());
        assert!(run.verdict.is_safe());
        assert_eq!(run.stats.engine, "circuit");
        assert!(run.stats.elapsed > Duration::ZERO);
    }

    #[test]
    fn tuned_builds_apply_sweep_and_order() {
        let tuning = EngineTuning {
            sweep: Some(false),
            quant_order: Some(VarOrder::StaticCost),
            partitions: Some(PartitionCount::Fixed(2)),
            ..EngineTuning::default()
        };
        for name in ["circuit", "forward"] {
            assert!(supports_tuning(name));
            let engine = by_name_tuned(name, &tuning).expect("registered");
            let net = generators::mutex();
            let run = engine.check(&net, &Budget::unlimited());
            assert!(run.verdict.is_safe());
        }
        // IC3 honours its own tuning fields through the same hook.
        let ic3_tuning = EngineTuning {
            ic3_frames: Some(3),
            ic3_gen: Some(GenMode::Core),
            ..EngineTuning::default()
        };
        assert!(supports_tuning("ic3"));
        let engine = by_name_tuned("ic3", &ic3_tuning).expect("registered");
        let run = engine.check(&generators::mutex(), &Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
        // Interpolation honours its frame cap through the same hook.
        let itp_tuning = EngineTuning {
            itp_frames: Some(8),
            ..EngineTuning::default()
        };
        assert!(supports_tuning("itp"));
        let engine = by_name_tuned("itp", &itp_tuning).expect("registered");
        let run = engine.check(&generators::mutex(), &Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
        // Non-tunable engines still build (tuning is a no-op for them).
        assert!(!supports_tuning("bmc"));
        assert!(by_name_tuned("bmc", &tuning).is_some());
        assert!(by_name_tuned("no-such-engine", &tuning).is_none());
        assert!(EngineTuning::default().is_default());
        assert!(!tuning.is_default());
    }

    #[test]
    fn meter_trips_each_axis() {
        let m = Meter::start(&Budget::unlimited().with_steps(2));
        assert!(m.exceeded(1, 0, 0).is_none());
        assert!(matches!(
            m.exceeded(2, 0, 0),
            Some(Verdict::Bounded {
                resource: Resource::Steps,
                limit: 2
            })
        ));
        let m = Meter::start(&Budget::unlimited().with_nodes(100));
        assert!(m.exceeded(9, 100, 0).is_none());
        assert!(m.exceeded(9, 101, 0).is_some());
        let m = Meter::start(&Budget::unlimited().with_sat_checks(5));
        assert!(m.exceeded(0, 0, 4).is_none());
        assert!(m.exceeded(0, 0, 5).is_some());
        let m = Meter::start(&Budget::unlimited().with_timeout(Duration::ZERO));
        assert!(matches!(
            m.exceeded(0, 0, 0),
            Some(Verdict::Bounded {
                resource: Resource::WallClock,
                ..
            })
        ));
    }

    #[test]
    fn meter_honours_the_cancel_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let m = Meter::start(&Budget::unlimited().with_cancel(flag.clone()));
        assert!(m.exceeded(0, 0, 0).is_none());
        assert!(!m.cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(m.cancelled());
        // Cancellation outranks the limits and is Unknown, not Bounded —
        // a cancelled member's verdict must never look conclusive or
        // resource-bound.
        let m = Meter::start(&Budget::unlimited().with_steps(0).with_cancel(flag));
        assert!(matches!(m.exceeded(0, 0, 0), Some(Verdict::Unknown { .. })));
        // The flag is excluded from budget equality: same envelope.
        assert_eq!(m.budget, Budget::unlimited().with_steps(0));
    }
}
