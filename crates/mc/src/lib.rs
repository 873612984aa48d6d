//! # cbq-mc — unbounded model checking engines
//!
//! The traversal layer of the DATE 2005 reproduction. The headline engine
//! is [`CircuitUmc`] — the paper's Section 3 routine: backward
//! breadth-first reachability from the complement of the property, with
//! **state sets represented as AIGs**, pre-image computed by
//! *quantification by substitution* (in-lining of the next-state
//! functions) followed by circuit-based quantification of the primary
//! inputs, and all fixpoint/intersection tests delegated to the SAT
//! engine. The same engine runs forward from the initial states
//! ([`CircuitUmc::forward`], a [`Direction`] field): each step then forms
//! an image, quantifying latches and inputs out of `T ∧ frontier`.
//!
//! Alongside it, every method the paper compares against or combines with
//! (Section 4):
//!
//! * [`BddUmc`] — classical canonical-representation reachability (the
//!   baseline the paper wants to escape), backward and forward;
//! * [`Bmc`] — bounded model checking (Biere et al. [1]);
//! * [`KInduction`] — inductive unbounded verification with simple-path
//!   strengthening (Sheeran et al. [5]);
//! * [`Ic3`] — property-directed reachability (Bradley; Eén, Mishchenko,
//!   Brayton): clause frames over latches, proof-obligation blocking with
//!   unsat-core generalization, and forward clause propagation, all on
//!   one persistent activation-literal clause database — the portfolio's
//!   convergence-based prover for properties BMC cannot close and plain
//!   induction cannot reach;
//! * [`ganai`] — all-solutions SAT pre-image with *circuit cofactoring*
//!   (Ganai, Gupta, Ashar [2]), usable standalone or as the
//!   residual-variable fallback of partial circuit quantification — the
//!   hybrid the paper proposes ("our approach could dramatically decrease
//!   the amount of decision (input) variables to be processed by SAT
//!   based pre-image").
//!
//! Every engine implements the [`Engine`] trait — one polymorphic entry
//! point `check(&self, net, budget) -> McRun` over an immutable
//! [`cbq_ckt::Network`]. A [`Budget`] bounds steps, representation
//! nodes, SAT checks, and wall-clock time; exhaustion yields
//! [`Verdict::Bounded`] instead of a hang. `Unsafe` verdicts carry a
//! [`cbq_ckt::Trace`] that replays concretely on the network, and every
//! [`McRun`] holds a common [`McStats`] record with the engine-specific
//! counters downcastable via [`McRun::detail`].
//!
//! The circuit-based traversal runs on the partitioned [`stateset`]
//! subsystem in either direction: a [`StateSet`] is a disjunction of partitions, each owning
//! its own AIG manager and clause database, tiled over the state space
//! by latch-cofactor windows (or divided by frontier-of-origin), with
//! per-partition pre-image/image + quantification + sweep executed in
//! parallel via `std::thread::scope` and re-joined by a deterministic
//! index-ordered merge. Between iterations each partition runs the
//! [`sweep`] subsystem — SAT-sweeping (fraiging) plus garbage collection
//! of the frontier/reached cones — so state-set representations shrink
//! instead of growing monotonically;
//! `--sweep`/`--quant-order`/`--partitions`/`--split` style tuning is
//! exposed through [`EngineTuning`] / [`by_name_tuned`].
//!
//! Engines are also constructible by name through the registry —
//! [`by_name`] / [`registry`] — which is how the CLI, benches, and
//! cross-engine tests dispatch. [`Portfolio`] composes registered
//! engines into a budget-sliced sequence, or — in parallel mode — into
//! concurrent scoped-thread workers with first-conclusive-answer
//! cancellation and a cross-engine [`LemmaBus`].
//!
//! ## Example
//!
//! ```
//! use cbq_ckt::generators;
//! use cbq_mc::{Budget, CircuitUmc, Engine, Verdict};
//!
//! let net = generators::token_ring(4);
//! let run = CircuitUmc::default().check(&net, &Budget::unlimited());
//! assert!(matches!(run.verdict, Verdict::Safe { .. }));
//!
//! // The same engine, resolved from the registry and driven as a
//! // trait object under a step budget:
//! let engine = <dyn Engine>::by_name("circuit").expect("registered");
//! let buggy = generators::token_ring_bug(4);
//! let run = engine.check(&buggy, &Budget::unlimited().with_steps(64));
//! match run.verdict {
//!     Verdict::Unsafe { trace } => assert!(trace.validates(&buggy)),
//!     other => panic!("expected a counterexample, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdd_umc;
mod bmc;
mod bus;
mod circuit_umc;
mod engine;
mod ic3;
mod induction;
mod itp;
mod portfolio;
#[cfg(test)]
mod testsupport;
mod verdict;

pub mod explicit;
pub mod ganai;
pub mod json;
pub mod preimage;
pub mod stateset;
pub mod sweep;

pub use crate::bdd_umc::{BddUmc, BddUmcStats};
pub use crate::bmc::{Bmc, BmcStats};
pub use crate::bus::{BusClientStats, BusCounts, BusCursor, LatchCube, LemmaBus, LemmaValidator};
pub use crate::circuit_umc::{CircuitUmc, CircuitUmcStats, ForwardCircuitUmcStats, ResidualPolicy};
pub use crate::engine::{
    by_name, by_name_tuned, engine_names, registry, supports_tuning, Budget, Direction, Engine,
    EngineSpec, EngineTuning, Meter,
};
pub use crate::ic3::{GenMode, Ic3, Ic3Stats};
pub use crate::induction::{KInduction, KInductionStats};
pub use crate::itp::{Itp, ItpStats};
pub use crate::portfolio::{Portfolio, PortfolioBusStats, PortfolioMode, PortfolioStats};
pub use crate::stateset::{PartitionConfig, PartitionCount, PartitionStats, SplitPolicy, StateSet};
pub use crate::verdict::{McRun, McStats, Resource, Verdict};
