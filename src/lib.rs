//! # cbq — Circuit Based Quantification
//!
//! A full reproduction of *"Circuit Based Quantification: Back to State
//! Set Manipulation within Unbounded Model Checking"* (Cabodi,
//! Crivellari, Nocco, Quer — DATE 2005), as a production-quality Rust
//! workspace.
//!
//! This facade crate re-exports every layer of the stack:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`aig`] | `cbq-aig` | And-Inverter Graph state-set representation |
//! | [`sat`] | `cbq-sat` | incremental CDCL SAT solver |
//! | [`cnf`] | `cbq-cnf` | shared-database Tseitin bridge |
//! | [`bdd`] | `cbq-bdd` | ROBDD package (sweeping + baseline MC) |
//! | [`cec`] | `cbq-cec` | equivalence checking / merge phase |
//! | [`synth`] | `cbq-synth` | don't-care optimisation phase |
//! | [`quant`] | `cbq-core` | **circuit-based quantifier elimination** |
//! | [`ckt`] | `cbq-ckt` | sequential networks + benchmark generators |
//! | [`mc`] | `cbq-mc` | UMC engines behind the unified `Engine`/`Budget` API |
//! | [`serve`] | `cbq-serve` | job service with a structural result cache |
//!
//! ## Quickstart
//!
//! Every model checker implements [`mc::Engine`] — `check(&net, &budget)`
//! — and is constructible by registry name. A [`mc::Budget`] bounds
//! steps, nodes, SAT checks, and wall-clock time; exhaustion yields
//! `Verdict::Bounded` rather than a hang.
//!
//! ```
//! use cbq::prelude::*;
//!
//! // Prove a token ring safe with the paper's engine.
//! let net = cbq::ckt::generators::token_ring(4);
//! let run = CircuitUmc::default().check(&net, &Budget::unlimited());
//! assert!(run.verdict.is_safe());
//!
//! // Any engine by name, as a trait object, under a budget.
//! let engine = <dyn Engine>::by_name("portfolio").expect("registered");
//! let run = engine.check(&net, &Budget::unlimited().with_steps(256));
//! assert!(run.verdict.is_safe());
//! ```
//!
//! See `examples/` for richer scenarios and `README.md` for the CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cbq_aig as aig;
pub use cbq_bdd as bdd;
pub use cbq_cec as cec;
pub use cbq_ckt as ckt;
pub use cbq_cnf as cnf;
pub use cbq_core as quant;
pub use cbq_mc as mc;
pub use cbq_sat as sat;
pub use cbq_serve as serve;
pub use cbq_synth as synth;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use cbq_aig::{Aig, Assignment, Cube, Lit, Var};
    pub use cbq_bdd::{BddManager, BddRef};
    pub use cbq_cec::{check_equiv, sweep, MergeOrder, SweepConfig};
    pub use cbq_ckt::{Network, Trace};
    pub use cbq_cnf::{AigCnf, EquivResult};
    pub use cbq_core::{exists_many, exists_one, substitute, QuantConfig, QuantResult};
    pub use cbq_mc::{
        BddUmc, Bmc, Budget, CircuitUmc, Engine, KInduction, McRun, McStats, Portfolio, Verdict,
    };
    pub use cbq_sat::{SatBackend, SatLit, SatResult, SatVar, Solver, SolverStats};
    pub use cbq_synth::{dc_simplify, optimize_disjunction, OptConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        assert_eq!(aig.and(a, Lit::TRUE), a);
    }
}
