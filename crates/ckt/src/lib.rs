//! # cbq-ckt — sequential networks and benchmark circuits
//!
//! The paper evaluates on unnamed "hard-to-verify circuits and
//! properties"; this crate provides the substituted benchmark suite
//! (the models behind the experiment tables in the README's *Experiments*
//! section): a sequential network model over
//! [`cbq_aig::Aig`] plus parametric generators for the circuit families
//! used by every experiment — counters, Gray counters, token rings,
//! round-robin arbiters, LFSRs, FIFO controllers, mutual-exclusion
//! controllers and depth-`k` bug circuits, each with safe and (where
//! meaningful) intentionally buggy variants.
//!
//! A [`Network`] is a Mealy-style machine: latches and primary inputs are
//! AIG inputs; next-state functions and the *bad-state* output (AIGER
//! convention: the property holds iff `bad` is unreachable) are AIG
//! literals over them.
//!
//! ## Example
//!
//! ```
//! use cbq_ckt::generators;
//!
//! let net = generators::bounded_counter(4, 10);
//! // Simulate a few steps from the initial state.
//! let mut state = net.initial_state();
//! for _ in 0..3 {
//!     let (next, bad) = net.step(&state, &[]);
//!     assert!(!bad);
//!     state = next;
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;
mod trace;

pub mod arith;
pub mod generators;
pub mod io;
pub mod random;

pub use crate::network::{Latch, Network, NetworkBuilder};
pub use crate::trace::Trace;
