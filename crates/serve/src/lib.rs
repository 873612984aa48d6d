//! # cbq-serve — the model-checking service
//!
//! A long-running server that accepts model-checking jobs over a TCP
//! socket as line-delimited JSON, schedules them onto a bounded worker
//! pool, and answers from a **content-addressed structural cache**
//! whenever it can.
//!
//! The cache ([`StructuralCache`]) is the point of the subsystem.
//! Regression-style verification workloads re-check near-identical
//! models over and over — the same design after a no-op rebuild, or a
//! lightly perturbed property over an unchanged transition structure —
//! so results are keyed by *structural digest*
//! ([`cbq_aig::Aig::cone_hash_many`] over the δ/bad cones plus the
//! latch/input ordinal bindings), not by file identity. Three tiers:
//!
//! 1. whole-run verdict replay (same model + engine, conclusive
//!    verdicts only);
//! 2. depth-0 sub-query replay (an initial-state refutation outlives
//!    any rewiring of the transition logic);
//! 3. IC3 warm starts (cached frame lemmas from the same transition
//!    structure become [`cbq_mc::Ic3::seed`] candidates, individually
//!    re-validated by the engine before use).
//!
//! The wire protocol (one JSON object per line, both directions) is
//! documented in the workspace `README.md`; [`CheckRequest`] /
//! [`job::process_check`] are its transport-free core, [`Server`] the
//! TCP shell, and [`client`] the matching blocking helpers that `cbq
//! submit` is built on. Every line in either direction is read and
//! written by the workspace's one codec, [`cbq_mc::json::Json`],
//! re-exported here as [`Json`].
//!
//! ## Example
//!
//! ```
//! use cbq_serve::{client, CheckRequest, ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let server = Arc::new(
//!     Server::bind(ServeConfig {
//!         listen: "127.0.0.1:0".to_string(), // free port
//!         ..ServeConfig::default()
//!     })
//!     .expect("bind"),
//! );
//! let addr = server.local_addr().expect("addr").to_string();
//! let handle = {
//!     let server = Arc::clone(&server);
//!     std::thread::spawn(move || server.run())
//! };
//!
//! let net = cbq_ckt::generators::token_ring(4);
//! let request = CheckRequest {
//!     id: 1,
//!     model: cbq_ckt::io::write_network(&net),
//!     engine: "ic3".to_string(),
//!     budget: cbq_mc::Budget::unlimited(),
//!     use_cache: true,
//! };
//! let result = client::submit_one(&addr, &request).expect("result");
//! assert_eq!(
//!     result.get("verdict").and_then(cbq_serve::Json::as_str),
//!     Some("safe")
//! );
//!
//! client::shutdown(&addr).expect("bye");
//! handle.join().unwrap().expect("clean exit");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod server;

pub use crate::cache::{CacheStats, CacheTier, ModelKey, StructuralCache};
pub use crate::job::{process_check, CheckRequest, JobOutcome, ServerCaps};
pub use crate::server::{ServeConfig, Server};
pub use cbq_mc::json::Json;
