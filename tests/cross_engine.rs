//! Cross-engine integration tests: every engine in the registry must
//! agree with the explicit-state oracle — verdict *and* minimal
//! counterexample depth — on the whole benchmark suite. Counterexample
//! traces are additionally replayed on the bit-parallel simulator
//! ([`cbq::aig::sim::BitSim`]), an independent evaluation path from
//! [`Trace::validates`]'s `Network::step`.

use cbq::ckt::generators;
use cbq::ckt::Network;
use cbq::mc::explicit;
use cbq::mc::registry;
use cbq::prelude::*;

mod common;
use common::replays_on_sim;

fn suite() -> Vec<Network> {
    vec![
        generators::bounded_counter(4, 9),
        generators::bounded_counter_gap(4, 5, 11),
        generators::gray_counter(4),
        generators::token_ring(5),
        generators::token_ring_bug(5),
        generators::arbiter(4),
        generators::arbiter_bug(4),
        generators::lfsr(5, &[0, 2]),
        generators::fifo_ctrl(2),
        generators::mutex(),
        generators::mutex_bug(),
        generators::shift_ones(4),
        generators::counter_bug(4, 6),
    ]
}

fn oracle(net: &Network) -> Option<usize> {
    explicit::shortest_cex_depth(net, 10, 1 << 16)
}

/// The suite paired with its (expensive) explicit-state oracle verdicts,
/// computed once so per-engine sweeps don't redo the BFS.
fn suite_with_oracle() -> Vec<(Network, Option<usize>)> {
    suite()
        .into_iter()
        .map(|net| {
            let expected = oracle(&net);
            (net, expected)
        })
        .collect()
}

fn assert_agrees(
    net: &Network,
    expected: Option<usize>,
    verdict: &Verdict,
    engine: &str,
    complete: bool,
    exact_depth: bool,
) {
    match (expected, verdict) {
        (None, Verdict::Safe { .. }) => {}
        (None, other) if !complete => {
            // A refutation-only engine may fail to prove safety, but must
            // never claim a counterexample on a safe circuit.
            assert!(
                !other.is_unsafe(),
                "{engine} on {}: bogus counterexample on a safe circuit",
                net.name()
            );
        }
        (Some(depth), Verdict::Unsafe { trace }) => {
            assert!(
                trace.validates(net),
                "{engine} on {}: trace does not replay",
                net.name()
            );
            assert!(
                replays_on_sim(net, trace),
                "{engine} on {}: trace does not violate the property on the simulator",
                net.name()
            );
            if exact_depth {
                assert_eq!(
                    trace.len(),
                    depth + 1,
                    "{engine} on {}: non-minimal counterexample",
                    net.name()
                );
            }
        }
        (expected, got) => panic!(
            "{engine} on {}: oracle says {expected:?}, engine says {got}",
            net.name()
        ),
    }
}

/// The registry-driven agreement sweep: every registered engine, every
/// suite circuit, one oracle.
#[test]
fn every_registered_engine_matches_oracle() {
    let nets = suite_with_oracle();
    for spec in registry() {
        let engine = (spec.build)();
        for (net, expected) in &nets {
            let run = engine.check(net, &Budget::unlimited());
            assert_eq!(run.stats.engine, spec.name);
            assert_agrees(
                net,
                *expected,
                &run.verdict,
                spec.name,
                spec.complete,
                spec.minimal_cex,
            );
        }
    }
}

/// The simulator replay is not vacuous: it rejects a trace that never
/// drives the circuit into a bad state, and accepts a genuine one.
#[test]
fn sim_replay_distinguishes_real_from_bogus_traces() {
    let net = generators::counter_bug(4, 6);
    // Never asserting the enable keeps the counter at zero: no violation.
    let bogus = Trace::new(vec![vec![false]; 3]);
    assert!(!replays_on_sim(&net, &bogus));
    let run = CircuitUmc::default().check(&net, &Budget::unlimited());
    let trace = run.verdict.trace().expect("counter_bug is unsafe");
    assert!(replays_on_sim(&net, trace));
}

/// Engines constructed by name must be the engines the registry lists.
#[test]
fn by_name_resolves_every_registered_engine() {
    for spec in registry() {
        let engine = <dyn Engine>::by_name(spec.name).expect("registered name resolves");
        assert_eq!(engine.name(), spec.name);
    }
    assert!(<dyn Engine>::by_name("not-an-engine").is_none());
}

#[test]
fn circuit_umc_with_tight_budget_and_enumeration_matches_oracle() {
    // A tight growth budget aborts variables; the engine finishes the
    // residuals by naive disjunction and must still match the oracle.
    for (net, expected) in suite_with_oracle() {
        let engine = CircuitUmc {
            quant: QuantConfig::full().with_budget(1.1),
            ..CircuitUmc::default()
        };
        let run = engine.check(&net, &Budget::unlimited());
        assert_agrees(
            &net,
            expected,
            &run.verdict,
            "circuit-umc-partial",
            true,
            true,
        );
    }
}

#[test]
fn partitioned_circuit_umc_matches_oracle() {
    // The partitioned state set against the explicit-state oracle:
    // verdicts and minimal cex depths must survive 4-way partitioning.
    use cbq::mc::PartitionCount;
    for (net, expected) in suite_with_oracle() {
        let engine = CircuitUmc {
            partition: PartitionCount::Fixed(4),
            ..CircuitUmc::default()
        };
        let run = engine.check(&net, &Budget::unlimited());
        assert_agrees(
            &net,
            expected,
            &run.verdict,
            "circuit-umc-partitioned",
            true,
            true,
        );
    }
}

#[test]
fn activation_reuse_and_rebuild_lifetimes_match_oracle() {
    // The solver ablation of the arena/activation PR: eager sweeping with
    // the persistent activation-literal solver vs the old
    // throw-the-solver-away rebuild — identical verdicts, iteration
    // counts, and minimal cex depths on the whole suite, for both circuit
    // engines. Only the activation runs may retain learnt clauses.
    use cbq::cnf::CnfLifetime;
    use cbq::mc::sweep::SweepConfig as StateSweepConfig;
    use cbq::mc::CircuitUmcStats;
    let mut retained_total = 0;
    for (net, expected) in suite_with_oracle() {
        for lifetime in [CnfLifetime::Activation, CnfLifetime::Rebuild] {
            let sweep = Some(StateSweepConfig {
                lifetime,
                ..StateSweepConfig::eager()
            });
            let run = CircuitUmc {
                sweep: sweep.clone(),
                ..CircuitUmc::default()
            }
            .check(&net, &Budget::unlimited());
            assert_agrees(
                &net,
                expected,
                &run.verdict,
                "circuit-umc-lifetime",
                true,
                true,
            );
            let d = run.detail::<CircuitUmcStats>().expect("stats");
            match lifetime {
                CnfLifetime::Activation => retained_total += d.cnf.learnts_retained,
                CnfLifetime::Rebuild => assert_eq!(
                    d.cnf.learnts_retained,
                    0,
                    "{}: rebuild mode retained learnts",
                    net.name()
                ),
            }
            let run = CircuitUmc {
                sweep,
                ..CircuitUmc::forward()
            }
            .check(&net, &Budget::unlimited());
            assert_agrees(
                &net,
                expected,
                &run.verdict,
                "forward-umc-lifetime",
                true,
                true,
            );
            let d = run.detail::<CircuitUmcStats>().expect("stats");
            if lifetime == CnfLifetime::Rebuild {
                assert_eq!(d.cnf.learnts_retained, 0);
            }
        }
    }
    // Across the whole suite, at least one activation run must have
    // carried learnt clauses over a sweep GC (the stat the PR is about).
    assert!(
        retained_total > 0,
        "no learnt clause ever survived a sweep GC across the suite"
    );
}

#[test]
fn ic3_agrees_with_circuit_engines_on_e6_family() {
    // The convergence-based prover against the state-set traversals and
    // BMC on the E6 model families (test-sized instances): identical
    // safe/unsafe classifications everywhere — IC3 closes the safe
    // models BMC can never prove — and every IC3 counterexample replays
    // both through Network::step and on the bit-parallel simulator.
    // Depths are NOT compared: IC3 traces are genuine but need not be
    // minimal (EngineSpec::minimal_cex is false).
    use cbq::mc::{Bmc, Ic3, Ic3Stats};
    let e6_family = vec![
        generators::token_ring(5),
        generators::bounded_counter_gap(4, 6, 12),
        generators::gray_counter(4),
        generators::arbiter(4),
        generators::mutex(),
        generators::lfsr(5, &[0, 2]),
        generators::fifo_ctrl(2),
        generators::token_ring_bug(5),
        generators::mutex_bug(),
        generators::shift_ones(4),
        generators::counter_bug(4, 6),
    ];
    let mut safe_proofs = 0;
    for net in e6_family {
        let ic3 = Ic3::default().check(&net, &Budget::unlimited());
        let circuit = CircuitUmc::default().check(&net, &Budget::unlimited());
        let forward = CircuitUmc::forward().check(&net, &Budget::unlimited());
        assert_eq!(
            ic3.verdict.is_safe(),
            circuit.verdict.is_safe(),
            "{}: ic3 says {}, circuit says {}",
            net.name(),
            ic3.verdict,
            circuit.verdict
        );
        assert_eq!(
            ic3.verdict.is_safe(),
            forward.verdict.is_safe(),
            "{}: ic3 says {}, forward says {}",
            net.name(),
            ic3.verdict,
            forward.verdict
        );
        let bmc = Bmc::default().check(&net, &Budget::unlimited());
        match &ic3.verdict {
            Verdict::Safe { .. } => {
                safe_proofs += 1;
                // BMC alone can never close a safe model.
                assert!(
                    !bmc.verdict.is_conclusive(),
                    "{}: bmc cannot prove safety but says {}",
                    net.name(),
                    bmc.verdict
                );
            }
            Verdict::Unsafe { trace } => {
                assert!(
                    trace.validates(&net),
                    "{}: ic3 trace does not replay",
                    net.name()
                );
                assert!(
                    replays_on_sim(&net, trace),
                    "{}: ic3 trace rejected by the simulator",
                    net.name()
                );
                assert!(
                    bmc.verdict.is_unsafe(),
                    "{}: bmc misses the bug",
                    net.name()
                );
            }
            other => panic!("{}: ic3 inconclusive: {other}", net.name()),
        }
        let detail = ic3.detail::<Ic3Stats>().expect("ic3 stats");
        assert!(detail.frames >= 1, "{}: no frame opened", net.name());
    }
    assert!(
        safe_proofs >= 3,
        "the E6 family should contain several safe models (got {safe_proofs})"
    );
}

#[test]
fn itp_agrees_with_circuit_engines_on_e6_family() {
    // The interpolation engine against the state-set traversal on the E6
    // model families: identical safe/unsafe classifications everywhere.
    // Unlike IC3, itp registers minimal_cex — its counterexamples come
    // from a depth-capped BMC re-run — so on unsafe models the trace
    // depth must equal the circuit engine's, and every trace must replay
    // both through Network::step and on the bit-parallel simulator. On
    // safe models the final interpolant fixpoint is a genuine proof, so
    // the run must report at least one derived interpolant.
    use cbq::mc::{Itp, ItpStats};
    let e6_family = vec![
        generators::token_ring(5),
        generators::bounded_counter_gap(4, 6, 12),
        generators::gray_counter(4),
        generators::arbiter(4),
        generators::mutex(),
        generators::lfsr(5, &[0, 2]),
        generators::fifo_ctrl(2),
        generators::token_ring_bug(5),
        generators::mutex_bug(),
        generators::shift_ones(4),
        generators::counter_bug(4, 6),
    ];
    let mut interpolants_total = 0;
    for net in e6_family {
        let itp = Itp::default().check(&net, &Budget::unlimited());
        let circuit = CircuitUmc::default().check(&net, &Budget::unlimited());
        assert_eq!(
            itp.verdict.is_safe(),
            circuit.verdict.is_safe(),
            "{}: itp says {}, circuit says {}",
            net.name(),
            itp.verdict,
            circuit.verdict
        );
        match (&itp.verdict, &circuit.verdict) {
            (Verdict::Safe { .. }, _) => {
                let detail = itp.detail::<ItpStats>().expect("itp stats");
                assert!(
                    detail.interpolants >= 1 || detail.frames == 0,
                    "{}: safe without deriving an interpolant",
                    net.name()
                );
                interpolants_total += detail.interpolants;
            }
            (Verdict::Unsafe { trace }, Verdict::Unsafe { trace: oracle }) => {
                assert_eq!(
                    trace.len(),
                    oracle.len(),
                    "{}: itp counterexample is not minimal",
                    net.name()
                );
                assert!(
                    trace.validates(&net),
                    "{}: itp trace does not replay",
                    net.name()
                );
                assert!(
                    replays_on_sim(&net, trace),
                    "{}: itp trace rejected by the simulator",
                    net.name()
                );
            }
            (other, _) => panic!("{}: itp inconclusive: {other}", net.name()),
        }
    }
    assert!(
        interpolants_total > 0,
        "no safe model exercised the interpolation path"
    );
}

#[test]
fn ic3_gen_modes_agree_on_e6_family() {
    // The generalization ladder (core < drop < ternary < ctg < ctg-deep)
    // only
    // changes how cubes shrink and how many queries run — never the
    // answer. Every mode must match the circuit engine's classification
    // on every E6 model, and every counterexample must replay both
    // through Network::step and on the bit-parallel simulator.
    use cbq::mc::{GenMode, Ic3, Ic3Stats};
    let e6_family = vec![
        generators::token_ring(5),
        generators::bounded_counter_gap(4, 6, 12),
        generators::gray_counter(4),
        generators::arbiter(4),
        generators::mutex(),
        generators::lfsr(5, &[0, 2]),
        generators::fifo_ctrl(2),
        generators::token_ring_bug(5),
        generators::mutex_bug(),
        generators::shift_ones(4),
        generators::counter_bug(4, 6),
    ];
    for net in e6_family {
        let circuit = CircuitUmc::default().check(&net, &Budget::unlimited());
        for mode in GenMode::ALL {
            let run = Ic3 {
                gen: mode,
                ..Ic3::default()
            }
            .check(&net, &Budget::unlimited());
            assert_eq!(
                run.verdict.is_safe(),
                circuit.verdict.is_safe(),
                "{} ({mode}): ic3 says {}, circuit says {}",
                net.name(),
                run.verdict,
                circuit.verdict
            );
            if let Verdict::Unsafe { trace } = &run.verdict {
                assert!(
                    trace.validates(&net),
                    "{} ({mode}): trace does not replay",
                    net.name()
                );
                assert!(
                    replays_on_sim(&net, trace),
                    "{} ({mode}): trace rejected by the simulator",
                    net.name()
                );
            }
            let detail = run.detail::<Ic3Stats>().expect("ic3 stats");
            if mode < GenMode::Ternary {
                assert_eq!(
                    detail.tern_drops,
                    0,
                    "{} ({mode}): widening ran below Ternary",
                    net.name()
                );
            }
            if mode < GenMode::Ctg {
                assert_eq!(
                    detail.ctg_blocked,
                    0,
                    "{} ({mode}): CTG blocking ran below Ctg",
                    net.name()
                );
            }
            if mode < GenMode::CtgDeep {
                assert_eq!(
                    detail.ctg_deep_blocked,
                    0,
                    "{} ({mode}): recursive CTG blocking ran below CtgDeep",
                    net.name()
                );
            }
        }
    }
}

#[test]
fn parallel_portfolio_matches_sequential_on_e6_family() {
    // The parallel-determinism contract of the portfolio rewrite: the
    // concurrent scoped-thread race over the lemma bus must return
    // *exactly* the sequential cascade's answer on every E6
    // model — same safe/unsafe classification and, on unsafe models,
    // the same minimal counterexample depth, because the winner is the
    // smallest-index conclusive member and earlier members are never
    // cancelled by later winners.
    use cbq::mc::{Portfolio, PortfolioStats};
    let e6_family = vec![
        generators::token_ring(5),
        generators::bounded_counter_gap(4, 6, 12),
        generators::gray_counter(4),
        generators::arbiter(4),
        generators::mutex(),
        generators::lfsr(5, &[0, 2]),
        generators::fifo_ctrl(2),
        generators::token_ring_bug(5),
        generators::mutex_bug(),
        generators::shift_ones(4),
        generators::counter_bug(4, 6),
    ];
    for net in &e6_family {
        let seq = Portfolio::standard().check(net, &Budget::unlimited());
        let par = Portfolio::standard_parallel().check(net, &Budget::unlimited());
        match (&seq.verdict, &par.verdict) {
            (Verdict::Safe { .. }, Verdict::Safe { .. }) => {}
            (Verdict::Unsafe { trace: s }, Verdict::Unsafe { trace: p }) => {
                assert!(
                    p.validates(net),
                    "{}: parallel trace does not replay",
                    net.name()
                );
                assert!(
                    replays_on_sim(net, p),
                    "{}: parallel trace rejected by the simulator",
                    net.name()
                );
                assert_eq!(
                    s.len(),
                    p.len(),
                    "{}: parallel cex depth diverged",
                    net.name()
                );
            }
            (s, p) => panic!("{}: sequential says {s}, parallel says {p}", net.name()),
        }
        let detail = par.detail::<PortfolioStats>().expect("portfolio stats");
        assert!(detail.parallel, "{}: run not marked parallel", net.name());
        assert!(
            detail.bus.is_some(),
            "{}: a parallel run must report its bus traffic",
            net.name()
        );
    }
}

#[test]
fn naive_quantification_engine_matches_oracle() {
    // Ablation: even with merge and optimisation disabled, the traversal
    // must stay sound and complete.
    for (net, expected) in suite_with_oracle() {
        let engine = CircuitUmc {
            quant: QuantConfig::naive(),
            ..CircuitUmc::default()
        };
        let run = engine.check(&net, &Budget::unlimited());
        assert_agrees(
            &net,
            expected,
            &run.verdict,
            "circuit-umc-naive",
            true,
            true,
        );
    }
}
