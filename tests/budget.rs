//! Budget-exhaustion tests: a zero or near-zero [`Budget`] must yield
//! `Verdict::Bounded` on every registered engine — promptly, never a
//! hang — and a budget generous enough must not change the verdict.

use std::time::{Duration, Instant};

use cbq::ckt::generators;
use cbq::mc::{registry, Resource};
use cbq::prelude::*;

#[test]
fn zero_step_budget_bounds_every_engine() {
    let net = generators::token_ring(5);
    for spec in registry() {
        let start = Instant::now();
        let run = (spec.build)().check(&net, &Budget::unlimited().with_steps(0));
        match run.verdict {
            Verdict::Bounded {
                resource: Resource::Steps,
                limit: 0,
            } => {}
            other => panic!("{}: expected step-bounded, got {other}", spec.name),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{}: zero-step budget took {:?}",
            spec.name,
            start.elapsed()
        );
    }
}

#[test]
fn zero_timeout_bounds_every_engine() {
    let net = generators::token_ring(5);
    for spec in registry() {
        let run = (spec.build)().check(&net, &Budget::unlimited().with_timeout(Duration::ZERO));
        match run.verdict {
            Verdict::Bounded {
                resource: Resource::WallClock,
                ..
            } => {}
            other => panic!("{}: expected time-bounded, got {other}", spec.name),
        }
    }
}

#[test]
fn tiny_node_budget_bounds_every_engine() {
    let net = generators::token_ring(5);
    for spec in registry() {
        // (The portfolio splits the budget across members, so only the
        // resource kind — not the limit value — is uniform.)
        let run = (spec.build)().check(&net, &Budget::unlimited().with_nodes(1));
        match run.verdict {
            Verdict::Bounded {
                resource: Resource::Nodes,
                ..
            } => {}
            other => panic!("{}: expected node-bounded, got {other}", spec.name),
        }
    }
}

#[test]
fn tiny_sat_budget_never_hangs() {
    // BDD engines issue no SAT checks, so they may legitimately conclude;
    // everyone else must trip the SAT-check budget. Either way: no hang,
    // and never a wrong conclusive verdict (token_ring(5) is safe).
    let net = generators::token_ring(5);
    for spec in registry() {
        let run = (spec.build)().check(&net, &Budget::unlimited().with_sat_checks(1));
        assert!(
            !run.verdict.is_unsafe(),
            "{}: bogus cex under a SAT budget: {}",
            spec.name,
            run.verdict
        );
    }
}

#[test]
fn tight_timeouts_cancel_cooperatively_and_promptly() {
    // The deadline is threaded into the exists_many elimination loop and
    // the sweep candidate loop, so even circuits whose single
    // quantification is expensive return Bounded quickly instead of
    // finishing the pass first. Partition workers report Bounded too.
    use cbq::mc::{CircuitUmc, PartitionConfig, PartitionCount};
    let net = generators::arbiter(7);
    for timeout_ms in [1u64, 20] {
        for parts in [1usize, 4] {
            let budget = Budget::unlimited().with_timeout(Duration::from_millis(timeout_ms));
            let circuit = CircuitUmc {
                partition: PartitionConfig::with_count(PartitionCount::Fixed(parts)),
                ..CircuitUmc::default()
            };
            let start = Instant::now();
            let run = circuit.check(&net, &budget);
            assert!(
                !run.verdict.is_conclusive() || run.verdict.is_safe(),
                "bogus verdict under a tight deadline: {}",
                run.verdict
            );
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "circuit x{parts}: {timeout_ms}ms deadline overshot to {:?}",
                start.elapsed()
            );
            let forward = CircuitUmc {
                partition: PartitionConfig::with_count(PartitionCount::Fixed(parts)),
                ..CircuitUmc::forward()
            };
            let start = Instant::now();
            let run = forward.check(&net, &budget);
            assert!(!run.verdict.is_unsafe(), "bogus cex: {}", run.verdict);
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "forward x{parts}: {timeout_ms}ms deadline overshot to {:?}",
                start.elapsed()
            );
        }
    }
}

#[test]
fn ic3_returns_cleanly_under_tiny_budgets() {
    // Per-call budgets on the new engine: every axis must come back as a
    // clean Bounded (or at worst Unknown) — promptly, with sane stats,
    // never a hang or a bogus conclusive verdict. The deep gap circuit
    // needs many frames, so small step budgets genuinely interrupt it.
    use cbq::mc::{Ic3, Ic3Stats};
    let net = generators::bounded_counter_gap(4, 6, 12);
    for budget in [
        Budget::unlimited().with_steps(0),
        Budget::unlimited().with_steps(2),
        Budget::unlimited().with_nodes(1),
        Budget::unlimited().with_sat_checks(3),
        Budget::unlimited().with_timeout(Duration::ZERO),
    ] {
        let start = Instant::now();
        let run = Ic3::default().check(&net, &budget);
        assert!(
            run.verdict.is_bounded() || matches!(run.verdict, Verdict::Unknown { .. }),
            "budget {budget:?}: expected bounded/unknown, got {}",
            run.verdict
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "budget {budget:?}: took {:?}",
            start.elapsed()
        );
    }
    // A short-but-nonzero deadline either interrupts the run (Bounded)
    // or lets the engine finish correctly — never a wrong conclusion.
    let run = Ic3::default().check(
        &net,
        &Budget::unlimited().with_timeout(Duration::from_millis(1)),
    );
    assert!(
        !run.verdict.is_unsafe(),
        "bogus cex under a deadline: {}",
        run.verdict
    );
    // A step budget of n permits frames F1..F_{n+1}: the run's frame
    // count must respect it.
    let run = Ic3::default().check(&net, &Budget::unlimited().with_steps(2));
    let detail = run.detail::<Ic3Stats>().expect("ic3 stats");
    assert!(
        detail.frames <= 3,
        "step budget ignored: {} frames",
        detail.frames
    );
    // And a generous budget still settles both polarities.
    let generous = Budget::unlimited().with_timeout(Duration::from_secs(60));
    assert!(Ic3::default().check(&net, &generous).verdict.is_safe());
    let buggy = generators::counter_bug(4, 6);
    assert!(Ic3::default().check(&buggy, &generous).verdict.is_unsafe());
}

#[test]
fn sat_conflict_budget_applies_per_solve_call() {
    // Regression: `set_conflict_budget` is documented as a *per-call*
    // limit. A leaking implementation (budget measured against the
    // cumulative conflict counter) would let the first call consume the
    // whole budget and every later call return Unknown after zero work.
    #![allow(clippy::needless_range_loop)]
    use cbq::sat::{SatLit, SatResult, SatVar, Solver};
    let mut s = Solver::new();
    let (p, h) = (7, 6); // pigeonhole: far more than 5 conflicts to refute
    let v: Vec<Vec<SatVar>> = (0..p)
        .map(|_| (0..h).map(|_| s.new_var()).collect())
        .collect();
    for row in &v {
        let clause: Vec<SatLit> = row.iter().map(|x| x.pos()).collect();
        s.add_clause(&clause);
    }
    for j in 0..h {
        for i1 in 0..p {
            for i2 in (i1 + 1)..p {
                s.add_clause(&[v[i1][j].neg(), v[i2][j].neg()]);
            }
        }
    }
    s.set_conflict_budget(Some(5));
    for call in 0..4 {
        assert_eq!(s.solve(), SatResult::Unknown, "call {call}");
    }
    assert!(
        s.stats().conflicts >= 20,
        "budget leaked across calls: only {} conflicts spent over 4 calls",
        s.stats().conflicts
    );
    s.set_conflict_budget(None);
    assert_eq!(s.solve(), SatResult::Unsat);
}

#[test]
fn generous_budget_leaves_verdicts_intact() {
    let safe = generators::mutex();
    let buggy = generators::mutex_bug();
    let budget = Budget::unlimited()
        .with_steps(10_000)
        .with_timeout(Duration::from_secs(60));
    for spec in registry() {
        let run = (spec.build)().check(&safe, &budget);
        if spec.complete {
            assert!(run.verdict.is_safe(), "{}: {}", spec.name, run.verdict);
        } else {
            assert!(!run.verdict.is_unsafe(), "{}: {}", spec.name, run.verdict);
        }
        let run = (spec.build)().check(&buggy, &budget);
        assert!(run.verdict.is_unsafe(), "{}: {}", spec.name, run.verdict);
    }
}
