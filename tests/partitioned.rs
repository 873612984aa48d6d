//! Partitioned state-set integration tests: for every E6 smoke model,
//! `CircuitUmc` in both directions with `--partitions 1` and
//! `--partitions 4` must return identical verdicts (same fixpoint
//! iteration / same minimal counterexample depth), counterexample traces
//! must replay on the bit-parallel simulator, and repeated runs must be
//! bit-identical (index-sorted merge order, no timing dependence).

use cbq::ckt::generators;
use cbq::ckt::Network;
use cbq::mc::{CircuitUmcStats, PartitionCount};
use cbq::prelude::*;

mod common;
use common::replays_on_sim;

/// The E6-family smoke suite (small enough for exhaustive cross checks).
fn suite() -> Vec<Network> {
    vec![
        generators::bounded_counter(4, 9),
        generators::bounded_counter_gap(4, 5, 11),
        generators::gray_counter(4),
        generators::token_ring(5),
        generators::token_ring_bug(5),
        generators::arbiter(4),
        generators::mutex(),
        generators::mutex_bug(),
        generators::shift_ones(4),
        generators::counter_bug(4, 6),
    ]
}

/// Verdict comparison key: classification plus the count that must be
/// stable (fixpoint iteration or cex depth), never the concrete inputs.
fn verdict_key(v: &Verdict) -> String {
    match v {
        Verdict::Safe { iterations } => format!("safe@{iterations}"),
        Verdict::Unsafe { trace } => format!("cex@{}", trace.len()),
        other => format!("{other}"),
    }
}

#[test]
fn backward_partitions_1_and_4_agree_on_the_suite() {
    for net in suite() {
        let mono = CircuitUmc {
            partition: PartitionCount::Fixed(1),
            ..CircuitUmc::default()
        }
        .check(&net, &Budget::unlimited());
        let key = verdict_key(&mono.verdict);
        let part = CircuitUmc {
            partition: PartitionCount::Fixed(4),
            ..CircuitUmc::default()
        }
        .check(&net, &Budget::unlimited());
        assert_eq!(
            key,
            verdict_key(&part.verdict),
            "circuit on {}: partitions changed the verdict",
            net.name()
        );
        if let Verdict::Unsafe { trace } = &part.verdict {
            assert!(
                trace.validates(&net),
                "circuit on {}: partitioned trace does not replay",
                net.name()
            );
            assert!(
                replays_on_sim(&net, trace),
                "circuit on {}: partitioned trace rejected by BitSim",
                net.name()
            );
        }
    }
}

#[test]
fn forward_partitions_1_and_4_agree_on_the_suite() {
    for net in suite() {
        let mono = CircuitUmc {
            partition: PartitionCount::Fixed(1),
            ..CircuitUmc::forward()
        }
        .check(&net, &Budget::unlimited());
        let key = verdict_key(&mono.verdict);
        let part = CircuitUmc {
            partition: PartitionCount::Fixed(4),
            ..CircuitUmc::forward()
        }
        .check(&net, &Budget::unlimited());
        assert_eq!(
            key,
            verdict_key(&part.verdict),
            "forward on {}: partitions changed the verdict",
            net.name()
        );
        if let Verdict::Unsafe { trace } = &part.verdict {
            assert!(
                trace.validates(&net),
                "forward on {}: partitioned trace does not replay",
                net.name()
            );
            assert!(
                replays_on_sim(&net, trace),
                "forward on {}: partitioned trace rejected by BitSim",
                net.name()
            );
        }
    }
}

/// Determinism guard: the merge order is index-sorted, never
/// thread-completion-ordered, so two runs of the same model produce
/// identical frontier-size and partition trajectories (and verdicts).
#[test]
fn partitioned_runs_are_deterministic() {
    for net in [
        generators::bounded_counter_gap(4, 5, 11),
        generators::gray_counter(4),
        generators::token_ring_bug(5),
    ] {
        let engine = CircuitUmc {
            partition: PartitionCount::Fixed(4),
            ..CircuitUmc::default()
        };
        let a = engine.check(&net, &Budget::unlimited());
        let b = engine.check(&net, &Budget::unlimited());
        assert_eq!(
            verdict_key(&a.verdict),
            verdict_key(&b.verdict),
            "{}: verdict differs between identical runs",
            net.name()
        );
        let da = a.detail::<CircuitUmcStats>().expect("stats");
        let db = b.detail::<CircuitUmcStats>().expect("stats");
        assert_eq!(
            da.frontier_sizes,
            db.frontier_sizes,
            "{}: frontier trajectory differs between identical runs",
            net.name()
        );
        assert_eq!(
            da.partitions,
            db.partitions,
            "{}: partition trajectory differs between identical runs",
            net.name()
        );

        let fwd = CircuitUmc {
            partition: PartitionCount::Fixed(4),
            ..CircuitUmc::forward()
        };
        let fa = fwd.check(&net, &Budget::unlimited());
        let fb = fwd.check(&net, &Budget::unlimited());
        let dfa = fa.detail::<CircuitUmcStats>().expect("stats");
        let dfb = fb.detail::<CircuitUmcStats>().expect("stats");
        assert_eq!(dfa.frontier_sizes, dfb.frontier_sizes);
        assert_eq!(dfa.partitions, dfb.partitions);
    }
}

/// The partitioned representation actually bounds per-partition size:
/// on redundancy-heavy models the largest per-partition state cone stays
/// strictly below the monolithic reached-set representation.
#[test]
fn partition_cones_stay_below_the_monolithic_reached_set() {
    let mut wins = 0;
    for net in [
        generators::bounded_counter_gap(4, 5, 11),
        generators::gray_counter(4),
        generators::token_ring(5),
        generators::bounded_counter(4, 9),
    ] {
        let mono = CircuitUmc {
            sweep: None,
            ..CircuitUmc::default()
        }
        .check(&net, &Budget::unlimited());
        let part = CircuitUmc {
            sweep: None,
            partition: PartitionCount::Fixed(4),
            ..CircuitUmc::default()
        }
        .check(&net, &Budget::unlimited());
        let dm = mono.detail::<CircuitUmcStats>().expect("stats");
        let dp = part.detail::<CircuitUmcStats>().expect("stats");
        if dp.partitions.max_cone < dm.reached_size {
            wins += 1;
        }
    }
    assert!(
        wins >= 2,
        "expected the max partition cone to beat the monolithic reached \
         set on at least 2 models, got {wins}"
    );
}
