//! The portfolio engine: member engines composed over one shared budget.
//!
//! The paper's Section 4 pitch is that circuit quantification and SAT
//! pre-image are stronger *combined* than either alone; the portfolio
//! expresses that as engine composition, in two execution modes.
//!
//! **Sequential** (the default): members run in order and the first
//! conclusive verdict (safe or unsafe) wins. The caller's [`Budget`] is
//! shared: cumulative axes (steps, SAT checks) hand each member whatever
//! the previous members left over, the wall clock is divided among the
//! members still to run (so an early member cannot starve the rest), and
//! the node limit — a peak, not a sum, since each member builds and
//! drops its own manager — passes through whole.
//!
//! **Parallel** ([`Portfolio::standard_parallel`]): every member runs
//! concurrently on its own scoped thread over the caller's *full*
//! budget, with first-conclusive-answer cancellation through the
//! cooperative cancel flag of [`Budget::with_cancel`]. A member that
//! concludes cancels every *later* member but lets earlier ones finish,
//! so the winner — the smallest-index conclusive member — is exactly the
//! member that wins the sequential race, verdict and trace included;
//! wall clock drops from the *sum* of the members up to the winner to
//! their *max*. On top, the members share a [`LemmaBus`]: IC3 publishes
//! pushed frame clauses that BMC/k-induction re-validate and assume, and
//! a sweep **scout** thread publishes SAT-proven node merges of the
//! original next-state/bad cones that IC3 absorbs. Every consumer
//! re-validates everything it reads (see [`crate::bus`]), so bus traffic
//! can cost queries but never a verdict.
//!
//! The standard lineup — BMC for quick refutation, k-induction for quick
//! proofs, IC3 for convergence on deep non-inductive properties, then
//! the circuit and BDD traversals — settles easy instances in the cheap
//! engines and only pays for a full traversal when it must.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbq_ckt::Network;

use crate::bdd_umc::BddUmc;
use crate::bmc::{Bmc, BmcStats};
use crate::bus::{BusClientStats, BusCounts, LemmaBus};
use crate::circuit_umc::CircuitUmc;
use crate::engine::{cite_caller, Budget, Engine, Meter};
use crate::ic3::{Ic3, Ic3Stats};
use crate::induction::{KInduction, KInductionStats};
use crate::itp::Itp;
use crate::sweep::merge_scout;
use crate::verdict::{McRun, McStats, Resource, Verdict};

/// Runs member engines — sequentially or in parallel — and returns the
/// first conclusive verdict (in member order).
pub struct Portfolio {
    /// The member engines, in priority order (index order is the
    /// sequential execution order *and* the parallel winner priority).
    pub members: Vec<Box<dyn Engine>>,
    /// Sequential, or parallel with its lemma bus.
    pub mode: PortfolioMode,
}

/// How a [`Portfolio`] runs its members.
#[derive(Clone, Debug)]
pub enum PortfolioMode {
    /// In member order, each over a slice of the caller's budget.
    Sequential,
    /// Concurrently on scoped threads, sharing this lemma bus, which a
    /// merge scout thread also publishes to. [`Portfolio::standard_parallel`]
    /// wires it into the members that speak it. Reusing one portfolio
    /// across models is sound — consumers re-validate against their own
    /// model — but stale cross-model publications waste admission
    /// queries, so prefer one portfolio per model.
    Parallel(Arc<LemmaBus>),
}

/// Bus traffic of one parallel portfolio run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortfolioBusStats {
    /// Publications during this run (cubes from IC3, merges from the
    /// scout).
    pub published: BusCounts,
    /// Consumer-side traffic, aggregated over all members (admissions,
    /// rejections, merges learned/rejected).
    pub clients: BusClientStats,
}

/// Per-member outcomes of a [`Portfolio`] run, attached as the run's
/// detail record.
#[derive(Clone, Debug)]
pub struct PortfolioStats {
    /// `(engine name, run)` for every member that executed, in member
    /// order. Sequentially, the winning member (if any) is last; in
    /// parallel mode every member has an entry and cancelled losers
    /// report `Unknown`.
    pub runs: Vec<(&'static str, McRun)>,
    /// Whether the members ran concurrently.
    pub parallel: bool,
    /// Lemma-bus traffic of this run (parallel mode only).
    pub bus: Option<PortfolioBusStats>,
}

impl Portfolio {
    /// A sequential portfolio over the given members.
    pub fn new(members: Vec<Box<dyn Engine>>) -> Portfolio {
        Portfolio {
            members,
            mode: PortfolioMode::Sequential,
        }
    }

    /// The standard lineup: `bmc`, `kind`, `ic3`, `itp`, `circuit`, `bdd`, with
    /// member depth caps tightened so the refutation-only stages finish
    /// fast. IC3 sits between the inductive prover and the full
    /// traversals: it converges on deep non-inductive properties that
    /// k-induction's depth cap misses, without paying for a state-set
    /// fixpoint.
    pub fn standard() -> Portfolio {
        Portfolio::new(Portfolio::standard_members(None))
    }

    /// The standard lineup in parallel mode, wired to a fresh shared
    /// [`LemmaBus`].
    pub fn standard_parallel() -> Portfolio {
        let bus = Arc::new(LemmaBus::new());
        Portfolio {
            members: Portfolio::standard_members(Some(bus.clone())),
            mode: PortfolioMode::Parallel(bus),
        }
    }

    /// The standard members, with the bus handle wired into the engines
    /// that speak it (BMC and k-induction consume cubes, IC3 publishes
    /// cubes and absorbs merges, interpolation publishes singleton
    /// invariants on safe conclusions).
    fn standard_members(bus: Option<Arc<LemmaBus>>) -> Vec<Box<dyn Engine>> {
        vec![
            Box::new(Bmc {
                max_depth: 32,
                bus: bus.clone(),
            }),
            Box::new(KInduction {
                max_k: 40,
                bus: bus.clone(),
            }),
            Box::new(Ic3 {
                bus: bus.clone(),
                ..Ic3::default()
            }),
            Box::new(Itp {
                bus,
                ..Itp::default()
            }),
            Box::new(CircuitUmc::default()),
            Box::new(BddUmc::default()),
        ]
    }
}

impl Default for Portfolio {
    fn default() -> Portfolio {
        Portfolio::standard()
    }
}

/// Closes a portfolio run record.
fn finish(verdict: Verdict, mut stats: McStats, detail: PortfolioStats, meter: &Meter) -> McRun {
    stats.elapsed = meter.elapsed();
    McRun::new(verdict, stats).with_detail::<PortfolioStats>(detail)
}

/// Folds one member's bus-consumer counters into the aggregate.
fn absorb_client_stats(clients: &mut BusClientStats, run: &McRun) {
    if let Some(s) = run.detail::<BmcStats>() {
        clients.absorb(&s.bus);
    } else if let Some(s) = run.detail::<KInductionStats>() {
        clients.absorb(&s.bus);
    } else if let Some(s) = run.detail::<Ic3Stats>() {
        clients.absorb(&s.bus);
    }
}

impl Engine for Portfolio {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn check(&self, net: &Network, budget: &Budget) -> McRun {
        let meter = Meter::start(budget);
        let stats = McStats {
            engine: self.name(),
            ..McStats::default()
        };
        let detail = PortfolioStats {
            runs: Vec::new(),
            parallel: matches!(self.mode, PortfolioMode::Parallel(_)),
            bus: None,
        };
        if self.members.is_empty() {
            let verdict = Verdict::Unknown {
                reason: "portfolio has no members".to_string(),
            };
            return finish(verdict, stats, detail, &meter);
        }
        // A zero budget bounds the portfolio before any member runs.
        if let Some(verdict) = meter.exceeded(0, 0, 0) {
            return finish(verdict, stats, detail, &meter);
        }
        match &self.mode {
            PortfolioMode::Sequential => self.check_sequential(net, budget, meter, stats, detail),
            PortfolioMode::Parallel(bus) => {
                self.check_parallel(net, budget, bus, meter, stats, detail)
            }
        }
    }
}

impl Portfolio {
    fn check_sequential(
        &self,
        net: &Network,
        budget: &Budget,
        meter: Meter,
        mut stats: McStats,
        mut detail: PortfolioStats,
    ) -> McRun {
        let mut last_bounded: Option<Verdict> = None;
        for (i, member) in self.members.iter().enumerate() {
            let left = (self.members.len() - i) as u32;
            // Divide the remaining clock among the members still to run,
            // so an early member cannot starve the rest. Once the
            // remainder rounds to zero milliseconds there is no slice
            // worth handing out: stop citing the caller's own limit
            // instead of running a member against `limit: 0`.
            let mut slice_timeout = None;
            if let Some(t) = budget.timeout {
                let remaining = t.saturating_sub(meter.elapsed());
                if remaining < Duration::from_millis(1) {
                    last_bounded = Some(Verdict::Bounded {
                        resource: Resource::WallClock,
                        limit: t.as_millis() as u64,
                    });
                    break;
                }
                slice_timeout = Some((remaining / left).max(Duration::from_millis(1)));
            }
            let slice = Budget {
                // Cumulative axes: whatever the caller's budget has left.
                max_steps: budget.max_steps.map(|s| s.saturating_sub(stats.iterations)),
                max_sat_checks: budget
                    .max_sat_checks
                    .map(|s| s.saturating_sub(stats.sat_checks)),
                // Peak axis: each member builds and drops its own
                // manager, so the caller's limit applies whole.
                max_nodes: budget.max_nodes,
                timeout: slice_timeout,
                // Cooperative cancellation passes straight through.
                cancel: budget.cancel.clone(),
            };
            let run = member.check(net, &slice);
            // A member bounded on a cumulative axis consumed exactly its
            // slice limit (engines trip at `spent >= limit`); its own
            // iteration counter can sit one below that, which would
            // over-grant the next member.
            stats.iterations += match run.verdict {
                Verdict::Bounded {
                    resource: Resource::Steps,
                    limit,
                } => limit as usize,
                _ => run.stats.iterations,
            };
            stats.sat_checks += match run.verdict {
                Verdict::Bounded {
                    resource: Resource::SatChecks,
                    limit,
                } => limit,
                _ => run.stats.sat_checks,
            };
            stats.peak_nodes = stats.peak_nodes.max(run.stats.peak_nodes);
            let conclusive = run.verdict.is_conclusive();
            if run.verdict.is_bounded() {
                last_bounded = Some(run.verdict.clone());
            }
            let verdict = run.verdict.clone();
            detail.runs.push((member.name(), run));
            if conclusive {
                return finish(verdict, stats, detail, &meter);
            }
            // Stop once the caller's own budget is spent — this reports
            // the limits the caller actually set, not a member's slice.
            if let Some(bounded) =
                meter.exceeded(stats.iterations, stats.peak_nodes, stats.sat_checks)
            {
                return finish(bounded, stats, detail, &meter);
            }
        }
        // Nothing conclusive: report budget exhaustion if any member hit
        // it — citing the caller's limit, not the member's slice — else
        // the portfolio as a whole is stumped.
        let verdict = match last_bounded {
            Some(bounded) => cite_caller(budget, bounded),
            None => Verdict::Unknown {
                reason: "no member engine was conclusive".to_string(),
            },
        };
        finish(verdict, stats, detail, &meter)
    }

    fn check_parallel(
        &self,
        net: &Network,
        budget: &Budget,
        bus: &LemmaBus,
        meter: Meter,
        mut stats: McStats,
        mut detail: PortfolioStats,
    ) -> McRun {
        let n = self.members.len();
        let before = bus.counts();
        let cancels: Vec<Arc<AtomicBool>> =
            (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let scout_cancel = Arc::new(AtomicBool::new(false));
        // Every member gets the caller's full budget (cumulative axes
        // apply per member in parallel mode — wall clock is the shared
        // axis that matters) plus its private cancel flag.
        let results: Vec<Option<McRun>> = std::thread::scope(|s| {
            let cancels = &cancels;
            let scout_cancel = &scout_cancel;
            let handles: Vec<_> = self
                .members
                .iter()
                .enumerate()
                .map(|(i, member)| {
                    let slice = budget.clone().with_cancel(cancels[i].clone());
                    s.spawn(move || {
                        let run = member.check(net, &slice);
                        if run.verdict.is_conclusive() {
                            // First conclusive answer cancels every
                            // *later* member; earlier members run to
                            // completion so the winner is deterministic
                            // (smallest conclusive index — exactly the
                            // sequential winner, trace included).
                            for flag in cancels.iter().skip(i + 1) {
                                flag.store(true, Ordering::Relaxed);
                            }
                            scout_cancel.store(true, Ordering::Relaxed);
                        }
                        run
                    })
                })
                .collect();
            let scout = s.spawn(move || merge_scout(net, bus, scout_cancel.as_ref()));
            let results: Vec<Option<McRun>> = handles.into_iter().map(|h| h.join().ok()).collect();
            // All members are done; stop the scout even when nobody
            // concluded, then wait for it.
            scout_cancel.store(true, Ordering::Relaxed);
            let _ = scout.join();
            results
        });
        // Aggregate in member order; a panicked member yields an Unknown
        // placeholder and can never win.
        let mut winner: Option<(usize, Verdict)> = None;
        let mut last_bounded: Option<Verdict> = None;
        for (i, (member, result)) in self.members.iter().zip(results).enumerate() {
            let run = result.unwrap_or_else(|| {
                McRun::new(
                    Verdict::Unknown {
                        reason: "member engine panicked".to_string(),
                    },
                    McStats {
                        engine: "panicked",
                        ..McStats::default()
                    },
                )
            });
            stats.sat_checks += run.stats.sat_checks;
            stats.peak_nodes = stats.peak_nodes.max(run.stats.peak_nodes);
            if run.verdict.is_conclusive() && winner.is_none() {
                winner = Some((i, run.verdict.clone()));
                stats.iterations = run.stats.iterations;
            }
            if run.verdict.is_bounded() && winner.is_none() {
                last_bounded = Some(run.verdict.clone());
            }
            detail.runs.push((member.name(), run));
        }
        let after = bus.counts();
        let mut clients = BusClientStats::default();
        for (_, run) in &detail.runs {
            absorb_client_stats(&mut clients, run);
        }
        detail.bus = Some(PortfolioBusStats {
            published: BusCounts {
                cubes: after.cubes - before.cubes,
                merges: after.merges - before.merges,
            },
            clients,
        });
        let verdict = match winner {
            Some((_, verdict)) => verdict,
            None => match last_bounded {
                Some(bounded) => cite_caller(budget, bounded),
                None => Verdict::Unknown {
                    reason: "no member engine was conclusive".to_string(),
                },
            },
        };
        finish(verdict, stats, detail, &meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_ckt::generators;
    use std::time::Instant;

    #[test]
    fn settles_safe_and_buggy_circuits() {
        let portfolio = Portfolio::standard();
        let run = portfolio.check(&generators::token_ring(5), &Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
        let detail = run.detail::<PortfolioStats>().expect("portfolio stats");
        // BMC cannot prove safety, so a later member must have won.
        assert!(detail.runs.len() >= 2);
        assert!(detail.runs.last().unwrap().1.verdict.is_safe());
        assert!(!detail.parallel);

        let buggy = generators::token_ring_bug(5);
        let run = portfolio.check(&buggy, &Budget::unlimited());
        match &run.verdict {
            Verdict::Unsafe { trace } => {
                assert!(trace.validates(&buggy));
                assert_eq!(trace.len(), 4, "BMC member finds the minimal cex");
            }
            other => panic!("expected unsafe, got {other}"),
        }
    }

    #[test]
    fn parallel_matches_sequential_verdicts_and_traces() {
        for net in [
            generators::token_ring(5),
            generators::token_ring_bug(5),
            generators::mutex(),
            generators::mutex_bug(),
            generators::gray_counter(4),
        ] {
            let seq = Portfolio::standard().check(&net, &Budget::unlimited());
            let par = Portfolio::standard_parallel().check(&net, &Budget::unlimited());
            assert_eq!(seq.verdict, par.verdict, "{} diverged", net.name());
            let detail = par.detail::<PortfolioStats>().expect("stats");
            assert!(detail.parallel);
            assert!(detail.bus.is_some());
            assert_eq!(detail.runs.len(), 6, "every member reports");
        }
    }

    /// A member that can only be stopped by the cooperative cancel flag.
    struct Spin;
    impl Engine for Spin {
        fn name(&self) -> &'static str {
            "spin"
        }
        fn check(&self, _net: &Network, budget: &Budget) -> McRun {
            let meter = Meter::start(budget);
            loop {
                if let Some(v) = meter.exceeded(0, 0, 0) {
                    let stats = McStats {
                        engine: "spin",
                        elapsed: meter.elapsed(),
                        ..McStats::default()
                    };
                    return McRun::new(v, stats);
                }
                std::thread::yield_now();
            }
        }
    }

    /// A member that answers `Safe` immediately.
    struct Quick;
    impl Engine for Quick {
        fn name(&self) -> &'static str {
            "quick"
        }
        fn check(&self, _net: &Network, _budget: &Budget) -> McRun {
            McRun::new(
                Verdict::Safe { iterations: 0 },
                McStats {
                    engine: "quick",
                    ..McStats::default()
                },
            )
        }
    }

    #[test]
    fn winner_cancels_later_members_promptly() {
        // Spin never terminates on its own: only the winner's cancel
        // reaches it. The whole check must finish in gate-poll time, not
        // hang — this is the cancellation-latency regression.
        let portfolio = Portfolio {
            members: vec![Box::new(Quick), Box::new(Spin)],
            mode: PortfolioMode::Parallel(Arc::default()),
        };
        let start = Instant::now();
        let run = portfolio.check(&generators::mutex(), &Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "losers did not exit promptly: {:?}",
            start.elapsed()
        );
        let detail = run.detail::<PortfolioStats>().expect("stats");
        let spin = &detail.runs[1].1;
        match &spin.verdict {
            Verdict::Unknown { reason } => {
                assert!(reason.contains("cancelled"), "got {reason}")
            }
            other => panic!("expected a cancelled loser, got {other}"),
        }
    }

    #[test]
    fn earlier_members_finish_before_the_winner_is_picked() {
        // Quick sits *behind* BMC: its instant Safe answer must not
        // cancel or outrank the earlier member. On a buggy model BMC
        // still delivers its minimal-depth counterexample.
        let buggy = generators::token_ring_bug(5);
        let portfolio = Portfolio {
            members: vec![
                Box::new(Bmc {
                    max_depth: 32,
                    ..Bmc::default()
                }),
                Box::new(Quick),
            ],
            mode: PortfolioMode::Parallel(Arc::default()),
        };
        let run = portfolio.check(&buggy, &Budget::unlimited());
        match &run.verdict {
            Verdict::Unsafe { trace } => {
                assert!(trace.validates(&buggy));
                assert_eq!(trace.len(), 4, "BMC's minimal cex must win");
            }
            other => panic!("expected unsafe, got {other}"),
        }
    }

    #[test]
    fn poisoned_bus_cannot_change_the_verdict() {
        for (net, safe) in [
            (generators::token_ring(5), true),
            (generators::token_ring_bug(5), false),
        ] {
            let portfolio = Portfolio::standard_parallel();
            let PortfolioMode::Parallel(bus) = &portfolio.mode else {
                panic!("standard_parallel runs sequentially");
            };
            // Deliberately junk publications: a non-inductive cube, a
            // reset-intersecting cube, garbage ordinals, and a bogus
            // merge in out-of-range coordinates.
            bus.publish_cube(vec![(0, true), (1, true)]);
            bus.publish_cube(vec![(0, false), (1, false)]);
            bus.publish_cube(vec![(731, true)]);
            bus.publish_merge(
                cbq_aig::Var::from_index(1 << 20).lit(),
                cbq_aig::Var::from_index((1 << 20) + 1).lit(),
            );
            let run = portfolio.check(&net, &Budget::unlimited());
            assert_eq!(run.verdict.is_safe(), safe, "{} flipped", net.name());
        }
    }

    #[test]
    fn aggregates_member_stats() {
        let run = Portfolio::standard().check(&generators::mutex(), &Budget::unlimited());
        assert!(run.stats.sat_checks > 0);
        assert!(run.stats.peak_nodes > 0);
        assert_eq!(run.stats.engine, "portfolio");
    }

    #[test]
    fn zero_budget_is_bounded_immediately() {
        let run = Portfolio::standard().check(
            &generators::token_ring(5),
            &Budget::unlimited().with_steps(0),
        );
        assert!(run.verdict.is_bounded(), "got {}", run.verdict);
        assert!(run.detail::<PortfolioStats>().unwrap().runs.is_empty());
    }

    #[test]
    fn small_step_budget_reaches_the_first_member_whole() {
        // A 5-step budget must hand the BMC member enough depth frames
        // to find the depth-3 bug (an even per-member split would give
        // each of the four members one step and find nothing).
        let buggy = generators::token_ring_bug(5);
        let run = Portfolio::standard().check(&buggy, &Budget::unlimited().with_steps(5));
        assert!(run.verdict.is_unsafe(), "got {}", run.verdict);
    }

    #[test]
    fn node_budget_applies_per_member_not_divided() {
        // The node axis is a peak: a limit that covers the largest
        // single member must let the portfolio conclude.
        let net = generators::mutex();
        let generous = Portfolio::standard().check(&net, &Budget::unlimited());
        let peak = generous.stats.peak_nodes;
        assert!(generous.verdict.is_safe());
        let run = Portfolio::standard().check(&net, &Budget::unlimited().with_nodes(peak));
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
    }

    #[test]
    fn exhausted_clock_cites_the_caller_limit_not_zero() {
        // Burn the whole (tiny) clock in the first member: the later
        // members must be skipped, and the verdict must cite the
        // caller's millisecond limit — never `limit: 0`.
        let portfolio = Portfolio {
            members: vec![Box::new(Spin), Box::new(Spin), Box::new(Spin)],
            mode: PortfolioMode::Sequential,
        };
        let timeout = Duration::from_millis(30);
        let run = portfolio.check(
            &generators::mutex(),
            &Budget::unlimited().with_timeout(timeout),
        );
        match run.verdict {
            Verdict::Bounded {
                resource: Resource::WallClock,
                limit,
            } => assert_eq!(limit, timeout.as_millis() as u64),
            ref other => panic!("expected a wall-clock bound, got {other}"),
        }
    }

    #[test]
    fn empty_portfolio_is_unknown() {
        let run = Portfolio::new(Vec::new()).check(&generators::mutex(), &Budget::unlimited());
        assert!(matches!(run.verdict, Verdict::Unknown { .. }));
    }
}
