//! # cbq-bench — the evaluation harness
//!
//! One section per experiment (E1–E8, described in the README's
//! *Experiments* section; committed snapshots in `BENCH.md`). Each
//! experiment exposes a `*_table()` function that regenerates the
//! corresponding table/figure as a [`Table`] of printed rows; the
//! `report` binary dispatches on experiment ids.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::Instant;

use cbq_aig::sim::BitSim;
use cbq_aig::{Aig, Lit, Var};
use cbq_cec::{sweep, MergeOrder, SweepConfig};
use cbq_ckt::generators;
use cbq_ckt::random::similar_pair;
use cbq_ckt::Network;
use cbq_cnf::{AigCnf, ProofMode};
use cbq_core::{exists_bdd, exists_many, QuantConfig};
use cbq_mc::ganai::all_solutions_exists;
use cbq_mc::preimage::preimage_formula;
use cbq_mc::sweep::SweepConfig as StateSweepConfig;
use cbq_mc::{
    registry, Bmc, Budget, CircuitUmc, CircuitUmcStats, Engine, GenMode, Ic3, Ic3Stats, Itp,
    ItpStats, PartitionCount, PartitionStats, Portfolio, PortfolioBusStats, PortfolioStats,
    Verdict,
};
use cbq_synth::OptConfig;

/// A printable table of experiment results.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (experiment id and claim).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn push(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                write!(f, "{:<w$}  ", cell, w = widths.get(i).copied().unwrap_or(8))?;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

fn ms(start: Instant) -> String {
    format!("{:.1}", start.elapsed().as_secs_f64() * 1e3)
}

/// The circuits whose one-step pre-image formulas drive the
/// quantification experiments.
pub fn quant_workloads() -> Vec<Network> {
    vec![
        generators::arbiter(8),
        generators::fifo_ctrl(4),
        generators::mutex(),
        generators::token_ring_bug(8),
        generators::counter_bug(10, 512),
        generators::shift_ones(10),
    ]
}

/// Builds the raw pre-image formula (over state and inputs) of a
/// network's bad states, iterated `steps` times with full quantification
/// in between (the realistic workload of backward reachability).
pub fn preimage_workload(net: &Network, steps: usize) -> (Aig, Lit, Vec<Var>) {
    let mut aig = net.aig().clone();
    let pis: Vec<Var> = net.primary_inputs().to_vec();
    let mut cnf = AigCnf::new();
    let mut target = net.bad();
    for _ in 0..steps {
        let q = exists_many(&mut aig, target, &pis, &mut cnf, &QuantConfig::full());
        target = preimage_formula(&mut aig, net, q.lit);
    }
    (aig, target, pis)
}

/// The canonical-blow-up workload: product bit `bit` of an `n×m` array
/// multiplier, with the first `quantify` x-operand bits to eliminate.
/// Multiplier middle bits have exponential BDDs under any order but
/// linear AIGs — the paper's motivating asymmetry.
pub fn multiplier_workload(
    n: usize,
    m: usize,
    bit: usize,
    quantify: usize,
) -> (Aig, Lit, Vec<Var>) {
    let mut aig = Aig::new();
    let xv: Vec<Var> = (0..n).map(|_| aig.add_input()).collect();
    let yv: Vec<Var> = (0..m).map(|_| aig.add_input()).collect();
    let xs: Vec<Lit> = xv.iter().map(|v| v.lit()).collect();
    let ys: Vec<Lit> = yv.iter().map(|v| v.lit()).collect();
    let prod = cbq_ckt::arith::multiplier(&mut aig, &xs, &ys);
    (aig, prod[bit], xv[..quantify].to_vec())
}

/// A factorisation workload for the enumeration experiment: the
/// predicate `x * y == target` over `n`-bit operands, quantifying `y`.
/// `∃y` has one "solution region" per divisor — all-solutions SAT needs
/// one cofactor per region, while circuit quantification handles it
/// symbolically.
pub fn factor_workload(n: usize, target: u64) -> (Aig, Lit, Vec<Var>) {
    let mut aig = Aig::new();
    let xv: Vec<Var> = (0..n).map(|_| aig.add_input()).collect();
    let yv: Vec<Var> = (0..n).map(|_| aig.add_input()).collect();
    let xs: Vec<Lit> = xv.iter().map(|v| v.lit()).collect();
    let ys: Vec<Lit> = yv.iter().map(|v| v.lit()).collect();
    let prod = cbq_ckt::arith::multiplier(&mut aig, &xs, &ys);
    let eq_bits: Vec<Lit> = prod
        .iter()
        .enumerate()
        .map(|(i, p)| p.xor_sign((target >> i) & 1 == 0))
        .collect();
    let f = aig.and_many(&eq_bits);
    (aig, f, yv)
}

// ---------------------------------------------------------------------
// E1 / Table 1 — quantification compaction
// ---------------------------------------------------------------------

/// E1: AIG sizes after quantifying all inputs from a pre-image formula,
/// for naive / merge-only / merge+opt, plus the BDD size baseline.
pub fn e1_table() -> Table {
    let mut t = Table::new(
        "E1 / Table 1 — quantification compaction (AND gates; BDD nodes)",
        &[
            "circuit",
            "pre",
            "vars",
            "naive",
            "merge",
            "merge+opt",
            "bdd",
            "ms(full)",
        ],
    );
    let mut workloads: Vec<(String, Aig, Lit, Vec<Var>)> = quant_workloads()
        .into_iter()
        .map(|net| {
            let (aig, pre, pis) = preimage_workload(&net, 1);
            (net.name().to_string(), aig, pre, pis)
        })
        .collect();
    let (maig, mf, mvars) = multiplier_workload(7, 7, 8, 3);
    workloads.push(("mult7x7.b8".to_string(), maig, mf, mvars));
    for (name, aig0, pre, pis) in workloads {
        let mut row = vec![name, aig0.cone_size(pre).to_string(), pis.len().to_string()];
        for cfg in [
            QuantConfig::naive(),
            QuantConfig::merge_only(),
            QuantConfig::full(),
        ] {
            let mut aig = aig0.clone();
            let mut cnf = AigCnf::new();
            let start = Instant::now();
            let res = exists_many(&mut aig, pre, &pis, &mut cnf, &cfg);
            let size = aig.cone_size(res.lit);
            if cfg.use_merge && cfg.use_opt {
                row.push(size.to_string());
                let mut aig_b = aig0.clone();
                let bdd = exists_bdd(&mut aig_b, pre, &pis, 2_000_000)
                    .map(|(_, s)| s.to_string())
                    .unwrap_or_else(|| ">cap".to_string());
                row.push(bdd);
                row.push(ms(start));
            } else {
                row.push(size.to_string());
            }
        }
        t.push(row);
    }
    t
}

// ---------------------------------------------------------------------
// E2 / Table 2 — factorised SAT-merge on one clause database
// ---------------------------------------------------------------------

/// Candidate merge pairs of two functions' cones, by simulation
/// signature (phase-normalised).
pub fn candidate_pairs(aig: &Aig, f: Lit, g: Lit, words: usize, seed: u64) -> Vec<(Lit, Lit)> {
    let sim = BitSim::random(aig, words, seed);
    let mut groups: std::collections::HashMap<Vec<u64>, Vec<Lit>> = Default::default();
    for v in aig.collect_cone(&[f, g]) {
        if v == Var::CONST {
            continue;
        }
        let (sig, flip) = sim.normalized_signature(v.lit());
        groups.entry(sig).or_default().push(v.lit().xor_sign(flip));
    }
    let mut pairs = Vec::new();
    for (_, mut members) in groups {
        if members.len() < 2 {
            continue;
        }
        members.sort_unstable();
        let repr = members[0];
        for m in &members[1..] {
            pairs.push((repr, *m));
        }
    }
    pairs.sort_unstable();
    pairs
}

/// E2 kernel: proves a list of candidate pairs either with a fresh solver
/// per check or on one shared database. Returns
/// `(proved, conflicts, decisions, encoded_gates)`.
pub fn satmerge_run(aig: &Aig, pairs: &[(Lit, Lit)], shared: bool) -> (usize, u64, u64, u64) {
    let mut proved = 0usize;
    let mut conflicts = 0u64;
    let mut decisions = 0u64;
    let mut encoded = 0u64;
    let mut shared_cnf = AigCnf::new();
    for (a, b) in pairs {
        if shared {
            if shared_cnf.prove_equiv(aig, *a, *b, None).is_equiv() {
                proved += 1;
            }
        } else {
            let mut cnf = AigCnf::new();
            if cnf.prove_equiv(aig, *a, *b, None).is_equiv() {
                proved += 1;
            }
            conflicts += cnf.solver().stats().conflicts;
            decisions += cnf.solver().stats().decisions;
            encoded += cnf.stats().encoded_ands;
        }
    }
    if shared {
        conflicts = shared_cnf.solver().stats().conflicts;
        decisions = shared_cnf.solver().stats().decisions;
        encoded = shared_cnf.stats().encoded_ands;
    }
    (proved, conflicts, decisions, encoded)
}

/// E2: per-check fresh solvers vs the paper's shared clause database.
pub fn e2_table() -> Table {
    let mut t = Table::new(
        "E2 / Table 2 — factorised SAT-merge (shared clause database)",
        &[
            "gates",
            "pairs",
            "mode",
            "proved",
            "conflicts",
            "decisions",
            "encoded",
            "ms",
        ],
    );
    for ops in [30usize, 80, 160] {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..12).map(|_| aig.add_input().lit()).collect();
        let (f, g) = similar_pair(&mut aig, &ins, ops, 0.08, 7);
        let pairs = candidate_pairs(&aig, f, g, 4, 9);
        for shared in [false, true] {
            let start = Instant::now();
            let (proved, conflicts, decisions, encoded) = satmerge_run(&aig, &pairs, shared);
            t.push(vec![
                ops.to_string(),
                pairs.len().to_string(),
                if shared { "shared" } else { "fresh" }.to_string(),
                proved.to_string(),
                conflicts.to_string(),
                decisions.to_string(),
                encoded.to_string(),
                ms(start),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E3 / Fig. 1 — forward vs backward merge order vs similarity
// ---------------------------------------------------------------------

/// E3 kernel: sweeps a cofactor-like pair at the given mutation rate with
/// the given order; returns (sat checks, skipped points, merged, ms).
pub fn order_run(rate: f64, order: MergeOrder, ops: usize) -> (u64, u64, usize, f64) {
    let mut aig = Aig::new();
    let ins: Vec<Lit> = (0..12).map(|_| aig.add_input().lit()).collect();
    let (f, g) = similar_pair(&mut aig, &ins, ops, rate, 21);
    let mut cnf = AigCnf::new();
    let cfg = SweepConfig {
        use_bdd_sweep: false,
        order,
        ..SweepConfig::default()
    };
    let start = Instant::now();
    let res = sweep(&mut aig, &[f, g], &mut cnf, &cfg);
    (
        res.stats.sat_checks,
        res.stats.skipped_out_of_cone,
        res.stats.merged_sat,
        start.elapsed().as_secs_f64() * 1e3,
    )
}

/// E3: the two orders across a similarity sweep.
pub fn e3_table() -> Table {
    let mut t = Table::new(
        "E3 / Fig. 1 — merge order vs cofactor similarity (80-op pairs)",
        &["mutation", "order", "sat checks", "skipped", "merged", "ms"],
    );
    for rate in [0.0, 0.02, 0.05, 0.1, 0.2, 0.5] {
        for order in [MergeOrder::Forward, MergeOrder::Backward] {
            let (checks, skipped, merged, time) = order_run(rate, order, 80);
            t.push(vec![
                format!("{rate:.2}"),
                format!("{order:?}"),
                checks.to_string(),
                skipped.to_string(),
                merged.to_string(),
                format!("{time:.1}"),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E4 / Fig. 2 — merge-tier effectiveness
// ---------------------------------------------------------------------

/// The E4 sweep configurations: label, whether the BDD tier runs, and
/// its per-node cap.
pub const E4_CAPS: [(&str, bool, usize); 3] =
    [("2000", true, 2000), ("40", true, 40), ("off", false, 0)];

/// The E4 workloads: (name, AIG, f1, f0), where `f1`/`f0` are the two
/// cofactors the merge phase sweeps together. Cofactor pairs from real
/// pre-images plus two synthetic pairs with plentiful compare points.
pub fn e4_workloads() -> Vec<(String, Aig, Lit, Lit)> {
    let mut workloads: Vec<(String, Aig, Lit, Lit)> = Vec::new();
    for net in quant_workloads() {
        let (mut aig, pre, pis) = preimage_workload(&net, 1);
        let Some(v) = pis.iter().find(|v| aig.support_contains(pre, **v)) else {
            continue;
        };
        let (f1, f0) = aig.cofactors(pre, *v);
        workloads.push((net.name().to_string(), aig, f1, f0));
    }
    for (ops, rate, seed) in [(60usize, 0.05f64, 31u64), (120, 0.1, 32)] {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..12).map(|_| aig.add_input().lit()).collect();
        let (f, g) = similar_pair(&mut aig, &ins, ops, rate, seed);
        workloads.push((format!("pair{ops}@{rate}"), aig, f, g));
    }
    workloads
}

/// E4: which tier (structural sharing / BDD sweeping / SAT) discovers the
/// merge points, and how the load shifts when the BDD cap shrinks.
pub fn e4_table() -> Table {
    let mut t = Table::new(
        "E4 / Fig. 2 — merge tiers (structural / BDD sweep / SAT)",
        &[
            "workload",
            "bdd cap",
            "shared(strash)",
            "classes",
            "bdd",
            "sat",
            "cex",
        ],
    );
    for (name, aig0, f1, f0) in e4_workloads() {
        let shared = {
            let c1: std::collections::HashSet<Var> = aig0.collect_cone(&[f1]).into_iter().collect();
            aig0.collect_cone(&[f0])
                .into_iter()
                .filter(|x| c1.contains(x))
                .count()
        };
        for (cap_label, use_bdd, cap) in E4_CAPS {
            let mut aig = aig0.clone();
            let mut cnf = AigCnf::new();
            let cfg = SweepConfig {
                use_bdd_sweep: use_bdd,
                bdd_cap: cap,
                ..SweepConfig::default()
            };
            let res = sweep(&mut aig, &[f1, f0], &mut cnf, &cfg);
            t.push(vec![
                name.clone(),
                cap_label.to_string(),
                shared.to_string(),
                res.stats.classes_initial.to_string(),
                res.stats.merged_bdd.to_string(),
                res.stats.merged_sat.to_string(),
                res.stats.sat_cex.to_string(),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E5 / Table 3 — don't-care optimisation ablation
// ---------------------------------------------------------------------

/// E5: sizes after quantification with the optimisation passes toggled.
pub fn e5_table() -> Table {
    let mut t = Table::new(
        "E5 / Table 3 — DC-based optimisation ablation (AND gates)",
        &[
            "circuit",
            "merge only",
            "+input DC",
            "+ODC",
            "const",
            "merges",
            "odc",
        ],
    );
    for net in quant_workloads() {
        let (aig0, pre, pis) = preimage_workload(&net, 1);
        let merge_only = {
            let mut aig = aig0.clone();
            let mut cnf = AigCnf::new();
            let res = exists_many(&mut aig, pre, &pis, &mut cnf, &QuantConfig::merge_only());
            aig.cone_size(res.lit)
        };
        let (dc_size, dc_stats) = {
            let mut aig = aig0.clone();
            let mut cnf = AigCnf::new();
            let res = exists_many(&mut aig, pre, &pis, &mut cnf, &QuantConfig::full());
            (aig.cone_size(res.lit), res.stats.opt)
        };
        let (odc_size, odc_stats) = {
            let mut aig = aig0.clone();
            let mut cnf = AigCnf::new();
            let mut cfg = QuantConfig::full();
            cfg.opt = OptConfig {
                use_odc: true,
                ..OptConfig::default()
            };
            let res = exists_many(&mut aig, pre, &pis, &mut cnf, &cfg);
            (aig.cone_size(res.lit), res.stats.opt)
        };
        t.push(vec![
            net.name().to_string(),
            merge_only.to_string(),
            dc_size.to_string(),
            odc_size.to_string(),
            (dc_stats.const_applied + odc_stats.const_applied).to_string(),
            (dc_stats.merge_applied + odc_stats.merge_applied).to_string(),
            odc_stats.odc_applied.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6 / Table 4 — UMC engine comparison
// ---------------------------------------------------------------------

/// The suite for the engine-comparison table.
pub fn umc_suite() -> Vec<Network> {
    vec![
        generators::token_ring(10),
        generators::bounded_counter_gap(6, 20, 50),
        generators::gray_counter(10),
        generators::arbiter(7),
        generators::mutex(),
        generators::lfsr(10, &[0, 2, 3, 5]),
        generators::fifo_ctrl(4),
        generators::token_ring_bug(8),
        generators::mutex_bug(),
        generators::shift_ones(8),
        generators::counter_bug(8, 60),
    ]
}

/// A verdict as a table cell / comparison key: classification plus the
/// count that must be stable across equivalent runs (fixpoint iteration
/// or minimal counterexample depth), never the concrete trace inputs.
pub fn verdict_cell(v: &Verdict) -> String {
    match v {
        Verdict::Safe { iterations } => format!("safe@{iterations}"),
        Verdict::Unsafe { trace } => format!("cex@{}", trace.len() - 1),
        Verdict::Bounded { resource, .. } => format!("bounded({resource})"),
        Verdict::Unknown { .. } => "unknown".to_string(),
    }
}

/// The per-engine, per-circuit budget of the comparison table: generous
/// enough for every suite member, tight enough that a regression shows
/// up as `bounded(...)` instead of a stalled report.
pub fn e6_budget() -> Budget {
    Budget::unlimited().with_timeout(std::time::Duration::from_secs(30))
}

/// E6: verdict, effort, and representation peaks for every registered
/// engine — the registry *is* the comparison.
pub fn e6_table() -> Table {
    let mut header = vec!["circuit".to_string()];
    for spec in registry() {
        header.push(spec.name.to_string());
        header.push("nodes".to_string());
        header.push("ms".to_string());
    }
    let mut t = Table {
        title: "E6 / Table 4 — UMC comparison across the engine registry".to_string(),
        header,
        rows: Vec::new(),
    };
    let budget = e6_budget();
    for net in umc_suite() {
        let mut row = vec![net.name().to_string()];
        for spec in registry() {
            let run = (spec.build)().check(&net, &budget);
            row.push(verdict_cell(&run.verdict));
            row.push(run.stats.peak_nodes.to_string());
            row.push(format!("{:.1}", run.stats.elapsed.as_secs_f64() * 1e3));
        }
        t.push(row);
    }
    t
}

// ---------------------------------------------------------------------
// E6s — state-set sweeping ablation (frontier-size trajectory)
// ---------------------------------------------------------------------

/// Median of a size profile (0 for an empty one).
pub fn median(sizes: &[usize]) -> usize {
    let mut sorted = sizes.to_vec();
    sorted.sort_unstable();
    sorted.get(sorted.len() / 2).copied().unwrap_or(0)
}

/// E6s kernel: one circuit-engine run with the given sweep setting.
/// Returns (verdict, reached size, median frontier, peak nodes, ms).
pub fn sweep_run(
    net: &Network,
    sweep: Option<StateSweepConfig>,
    budget: &Budget,
) -> (Verdict, usize, usize, usize, f64) {
    let engine = CircuitUmc {
        sweep,
        ..CircuitUmc::default()
    };
    let start = Instant::now();
    let run = engine.check(net, budget);
    let detail = run.detail::<CircuitUmcStats>().expect("circuit stats");
    (
        run.verdict.clone(),
        detail.reached_size,
        median(&detail.frontier_sizes),
        detail.peak_nodes,
        start.elapsed().as_secs_f64() * 1e3,
    )
}

/// E6s: the frontier-size trajectory of the circuit engine with
/// state-set sweeping on (eager) vs off, across the E6 suite. The claim:
/// sweeping strictly shrinks the reached set and the median frontier on
/// redundancy-heavy traversals while preserving every verdict.
pub fn e6s_table() -> Table {
    let mut t = Table::new(
        "E6s — state-set sweeping ablation (circuit engine, AND gates)",
        &[
            "circuit",
            "verdict",
            "reached off",
            "reached on",
            "medfront off",
            "medfront on",
            "peak off",
            "peak on",
            "ms off",
            "ms on",
        ],
    );
    let budget = e6_budget();
    for net in umc_suite() {
        let (v_off, r_off, f_off, p_off, ms_off) = sweep_run(&net, None, &budget);
        let (v_on, r_on, f_on, p_on, ms_on) =
            sweep_run(&net, Some(StateSweepConfig::eager()), &budget);
        let verdict = if verdict_cell(&v_off) == verdict_cell(&v_on) {
            verdict_cell(&v_off)
        } else {
            format!("{} != {}", verdict_cell(&v_off), verdict_cell(&v_on))
        };
        t.push(vec![
            net.name().to_string(),
            verdict,
            r_off.to_string(),
            r_on.to_string(),
            f_off.to_string(),
            f_on.to_string(),
            p_off.to_string(),
            p_on.to_string(),
            format!("{ms_off:.1}"),
            format!("{ms_on:.1}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6p — partitioned vs monolithic state sets (circuit engine)
// ---------------------------------------------------------------------

/// E6p kernel: one circuit-engine run at the given partition count.
/// Returns (verdict, reached size, partition stats, ms).
pub fn partition_run(
    net: &Network,
    count: PartitionCount,
    budget: &Budget,
) -> (Verdict, usize, PartitionStats, f64) {
    // Fixed(1) keeps the resplit watermark off: genuinely monolithic.
    let engine = CircuitUmc {
        partition: count,
        ..CircuitUmc::default()
    };
    let start = Instant::now();
    let run = engine.check(net, budget);
    let detail = run.detail::<CircuitUmcStats>().expect("circuit stats");
    (
        run.verdict.clone(),
        detail.reached_size,
        detail.partitions.clone(),
        start.elapsed().as_secs_f64() * 1e3,
    )
}

/// E6p: the partitioned state-set ablation across the E6 suite — the
/// circuit engine monolithic (`x1`) vs partitioned (`x4`) vs one
/// partition per core (`auto`). The claims: verdicts (and fixpoint
/// iterations / cex depths) are identical at every partition count, and
/// on redundancy-heavy models the largest per-partition state cone stays
/// strictly below the monolithic reached-set representation.
pub fn e6p_table() -> Table {
    let mut t = Table::new(
        "E6p — partitioned state sets (circuit engine, AND gates)",
        &[
            "circuit",
            "verdict",
            "reached x1",
            "maxcone x1",
            "maxcone x4",
            "parts",
            "splits",
            "ms x1",
            "ms x4",
            "ms auto",
        ],
    );
    let budget = e6_budget();
    for net in umc_suite() {
        let (v1, reached1, p1, ms1) = partition_run(&net, PartitionCount::Fixed(1), &budget);
        let (v4, _, p4, ms4) = partition_run(&net, PartitionCount::Fixed(4), &budget);
        let (va, _, _, msa) = partition_run(&net, PartitionCount::Auto, &budget);
        let verdict =
            if verdict_cell(&v1) == verdict_cell(&v4) && verdict_cell(&v1) == verdict_cell(&va) {
                verdict_cell(&v1)
            } else {
                format!(
                    "{} != {} != {}",
                    verdict_cell(&v1),
                    verdict_cell(&v4),
                    verdict_cell(&va)
                )
            };
        t.push(vec![
            net.name().to_string(),
            verdict,
            reached1.to_string(),
            p1.max_cone.to_string(),
            p4.max_cone.to_string(),
            p4.trajectory.last().copied().unwrap_or(1).to_string(),
            p4.splits.to_string(),
            format!("{ms1:.1}"),
            format!("{ms4:.1}"),
            format!("{msa:.1}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6pdr — IC3/PDR vs the bounded and traversal engines
// ---------------------------------------------------------------------

/// E6pdr kernel: one IC3 run at generalization mode `gen`. Returns
/// (verdict, frames, obligations, clauses learned, clauses pushed,
/// generalization drops, ms).
pub fn ic3_run(
    net: &Network,
    gen: GenMode,
    budget: &Budget,
) -> (Verdict, usize, u64, u64, u64, u64, f64) {
    let engine = Ic3 {
        gen,
        ..Ic3::default()
    };
    let start = Instant::now();
    let run = engine.check(net, budget);
    let detail = run.detail::<Ic3Stats>().expect("ic3 stats");
    (
        run.verdict.clone(),
        detail.frames,
        detail.obligations,
        detail.clauses,
        detail.pushed,
        detail.gen_drops,
        start.elapsed().as_secs_f64() * 1e3,
    )
}

/// E6pdr: property-directed reachability across the E6 suite, against
/// the circuit traversal and BMC. The claims: IC3 agrees with the
/// circuit engine's verdict on every model (the `verdict` column prints
/// a `!=` marker otherwise — counterexample depths are *not* compared,
/// IC3 traces need not be minimal), it **proves the safe models BMC can
/// never close** (the `bmc` column stays `unknown` there), and the
/// literal-dropping generalization ablation (`ms nodrop`) shows what the
/// unsat-core-only baseline costs.
pub fn e6pdr_table() -> Table {
    let mut t = Table::new(
        "E6pdr — IC3/PDR vs circuit traversal and BMC (E6 suite)",
        &[
            "circuit",
            "verdict",
            "bmc",
            "frames",
            "obls",
            "clauses",
            "pushed",
            "drops",
            "ms circuit",
            "ms ic3",
            "ms nodrop",
        ],
    );
    let budget = e6_budget();
    for net in umc_suite() {
        let start = Instant::now();
        let circuit = CircuitUmc::default().check(&net, &budget);
        let ms_circuit = start.elapsed().as_secs_f64() * 1e3;
        let bmc = Bmc::default().check(&net, &budget);
        let (v_ic3, frames, obls, clauses, pushed, drops, ms_ic3) =
            ic3_run(&net, GenMode::default(), &budget);
        let (v_nodrop, _, _, _, _, _, ms_nodrop) = ic3_run(&net, GenMode::Core, &budget);
        // Agreement on the classification (safe/unsafe), not the depth:
        // IC3 counterexamples are genuine but need not be minimal. The
        // ablation run must agree too — a generalization regression that
        // flips the core-only verdict prints a `!=` marker here.
        let agree = circuit.verdict.is_safe() == v_ic3.is_safe()
            && circuit.verdict.is_unsafe() == v_ic3.is_unsafe()
            && circuit.verdict.is_safe() == v_nodrop.is_safe()
            && circuit.verdict.is_unsafe() == v_nodrop.is_unsafe();
        let verdict = if agree {
            verdict_cell(&v_ic3)
        } else {
            format!(
                "{} != {}",
                verdict_cell(&circuit.verdict),
                verdict_cell(&v_ic3)
            )
        };
        t.push(vec![
            net.name().to_string(),
            verdict,
            verdict_cell(&bmc.verdict),
            frames.to_string(),
            obls.to_string(),
            clauses.to_string(),
            pushed.to_string(),
            drops.to_string(),
            format!("{ms_circuit:.1}"),
            format!("{ms_ic3:.1}"),
            format!("{ms_nodrop:.1}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6g — IC3 generalization ablation (the GenMode ladder)
// ---------------------------------------------------------------------

/// One [`ic3_gen_run`] row: (verdict, SAT checks, obligations, ternary
/// drops, CTGs blocked, deep CTGs blocked, F_∞ clauses, ms).
pub type GenRunRow = (Verdict, u64, u64, u64, u64, u64, u64, f64);

/// E6g kernel: one IC3 run at `gen`, surfacing the query-stream
/// counters. Returns (verdict, SAT checks, obligations, ternary drops,
/// CTGs blocked, deep CTGs blocked, F_∞ clauses, ms).
pub fn ic3_gen_run(net: &Network, gen: GenMode, budget: &Budget) -> GenRunRow {
    let engine = Ic3 {
        gen,
        ..Ic3::default()
    };
    let start = Instant::now();
    let run = engine.check(net, budget);
    let d = run.detail::<Ic3Stats>().expect("ic3 stats");
    (
        run.verdict.clone(),
        d.cnf.checks,
        d.obligations,
        d.tern_drops,
        d.ctg_blocked,
        d.ctg_deep_blocked,
        d.inf_clauses,
        start.elapsed().as_secs_f64() * 1e3,
    )
}

/// The E6g suite: the engine-comparison models plus three don't-care
/// rich safe circuits — a deeper FIFO controller, a wider arbiter and a
/// wide shadowed counter — where ternary widening has latches to X out.
pub fn e6g_suite() -> Vec<Network> {
    let mut suite = umc_suite();
    suite.push(generators::fifo_ctrl(6));
    suite.push(generators::arbiter(9));
    suite.push(generators::shadowed_counter_gap(7, 50, 100, 256));
    suite
}

/// E6g: the generalization-effort ladder, one IC3 run per
/// [`GenMode`] per model. The claims: every rung reaches the same
/// verdict (a `!=` marker prints otherwise), and the structural rungs —
/// ternary widening, CTG blocking, F_∞ promotion — cut the SAT query
/// stream (`chk`) and the obligation count (`obl`) that the paper's
/// thesis says dominate the wall clock.
pub fn e6g_table() -> Table {
    let mut t = Table::new(
        "E6g — IC3 generalization ablation (core < drop < ternary < ctg < ctg-deep)",
        &[
            "circuit", "verdict", "chk core", "chk drop", "chk tern", "chk ctg", "chk deep",
            "obl drop", "obl tern", "obl ctg", "tdrops", "ctg blk", "deep blk", "inf", "ms deep",
        ],
    );
    let budget = e6_budget();
    for net in e6g_suite() {
        let runs: Vec<GenRunRow> = GenMode::ALL
            .iter()
            .map(|&gen| ic3_gen_run(&net, gen, &budget))
            .collect();
        let agree = runs.iter().all(|(v, ..)| {
            v.is_safe() == runs[0].0.is_safe() && v.is_unsafe() == runs[0].0.is_unsafe()
        });
        let verdict = if agree {
            verdict_cell(&runs[4].0)
        } else {
            format!(
                "{} != {}",
                verdict_cell(&runs[0].0),
                verdict_cell(&runs[4].0)
            )
        };
        t.push(vec![
            net.name().to_string(),
            verdict,
            runs[0].1.to_string(),
            runs[1].1.to_string(),
            runs[2].1.to_string(),
            runs[3].1.to_string(),
            runs[4].1.to_string(),
            runs[1].2.to_string(),
            runs[2].2.to_string(),
            runs[3].2.to_string(),
            runs[4].3.to_string(),
            runs[4].4.to_string(),
            runs[4].5.to_string(),
            runs[4].6.to_string(),
            format!("{:.1}", runs[4].7),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6i — Craig interpolation vs IC3 and circuit traversal
// ---------------------------------------------------------------------

/// E6i kernel: one interpolation-engine run. Returns (verdict, frames,
/// refinements, interpolants derived, final interpolant nodes, ms).
pub fn itp_run(net: &Network, budget: &Budget) -> (Verdict, usize, u64, u64, usize, f64) {
    let start = Instant::now();
    let run = Itp::default().check(net, budget);
    let d = run.detail::<ItpStats>().expect("itp stats");
    (
        run.verdict.clone(),
        d.frames,
        d.refinements,
        d.interpolants,
        d.itp_nodes,
        start.elapsed().as_secs_f64() * 1e3,
    )
}

/// E6i kernel: the proof-plane overhead probe. Builds one monolithic
/// "bad within `depth` steps" unrolling of the net (functional
/// composition, fresh inputs per frame — the workload shape the
/// interpolation engine's bounded queries take) and solves it through
/// the arena solver twice: proof logging off, then full
/// resolution-trace logging. Returns (ms off, ms traced); panics if the
/// two solves disagree, since logging must never change an answer.
pub fn proof_overhead_run(net: &Network, depth: usize) -> (f64, f64) {
    let mut aig = net.aig().clone();
    let latches: Vec<Var> = net.latches().iter().map(|l| l.var).collect();
    let pis: Vec<Var> = net.primary_inputs().to_vec();
    let mut roots: Vec<Lit> = net.latches().iter().map(|l| l.next).collect();
    roots.push(net.bad());
    let mut state: Vec<Lit> = net
        .latches()
        .iter()
        .map(|l| if l.init { Lit::TRUE } else { Lit::FALSE })
        .collect();
    let mut any_bad = Lit::FALSE;
    for _ in 0..=depth {
        let mut sub: Vec<(Var, Lit)> = latches.iter().copied().zip(state.iter().copied()).collect();
        for p in &pis {
            sub.push((*p, aig.add_input().lit()));
        }
        let composed = aig.compose_many(&roots, &sub);
        any_bad = aig.or(any_bad, composed[latches.len()]);
        state = composed[..latches.len()].to_vec();
    }
    let mut times = [0.0f64; 2];
    let mut results = Vec::new();
    for (i, mode) in [ProofMode::Off, ProofMode::Trace].into_iter().enumerate() {
        let mut cnf = AigCnf::new();
        cnf.set_proof_mode(mode);
        let start = Instant::now();
        cnf.assert_lit(&aig, any_bad);
        results.push(cnf.solve_under(&aig, &[]));
        times[i] = start.elapsed().as_secs_f64() * 1e3;
    }
    assert_eq!(results[0], results[1], "proof logging changed the verdict");
    (times[0], times[1])
}

/// E6i: Craig interpolation across the E6 suite, against IC3 and the
/// circuit traversal. The claims: the interpolation engine agrees with
/// the circuit engine's classification on every model (a `!=` marker
/// prints otherwise), it closes the safe models from bounded proofs
/// alone — `frames` stays well under the models' diameters — and the
/// proof plane that feeds it is cheap: `ms sat` vs `ms sat+pf` solve
/// the *same* monolithic unrolling with logging off and on, so the gap
/// is the whole tracing tax.
pub fn e6i_table() -> Table {
    let mut t = Table::new(
        "E6i — Craig interpolation vs IC3 and circuit traversal (E6 suite)",
        &[
            "circuit",
            "verdict",
            "frames",
            "refin",
            "itps",
            "i-nodes",
            "ms itp",
            "ms ic3",
            "ms circuit",
            "ms sat",
            "ms sat+pf",
        ],
    );
    let budget = e6_budget();
    for net in umc_suite() {
        let start = Instant::now();
        let circuit = CircuitUmc::default().check(&net, &budget);
        let ms_circuit = start.elapsed().as_secs_f64() * 1e3;
        let (v_ic3, .., ms_ic3) = ic3_run(&net, GenMode::default(), &budget);
        let (v_itp, frames, refin, itps, nodes, ms_itp) = itp_run(&net, &budget);
        let agree = circuit.verdict.is_safe() == v_itp.is_safe()
            && circuit.verdict.is_unsafe() == v_itp.is_unsafe()
            && v_ic3.is_safe() == v_itp.is_safe();
        let verdict = if agree {
            verdict_cell(&v_itp)
        } else {
            format!(
                "{} != {}",
                verdict_cell(&circuit.verdict),
                verdict_cell(&v_itp)
            )
        };
        let (ms_off, ms_trace) = proof_overhead_run(&net, frames.max(4));
        t.push(vec![
            net.name().to_string(),
            verdict,
            frames.to_string(),
            refin.to_string(),
            itps.to_string(),
            nodes.to_string(),
            format!("{ms_itp:.1}"),
            format!("{ms_ic3:.1}"),
            format!("{ms_circuit:.1}"),
            format!("{ms_off:.1}"),
            format!("{ms_trace:.1}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6c — the serve cache: whole-run replay and IC3 warm starts
// ---------------------------------------------------------------------

/// E6c kernel: one `check` request through the service core against a
/// shared cache. Returns (verdict, tier, obligations if IC3, ms).
pub fn cache_run(
    cache: &std::sync::Mutex<cbq_serve::StructuralCache>,
    net: &Network,
    id: u64,
    use_cache: bool,
) -> (Verdict, cbq_serve::CacheTier, u64, f64) {
    let request = cbq_serve::CheckRequest {
        id,
        model: cbq_ckt::io::write_network(net),
        engine: "ic3".to_string(),
        budget: e6_budget(),
        use_cache,
    };
    let start = Instant::now();
    let outcome = cbq_serve::process_check(&request, cache, &cbq_serve::ServerCaps::default());
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    let run = outcome.run.expect("model serializes round-trip");
    let obls = run
        .detail::<Ic3Stats>()
        .map(|d| d.obligations)
        .unwrap_or_default();
    (run.verdict.clone(), outcome.tier, obls, elapsed)
}

/// E6c: the structural cache across the E6 suite. Three requests per
/// model — cold, identical (tier-1 whole-run replay), and a structurally
/// perturbed but semantically equal property (`bad ∨ (bad ∧ l₀)`, which
/// defeats tiers 1/2 and exercises the tier-3 IC3 warm start). The
/// claims: the replay is orders of magnitude faster than the cold run,
/// the warm start discharges no more obligations than cold, and all
/// three verdicts agree (a `!=` marker prints otherwise).
pub fn e6c_table() -> Table {
    let mut t = Table::new(
        "E6c — serve cache: cold vs tier-1 replay vs tier-3 warm start (ic3, E6 suite)",
        &[
            "circuit",
            "verdict",
            "ms cold",
            "ms replay",
            "obls cold",
            "obls warm",
            "tier warm",
            "ms warm",
        ],
    );
    for net in umc_suite() {
        let cache = std::sync::Mutex::new(cbq_serve::StructuralCache::new());
        let (v_cold, _, obls_cold, ms_cold) = cache_run(&cache, &net, 1, true);
        let (v_replay, tier_replay, _, ms_replay) = cache_run(&cache, &net, 2, true);

        let mut variant = net.clone();
        let perturbed = {
            let bad = variant.bad();
            let l0 = variant.latches()[0].var.lit();
            let aig = variant.aig_mut();
            let both = aig.and(bad, l0);
            aig.or(bad, both)
        };
        variant.set_bad(perturbed);
        let (v_warm, tier_warm, obls_warm, ms_warm) = cache_run(&cache, &variant, 3, true);

        let agree = verdict_cell(&v_cold) == verdict_cell(&v_replay)
            && v_cold.is_safe() == v_warm.is_safe()
            && v_cold.is_unsafe() == v_warm.is_unsafe()
            && tier_replay == cbq_serve::CacheTier::WholeRun;
        let verdict = if agree {
            verdict_cell(&v_cold)
        } else {
            format!("{} != {}", verdict_cell(&v_cold), verdict_cell(&v_warm))
        };
        t.push(vec![
            net.name().to_string(),
            verdict,
            format!("{ms_cold:.1}"),
            format!("{ms_replay:.3}"),
            obls_cold.to_string(),
            obls_warm.to_string(),
            format!("{}", tier_warm.number()),
            format!("{ms_warm:.1}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6pp — the portfolio: sequential vs parallel with the lemma bus
// ---------------------------------------------------------------------

/// E6pp kernel: one portfolio run, sequential or parallel. Returns the
/// verdict, wall-clock ms, and — for parallel runs — the bus publication
/// and admission counters.
pub fn portfolio_run(
    net: &Network,
    parallel: bool,
    budget: &Budget,
) -> (Verdict, f64, Option<PortfolioBusStats>) {
    let engine = if parallel {
        Portfolio::standard_parallel()
    } else {
        Portfolio::standard()
    };
    let start = Instant::now();
    let run = engine.check(net, budget);
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    let bus_stats = run
        .detail::<PortfolioStats>()
        .and_then(|d| d.bus.as_ref().copied());
    (run.verdict, elapsed, bus_stats)
}

/// E6pp: the portfolio ablation on the E6 suite — the sequential
/// budget-sliced cascade against the concurrent scoped-thread race with
/// its cross-engine lemma bus. The claims: both modes return the same
/// verdict everywhere (parallel determinism — the winner is the
/// smallest-index conclusive member), and on wall clock the parallel
/// mode wins wherever the bus lets a member conclude early (a `!=`
/// marker prints on any verdict divergence).
pub fn e6pp_table() -> Table {
    let mut t = Table::new(
        "E6pp — portfolio: sequential vs parallel+bus (E6 suite)",
        &[
            "circuit",
            "verdict",
            "ms seq",
            "ms par+bus",
            "cubes",
            "admitted",
            "merges",
        ],
    );
    let budget = e6_budget();
    // The E6 suite plus a showcase model where the lemma bus has real
    // work to save: a gap counter padded with 256 bits of shadow state
    // outside the property's cone. k-induction alone burns all 40
    // simple-path frames over the full state vector; IC3's cone-directed
    // clauses never touch the shadows and converge fast. The sequential
    // cascade pays both in series, while on the bus k-induction admits
    // IC3's published invariant mid-run and concludes early.
    let mut models = umc_suite();
    models.push(generators::shadowed_counter_gap(7, 50, 100, 256));
    for net in models {
        let (v_seq, ms_seq, _) = portfolio_run(&net, false, &budget);
        let (v_bus, ms_bus, bus) = portfolio_run(&net, true, &budget);
        let agree = v_seq.is_safe() == v_bus.is_safe() && v_seq.is_unsafe() == v_bus.is_unsafe();
        let verdict = if agree {
            verdict_cell(&v_seq)
        } else {
            format!("{} != {}", verdict_cell(&v_seq), verdict_cell(&v_bus))
        };
        let (cubes, admitted, merges) = bus
            .map(|b| {
                (
                    b.published.cubes,
                    b.clients.lemmas_admitted,
                    b.published.merges,
                )
            })
            .unwrap_or_default();
        t.push(vec![
            net.name().to_string(),
            verdict,
            format!("{ms_seq:.1}"),
            format!("{ms_bus:.1}"),
            cubes.to_string(),
            admitted.to_string(),
            merges.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Smoke — one tiny model per engine (the CI fail-fast run)
// ---------------------------------------------------------------------

/// Smoke: every registered engine on one tiny model under a tight
/// budget — regressions in any engine (or in sweeping, which is on by
/// default for the circuit engines) fail fast in CI.
pub fn smoke_table() -> Table {
    let mut t = Table::new(
        "Smoke — every registered engine on one tiny model",
        &["engine", "circuit", "verdict", "nodes", "ms"],
    );
    let budget = Budget::unlimited()
        .with_steps(256)
        .with_timeout(std::time::Duration::from_secs(10));
    for spec in registry() {
        for net in [generators::mutex(), generators::mutex_bug()] {
            let start = Instant::now();
            let run = (spec.build)().check(&net, &budget);
            t.push(vec![
                spec.name.to_string(),
                net.name().to_string(),
                verdict_cell(&run.verdict),
                run.stats.peak_nodes.to_string(),
                ms(start),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E7 / Fig. 3 — partial quantification budget sweep
// ---------------------------------------------------------------------

/// E7 kernel: quantify a pre-image under a growth budget; returns
/// (residual vars, result size, ms).
pub fn partial_run(aig0: &Aig, pre: Lit, pis: &[Var], budget: Option<f64>) -> (usize, usize, f64) {
    let mut aig = aig0.clone();
    let mut cnf = AigCnf::new();
    let cfg = match budget {
        Some(b) => QuantConfig::full().with_budget(b),
        None => QuantConfig::full(),
    };
    let start = Instant::now();
    let res = exists_many(&mut aig, pre, pis, &mut cnf, &cfg);
    (
        res.remaining.len(),
        aig.cone_size(res.lit),
        start.elapsed().as_secs_f64() * 1e3,
    )
}

/// E7: residuals and sizes across the abort-budget sweep.
pub fn e7_table() -> Table {
    let mut t = Table::new(
        "E7 / Fig. 3 — partial quantification budget sweep",
        &["workload", "budget", "residual", "size", "ms"],
    );
    let mut workloads: Vec<(String, Aig, Lit, Vec<Var>)> = Vec::new();
    for net in [generators::arbiter(8), generators::fifo_ctrl(4)] {
        let (aig, pre, pis) = preimage_workload(&net, 1);
        workloads.push((net.name().to_string(), aig, pre, pis));
    }
    // The growth-prone workload: multiplier middle bits (cofactors by
    // operand bits share little).
    let (maig, mf, mvars) = multiplier_workload(6, 6, 7, 4);
    workloads.push(("mult6x6.b7".to_string(), maig, mf, mvars));
    for (name, aig0, pre, pis) in workloads {
        for budget in [
            Some(0.8),
            Some(1.0),
            Some(1.25),
            Some(1.5),
            Some(2.0),
            Some(4.0),
            None,
        ] {
            let (residual, size, time) = partial_run(&aig0, pre, &pis, budget);
            t.push(vec![
                name.clone(),
                budget.map_or("∞".to_string(), |b| format!("{b:.2}x")),
                residual.to_string(),
                size.to_string(),
                format!("{time:.1}"),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E8 / Table 5 — hybrid with all-solutions SAT pre-image
// ---------------------------------------------------------------------

/// E8 kernel: pre-quantify `frac` of the inputs with the circuit engine,
/// enumerate the rest by circuit cofactoring. Returns
/// (decision vars, cofactor rounds, result size, ms).
pub fn hybrid_run(aig0: &Aig, pre: Lit, pis: &[Var], frac: f64) -> (usize, usize, usize, f64) {
    let mut aig = aig0.clone();
    let mut cnf = AigCnf::new();
    let split = ((pis.len() as f64) * frac).round() as usize;
    let (first, rest) = pis.split_at(split);
    let start = Instant::now();
    let q = exists_many(&mut aig, pre, first, &mut cnf, &QuantConfig::full());
    let (lit, stats) =
        all_solutions_exists(&mut aig, q.lit, rest, &mut cnf, 100_000).expect("converges");
    (
        rest.len(),
        stats.cofactors,
        aig.cone_size(lit),
        start.elapsed().as_secs_f64() * 1e3,
    )
}

/// E8: SAT pre-image effort as a function of pre-quantified fraction.
pub fn e8_table() -> Table {
    let mut t = Table::new(
        "E8 / Table 5 — circuit quantification as preprocessing for SAT pre-image",
        &[
            "workload",
            "prequant",
            "decision vars",
            "cofactors",
            "size",
            "ms",
        ],
    );
    let mut workloads: Vec<(String, Aig, Lit, Vec<Var>)> = Vec::new();
    for net in [generators::arbiter(8), generators::fifo_ctrl(4)] {
        let (aig, pre, pis) = preimage_workload(&net, 1);
        workloads.push((net.name().to_string(), aig, pre, pis));
    }
    // Enumeration-heavy workload: ∃y. (x*y == 60) — one cofactor per
    // divisor region for the pure SAT method.
    let (faig, ff, fvars) = factor_workload(6, 60);
    workloads.push(("factor60".to_string(), faig, ff, fvars));
    for (name, aig0, pre, pis) in workloads {
        for frac in [0.0, 0.25, 0.5, 1.0] {
            let (vars, rounds, size, time) = hybrid_run(&aig0, pre, &pis, frac);
            t.push(vec![
                name.clone(),
                format!("{:.0}%", frac * 100.0),
                vars.to_string(),
                rounds.to_string(),
                size.to_string(),
                format!("{time:.1}"),
            ]);
        }
    }
    t
}

/// Runs one experiment by id (`"e1"` … `"e8"`, `"e6s"`, `"smoke"`).
pub fn run_experiment(id: &str) -> Option<Table> {
    match id {
        "e1" => Some(e1_table()),
        "e2" => Some(e2_table()),
        "e3" => Some(e3_table()),
        "e4" => Some(e4_table()),
        "e5" => Some(e5_table()),
        "e6" => Some(e6_table()),
        "e6s" => Some(e6s_table()),
        "e6p" => Some(e6p_table()),
        "e6pdr" => Some(e6pdr_table()),
        "e6g" => Some(e6g_table()),
        "e6i" => Some(e6i_table()),
        "e6c" => Some(e6c_table()),
        "e6pp" => Some(e6pp_table()),
        "e7" => Some(e7_table()),
        "e8" => Some(e8_table()),
        "smoke" => Some(smoke_table()),
        _ => None,
    }
}

/// All experiment ids in report order (`smoke` is CI-only and excluded).
pub const EXPERIMENTS: [&str; 15] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e6s", "e6p", "e6pdr", "e6g", "e6i", "e6c", "e6pp", "e7",
    "e8",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_pairs_are_plausible() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..8).map(|_| aig.add_input().lit()).collect();
        let (f, g) = similar_pair(&mut aig, &ins, 40, 0.05, 1);
        let pairs = candidate_pairs(&aig, f, g, 4, 3);
        assert!(!pairs.is_empty());
    }

    #[test]
    fn satmerge_modes_prove_the_same_pairs() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..8).map(|_| aig.add_input().lit()).collect();
        let (f, g) = similar_pair(&mut aig, &ins, 30, 0.1, 5);
        let pairs = candidate_pairs(&aig, f, g, 4, 7);
        assert!(!pairs.is_empty());
        let (p1, ..) = satmerge_run(&aig, &pairs, false);
        let (p2, ..) = satmerge_run(&aig, &pairs, true);
        assert_eq!(p1, p2);
        assert!(p1 > 0);
    }

    #[test]
    fn registry_engines_complete_the_e6_kernel() {
        // One tiny circuit through every registered engine, budgeted the
        // same way as the full table.
        let net = generators::mutex();
        for spec in registry() {
            let run = (spec.build)().check(&net, &Budget::unlimited().with_steps(100));
            assert_eq!(run.stats.engine, spec.name);
            assert!(
                !run.verdict.is_unsafe(),
                "{}: mutex is safe, got {}",
                spec.name,
                run.verdict
            );
        }
    }

    #[test]
    fn sweep_kernel_preserves_verdicts_on_a_tiny_model() {
        let net = generators::mutex();
        let budget = Budget::unlimited().with_steps(64);
        let (v_off, ..) = sweep_run(&net, None, &budget);
        let (v_on, reached_on, ..) = sweep_run(&net, Some(StateSweepConfig::eager()), &budget);
        assert_eq!(verdict_cell(&v_off), verdict_cell(&v_on));
        assert!(v_on.is_safe());
        let _ = reached_on;
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[3, 1, 2]), 2);
    }

    #[test]
    fn smoke_covers_every_engine() {
        let t = smoke_table();
        assert_eq!(t.rows.len(), registry().len() * 2);
        for row in &t.rows {
            // BMC legitimately reports unknown on the safe model; nobody
            // may exhaust the smoke budget.
            assert!(
                !row[2].contains("bounded"),
                "{}: smoke budget exhausted ({})",
                row[0],
                row[2]
            );
        }
        assert!(t.rows.iter().any(|r| r[2].starts_with("safe")));
        assert!(t.rows.iter().any(|r| r[2].starts_with("cex")));
    }

    #[test]
    fn ic3_kernel_proves_and_refutes_tiny_models() {
        let budget = Budget::unlimited().with_steps(100);
        let (v, frames, _, clauses, _, _, _) =
            ic3_run(&generators::mutex(), GenMode::default(), &budget);
        assert!(v.is_safe(), "mutex should be safe, got {v:?}");
        assert!(frames >= 1);
        let _ = clauses;
        let (v, ..) = ic3_run(&generators::mutex_bug(), GenMode::Core, &budget);
        assert!(v.is_unsafe(), "mutex_bug should be unsafe, got {v:?}");
    }

    #[test]
    fn ic3_gen_kernel_agrees_across_the_ladder() {
        let budget = Budget::unlimited().with_steps(100);
        for net in [generators::mutex(), generators::mutex_bug()] {
            let runs: Vec<GenRunRow> = GenMode::ALL
                .iter()
                .map(|&gen| ic3_gen_run(&net, gen, &budget))
                .collect();
            for (v, checks, ..) in &runs {
                assert_eq!(v.is_safe(), runs[0].0.is_safe(), "{}", net.name());
                assert!(*checks > 0);
            }
        }
    }

    #[test]
    fn e6i_kernels_run_on_tiny_models() {
        let budget = Budget::unlimited().with_steps(100);
        let (v, frames, ..) = itp_run(&generators::mutex(), &budget);
        assert!(v.is_safe(), "mutex should be safe, got {v:?}");
        assert!(frames >= 1);
        let (v, ..) = itp_run(&generators::mutex_bug(), &budget);
        assert!(v.is_unsafe(), "mutex_bug should be unsafe, got {v:?}");
        // The overhead probe must agree across modes on both a SAT and
        // an UNSAT unrolling (it asserts internally).
        let _ = proof_overhead_run(&generators::mutex(), 4);
        let _ = proof_overhead_run(&generators::mutex_bug(), 4);
    }

    #[test]
    fn small_experiment_kernels_run() {
        // Smoke-test the kernels on tiny instances (full tables are the
        // report binary's job).
        let net = generators::mutex();
        let (aig0, pre, pis) = preimage_workload(&net, 1);
        let (r, s, _) = partial_run(&aig0, pre, &pis, Some(1.5));
        assert!(r <= pis.len());
        assert!(s > 0 || pre.is_const());
        let (v, _, _, _) = hybrid_run(&aig0, pre, &pis, 0.5);
        assert_eq!(v, pis.len() - 2);
    }
}
