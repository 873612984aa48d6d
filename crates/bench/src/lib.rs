//! # cbq-bench — the evaluation harness
//!
//! One section per experiment (E1–E8, described in the README's
//! *Experiments* section; committed snapshots in `BENCH.md`), each
//! regenerating its table/figure as a [`Table`] of printed rows;
//! [`run_experiment`] and the `report` binary dispatch on experiment ids.
//! The engine experiments (the E6 family but `e6c`) are grids of models ×
//! labelled engine configs whose columns are dotted keys of each run's
//! `cbq check --json` record ([`cbq_mc::json::run_fields`]). Rows where
//! two conclusive verdicts disagree, or an `e6c` replay misses tier 1,
//! land in [`Table::conflicts`], and `report` exits 1 on them.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::Instant;

use cbq_aig::sim::ConeSim;
use cbq_aig::{Aig, Lit, Var};
use cbq_cec::{sweep, MergeOrder, SweepConfig};
use cbq_ckt::generators;
use cbq_ckt::random::similar_pair;
use cbq_ckt::Network;
use cbq_cnf::{AigCnf, ProofMode};
use cbq_core::{exists_bdd, exists_many, QuantConfig};
use cbq_mc::ganai::all_solutions_exists;
use cbq_mc::json::{run_fields, Json};
use cbq_mc::preimage::preimage_formula;
use cbq_mc::sweep::SweepConfig as StateSweepConfig;
use cbq_mc::{
    by_name, registry, Budget, CircuitUmc, Engine, GenMode, Ic3, McRun, PartitionCount, Portfolio,
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
    /// Rows whose conclusive verdicts disagree, or whose `e6c` replay
    /// missed tier 1 (engine experiments only); `report` exits 1 when
    /// any table has one.
    pub conflicts: Vec<String>,
}

impl Table {
    fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            ..Table::default()
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
    let sim = ConeSim::random(aig, &[f, g], words, seed);
    let mut pairs: Vec<(Lit, Lit)> = sim
        .classes(None, |p| p != 0)
        .iter()
        .flat_map(|c| c[1..].iter().map(move |&m| (c[0], m)))
        .collect();
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
// E6 family — engine experiments as grids over the `--json` run record
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

/// Median of a size profile (0 for an empty one).
pub fn median(sizes: &[usize]) -> usize {
    let mut sorted = sizes.to_vec();
    sorted.sort_unstable();
    sorted.get(sorted.len() / 2).copied().unwrap_or(0)
}

/// How a grid's verdict column decides that two runs agree.
#[derive(Clone, Copy, Debug)]
enum Rule {
    /// The whole verdict cell: class plus proof or counterexample depth.
    Exact,
    /// Safe versus unsafe only: proof depths differ across engines, and
    /// IC3's counterexamples need not be minimal.
    Class,
}

/// The verdict column of one row: the `shown` verdict's cell when every
/// voter agrees with the first under `rule`, else every voter's cell
/// joined by ` != `. The flag is raised when two *conclusive* voters
/// differ, which fails `report`; a bounded or unknown voter only prints
/// the marker, so a slow machine cannot fail the run.
fn agreement(rule: Rule, voters: &[&Verdict], shown: &Verdict) -> (String, bool) {
    let key = |v: &Verdict| match rule {
        Rule::Exact => verdict_cell(v),
        Rule::Class if v.is_safe() => "safe".to_string(),
        Rule::Class if v.is_unsafe() => "unsafe".to_string(),
        Rule::Class => "inconclusive".to_string(),
    };
    let keys: Vec<String> = voters.iter().map(|v| key(v)).collect();
    if keys.iter().all(|k| *k == keys[0]) {
        return (verdict_cell(shown), false);
    }
    let mut conclusive = (voters.iter().zip(&keys))
        .filter(|(v, _)| v.is_conclusive())
        .map(|(_, k)| k);
    let first = conclusive.next();
    let conflict = conclusive.any(|k| Some(k) != first);
    let cells: Vec<String> = voters.iter().map(|v| verdict_cell(v)).collect();
    (cells.join(" != "), conflict)
}

/// A field of a run record, by dotted key (`cnf.checks`). A key the
/// record lacks is a bug in the table that names it.
fn field<'a>(record: &'a Json, key: &str) -> &'a Json {
    key.split('.')
        .try_fold(record, |v, k| v.get(k))
        .unwrap_or_else(|| panic!("`{key}` is not a field of the run record {record}"))
}

/// One engine experiment: every model × every labelled engine config,
/// printed one row per model — the model, the verdict column when the
/// grid votes, one cell per column, then the probe's cells.
struct Grid {
    title: &'static str,
    models: Vec<Network>,
    /// Config labels, run in this order on every model.
    configs: Vec<&'static str>,
    /// Builds the engine of a config label, afresh for every run (a
    /// parallel portfolio's lemma bus must not outlive its model).
    engine: fn(&str) -> Box<dyn Engine>,
    /// The verdict column: its rule, the configs it compares, and the
    /// config whose cell it shows when they agree.
    vote: Option<(Rule, &'static [&'static str], &'static str)>,
    /// `(header, config label, dotted key of the config's run record)`
    /// per column (see [`Row::cell`]).
    columns: Vec<(&'static str, &'static str, &'static str)>,
    probe: Option<Probe>,
}

/// Extra cells computed from a model and its row (e6i's proof-overhead
/// probe): their headers and the function that prints them.
type Probe = (&'static [&'static str], fn(&Network, &Row) -> Vec<String>);

/// One model's runs in config order: the label, the run, and the run's
/// `--json` record.
struct Row(Vec<(&'static str, McRun, Json)>);

impl Row {
    /// The run of config `label` and its record.
    fn run(&self, label: &str) -> (&McRun, &Json) {
        let (_, run, record) = (self.0.iter())
            .find(|(l, ..)| *l == label)
            .unwrap_or_else(|| panic!("no config `{label}` in this grid"));
        (run, record)
    }

    /// The cell of `key` in `label`'s run: `verdict` prints the verdict
    /// cell, an array its median, a count as it is, and milliseconds to
    /// one decimal.
    fn cell(&self, label: &str, key: &str) -> String {
        let (run, record) = self.run(label);
        if key == "verdict" {
            return verdict_cell(&run.verdict);
        }
        match field(record, key) {
            Json::Arr(xs) => {
                let sizes: Vec<usize> = xs
                    .iter()
                    .filter_map(Json::as_u64)
                    .map(|x| x as usize)
                    .collect();
                median(&sizes).to_string()
            }
            v if v.as_u64().is_some() => v.to_string(),
            v => format!("{:.1}", v.as_f64().expect("a numeric field")),
        }
    }
}

impl Grid {
    /// Runs every config on every model within `budget`. Rows whose
    /// conclusive verdicts disagree are listed in [`Table::conflicts`].
    fn run(&self, budget: &Budget) -> Table {
        let mut header = vec!["circuit"];
        header.extend(self.vote.map(|_| "verdict"));
        header.extend(self.columns.iter().map(|c| c.0));
        header.extend(self.probe.iter().flat_map(|p| p.0));
        let mut t = Table::new(self.title, &header);
        for net in &self.models {
            let runs = self.configs.iter().map(|&label| {
                let run = (self.engine)(label).check(net, budget);
                let record = Json::Obj(run_fields(&run));
                (label, run, record)
            });
            let row = Row(runs.collect());
            let mut cells = vec![net.name().to_string()];
            if let Some((rule, voters, shown)) = self.vote {
                let verdict = |label| &row.run(label).0.verdict;
                let voters: Vec<&Verdict> = voters.iter().map(|l| verdict(l)).collect();
                let (cell, conflict) = agreement(rule, &voters, verdict(shown));
                if conflict {
                    t.conflicts.push(format!("{}: {cell}", net.name()));
                }
                cells.push(cell);
            }
            cells.extend(
                self.columns
                    .iter()
                    .map(|&(_, label, key)| row.cell(label, key)),
            );
            if let Some((_, probe)) = self.probe {
                cells.extend(probe(net, &row));
            }
            t.push(cells);
        }
        t
    }
}

/// A registered engine by name.
fn registered(name: &str) -> Box<dyn Engine> {
    by_name(name).unwrap_or_else(|| panic!("`{name}` is not a registered engine"))
}

/// The grid of an experiment id, for the engine experiments that are
/// grids (all of the E6 family but `e6c`).
fn grid(id: &str) -> Option<Grid> {
    use Rule::{Class, Exact};
    let grid = match id {
        // E6 / Table 4: verdict, representation peak and wall clock of
        // every registered engine — the registry *is* the comparison.
        "e6" => Grid {
            title: "E6 / Table 4 — UMC comparison across the engine registry",
            models: umc_suite(),
            configs: registry().iter().map(|s| s.name).collect(),
            engine: registered,
            vote: None,
            columns: (registry().iter())
                .flat_map(|s| {
                    let n = s.name;
                    [
                        (n, n, "verdict"),
                        ("nodes", n, "peak_nodes"),
                        ("ms", n, "elapsed_ms"),
                    ]
                })
                .collect(),
            probe: None,
        },
        // E6s: the circuit engine with state-set sweeping off vs eager.
        // The claim: sweeping strictly shrinks the reached set and the
        // median frontier on redundancy-heavy traversals while
        // preserving every verdict.
        "e6s" => Grid {
            title: "E6s — state-set sweeping ablation (circuit engine, AND gates)",
            models: umc_suite(),
            configs: vec!["off", "on"],
            engine: |label| {
                Box::new(CircuitUmc {
                    sweep: (label == "on").then(StateSweepConfig::eager),
                    ..CircuitUmc::default()
                })
            },
            vote: Some((Exact, &["off", "on"], "off")),
            columns: vec![
                ("reached off", "off", "reached_size"),
                ("reached on", "on", "reached_size"),
                ("medfront off", "off", "frontier_sizes"),
                ("medfront on", "on", "frontier_sizes"),
                ("peak off", "off", "peak_nodes"),
                ("peak on", "on", "peak_nodes"),
                ("ms off", "off", "elapsed_ms"),
                ("ms on", "on", "elapsed_ms"),
            ],
            probe: None,
        },
        // E6p: the circuit engine monolithic (`x1`) vs partitioned (`x4`)
        // vs one partition per core (`auto`). The claims: verdicts,
        // fixpoint iterations and cex depths are identical at every
        // partition count, and on redundancy-heavy models the largest
        // per-partition state cone stays below the monolithic one.
        "e6p" => Grid {
            title: "E6p — partitioned state sets (circuit engine, AND gates)",
            models: umc_suite(),
            configs: vec!["x1", "x4", "auto"],
            engine: |label| {
                let count = PartitionCount::from_name(label.trim_start_matches('x'));
                Box::new(CircuitUmc {
                    partition: count.expect("a partition count"),
                    ..CircuitUmc::default()
                })
            },
            vote: Some((Exact, &["x1", "x4", "auto"], "x1")),
            columns: vec![
                ("reached x1", "x1", "reached_size"),
                ("maxcone x1", "x1", "partitions.max_cone"),
                ("maxcone x4", "x4", "partitions.max_cone"),
                ("parts", "x4", "partitions.final"),
                ("splits", "x4", "partitions.splits"),
                ("ms x1", "x1", "elapsed_ms"),
                ("ms x4", "x4", "elapsed_ms"),
                ("ms auto", "auto", "elapsed_ms"),
            ],
            probe: None,
        },
        // E6pdr: IC3 against the circuit traversal and BMC. The claims:
        // IC3 agrees with the circuit engine's class on every model, it
        // proves the safe models BMC can never close (`bmc` stays
        // `unknown` there), and `ms nodrop` shows what the unsat-core-only
        // generalization baseline costs — it must agree too.
        "e6pdr" => Grid {
            title: "E6pdr — IC3/PDR vs circuit traversal and BMC (E6 suite)",
            models: umc_suite(),
            configs: vec!["circuit", "bmc", "ic3", "nodrop"],
            engine: |label| match label {
                "nodrop" => Box::new(Ic3 {
                    gen: GenMode::Core,
                    ..Ic3::default()
                }),
                name => registered(name),
            },
            vote: Some((Class, &["circuit", "ic3", "nodrop"], "ic3")),
            columns: vec![
                ("bmc", "bmc", "verdict"),
                ("frames", "ic3", "frames"),
                ("obls", "ic3", "obligations"),
                ("clauses", "ic3", "clauses"),
                ("pushed", "ic3", "pushed"),
                ("drops", "ic3", "gen_drops"),
                ("ms circuit", "circuit", "elapsed_ms"),
                ("ms ic3", "ic3", "elapsed_ms"),
                ("ms nodrop", "nodrop", "elapsed_ms"),
            ],
            probe: None,
        },
        // E6g: one IC3 run per `GenMode` rung on the E6 suite plus three
        // don't-care-rich safe models. The claims: every rung reaches the
        // same class, and the structural rungs — ternary widening, CTG
        // blocking, F_∞ promotion — cut the SAT query stream (`chk`) and
        // the obligation count (`obl`).
        "e6g" => Grid {
            title: "E6g — IC3 generalization ablation (core < drop < ternary < ctg < ctg-deep)",
            models: e6g_suite(),
            configs: GenMode::ALL.iter().map(|g| g.name()).collect(),
            engine: |label| {
                Box::new(Ic3 {
                    gen: GenMode::parse(label).expect("a generalization mode"),
                    ..Ic3::default()
                })
            },
            vote: Some((
                Class,
                &["core", "drop", "ternary", "ctg", "ctg-deep"],
                "ctg-deep",
            )),
            columns: vec![
                ("chk core", "core", "cnf.checks"),
                ("chk drop", "drop", "cnf.checks"),
                ("chk tern", "ternary", "cnf.checks"),
                ("chk ctg", "ctg", "cnf.checks"),
                ("chk deep", "ctg-deep", "cnf.checks"),
                ("obl drop", "drop", "obligations"),
                ("obl tern", "ternary", "obligations"),
                ("obl ctg", "ctg", "obligations"),
                ("tdrops", "ctg-deep", "tern_drops"),
                ("ctg blk", "ctg-deep", "ctg_blocked"),
                ("deep blk", "ctg-deep", "ctg_deep_blocked"),
                ("inf", "ctg-deep", "inf_clauses"),
                ("ms deep", "ctg-deep", "elapsed_ms"),
            ],
            probe: None,
        },
        // E6i: Craig interpolation against IC3 and the circuit traversal.
        // The claims: itp agrees with both on every model's class, it
        // closes the safe models from bounded proofs alone (`frames` stays
        // well under the diameters), and the proof plane is cheap: `ms
        // sat` vs `ms sat+pf` solve the *same* monolithic unrolling with
        // logging off and on.
        "e6i" => Grid {
            title: "E6i — Craig interpolation vs IC3 and circuit traversal (E6 suite)",
            models: umc_suite(),
            configs: vec!["circuit", "ic3", "itp"],
            engine: registered,
            vote: Some((Class, &["circuit", "ic3", "itp"], "itp")),
            columns: vec![
                ("frames", "itp", "frames"),
                ("refin", "itp", "refinements"),
                ("itps", "itp", "interpolants"),
                ("i-nodes", "itp", "itp_nodes"),
                ("ms itp", "itp", "elapsed_ms"),
                ("ms ic3", "ic3", "elapsed_ms"),
                ("ms circuit", "circuit", "elapsed_ms"),
            ],
            probe: Some((&["ms sat", "ms sat+pf"], |net, row| {
                let frames = field(row.run("itp").1, "frames").as_u64().expect("a count");
                let (off, traced) = proof_overhead_run(net, (frames as usize).max(4));
                vec![format!("{off:.1}"), format!("{traced:.1}")]
            })),
        },
        // E6pp: the sequential budget-sliced cascade against the parallel
        // race with its lemma bus. The claims: both modes reach the same
        // class everywhere (the parallel winner is the smallest-index
        // conclusive member), and the parallel mode wins on wall clock
        // wherever the bus lets a member conclude early.
        "e6pp" => Grid {
            title: "E6pp — portfolio: sequential vs parallel+bus (E6 suite)",
            // The E6 suite plus a gap counter padded with 256 shadow bits
            // outside the property's cone: IC3's cone-directed clauses
            // converge fast, and on the bus they reach k-induction if it
            // is still unrolling when they are published.
            models: {
                let mut models = umc_suite();
                models.push(generators::shadowed_counter_gap(7, 50, 100, 256));
                models
            },
            configs: vec!["seq", "par"],
            engine: |label| {
                Box::new(match label {
                    "par" => Portfolio::standard_parallel(),
                    _ => Portfolio::standard(),
                })
            },
            vote: Some((Class, &["seq", "par"], "seq")),
            columns: vec![
                ("ms seq", "seq", "elapsed_ms"),
                ("ms par+bus", "par", "elapsed_ms"),
                ("cubes", "par", "bus.published_cubes"),
                ("admitted", "par", "bus.clients.lemmas_admitted"),
                ("merges", "par", "bus.published_merges"),
            ],
            probe: None,
        },
        _ => return None,
    };
    Some(grid)
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

/// E6i's proof-plane overhead probe. Builds one monolithic "bad within
/// `depth` steps" unrolling of the net (functional composition, fresh
/// inputs per frame — the workload shape the interpolation engine's
/// bounded queries take) and solves it through the arena solver twice:
/// proof logging off, then full resolution-trace logging. Returns (ms
/// off, ms traced); panics if the two solves disagree, since logging must
/// never change an answer.
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

/// E6c: the structural cache across `models`, through the service core.
/// Three IC3 requests per model on one cache: cold, identical (a tier-1
/// whole-run replay, which returns the cold run itself), and a
/// structurally perturbed but semantically equal property
/// (`bad ∨ (bad ∧ l₀)`, which defeats tiers 1 and 2 and exercises the
/// tier-3 warm start). The claims: the replay is orders of magnitude
/// faster than the cold run, the warm start discharges no more
/// obligations than cold, and all three agree on the class. A replay
/// that is not a tier-1 hit is a conflict too.
fn e6c_table(models: Vec<Network>, budget: &Budget) -> Table {
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
    for net in models {
        let mut variant = net.clone();
        let perturbed = {
            let bad = variant.bad();
            let l0 = variant.latches()[0].var.lit();
            let aig = variant.aig_mut();
            let both = aig.and(bad, l0);
            aig.or(bad, both)
        };
        variant.set_bad(perturbed);
        let cache = std::sync::Mutex::new(cbq_serve::StructuralCache::new());
        let request = |id, model: &Network| {
            let request = cbq_serve::CheckRequest {
                id,
                model: cbq_ckt::io::write_network(model),
                engine: "ic3".to_string(),
                budget: budget.clone(),
                use_cache: true,
            };
            let start = Instant::now();
            let outcome =
                cbq_serve::process_check(&request, &cache, &cbq_serve::ServerCaps::default());
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let run = outcome.run.expect("model serializes round-trip");
            (run, outcome.tier, ms)
        };
        let (cold, replay, warm) = (request(1, &net), request(2, &net), request(3, &variant));
        let verdicts = [&cold.0.verdict, &replay.0.verdict, &warm.0.verdict];
        let (mut verdict, mut conflict) = agreement(Rule::Class, &verdicts, verdicts[0]);
        if replay.1 != cbq_serve::CacheTier::WholeRun {
            verdict = format!("{verdict} != replay tier {}", replay.1.number());
            conflict = true;
        }
        if conflict {
            t.conflicts.push(format!("{}: {verdict}", net.name()));
        }
        let obls = |run: &McRun| field(&Json::Obj(run_fields(run)), "obligations").to_string();
        t.push(vec![
            net.name().to_string(),
            verdict,
            format!("{:.1}", cold.2),
            format!("{:.3}", replay.2),
            obls(&cold.0),
            obls(&warm.0),
            warm.1.number().to_string(),
            format!("{:.1}", warm.2),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Smoke — one tiny model per engine (the CI fail-fast run)
// ---------------------------------------------------------------------

/// The smoke budget: tight enough to fail fast, generous enough that no
/// engine exhausts it on the two tiny models.
fn smoke_budget() -> Budget {
    Budget::unlimited()
        .with_steps(256)
        .with_timeout(std::time::Duration::from_secs(10))
}

/// Smoke: every registered engine on one tiny model under a tight
/// budget — regressions in any engine (or in sweeping, which is on by
/// default for the circuit engines) fail fast in CI.
pub fn smoke_table() -> Table {
    let mut t = Table::new(
        "Smoke — every registered engine on one tiny model",
        &["engine", "circuit", "verdict", "nodes", "ms"],
    );
    let budget = smoke_budget();
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
    if let Some(grid) = grid(id) {
        return Some(grid.run(&e6_budget()));
    }
    match id {
        "e1" => Some(e1_table()),
        "e2" => Some(e2_table()),
        "e3" => Some(e3_table()),
        "e4" => Some(e4_table()),
        "e5" => Some(e5_table()),
        "e6c" => Some(e6c_table(umc_suite(), &e6_budget())),
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
    fn every_engine_experiment_runs_on_tiny_models_without_conflicts() {
        // Every column key must resolve in its run's record (a missing
        // key panics), and no two conclusive verdicts may disagree.
        for id in EXPERIMENTS.iter().filter(|id| id.starts_with("e6")) {
            let tiny = vec![generators::mutex(), generators::mutex_bug()];
            let t = match grid(id) {
                Some(grid) => Grid {
                    models: tiny,
                    ..grid
                }
                .run(&smoke_budget()),
                None => e6c_table(tiny, &smoke_budget()),
            };
            assert_eq!(t.rows.len(), 2, "{id}");
            assert!(t.rows.iter().all(|r| r.len() == t.header.len()), "{id}");
            assert!(t.conflicts.is_empty(), "{id}: {:?}", t.conflicts);
        }
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[3, 1, 2]), 2);
    }

    #[test]
    fn only_conclusive_disagreements_are_conflicts() {
        let safe = |iterations| Verdict::Safe { iterations };
        let bounded = Verdict::Bounded {
            resource: cbq_mc::Resource::WallClock,
            limit: 30_000,
        };
        let cell = |rule, a: &Verdict, b: &Verdict| agreement(rule, &[a, b], b);
        assert_eq!(
            cell(Rule::Exact, &safe(3), &safe(4)),
            ("safe@3 != safe@4".to_string(), true)
        );
        assert_eq!(
            cell(Rule::Exact, &safe(3), &bounded),
            ("safe@3 != bounded(wall-clock)".to_string(), false)
        );
        assert_eq!(
            cell(Rule::Class, &safe(3), &safe(4)),
            ("safe@4".to_string(), false)
        );
        assert_eq!(
            cell(Rule::Class, &bounded, &bounded),
            ("bounded(wall-clock)".to_string(), false)
        );
        // The runner records a conflicting row: on `mutex` the circuit
        // engine proves safety at depth 1, IC3 at depth 2.
        let strict = Grid {
            models: vec![generators::mutex()],
            vote: Some((Rule::Exact, &["circuit", "ic3"], "ic3")),
            ..grid("e6pdr").expect("e6pdr is a grid")
        };
        let t = strict.run(&smoke_budget());
        assert_eq!(t.conflicts, ["mutex: safe@1 != safe@2"]);
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
