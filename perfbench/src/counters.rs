//! Program-reported counters, per check and summed per run.
//!
//! The per-layer counters come from the engine detail records behind
//! `McRun::detail`, portfolio members included. A check's guard record
//! adds everything its `--json` (or serve `result`) line reports except
//! wall-clock fields, so two runs of one seed can be compared check by
//! check and any differing counter named.

use std::collections::BTreeMap;

use cbq_mc::{
    BddUmcStats, BmcStats, CircuitUmcStats, ForwardCircuitUmcStats, Ic3Stats, ItpStats,
    KInductionStats, McRun, PortfolioStats,
};
use cbq_serve::Json;

/// Counter totals by per-layer metric name.
pub type Counters = BTreeMap<&'static str, u64>;

/// A check's guard record: flattened key → value.
pub type Record = BTreeMap<String, String>;

/// Every per-layer counter, in report order. `ic3.seed_rejected` is the
/// denominator part of `ic3.seed_admit_ratio`.
pub const NAMES: &[&str] = &[
    "mc.stateset.iterations",
    "mc.stateset.frontier_nodes",
    "mc.stateset.reached_nodes",
    "mc.sweep.runs",
    "mc.sweep.merged",
    "quant.aborts",
    "quant.ganai_cofactors",
    "aig.peak_nodes",
    "aig.strash_probes",
    "aig.walk_nodes",
    "aig.cofactor_cache_hits",
    "sat.checks",
    "sat.solves",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
    "sat.learnts",
    "cnf.encoded_ands",
    "cnf.migrations",
    "ic3.obligations",
    "ic3.clauses",
    "ic3.frames",
    "ic3.seeded",
    "ic3.seed_rejected",
    "itp.interpolants",
    "itp.trace_clauses",
    "itp.refinements",
    "bmc.unrolled_nodes",
    "kind.step_checks",
    "kind.unrolled_nodes",
    "bdd.peak_nodes",
];

/// Adds `run`'s counters into `out`; a portfolio contributes the sum of
/// its members.
pub fn add_run(run: &McRun, out: &mut Counters) {
    let mut add = |name: &'static str, v: u64| *out.entry(name).or_insert(0) += v;
    if let Some(p) = run.detail::<PortfolioStats>() {
        for (_, member) in &p.runs {
            add_run(member, out);
        }
        return;
    }
    add("sat.checks", run.stats.sat_checks);
    // The backward and forward traversals report the same fields.
    macro_rules! traversal {
        ($d:expr) => {{
            let d = $d;
            add("mc.stateset.iterations", d.iterations as u64);
            add(
                "mc.stateset.frontier_nodes",
                d.frontier_sizes.iter().sum::<usize>() as u64,
            );
            add("aig.peak_nodes", d.peak_nodes as u64);
            add("quant.aborts", d.quant_aborts as u64);
            add("quant.ganai_cofactors", d.ganai_cofactors as u64);
            add("aig.strash_probes", d.quant_perf.strash_probes);
            add("aig.walk_nodes", d.quant_perf.scratch_walk_nodes);
            add("aig.cofactor_cache_hits", d.quant_perf.cofactor_cache_hits);
            add("mc.sweep.runs", d.sweep.runs as u64);
            add("mc.sweep.merged", d.sweep.merged as u64);
            (Some(&d.solver), Some(&d.cnf))
        }};
    }
    let (mut solver, mut cnf) = (None, None);
    if let Some(d) = run.detail::<CircuitUmcStats>() {
        (solver, cnf) = traversal!(d);
        add("mc.stateset.reached_nodes", d.reached_size as u64);
    } else if let Some(d) = run.detail::<ForwardCircuitUmcStats>() {
        (solver, cnf) = traversal!(d);
    } else if let Some(d) = run.detail::<Ic3Stats>() {
        add("ic3.obligations", d.obligations);
        add("ic3.clauses", d.clauses);
        add("ic3.frames", d.frames as u64);
        add("ic3.seeded", d.seeded);
        add("ic3.seed_rejected", d.seed_rejected);
        solver = Some(&d.solver);
        cnf = Some(&d.cnf);
    } else if let Some(d) = run.detail::<ItpStats>() {
        add("itp.interpolants", d.interpolants);
        add("itp.trace_clauses", d.trace_clauses);
        add("itp.refinements", d.refinements);
    } else if let Some(d) = run.detail::<BmcStats>() {
        add("bmc.unrolled_nodes", d.unrolled_nodes as u64);
    } else if let Some(d) = run.detail::<KInductionStats>() {
        add("kind.step_checks", d.step_checks);
        add("kind.unrolled_nodes", d.unrolled_nodes as u64);
    } else if let Some(d) = run.detail::<BddUmcStats>() {
        add("bdd.peak_nodes", d.peak_nodes as u64);
    }
    if let Some(s) = solver {
        add("sat.solves", s.solves);
        add("sat.conflicts", s.conflicts);
        add("sat.decisions", s.decisions);
        add("sat.propagations", s.propagations);
        add("sat.learnts", s.learnts);
    }
    if let Some(c) = cnf {
        add("cnf.encoded_ands", c.encoded_ands);
        add("cnf.migrations", c.migrations);
    }
}

/// Flattens a JSON record into `path → value`, leaving out the
/// wall-clock fields (`elapsed_ms`), which are the only ones allowed to
/// differ between two runs of one seed.
pub fn flatten(json: &Json, prefix: &str, out: &mut Record) {
    match json {
        Json::Obj(fields) => {
            for (k, v) in fields {
                if k != "elapsed_ms" {
                    flatten(v, &format!("{prefix}{k}."), out);
                }
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, &format!("{prefix}{i}."), out);
            }
        }
        scalar => {
            out.insert(prefix.trim_end_matches('.').to_string(), scalar.to_string());
        }
    }
}

/// A check's guard record: its result line without wall-clock fields,
/// plus the detail counters the line does not carry.
pub fn record(line: &Json, run: Option<&McRun>) -> Record {
    let mut out = Record::new();
    flatten(line, "", &mut out);
    if let Some(run) = run {
        let mut c = Counters::new();
        add_run(run, &mut c);
        for (k, v) in c {
            out.insert(format!("detail.{k}"), v.to_string());
        }
    }
    out
}

/// Renders a record as one tab-separated line (values never hold tabs:
/// JSON strings arrive escaped).
pub fn encode(index: usize, rec: &Record) -> String {
    let mut line = index.to_string();
    for (k, v) in rec {
        line.push('\t');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    line
}

/// Parses a line written by [`encode`].
pub fn decode(line: &str) -> Option<(usize, Record)> {
    let mut parts = line.split('\t');
    let index = parts.next()?.parse().ok()?;
    let mut rec = Record::new();
    for p in parts {
        let (k, v) = p.split_once('=')?;
        rec.insert(k.to_string(), v.to_string());
    }
    Some((index, rec))
}

/// Names every key whose value differs between two records of one check.
pub fn diff(a: &Record, b: &Record) -> Vec<String> {
    let mut out = Vec::new();
    for key in a.keys().chain(b.keys().filter(|k| !a.contains_key(*k))) {
        let (x, y) = (a.get(key), b.get(key));
        if x != y {
            out.push(format!(
                "{key}: {} vs {}",
                x.map_or("-", String::as_str),
                y.map_or("-", String::as_str)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_mc::Budget;

    #[test]
    fn flatten_drops_wall_clock_and_keeps_structure() {
        let j = Json::parse(
            r#"{"verdict":"safe","elapsed_ms":1.5,"solver":{"conflicts":3},"members":[{"engine":"bmc","elapsed_ms":0.2}]}"#,
        )
        .unwrap();
        let mut r = Record::new();
        flatten(&j, "", &mut r);
        assert_eq!(r["verdict"], "\"safe\"");
        assert_eq!(r["solver.conflicts"], "3");
        assert_eq!(r["members.0.engine"], "\"bmc\"");
        assert!(!r.keys().any(|k| k.contains("elapsed")));
        let (i, back) = decode(&encode(4, &r)).unwrap();
        assert_eq!((i, &back), (4, &r));
    }

    #[test]
    fn diff_names_each_differing_counter() {
        let mut a = Record::new();
        a.insert("sat.conflicts".into(), "3".into());
        a.insert("verdict".into(), "\"safe\"".into());
        let mut b = a.clone();
        assert!(diff(&a, &b).is_empty());
        b.insert("sat.conflicts".into(), "4".into());
        b.insert("extra".into(), "1".into());
        let d = diff(&a, &b);
        assert_eq!(d, vec!["sat.conflicts: 3 vs 4", "extra: - vs 1"]);
    }

    #[test]
    fn portfolio_counters_sum_their_members() {
        let net = cbq_ckt::generators::counter_bug(5, 6);
        let run = cbq_mc::by_name("portfolio")
            .unwrap()
            .check(&net, &Budget::unlimited());
        let members: Vec<&McRun> = run
            .detail::<PortfolioStats>()
            .unwrap()
            .runs
            .iter()
            .map(|(_, r)| r)
            .collect();
        let mut whole = Counters::new();
        add_run(&run, &mut whole);
        let mut parts = Counters::new();
        for m in members {
            add_run(m, &mut parts);
        }
        assert_eq!(whole, parts);
        assert!(whole["bmc.unrolled_nodes"] > 0, "{whole:?}");
        // Two runs of one check report identical counters.
        let again = cbq_mc::by_name("ic3")
            .unwrap()
            .check(&net, &Budget::unlimited());
        let once = cbq_mc::by_name("ic3")
            .unwrap()
            .check(&net, &Budget::unlimited());
        let line = |r: &McRun| Json::parse(&cbq_mc::json::run_to_json(r)).unwrap();
        assert!(diff(
            &record(&line(&again), Some(&again)),
            &record(&line(&once), Some(&once))
        )
        .is_empty());
    }
}
