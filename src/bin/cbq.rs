//! `cbq` — command-line front end for the circuit-based quantification
//! stack.
//!
//! ```text
//! cbq gen <family> [N [K]]            emit a benchmark circuit as ASCII AIGER
//! cbq info <file.aag>                 print circuit statistics
//! cbq check <file.aag> [--engine E] [budget flags]
//!                                     model-check via the engine registry
//! cbq engines                         list the registered engines
//! cbq quantify <file.aag> [--mode M]  eliminate all inputs of output 0
//! cbq sat <file.cnf> [--backend B]    solve a DIMACS file, print SolverStats
//! cbq dot <file.aag>                  emit Graphviz for the bad-state cone
//! cbq serve [--listen ADDR]           run the model-checking service
//! cbq submit <file.aag> [--to ADDR]   send a job to a running service
//! ```
//!
//! Every subcommand accepts `--help`/`-h`. Unknown flags, engines, or
//! modes are errors (exit 2), never silent fallbacks.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::time::Duration;

use cbq::ckt::io::{read_network, write_network};
use cbq::ckt::{generators, Network};
use cbq::mc::json::{field, run_to_json};
use cbq::mc::{by_name_tuned, engine_names, registry, EngineTuning, PartitionCount};
use cbq::prelude::*;
use cbq::quant::{exists_bdd, exists_many, VarOrder};
use cbq::sat::reference::ReferenceSolver;
use cbq::sat::{dimacs, drat, ProofMode, SatBackend};
use cbq::serve::{client, CheckRequest, Json, ServeConfig, Server};

const USAGE: &str = "cbq — circuit-based quantification (DATE 2005 reproduction)

usage: cbq <command> [args]

commands:
  gen <family> [N [K]]     emit a benchmark circuit as ASCII AIGER
  info <file.aag>          print circuit statistics
  check <file.aag> [...]   model-check a circuit (see `cbq check --help`)
  engines                  list the registered model-checking engines
  quantify <file.aag> [..] quantify inputs out of a formula
  sat <file.cnf> [...]     solve a DIMACS CNF file (see `cbq sat --help`)
  dot <file.aag>           emit Graphviz for the bad-state cone
  serve [--listen ADDR]    run the model-checking service (see `cbq serve --help`)
  submit <file.aag> [...]  send a job to a running service (see `cbq submit --help`)

run `cbq <command> --help` for per-command options";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("engines") => cmd_engines(&args[1..]),
        Some("quantify") => cmd_quantify(&args[1..]),
        Some("sat") => cmd_sat(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// The `i`-th positional argument as a number; absent → `default`,
/// present but non-numeric → an error (no silent fallback).
fn parse_num(args: &[String], i: usize, default: u64) -> Result<u64, String> {
    match args.get(i) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("expected a number, got `{s}`")),
    }
}

/// Positional arguments, `--flag value` pairs, and valueless switches.
type ParsedArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>, Vec<&'a str>);

/// Splits `args` into positional arguments, `--flag value` pairs, and
/// valueless `--switch` flags, rejecting anything outside
/// `known`/`known_switch`.
fn parse_flags<'a>(
    args: &'a [String],
    known: &[&str],
    known_switch: &[&str],
) -> Result<ParsedArgs<'a>, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut switches = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            if known_switch.contains(&flag) {
                switches.push(flag);
                continue;
            }
            if !known.contains(&flag) {
                return Err(format!(
                    "unknown flag `--{flag}` (expected one of: {})",
                    known
                        .iter()
                        .map(|f| format!("--{f}"))
                        .chain(known_switch.iter().map(|f| format!("--{f}")))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            let Some(value) = it.next() else {
                return Err(format!("flag `--{flag}` needs a value"));
            };
            flags.push((flag, value.as_str()));
        } else {
            positional.push(arg.as_str());
        }
    }
    Ok((positional, flags, switches))
}

fn parse_count(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("flag `--{flag}` needs a number, got `{value}`"))
}

const GEN_HELP: &str = "usage: cbq gen <family> [N [K]]

Emits a benchmark circuit as ASCII AIGER on stdout.

families: counter, counter-bug, gap, gray, ring, ring-bug, arbiter,
          arbiter-bug, lfsr, fifo, mutex, mutex-bug, shift";

fn cmd_gen(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{GEN_HELP}");
        return ExitCode::SUCCESS;
    }
    let Some(family) = args.first() else {
        eprintln!("{GEN_HELP}");
        return ExitCode::from(2);
    };
    let (n, k) = match (parse_num(args, 1, 8), parse_num(args, 2, 0)) {
        (Ok(n), Ok(k)) => (n as usize, k),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}\n\n{GEN_HELP}");
            return ExitCode::from(2);
        }
    };
    let net = match family.as_str() {
        "counter" => generators::bounded_counter(n, if k == 0 { (1 << n) as u64 - 2 } else { k }),
        "counter-bug" => generators::counter_bug(n, if k == 0 { 10 } else { k }),
        "gap" => generators::bounded_counter_gap(n, k.max(2), k.max(2) + 10),
        "gray" => generators::gray_counter(n),
        "ring" => generators::token_ring(n),
        "ring-bug" => generators::token_ring_bug(n.max(4)),
        "arbiter" => generators::arbiter(n),
        "arbiter-bug" => generators::arbiter_bug(n),
        "lfsr" => generators::lfsr(n, &[0, 2, 3]),
        "fifo" => generators::fifo_ctrl(n.min(8)),
        "mutex" => generators::mutex(),
        "mutex-bug" => generators::mutex_bug(),
        "shift" => generators::shift_ones(n),
        other => {
            eprintln!("unknown family `{other}`\n\n{GEN_HELP}");
            return ExitCode::from(2);
        }
    };
    // One write on locked stdout; a reader that stops early (`| head`)
    // closes the pipe, which ends the output, not the process with a panic.
    let mut out = std::io::stdout().lock();
    match out
        .write_all(write_network(&net).as_bytes())
        .and_then(|()| out.flush())
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<Network, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    read_network(&text, path).map_err(|e| format!("{path}: {e}"))
}

const INFO_HELP: &str = "usage: cbq info <file.aag>

Prints circuit statistics (latches, inputs, gates, depth, initial state).";

fn cmd_info(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{INFO_HELP}");
        return ExitCode::SUCCESS;
    }
    let Some(path) = args.first() else {
        eprintln!("{INFO_HELP}");
        return ExitCode::from(2);
    };
    match load(path) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Ok(net) => {
            let aig = net.aig();
            let mut roots: Vec<Lit> = net.latches().iter().map(|l| l.next).collect();
            roots.push(net.bad());
            let stats = aig.cone_stats(&roots);
            println!("name     : {}", net.name());
            println!("latches  : {}", net.num_latches());
            println!("inputs   : {}", net.num_inputs());
            println!("and gates: {}", stats.ands);
            println!("depth    : {}", stats.depth);
            println!("initial  : {}", net.initial_cube());
            ExitCode::SUCCESS
        }
    }
}

const ENGINES_HELP: &str = "usage: cbq engines

Lists the registered model-checking engines (`cbq check --engine <name>`).";

fn cmd_engines(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{ENGINES_HELP}");
        return ExitCode::SUCCESS;
    }
    for spec in registry() {
        let traits = match (spec.complete, spec.minimal_cex) {
            (true, true) => "complete, minimal cex",
            (true, false) => "complete",
            (false, true) => "refutation only, minimal cex",
            (false, false) => "refutation only",
        };
        println!("{:<12} {}  [{traits}]", spec.name, spec.summary);
    }
    ExitCode::SUCCESS
}

fn check_help() -> String {
    format!(
        "usage: cbq check <file.aag> [--engine E] [--sweep on|off]
                 [--quant-order O] [--partitions N|auto]
                 [--ic3-frames N] [--ic3-gen core|drop|ternary|ctg|ctg-deep]
                 [--itp-frames N]
                 [--portfolio-par]
                 [--steps N] [--nodes N] [--sat-checks N]
                 [--timeout-ms N] [--json]

Model-checks the circuit's bad-state property.

  --engine E         engine to run (default: circuit); one of: {}
  --sweep on|off     state-set sweeping between iterations
                     (circuit/forward engines; default: on)
  --quant-order O    quantification variable order: cheapest | static | given
                     (circuit/forward engines; default: cheapest)
  --partitions N     partitioned state set: start with N partitions
                     (`auto` = one per CPU core) tiled by latch-cofactor
                     windows, per-partition image computation in parallel
                     (circuit/forward engines; default: 1 = monolithic)
  --ic3-frames N     IC3 frame-count safety net (ic3 engine; default 10000)
  --ic3-gen M        IC3 generalization effort, a cumulative ladder:
                     core (unsat-core shrink only) | drop (+ literal
                     dropping) | ternary (+ ternary-simulation
                     predecessor widening) | ctg (+ counterexample-to-
                     generalization blocking) | ctg-deep (+ recursive
                     CTG descent with its own strike budget;
                     ic3 engine; default: ctg)
  --itp-frames N     interpolation unrolling-depth safety net
                     (itp engine; default 64)
  --portfolio-par    run the portfolio members concurrently (scoped
                     threads, first conclusive answer wins) over a
                     cross-engine lemma bus: IC3 frame clauses and
                     sweep-proven merges are shared and re-validated by
                     each consumer (portfolio engine only — the
                     sequential cascade is the default)
  --steps N          budget: at most N engine iterations / depth frames
  --nodes N          budget: at most N representation nodes
  --sat-checks N     budget: at most N SAT checks
  --timeout-ms N     budget: wall-clock deadline in milliseconds
  --json             emit the run record as one JSON object on stdout

exit code: 0 safe, 1 unsafe, 2 usage/input error, 3 unknown,
           4 budget exhausted",
        engine_names().join(", ")
    )
}

fn cmd_check(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{}", check_help());
        return ExitCode::SUCCESS;
    }
    let flags = match parse_flags(
        args,
        &[
            "engine",
            "sweep",
            "quant-order",
            "partitions",
            "ic3-frames",
            "ic3-gen",
            "itp-frames",
            "steps",
            "nodes",
            "sat-checks",
            "timeout-ms",
            "max",
        ],
        &["json", "portfolio-par"],
    ) {
        Ok((positional, flags, switches)) if positional.len() == 1 => {
            (positional[0].to_string(), flags, switches)
        }
        Ok((positional, ..)) => {
            eprintln!(
                "expected exactly one <file.aag>, got {}\n\n{}",
                positional.len(),
                check_help()
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", check_help());
            return ExitCode::from(2);
        }
    };
    let (path, flags, switches) = flags;
    let json = switches.contains(&"json");
    let mut engine_name = "circuit";
    let mut budget = Budget::unlimited();
    let mut tuning = EngineTuning::default();
    for (flag, value) in flags {
        match flag {
            "engine" => engine_name = value,
            "sweep" => match value {
                "on" => tuning.sweep = Some(true),
                "off" => tuning.sweep = Some(false),
                other => {
                    eprintln!("flag `--sweep` expects `on` or `off`, got `{other}`");
                    return ExitCode::from(2);
                }
            },
            "quant-order" => match VarOrder::from_name(value) {
                Some(order) => tuning.quant_order = Some(order),
                None => {
                    eprintln!(
                        "flag `--quant-order` expects cheapest, static, or given, got `{value}`"
                    );
                    return ExitCode::from(2);
                }
            },
            "partitions" => match PartitionCount::from_name(value) {
                Some(count) => tuning.partitions = Some(count),
                None => {
                    eprintln!(
                        "flag `--partitions` expects a positive number or `auto`, got `{value}`"
                    );
                    return ExitCode::from(2);
                }
            },
            "ic3-frames" => match parse_count(flag, value) {
                Ok(n) if n >= 1 => tuning.ic3_frames = Some(n as usize),
                Ok(_) => {
                    eprintln!("flag `--ic3-frames` needs a positive number");
                    return ExitCode::from(2);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            "ic3-gen" => match cbq::mc::GenMode::parse(value) {
                Some(mode) => tuning.ic3_gen = Some(mode),
                None => {
                    eprintln!(
                        "flag `--ic3-gen` expects `core`, `drop`, `ternary`, `ctg` or \
                         `ctg-deep`, got `{value}`"
                    );
                    return ExitCode::from(2);
                }
            },
            "itp-frames" => match parse_count(flag, value) {
                Ok(n) if n >= 1 => tuning.itp_frames = Some(n as usize),
                Ok(_) => {
                    eprintln!("flag `--itp-frames` needs a positive number");
                    return ExitCode::from(2);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            other => {
                let n = match parse_count(other, value) {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::from(2);
                    }
                };
                budget = match other {
                    // `--max` is the legacy spelling of `--steps`.
                    "steps" | "max" => budget.with_steps(n as usize),
                    "nodes" => budget.with_nodes(n as usize),
                    "sat-checks" => budget.with_sat_checks(n),
                    "timeout-ms" => budget.with_timeout(Duration::from_millis(n)),
                    _ => unreachable!("parse_flags rejects unknown flags"),
                };
            }
        }
    }
    // Warn per flag *family*: an engine with a tune hook still ignores
    // the other family's flags (circuit ignores --ic3-*, ic3 ignores the
    // state-set flags), so `supports_tuning` alone is not enough.
    let state_flags =
        tuning.sweep.is_some() || tuning.quant_order.is_some() || tuning.partitions.is_some();
    let ic3_flags = tuning.ic3_frames.is_some() || tuning.ic3_gen.is_some();
    if state_flags && !matches!(engine_name, "circuit" | "forward") {
        eprintln!(
            "note: engine `{engine_name}` ignores --sweep/--quant-order/--partitions \
             (only circuit and forward honour them)"
        );
    }
    if ic3_flags && engine_name != "ic3" {
        eprintln!("note: engine `{engine_name}` ignores --ic3-frames/--ic3-gen");
    }
    if tuning.itp_frames.is_some() && engine_name != "itp" {
        eprintln!("note: engine `{engine_name}` ignores --itp-frames");
    }
    tuning.portfolio_parallel = switches.contains(&"portfolio-par");
    if tuning.portfolio_parallel && engine_name != "portfolio" {
        eprintln!("note: engine `{engine_name}` ignores --portfolio-par");
    }
    let Some(engine) = by_name_tuned(engine_name, &tuning) else {
        eprintln!(
            "unknown engine `{engine_name}` (expected one of: {})",
            engine_names().join(", ")
        );
        return ExitCode::from(2);
    };
    // Exit 2, not 1: for `check`, exit 1 means "counterexample found".
    let net = match load(&path) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = engine.check(&net, &budget);
    if json {
        println!("{}", run_to_json(&run));
    } else {
        println!(
            "{}   [{}, {} iterations, {} peak nodes, {} SAT checks, {:.1} ms]",
            run.verdict,
            run.stats.engine,
            run.stats.iterations,
            run.stats.peak_nodes,
            run.stats.sat_checks,
            run.stats.elapsed.as_secs_f64() * 1e3
        );
        if let Verdict::Unsafe { trace } = &run.verdict {
            print!("{trace}");
            println!(
                "trace replay: {}",
                if trace.validates(&net) {
                    "valid"
                } else {
                    "INVALID"
                }
            );
        }
    }
    match run.verdict {
        Verdict::Safe { .. } => ExitCode::SUCCESS,
        Verdict::Unsafe { .. } => ExitCode::from(1),
        Verdict::Unknown { .. } => ExitCode::from(3),
        Verdict::Bounded { .. } => ExitCode::from(4),
    }
}

const QUANTIFY_HELP: &str = "usage: cbq quantify <file.aag> [--mode M] [--order O]

Eliminates all inputs of output 0 (combinational file) or the primary
inputs of the bad-state cone (sequential file).

  --mode M    naive | merge | full | bdd      (default: full)
  --order O   cheapest | static | given       (default: cheapest)";

fn cmd_quantify(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{QUANTIFY_HELP}");
        return ExitCode::SUCCESS;
    }
    let (path, mode, order_name) = match parse_flags(args, &["mode", "order"], &[]) {
        Ok((positional, flags, _)) if positional.len() == 1 => {
            let mode = flags
                .iter()
                .find(|(f, _)| *f == "mode")
                .map_or("full", |(_, v)| *v);
            let order = flags
                .iter()
                .find(|(f, _)| *f == "order")
                .map_or("cheapest", |(_, v)| *v);
            (
                positional[0].to_string(),
                mode.to_string(),
                order.to_string(),
            )
        }
        Ok((positional, ..)) => {
            eprintln!(
                "expected exactly one <file.aag>, got {}\n\n{QUANTIFY_HELP}",
                positional.len()
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{QUANTIFY_HELP}");
            return ExitCode::from(2);
        }
    };
    // Validate --order up front, whatever the mode; the BDD baseline has
    // no variable schedule, so there the flag is noted and ignored.
    let Some(order) = VarOrder::from_name(&order_name) else {
        eprintln!("unknown order `{order_name}` (expected cheapest, static, or given)");
        return ExitCode::from(2);
    };
    if mode == "bdd" && order != VarOrder::CheapestFirst {
        eprintln!("note: mode `bdd` quantifies inside the decision diagram and ignores --order");
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match cbq::aig::io::parse_aag(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Combinational file: quantify all inputs of output 0. Sequential
    // file: quantify the primary inputs out of the bad-state function.
    let (mut aig, in_vars, f) = match file.build() {
        Ok((aig, in_vars, outs)) => {
            let Some(&f) = outs.first() else {
                eprintln!("error: file has no outputs");
                return ExitCode::FAILURE;
            };
            (aig, in_vars, f)
        }
        Err(_) => match read_network(&text, &path) {
            Ok(net) => (net.aig().clone(), net.primary_inputs().to_vec(), net.bad()),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    println!(
        "before : {} AND gates, {} inputs",
        aig.cone_size(f),
        in_vars.len()
    );
    let start = std::time::Instant::now();
    let (label, lit) = match mode.as_str() {
        "bdd" => match exists_bdd(&mut aig, f, &in_vars, usize::MAX) {
            Some((l, nodes)) => {
                println!("bdd    : {nodes} decision nodes");
                ("bdd".to_string(), l)
            }
            None => {
                eprintln!("bdd blow-up");
                return ExitCode::FAILURE;
            }
        },
        m => {
            let mut cfg = match m {
                "naive" => QuantConfig::naive(),
                "merge" => QuantConfig::merge_only(),
                "full" => QuantConfig::full(),
                other => {
                    eprintln!("unknown mode `{other}` (expected naive, merge, full, or bdd)");
                    return ExitCode::from(2);
                }
            };
            cfg.order = order;
            let mut cnf = AigCnf::new();
            let res = exists_many(&mut aig, f, &in_vars, &mut cnf, &cfg);
            (m.to_string(), res.lit)
        }
    };
    println!(
        "after  : {} AND gates  [{label}, {:.1} ms]",
        aig.cone_size(lit),
        start.elapsed().as_secs_f64() * 1e3
    );
    ExitCode::SUCCESS
}

const SAT_HELP: &str = "usage: cbq sat <file.cnf> [--backend B] [--conflicts N]
               [--proof FILE] [--verify-proof] [--json]

Solves a DIMACS CNF file and prints the verdict plus solver statistics.

  --backend B     arena | reference       (default: arena)
                  `arena` is the incremental CDCL solver on the clause
                  arena; `reference` is the exhaustive differential
                  oracle (UNKNOWN above 24 variables)
  --conflicts N   per-call conflict budget (arena backend only; an
                  exhausted budget prints UNKNOWN)
  --proof FILE    log the solve in DRAT; on UNSATISFIABLE, write the
                  refutation proof to FILE (on any other verdict no
                  file is written)
  --verify-proof  replay the emitted proof through the built-in DRAT
                  checker before writing it (requires --proof; a proof
                  that fails the check is an internal error, exit 2)
  --json          emit the verdict and SolverStats as one JSON object

exit code: 10 satisfiable, 20 unsatisfiable, 3 unknown,
           2 usage/input error";

fn cmd_sat(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{SAT_HELP}");
        return ExitCode::SUCCESS;
    }
    let (path, flags, switches) = match parse_flags(
        args,
        &["backend", "conflicts", "proof"],
        &["json", "verify-proof"],
    ) {
        Ok((positional, flags, switches)) if positional.len() == 1 => {
            (positional[0].to_string(), flags, switches)
        }
        Ok((positional, ..)) => {
            eprintln!(
                "expected exactly one <file.cnf>, got {}\n\n{SAT_HELP}",
                positional.len()
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{SAT_HELP}");
            return ExitCode::from(2);
        }
    };
    let json = switches.contains(&"json");
    let verify_proof = switches.contains(&"verify-proof");
    let mut backend = "arena";
    let mut conflicts: Option<u64> = None;
    let mut proof_path: Option<String> = None;
    for (flag, value) in flags {
        match flag {
            "backend" => match value {
                "arena" | "reference" => backend = value,
                other => {
                    eprintln!("flag `--backend` expects `arena` or `reference`, got `{other}`");
                    return ExitCode::from(2);
                }
            },
            "conflicts" => match parse_count(flag, value) {
                Ok(n) => conflicts = Some(n),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            "proof" => proof_path = Some(value.to_string()),
            _ => unreachable!("parse_flags rejects unknown flags"),
        }
    }
    if verify_proof && proof_path.is_none() {
        eprintln!("error: --verify-proof requires --proof FILE\n\n{SAT_HELP}");
        return ExitCode::from(2);
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let cnf = match dimacs::parse_dimacs(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let proof_mode = if proof_path.is_some() {
        ProofMode::Drat
    } else {
        ProofMode::Off
    };
    let start = std::time::Instant::now();
    let (result, stats, proof) = match backend {
        "arena" => {
            let mut solver = cnf.to_solver_with_proof(proof_mode);
            solver.set_conflict_budget(conflicts);
            let r = SatBackend::solve(&mut solver);
            let proof = SatBackend::drat_proof(&solver);
            (r, Some(solver.stats()), proof)
        }
        _ => {
            let mut solver = ReferenceSolver::new();
            // Proof mode must be set while the solver is still empty.
            SatBackend::set_proof_mode(&mut solver, proof_mode);
            for _ in 0..cnf.num_vars {
                solver.new_var();
            }
            for c in &cnf.clauses {
                solver.add_clause(c);
            }
            let r = SatBackend::solve(&mut solver);
            let proof = SatBackend::drat_proof(&solver);
            (r, None, proof)
        }
    };
    let elapsed = start.elapsed();
    let verdict = match result {
        SatResult::Sat => "satisfiable",
        SatResult::Unsat => "unsatisfiable",
        SatResult::Unknown => "unknown",
    };
    let mut proof_steps: Option<usize> = None;
    if let Some(out) = &proof_path {
        if result == SatResult::Unsat {
            let Some(text) = proof else {
                eprintln!("error: UNSAT but no DRAT proof was produced");
                return ExitCode::from(2);
            };
            if verify_proof {
                match drat::check_drat(&cnf, &text) {
                    Ok(st) => proof_steps = Some(st.added),
                    Err(e) => {
                        eprintln!("error: emitted proof fails the DRAT check: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            if let Err(e) = std::fs::write(out, &text) {
                eprintln!("error: {out}: {e}");
                return ExitCode::from(2);
            }
        } else {
            eprintln!("note: no proof written to `{out}` (verdict is {verdict}, not UNSAT)");
        }
    }
    if json {
        let mut fields = vec![
            field("verdict", verdict),
            field("backend", backend),
            field("vars", cnf.num_vars),
            field("clauses", cnf.clauses.len()),
            field("elapsed_ms", Json::millis(elapsed)),
        ];
        fields.extend(stats.as_ref().map(|s| field("solver", s)));
        if let (Some(out), SatResult::Unsat) = (&proof_path, result) {
            fields.push(field("proof", out.as_str()));
            fields.extend(proof_steps.map(|n| field("proof_steps", n)));
        }
        println!("{}", Json::Obj(fields));
    } else {
        println!(
            "{verdict}   [{backend}, {} vars, {} clauses, {:.1} ms]",
            cnf.num_vars,
            cnf.clauses.len(),
            elapsed.as_secs_f64() * 1e3
        );
        if let Some(s) = stats {
            println!(
                "solver   : {} conflicts, {} decisions, {} propagations, {} restarts",
                s.conflicts, s.decisions, s.propagations, s.restarts
            );
            println!(
                "database : {} learnts kept, {} deleted over {} reductions, arena {} bytes",
                s.learnts,
                s.deleted,
                s.reduces,
                s.arena_bytes()
            );
            println!("lbd hist : {}", Json::from(s.lbd_hist.as_slice()));
        }
        if let (Some(out), SatResult::Unsat) = (&proof_path, result) {
            match proof_steps {
                Some(n) => println!("proof    : {out} ({n} steps, DRAT-checked)"),
                None => println!("proof    : {out}"),
            }
        }
    }
    match result {
        SatResult::Sat => ExitCode::from(10),
        SatResult::Unsat => ExitCode::from(20),
        SatResult::Unknown => ExitCode::from(3),
    }
}

const DOT_HELP: &str = "usage: cbq dot <file.aag>

Emits Graphviz for the bad-state cone on stdout.";

fn cmd_dot(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{DOT_HELP}");
        return ExitCode::SUCCESS;
    }
    let Some(path) = args.first() else {
        eprintln!("{DOT_HELP}");
        return ExitCode::from(2);
    };
    match load(path) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Ok(net) => {
            print!("{}", cbq::aig::io::write_dot(net.aig(), &[net.bad()]));
            ExitCode::SUCCESS
        }
    }
}

const SERVE_HELP: &str = "usage: cbq serve [--listen ADDR] [--workers N]
                 [--steps N] [--nodes N] [--sat-checks N] [--timeout-ms N]

Runs the model-checking service: line-delimited JSON over TCP, a bounded
worker pool, and a structural result cache (whole-run replay, depth-0
sub-query replay, IC3 warm starts). Blocks until a `shutdown` command
arrives; see README.md for the wire protocol.

  --listen ADDR      bind address (default 127.0.0.1:7297; port 0 picks
                     a free port, reported in the `serving` line)
  --workers N        worker threads (default 2)
  --steps N          per-job cap: at most N engine iterations
  --nodes N          per-job cap: at most N representation nodes
  --sat-checks N     per-job cap: at most N SAT checks
  --timeout-ms N     per-job cap: wall-clock milliseconds

The caps are ceilings: a job's own budget is clamped against them, so a
request can tighten but never widen what the operator allows.";

fn cmd_serve(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{SERVE_HELP}");
        return ExitCode::SUCCESS;
    }
    let parsed = parse_flags(
        args,
        &[
            "listen",
            "workers",
            "steps",
            "nodes",
            "sat-checks",
            "timeout-ms",
        ],
        &[],
    );
    let flags = match parsed {
        Ok((positional, flags, _)) if positional.is_empty() => flags,
        Ok((positional, ..)) => {
            eprintln!("unexpected argument `{}`\n\n{SERVE_HELP}", positional[0]);
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{SERVE_HELP}");
            return ExitCode::from(2);
        }
    };
    let mut cfg = ServeConfig::default();
    for (flag, value) in flags {
        if flag == "listen" {
            cfg.listen = value.to_string();
            continue;
        }
        let n = match parse_count(flag, value) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        match flag {
            "workers" => cfg.workers = n.max(1) as usize,
            "steps" => cfg.caps.max_steps = Some(n as usize),
            "nodes" => cfg.caps.max_nodes = Some(n as usize),
            "sat-checks" => cfg.caps.max_sat_checks = Some(n),
            "timeout-ms" => cfg.caps.timeout = Some(Duration::from_millis(n)),
            _ => unreachable!("parse_flags rejects unknown flags"),
        }
    }
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            return ExitCode::from(2);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!(
            "{}",
            Json::Obj(vec![
                field("event", "serving"),
                field("addr", addr.to_string())
            ])
        ),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

const SUBMIT_HELP: &str = "usage: cbq submit <file.aag> [--to ADDR] [--engine E] [--id N]
                 [--steps N] [--nodes N] [--sat-checks N] [--timeout-ms N]
                 [--no-cache] [--json]
       cbq submit --stats [--to ADDR]
       cbq submit --shutdown [--to ADDR]

Sends one model-checking job to a running `cbq serve` instance and
blocks for the result.

  --to ADDR          server address (default 127.0.0.1:7297)
  --engine E         registry engine to request (default: portfolio)
  --id N             client-chosen job id (default: server assigns)
  --steps/--nodes/--sat-checks/--timeout-ms
                     requested budget (clamped by the server's caps)
  --no-cache         bypass the structural cache for this job
  --json             print the raw result record instead of a summary
  --stats            fetch the server's cache/queue statistics and exit
  --shutdown         stop the server and exit

exit code: 0 safe, 1 unsafe, 2 usage/connection error, 3 unknown,
           4 budget exhausted";

fn cmd_submit(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{SUBMIT_HELP}");
        return ExitCode::SUCCESS;
    }
    let parsed = parse_flags(
        args,
        &[
            "to",
            "engine",
            "id",
            "steps",
            "nodes",
            "sat-checks",
            "timeout-ms",
        ],
        &["no-cache", "json", "stats", "shutdown"],
    );
    let (positional, flags, switches) = match parsed {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("error: {e}\n\n{SUBMIT_HELP}");
            return ExitCode::from(2);
        }
    };
    let mut addr = "127.0.0.1:7297".to_string();
    let mut request = CheckRequest {
        id: 0,
        model: String::new(),
        engine: "portfolio".to_string(),
        budget: Budget::unlimited(),
        use_cache: !switches.contains(&"no-cache"),
    };
    for (flag, value) in flags {
        match flag {
            "to" => addr = value.to_string(),
            "engine" => request.engine = value.to_string(),
            _ => {
                let n = match parse_count(flag, value) {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::from(2);
                    }
                };
                match flag {
                    "id" => request.id = n,
                    "steps" => request.budget = request.budget.with_steps(n as usize),
                    "nodes" => request.budget = request.budget.with_nodes(n as usize),
                    "sat-checks" => request.budget = request.budget.with_sat_checks(n),
                    "timeout-ms" => {
                        request.budget = request.budget.with_timeout(Duration::from_millis(n));
                    }
                    _ => unreachable!("parse_flags rejects unknown flags"),
                }
            }
        }
    }
    if switches.contains(&"stats") {
        return match client::server_stats(&addr) {
            Ok(stats) => {
                println!("{stats}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if switches.contains(&"shutdown") {
        return match client::shutdown(&addr) {
            Ok(()) => {
                println!("server at {addr} shut down");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let [path] = positional[..] else {
        eprintln!(
            "expected exactly one <file.aag>, got {}\n\n{SUBMIT_HELP}",
            positional.len()
        );
        return ExitCode::from(2);
    };
    request.model = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match client::submit_one(&addr, &request) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let field_str = |name: &str| result.get(name).and_then(Json::as_str).unwrap_or("?");
    let field_num = |name: &str| result.get(name).and_then(Json::as_u64);
    if switches.contains(&"json") {
        println!("{result}");
    } else {
        let tier = result
            .get("cache")
            .and_then(|c| c.get("tier"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let cache_note = match tier {
            1 => ", cache: whole-run hit",
            2 => ", cache: depth-0 hit",
            3 => ", cache: warm start",
            _ => "",
        };
        println!(
            "job {}: {}   [{}, {} iterations{}]",
            field_num("job").unwrap_or(0),
            field_str("verdict"),
            field_str("engine"),
            field_num("iterations").unwrap_or(0),
            cache_note,
        );
    }
    match field_str("verdict") {
        "safe" => ExitCode::SUCCESS,
        "unsafe" => ExitCode::from(1),
        "bounded" => ExitCode::from(4),
        _ => ExitCode::from(3),
    }
}
