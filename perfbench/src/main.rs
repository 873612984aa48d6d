//! `cbq-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! no tracing; with `--trace 1` they are the per-layer ones. The line
//! before it holds the runner facts and sample sizes. See README.md.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use cbq_mc::json::json_str;
use cbq_perfbench::calib::Calibration;
use cbq_perfbench::counters::{self, Record};
use cbq_perfbench::schedule::Workload;
use cbq_perfbench::stats::{beyond, git_rev, median, peak_rss_mb, quantile};
use cbq_perfbench::trace::{self_times, Tracer};
use cbq_perfbench::{compare_records, repeat_setup, serve, umc, Pass};

/// The seed runs use unless told otherwise.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claim made on others.
const HELD_OUT_SEED: u64 = 7777;
/// The process gives up, without a result, this long after it starts.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Timed serve-regress rounds generated per second of `--seconds`:
/// about twice what one client completes on a 2-vCPU machine, so the
/// schedule does not run dry before the clock does.
const SERVE_ROUNDS_PER_S: f64 = 20.0;
/// At most this many rounds: the counter-bug misses draw from 1,200
/// distinct models. A longer run ends when the schedule does.
const MAX_SERVE_ROUNDS: usize = 1100;
/// serve-regress reads `peak_rss_mb` once this many timed requests are
/// answered (or at the end, if fewer are): the structural cache grows
/// with every request, so a fixed traffic volume keeps host speed out
/// of the memory figure.
const SERVE_RSS_REQUESTS: usize = 2500;
/// Rounds of the serve schedule the traced run replays.
const TRACE_SERVE_ROUNDS: usize = 60;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, DEFAULT_SEED, 35.0_f64, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload `{name}` (expected umc-quant, umc-sat or serve-regress)"
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--child" => child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        child,
    })
}

fn serve_rounds(seconds: f64) -> usize {
    ((seconds * SERVE_ROUNDS_PER_S).ceil() as usize).min(MAX_SERVE_ROUNDS)
}

/// The untraced pass of a traced run, in this (child) process: prints
/// one guard record per check.
fn child(args: &Args) {
    let pass = match args.workload {
        Workload::ServeRegress => {
            let (s, server, _) = serve::setup(args.seed, TRACE_SERVE_ROUNDS);
            let tcp = serve::tcp_pass(&s, &server.addr, true, None, true, None, None);
            serve::stop_server(server);
            tcp.pass
        }
        w => umc::cycle_pass(&umc::prepare(w, args.seed), None, false).0,
    };
    for (i, rec) in pass.records.iter().enumerate() {
        println!("{}", counters::encode(i, rec));
    }
}

/// Runs the untraced pass in a second process and collects its records.
fn spawn_child(args: &Args) -> Result<Vec<Record>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut proc = Command::new(exe)
        .args(["--child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn the untraced pass: {e}"))?;
    let out = proc.stdout.take().expect("piped stdout");
    let mut records = Vec::new();
    for line in BufReader::new(out).lines() {
        let line = line.map_err(|e| e.to_string())?;
        match counters::decode(&line) {
            Some((i, rec)) if i == records.len() => records.push(rec),
            _ => return Err(format!("bad record line from the untraced pass: {line}")),
        }
    }
    let status = proc.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("untraced pass exited with {status}"));
    }
    Ok(records)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

struct Outcome {
    pass: Pass,
    metrics: Vec<Metric>,
    /// Reasons the run is not correct beyond wrong verdicts.
    faults: Vec<String>,
    notes: Vec<String>,
}

fn end_to_end(args: &Args) -> Outcome {
    let (setups, scaled_setups);
    let mut rss_mb = None;
    let mut notes = Vec::new();
    let mut faults = Vec::new();
    let mut calib = Calibration::new();
    let pass = match args.workload {
        Workload::ServeRegress => {
            let (secs, scaled, (s, server, wrong)) = repeat_setup(
                &mut calib,
                || serve::setup(args.seed, serve_rounds(args.seconds)),
                |(_, server, wrong)| {
                    faults.extend(wrong);
                    serve::stop_server(server);
                },
            );
            (setups, scaled_setups) = (secs, scaled);
            faults.extend(wrong);
            let tcp = serve::tcp_pass(
                &s,
                &server.addr,
                true,
                Some(args.seconds),
                false,
                Some(SERVE_RSS_REQUESTS),
                Some(&mut calib),
            );
            serve::stop_server(server);
            if tcp.pass.attempted == s.timed.len() {
                notes.push("the schedule ran out before the clock".to_string());
            }
            notes.push(format!(
                "requests answered off the planned cache tier: {}",
                tcp.misplans
            ));
            rss_mb = tcp.rss_mb;
            tcp.pass
        }
        w => {
            let (secs, scaled, prepared) =
                repeat_setup(&mut calib, || umc::prepare(w, args.seed), drop);
            (setups, scaled_setups) = (secs, scaled);
            umc::timed_pass(&prepared, args.seconds, &mut calib)
        }
    };
    let lat = &pass.latencies_ms;
    let n = lat.len();
    // Timings as measured, then at the reference host speed: each
    // set-up against the kernel run just before it, the timed phase
    // against the kernel's median over the phase.
    let raw = [
        ("setup_s", median(&setups).unwrap_or(0.0), "s"),
        ("checks_per_s", n as f64 / pass.elapsed_s, "1/s"),
        ("check_ms_p50", quantile(lat, 0.5).unwrap_or(0.0), "ms"),
        ("check_ms_p90", quantile(lat, 0.9).unwrap_or(0.0), "ms"),
    ];
    let slowdown = calib.slowdown();
    notes.push(format!(
        "host slowdown against the reference over the timed phase: {slowdown:.4}; \
         as measured: {}",
        raw.iter()
            .map(|(name, value, unit)| format!("{name} {value:.6} {unit}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let mut metrics = vec![metric(
        "setup_s",
        median(&scaled_setups).unwrap_or(0.0),
        "s",
    )];
    for &(name, value, unit) in &raw[1..] {
        let scaled = if unit == "1/s" {
            value * slowdown
        } else {
            value / slowdown
        };
        metrics.push(metric(name, scaled, unit));
    }
    metrics.push(metric(
        "correct_frac",
        pass.correct as f64 / pass.attempted.max(1) as f64,
        "ratio",
    ));
    metrics.push(metric(
        "peak_rss_mb",
        rss_mb.or_else(peak_rss_mb).unwrap_or(0.0),
        "MB",
    ));
    Outcome {
        pass,
        metrics,
        faults,
        notes,
    }
}

/// The span names whose self time is reported, with their metric names.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("ckt.read_network", "ckt.read_network_ms"),
    ("serve.submit", "serve.submit_ms"),
    ("serve.json_decode", "serve.json_decode_ms"),
    ("serve.cache_key", "serve.cache_key_ms"),
    ("serve.cache_lookup", "serve.cache_lookup_ms"),
    ("serve.cache_record", "serve.cache_record_ms"),
    ("mc.circuit.check", "mc.circuit.check_ms"),
    ("mc.forward.check", "mc.forward.check_ms"),
    ("mc.bdd.check", "mc.bdd.check_ms"),
    ("mc.ic3.check", "mc.ic3.check_ms"),
    ("mc.bmc.check", "mc.bmc.check_ms"),
    ("mc.kind.check", "mc.kind.check_ms"),
    ("mc.itp.check", "mc.itp.check_ms"),
    ("mc.portfolio.check", "mc.portfolio.check_ms"),
    ("mc.json_encode", "mc.json_encode_ms"),
];

fn traces_path(args: &Args) -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."))
        .join("perfbench-traces");
    dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed))
}

fn per_layer(args: &Args) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut faults = Vec::new();
    let mut tracer = Tracer::default();
    let untraced = spawn_child(args)?;
    // Each workload's checks, with the seconds they took traced and
    // untraced: the same checks, run in alternation.
    let (pass, traced_s, untraced_s, first_id, transport_ms, cache, request_bytes) =
        match args.workload {
            Workload::ServeRegress => {
                let (s, server, wrong) = serve::setup(args.seed, TRACE_SERVE_ROUNDS);
                faults.extend(wrong);
                let first = s.history.len() as u64 + 1;
                let mut replay = serve::Replay::new(&s, Some(&mut tracer));
                let mut plain = serve::Replay::new(&s, None);
                let (tcp, traced_s, untraced_s) =
                    serve::traced_pass(&s, &server.addr, &mut tracer, &mut replay, &mut plain);
                serve::stop_server(server);
                notes.push(format!(
                    "requests answered off the planned cache tier: {}",
                    tcp.misplans
                ));
                let tcp = tcp.pass;
                for d in compare_records(&tcp.records, &replay.pass.records) {
                    faults.push(format!("in-process replay differs from TCP: {d}"));
                }
                faults.extend(replay.pass.wrong.iter().cloned());
                // The time a TCP request hides: its submit span minus the
                // same request's in-process span.
                let spans = tracer.spans();
                let inproc: BTreeMap<u64, u64> = spans
                    .iter()
                    .filter(|s| s.name == "serve.request")
                    .map(|s| (s.request, s.duration_ns()))
                    .collect();
                let transport_ns: i128 = spans
                    .iter()
                    .filter(|s| s.name == "serve.submit" && s.request >= first)
                    .map(|s| s.duration_ns() as i128 - inproc[&s.request] as i128)
                    .sum();
                let cache = replay.cache_stats();
                let mut pass = tcp;
                pass.counters = replay.pass.counters;
                let transport_ms = transport_ns as f64 / 1e6 / pass.attempted.max(1) as f64;
                (
                    pass,
                    traced_s,
                    untraced_s,
                    first,
                    transport_ms,
                    Some(cache),
                    replay.request_bytes,
                )
            }
            w => {
                let prepared = umc::prepare(w, args.seed);
                let (pass, untraced_s) = umc::cycle_pass(&prepared, Some(&mut tracer), true);
                let traced_s = pass.latencies_ms.iter().sum::<f64>() / 1e3;
                (pass, traced_s, untraced_s, 1, 0.0, None, 0)
            }
        };
    for d in compare_records(&untraced, &pass.records) {
        faults.push(format!(
            "counter differs between two runs of seed {}: {d}",
            args.seed
        ));
    }
    let path = traces_path(args);
    match tracer.write_jsonl(&path) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
    }

    let n = pass.attempted.max(1) as f64;
    let selves = self_times(tracer.spans(), |s| s.request >= first_id);
    let mut metrics = Vec::new();
    for (span, name) in LAYER_SPANS {
        let ns = selves.get(span).copied().unwrap_or(0);
        metrics.push(metric(*name, ns as f64 / 1e6 / n, "ms"));
    }
    metrics.push(metric("serve.transport_ms", transport_ms, "ms"));
    metrics.push(metric("ckt.aag_kb", pass.aag_bytes as f64 / 1e3 / n, "KB"));
    metrics.push(metric(
        "serve.request_kb",
        request_bytes as f64 / 1e3 / n,
        "KB",
    ));
    let cache = cache.unwrap_or_default();
    metrics.push(metric("serve.tier1_hits", cache.tier1_hits as f64, "count"));
    metrics.push(metric("serve.tier3_hits", cache.tier3_hits as f64, "count"));
    metrics.push(metric("serve.misses", cache.misses as f64, "count"));
    metrics.push(metric(
        "serve.hit_ratio",
        (cache.tier1_hits + cache.tier2_hits + cache.tier3_hits) as f64
            / cache.lookups.max(1) as f64,
        "ratio",
    ));
    let c = |name: &str| pass.counters.get(name).copied().unwrap_or(0);
    for name in counters::NAMES
        .iter()
        .filter(|n| **n != "ic3.seed_rejected")
    {
        metrics.push(metric(*name, c(name) as f64, "count"));
    }
    metrics.push(metric(
        "ic3.seed_admit_ratio",
        c("ic3.seeded") as f64 / (c("ic3.seeded") + c("ic3.seed_rejected")).max(1) as f64,
        "ratio",
    ));
    let untraced_rate = pass.attempted as f64 / untraced_s;
    let traced_rate = pass.attempted as f64 / traced_s;
    metrics.push(metric("trace.untraced_checks_per_s", untraced_rate, "1/s"));
    metrics.push(metric("trace.traced_checks_per_s", traced_rate, "1/s"));
    metrics.push(metric(
        "trace.overhead_pct",
        (untraced_rate / traced_rate - 1.0) * 100.0,
        "%",
    ));
    metrics.push(metric("trace.checks", pass.attempted as f64, "count"));
    notes.push(format!(
        "tracing overhead: {traced_rate:.3} traced vs {untraced_rate:.3} untraced checks/s"
    ));
    Ok(Outcome {
        pass,
        metrics,
        faults,
        notes,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: cbq-perfbench --workload <umc-quant|umc-sat|serve-regress> \
                 [--seed N] [--seconds S] [--trace 0|1]\n\
                 default seed {DEFAULT_SEED}; seed {HELD_OUT_SEED} is held out for confirming claims"
            );
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: gave up after {WATCHDOG:?}");
        std::process::exit(3);
    });
    if args.child {
        child(&args);
        return ExitCode::SUCCESS;
    }
    let outcome = if args.trace {
        match per_layer(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        end_to_end(&args)
    };
    let Outcome {
        pass,
        metrics,
        faults,
        notes,
    } = outcome;
    for note in &notes {
        eprintln!("perfbench: {note}");
    }
    let mut problems = pass.wrong.clone();
    problems.extend(faults);
    for p in &problems {
        eprintln!("perfbench: FAIL {p}");
    }
    let root = std::env::current_dir().unwrap_or_default();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = git_rev(&root).unwrap_or_else(|| "none".to_string());
    let lat = &pass.latencies_ms;
    println!(
        "{{\"runner\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"available_parallelism\":{parallelism},\"git_rev\":{}}},\
         \"samples\":{{\"check_ms_p50\":{{\"n\":{}}},\"check_ms_p90\":{{\"n\":{},\"beyond\":{}}}}},\
         \"notes\":[{}]}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&rev),
        lat.len(),
        lat.len(),
        beyond(lat, 0.9),
        notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(","),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        problems.is_empty(),
        pass.attempted,
        pass.attempted - pass.correct,
        body.join(",")
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
