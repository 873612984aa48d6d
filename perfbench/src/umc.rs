//! The umc workloads: `read_network`, `Engine::check` and the `--json`
//! encoder in a closed loop, one check at a time.

use std::hint::black_box;
use std::time::Instant;

use cbq_ckt::io::{read_network, write_network};
use cbq_mc::json::run_to_json;
use cbq_mc::{McRun, Verdict};
use cbq_serve::Json;

use crate::calib::Calibration;
use crate::counters::{add_run, record};
use crate::models::judge;
use crate::schedule::{umc_schedule, Check, Workload};
use crate::trace::{span, Tracer};
use crate::{budget, check_span, Pass};

/// One schedule cycle with each model's AAG text.
pub fn prepare(workload: Workload, seed: u64) -> Vec<(Check, String)> {
    umc_schedule(workload, seed)
        .into_iter()
        .map(|c| (c, write_network(&c.model.build())))
        .collect()
}

/// One check as `cbq check --json` runs it: parse, check, encode.
fn run_check(check: &Check, aag: &str, id: u64, mut t: Option<&mut Tracer>) -> (McRun, String) {
    let net = span(t.as_deref_mut(), "ckt.read_network", id, || {
        read_network(aag, format!("check-{id}")).expect("generated AAG parses")
    });
    let run = span(t.as_deref_mut(), check_span(check.engine), id, || {
        let engine = cbq_mc::by_name(check.engine).expect("registered engine");
        engine.check(&net, &budget())
    });
    let json = span(t, "mc.json_encode", id, || run_to_json(&run));
    (run, json)
}

fn judge_into(pass: &mut Pass, check: &Check, aag: &str, verdict: &Verdict) {
    let net = read_network(aag, "judge").expect("generated AAG parses");
    let judgement = judge(check.model.expected(), check.engine, verdict, &net);
    pass.judge(
        || format!("{} on {:?}", check.engine, check.model),
        judgement,
    );
}

/// The end-to-end pass: repeats the cycle until `seconds` have passed,
/// letting `calib` sample the host between checks; the pass's elapsed
/// time leaves those samples out. Verdicts are judged after the clock
/// stops.
pub fn timed_pass(prepared: &[(Check, String)], seconds: f64, calib: &mut Calibration) -> Pass {
    let mut pass = Pass::default();
    let mut verdicts = Vec::new();
    let calibrated = calib.spent_s;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        calib.tick();
        let idx = verdicts.len() % prepared.len();
        let (check, aag) = &prepared[idx];
        let t0 = Instant::now();
        let (run, json) = run_check(check, aag, verdicts.len() as u64 + 1, None);
        pass.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        black_box(json);
        pass.aag_bytes += aag.len();
        verdicts.push((idx, run.verdict));
    }
    pass.elapsed_s = start.elapsed().as_secs_f64() - (calib.spent_s - calibrated);
    for (idx, verdict) in &verdicts {
        let (check, aag) = &prepared[*idx];
        judge_into(&mut pass, check, aag, verdict);
    }
    pass
}

/// One full cycle, check by check, keeping guard records and counter
/// totals; with a tracer, each check is a `check` span over its layers.
///
/// With `paired`, every check also runs once untraced, before or after
/// the traced run in alternation, so slow drift in host speed hits both
/// alike; the second value is the untraced runs' summed windows.
pub fn cycle_pass(
    prepared: &[(Check, String)],
    mut tracer: Option<&mut Tracer>,
    paired: bool,
) -> (Pass, f64) {
    let mut pass = Pass::default();
    let mut untraced_s = 0.0;
    for (i, (check, aag)) in prepared.iter().enumerate() {
        let id = i as u64 + 1;
        let mut plain = || {
            let t0 = Instant::now();
            let out = run_check(check, aag, id, None);
            untraced_s += t0.elapsed().as_secs_f64();
            black_box(out);
        };
        if paired && i % 2 == 0 {
            plain();
        }
        let t0 = Instant::now();
        let root = tracer.as_deref_mut().map(|t| t.enter("check", id));
        let (run, json) = run_check(check, aag, id, tracer.as_deref_mut());
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.exit(root);
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if paired && i % 2 == 1 {
            plain();
        }
        pass.latencies_ms.push(ms);
        pass.aag_bytes += aag.len();
        let line = Json::parse(&json).expect("run JSON parses");
        pass.records.push(record(&line, Some(&run)));
        add_run(&run, &mut pass.counters);
        judge_into(&mut pass, check, aag, &run.verdict);
    }
    (pass, untraced_s)
}
