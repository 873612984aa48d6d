//! End-to-end and per-layer benchmark of the cbq model-checking stack.
//!
//! Three seeded, closed-loop workloads (one client, the next check only
//! after the previous verdict) drive the crates' public APIs with
//! generated AAG text: `umc-quant` and `umc-sat` call
//! `read_network` and `Engine::check` directly, `serve-regress` talks to
//! an in-process `cbq serve` through `client::submit_one`. See
//! `perfbench/README.md` for the metrics and how to run it.

pub mod calib;
pub mod counters;
pub mod models;
pub mod schedule;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod umc;

use std::time::{Duration, Instant};

use cbq_mc::Budget;

/// Per-check wall-clock ceiling: a safety net far above the slowest
/// check (under a second), so no budget binds in a healthy run.
pub const SAFETY_NET: Duration = Duration::from_secs(30);

/// Set-up runs at least this many times, and until `SETUP_SPAN` has
/// passed; `setup_s` is the median. A set-up of a few milliseconds is
/// repeated for long enough that the host's second-to-second swings in
/// speed cannot cover most of the samples.
pub const SETUP_REPS: usize = 7;
/// See [`SETUP_REPS`].
pub const SETUP_SPAN: Duration = Duration::from_secs(2);

/// Runs `setup` until [`SETUP_REPS`] and [`SETUP_SPAN`] are both met,
/// with a run of the `calib` kernel before each. Returns each run's
/// seconds as measured, its seconds at the reference host speed (divided
/// by the slowdown of the kernel run just before it), and the last run's
/// result; `discard` receives the earlier results.
pub fn repeat_setup<T>(
    calib: &mut calib::Calibration,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (Vec<f64>, Vec<f64>, T) {
    let start = Instant::now();
    let (mut secs, mut scaled) = (Vec::new(), Vec::new());
    loop {
        let slowdown = calib.measure();
        let t0 = Instant::now();
        let out = setup();
        let took = t0.elapsed().as_secs_f64();
        secs.push(took);
        scaled.push(took / slowdown);
        if secs.len() >= SETUP_REPS && start.elapsed() >= SETUP_SPAN {
            return (secs, scaled, out);
        }
        discard(out);
    }
}

/// The budget every check runs under.
pub fn budget() -> Budget {
    Budget::unlimited().with_timeout(SAFETY_NET)
}

/// The span around `Engine::check` for `engine`.
pub fn check_span(engine: &str) -> &'static str {
    match engine {
        "circuit" => "mc.circuit.check",
        "forward" => "mc.forward.check",
        "bdd" => "mc.bdd.check",
        "ic3" => "mc.ic3.check",
        "bmc" => "mc.bmc.check",
        "kind" => "mc.kind.check",
        "itp" => "mc.itp.check",
        "portfolio" => "mc.portfolio.check",
        other => panic!("no span for engine `{other}`"),
    }
}

/// What one pass over a workload produced.
#[derive(Default)]
pub struct Pass {
    /// Checks attempted.
    pub attempted: usize,
    /// Checks whose verdict matched the known answer.
    pub correct: usize,
    /// Verdicts contradicting the known answer, described.
    pub wrong: Vec<String>,
    /// Per-check latency, handing over the AAG text to holding the verdict.
    pub latencies_ms: Vec<f64>,
    /// Wall clock of a timed pass.
    pub elapsed_s: f64,
    /// Guard record per check, for the exact-count comparison.
    pub records: Vec<counters::Record>,
    /// Program counters summed over the pass.
    pub counters: counters::Counters,
    /// Bytes of AAG text handed over, summed.
    pub aag_bytes: usize,
}

impl Pass {
    /// Folds one judged check into the tallies.
    pub fn judge(&mut self, what: impl FnOnce() -> String, judgement: models::Judgement) {
        self.attempted += 1;
        match judgement {
            models::Judgement::Correct => self.correct += 1,
            models::Judgement::Inconclusive => {}
            models::Judgement::Wrong(why) => self.wrong.push(format!("{}: {why}", what())),
        }
    }
}

/// Compares the guard records of two passes over one schedule and
/// names every counter that differs.
pub fn compare_records(a: &[counters::Record], b: &[counters::Record]) -> Vec<String> {
    let mut out = Vec::new();
    if a.len() != b.len() {
        out.push(format!("check counts differ: {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for d in counters::diff(x, y) {
            out.push(format!("check {i}: {d}"));
        }
    }
    out
}
