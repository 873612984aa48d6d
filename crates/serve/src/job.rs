//! Request parsing and the socket-free job-processing core.
//!
//! [`process_check`] is the whole service pipeline minus the transport:
//! parse the model, consult the [`StructuralCache`], run (cold or
//! warm-started), record, and render the result line. The TCP layer in
//! [`crate::server`] is a thin shell around it, and the differential
//! test-suite drives it directly so cache correctness is checked without
//! sockets in the loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use cbq_ckt::io::read_network;
use cbq_mc::json::{field, run_fields, Json};
use cbq_mc::{by_name, engine_names, Budget, Engine, Ic3, McRun};

use crate::cache::{CacheTier, ModelKey, StructuralCache};

/// Server-side resource ceilings. Every job budget is clamped against
/// these, so a request can tighten but never widen what the operator
/// allows — the cooperative-cancellation point for runaway jobs.
#[derive(Clone, Debug, Default)]
pub struct ServerCaps {
    /// Iteration/depth ceiling.
    pub max_steps: Option<usize>,
    /// Representation-node ceiling.
    pub max_nodes: Option<usize>,
    /// SAT-check ceiling.
    pub max_sat_checks: Option<u64>,
    /// Wall-clock ceiling per job.
    pub timeout: Option<Duration>,
}

fn tighter<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl ServerCaps {
    /// The effective budget for a request: field-wise minimum of what
    /// the request asked for and what the server permits.
    pub fn clamp(&self, requested: &Budget) -> Budget {
        Budget {
            max_steps: tighter(requested.max_steps, self.max_steps),
            max_nodes: tighter(requested.max_nodes, self.max_nodes),
            max_sat_checks: tighter(requested.max_sat_checks, self.max_sat_checks),
            timeout: tighter(requested.timeout, self.timeout),
            cancel: requested.cancel.clone(),
        }
    }
}

/// A parsed `check` request, transport-independent.
#[derive(Clone, Debug)]
pub struct CheckRequest {
    /// Job identifier (client-chosen `id`, or server-assigned).
    pub id: u64,
    /// The model as sequential ASCII AIGER text.
    pub model: String,
    /// Registry engine name.
    pub engine: String,
    /// Requested budget (pre-clamp).
    pub budget: Budget,
    /// Whether the structural cache may serve and learn from this job.
    pub use_cache: bool,
}

impl CheckRequest {
    /// Extracts a `check` request from a parsed protocol message.
    /// `fallback_id` names the job when the client sent no `id`.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for an `error` event when required
    /// fields are missing or the engine name is unknown.
    pub fn from_json(msg: &Json, fallback_id: u64) -> Result<CheckRequest, String> {
        let model = msg
            .get("model")
            .and_then(Json::as_str)
            .ok_or("missing string field `model`")?
            .to_string();
        let engine = msg
            .get("engine")
            .and_then(Json::as_str)
            .unwrap_or("portfolio")
            .to_string();
        if !engine_names().contains(&engine.as_str()) {
            return Err(format!(
                "unknown engine `{engine}` (expected one of: {})",
                engine_names().join(", ")
            ));
        }
        let count = |name: &str| -> Result<Option<u64>, String> {
            match msg.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or(format!("field `{name}` must be a non-negative integer")),
            }
        };
        let mut budget = Budget::unlimited();
        budget.max_steps = count("steps")?.map(|n| n as usize);
        budget.max_nodes = count("nodes")?.map(|n| n as usize);
        budget.max_sat_checks = count("sat_checks")?;
        budget.timeout = count("timeout_ms")?.map(Duration::from_millis);
        Ok(CheckRequest {
            // 0 means "server assigns" (JSON job tags start at 1).
            id: count("id")?.filter(|&n| n != 0).unwrap_or(fallback_id),
            model,
            engine,
            budget,
            use_cache: msg.get("cache").and_then(Json::as_bool).unwrap_or(true),
        })
    }

    /// Renders this request as one protocol line (the client side of
    /// [`CheckRequest::from_json`]).
    pub fn to_json_line(&self) -> String {
        let mut fields = vec![field("cmd", "check")];
        if self.id != 0 {
            fields.push(field("id", self.id));
        }
        fields.push(field("model", self.model.as_str()));
        fields.push(field("engine", self.engine.as_str()));
        let budget = &self.budget;
        fields.extend(budget.max_steps.map(|n| field("steps", n)));
        fields.extend(budget.max_nodes.map(|n| field("nodes", n)));
        fields.extend(budget.max_sat_checks.map(|n| field("sat_checks", n)));
        let timeout_ms = budget
            .timeout
            .map(|t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX));
        fields.extend(timeout_ms.map(|ms| field("timeout_ms", ms)));
        if !self.use_cache {
            fields.push(field("cache", false));
        }
        Json::Obj(fields).to_string()
    }
}

/// Locks a mutex, recovering from poisoning: a job that panicked while
/// holding the lock must not take every later job down with it. The
/// guarded state (cache, queue, streams) is written transactionally
/// enough that recovery is safe — at worst a panicked job's own record
/// is missing.
pub fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs one job inside a panic firewall: a panicking job yields an
/// `error` record for its id instead of unwinding through the worker
/// loop (where it would poison the shared queue/cache/stream mutexes and
/// kill every subsequent worker).
pub fn run_job_guarded<F>(job_id: u64, job: F) -> JobOutcome
where
    F: FnOnce() -> JobOutcome,
{
    catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        JobOutcome {
            line: error_line(job_id, &format!("job panicked: {msg}")),
            run: None,
            tier: CacheTier::Miss,
        }
    })
}

/// Renders an `error` event line.
pub fn error_line(job: u64, message: &str) -> String {
    Json::Obj(vec![
        field("event", "error"),
        field("job", job),
        field("message", message),
    ])
    .to_string()
}

/// The outcome of one processed job: the wire line plus the run it
/// carries (when the model parsed), for callers that inspect results
/// in-process.
pub struct JobOutcome {
    /// The `result`/`error` line to stream back.
    pub line: String,
    /// The finished (or replayed) run; `None` on a request error.
    pub run: Option<McRun>,
    /// Which cache tier answered.
    pub tier: CacheTier,
}

/// Runs one `check` request against the shared cache: tier-1/2 replay
/// when possible, otherwise a cold or tier-3 warm-started engine run,
/// recorded back into the cache.
pub fn process_check(
    req: &CheckRequest,
    cache: &Mutex<StructuralCache>,
    caps: &ServerCaps,
) -> JobOutcome {
    let net = match read_network(&req.model, format!("job-{}", req.id)) {
        Ok(net) => net,
        Err(e) => {
            return JobOutcome {
                line: error_line(req.id, &format!("bad model: {e}")),
                run: None,
                tier: CacheTier::Miss,
            }
        }
    };
    let key = ModelKey::of(&net);

    // Replay tiers first; the lock is held only for the lookup.
    let mut seed = None;
    if req.use_cache {
        let mut cache = lock_recovering(cache);
        if let Some((run, tier)) = cache.lookup_run(&key, &req.engine) {
            let run = run.with_job(req.id);
            let line = result_line(&run, tier, Json::from(&cache.stats));
            return JobOutcome {
                line,
                run: Some(run),
                tier,
            };
        }
        seed = cache.seed_for(&key, &req.engine);
    }

    let tier = if seed.is_some() {
        CacheTier::WarmStart
    } else {
        CacheTier::Miss
    };
    let budget = caps.clamp(&req.budget);
    let run = match seed {
        Some(seed) => Ic3 {
            seed,
            ..Ic3::default()
        }
        .check(&net, &budget),
        None => by_name(&req.engine)
            .expect("engine validated at parse")
            .check(&net, &budget),
    }
    .with_job(req.id);

    let cache_stats = {
        let mut cache = lock_recovering(cache);
        if req.use_cache {
            cache.record(&key, &req.engine, &run);
        }
        Json::from(&cache.stats)
    };
    JobOutcome {
        line: result_line(&run, tier, cache_stats),
        run: Some(run),
        tier,
    }
}

fn result_line(run: &McRun, tier: CacheTier, cache_stats: Json) -> String {
    let cache = Json::Obj(vec![
        field("tier", u64::from(tier.number())),
        field("hit", tier != CacheTier::Miss),
    ]);
    let mut fields = run_fields(run);
    fields.insert(0, field("event", "result"));
    fields.push(field("cache", cache));
    fields.push(field("cache_stats", cache_stats));
    Json::Obj(fields).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbq_ckt::generators;
    use cbq_ckt::io::write_network;
    use cbq_mc::json::run_to_json_fields;

    fn check_req(net: &cbq_ckt::Network, engine: &str, id: u64) -> CheckRequest {
        CheckRequest {
            id,
            model: write_network(net),
            engine: engine.to_string(),
            budget: Budget::unlimited(),
            use_cache: true,
        }
    }

    #[test]
    fn request_round_trips_through_the_wire_format() {
        // 2^53 + 1 has no exact f64: ids must never pass through one.
        let id = (1 << 53) + 1;
        let mut req = check_req(&generators::mutex(), "ic3", id);
        req.budget = Budget::unlimited()
            .with_steps(10)
            .with_sat_checks(500)
            .with_timeout(Duration::from_millis(250));
        req.use_cache = false;
        let line = req.to_json_line();
        let msg = Json::parse(&line).unwrap();
        assert_eq!(msg.get("cmd").and_then(Json::as_str), Some("check"));
        let back = CheckRequest::from_json(&msg, 999).unwrap();
        assert_eq!(back.id, id);
        assert_eq!(back.engine, "ic3");
        assert_eq!(back.model, req.model);
        assert_eq!(back.budget, req.budget);
        assert!(!back.use_cache);
    }

    #[test]
    fn parse_rejects_bad_requests() {
        let no_model = Json::parse(r#"{"cmd":"check","id":1}"#).unwrap();
        assert!(CheckRequest::from_json(&no_model, 1)
            .unwrap_err()
            .contains("model"));
        let bad_engine = Json::parse(r#"{"cmd":"check","model":"x","engine":"zchaff"}"#).unwrap();
        assert!(CheckRequest::from_json(&bad_engine, 1)
            .unwrap_err()
            .contains("unknown engine"));
        // Negative, past u64::MAX (no saturation), or not a plain integer.
        for steps in ["-3", "18446744073709551616", "1e3", "5.0"] {
            let line = format!(r#"{{"cmd":"check","model":"x","engine":"bmc","steps":{steps}}}"#);
            let bad_budget = Json::parse(&line).unwrap();
            let err = CheckRequest::from_json(&bad_budget, 1).unwrap_err();
            assert!(
                err.contains("`steps` must be a non-negative integer"),
                "{steps}: {err}"
            );
        }
    }

    #[test]
    fn result_line_is_the_run_record_plus_cache_fields() {
        // perfbench's in-process replay builds its result lines in this
        // exact form and compares them with the server's.
        let cache = Mutex::new(StructuralCache::new());
        let caps = ServerCaps::default();
        let net = generators::counter_bug(5, 6);
        for (id, tier, hit) in [(1, 0, false), (2, 1, true)] {
            let out = process_check(&check_req(&net, "ic3", id), &cache, &caps);
            let run = out.run.expect("ran");
            let expected = format!(
                "{{\"event\":\"result\",{},\"cache\":{{\"tier\":{tier},\"hit\":{hit}}},\
                 \"cache_stats\":{}}}",
                run_to_json_fields(&run),
                cache.lock().unwrap().stats.to_json(),
            );
            assert_eq!(out.line, expected);
        }
    }

    #[test]
    fn megabyte_check_lines_parse_in_linear_time() {
        // A resubmit carries its whole model on one line, so parsing must
        // stay linear in the line length.
        use std::time::Instant;
        // A 1 MB AIGER text: one input feeding a chain of AND gates.
        let ands = 80_000;
        let mut model = format!("aag {} 1 0 1 {ands}\n2\n{}\n", ands + 1, 2 * (ands + 1));
        for lhs in (2..=ands + 1).map(|v| 2 * v) {
            model.push_str(&format!("{lhs} {} 2\n", lhs - 2));
        }
        assert!(model.len() >= 1 << 20, "model is {} bytes", model.len());
        let request = CheckRequest {
            id: 1,
            model,
            engine: "circuit".to_string(),
            budget: Budget::unlimited(),
            use_cache: true,
        };
        let line = request.to_json_line();
        let start = Instant::now();
        let msg = Json::parse(&line).expect("parses");
        assert_eq!(Json::parse(&msg.to_string()).as_ref(), Ok(&msg));
        let elapsed = start.elapsed();
        let back = CheckRequest::from_json(&msg, 0).expect("a check request");
        assert_eq!(back.model, request.model);
        assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
    }

    #[test]
    fn caps_clamp_fieldwise() {
        let caps = ServerCaps {
            max_steps: Some(10),
            max_sat_checks: Some(1000),
            ..ServerCaps::default()
        };
        let got = caps.clamp(&Budget::unlimited().with_steps(50).with_nodes(7));
        assert_eq!(got.max_steps, Some(10), "cap tightens");
        assert_eq!(got.max_nodes, Some(7), "request tightens");
        assert_eq!(got.max_sat_checks, Some(1000), "cap fills unset field");
        assert_eq!(got.timeout, None, "both unlimited");
    }

    #[test]
    fn second_identical_job_is_a_tier1_hit() {
        let cache = Mutex::new(StructuralCache::new());
        let caps = ServerCaps::default();
        let net = generators::token_ring(4);

        let cold = process_check(&check_req(&net, "ic3", 1), &cache, &caps);
        assert_eq!(cold.tier, CacheTier::Miss);
        let cold_run = cold.run.expect("ran");
        assert!(cold_run.verdict.is_safe());
        assert!(cold.line.contains("\"event\":\"result\""), "{}", cold.line);
        assert!(cold.line.contains("\"job\":1,"), "{}", cold.line);
        assert!(cold.line.contains("\"tier\":0"), "{}", cold.line);

        let hit = process_check(&check_req(&net, "ic3", 2), &cache, &caps);
        assert_eq!(hit.tier, CacheTier::WholeRun);
        let hit_run = hit.run.expect("replayed");
        assert_eq!(hit_run.verdict, cold_run.verdict);
        assert_eq!(hit_run.job, 2, "replay re-tagged with the new job id");
        assert!(hit.line.contains("\"tier\":1"), "{}", hit.line);
        assert!(hit.line.contains("\"tier1_hits\":1"), "{}", hit.line);
    }

    #[test]
    fn cache_opt_out_always_runs_cold() {
        let cache = Mutex::new(StructuralCache::new());
        let caps = ServerCaps::default();
        let net = generators::token_ring(4);
        let mut req = check_req(&net, "ic3", 1);
        let _ = process_check(&req, &cache, &caps);
        req.use_cache = false;
        req.id = 2;
        let again = process_check(&req, &cache, &caps);
        assert_eq!(again.tier, CacheTier::Miss);
        assert_eq!(cache.lock().unwrap().stats.lookups, 1, "no second lookup");
    }

    #[test]
    fn malformed_model_yields_an_error_event() {
        let cache = Mutex::new(StructuralCache::new());
        let out = process_check(
            &CheckRequest {
                id: 3,
                model: "not an aag".to_string(),
                engine: "bmc".to_string(),
                budget: Budget::unlimited(),
                use_cache: true,
            },
            &cache,
            &ServerCaps::default(),
        );
        assert!(out.run.is_none());
        assert!(out.line.contains("\"event\":\"error\""), "{}", out.line);
        assert!(out.line.contains("\"job\":3"), "{}", out.line);
    }

    #[test]
    fn panicking_job_yields_an_error_event_not_an_unwind() {
        let out = run_job_guarded(42, || panic!("model ate the stack"));
        assert!(out.run.is_none());
        assert!(out.line.contains("\"event\":\"error\""), "{}", out.line);
        assert!(out.line.contains("\"job\":42"), "{}", out.line);
        assert!(out.line.contains("model ate the stack"), "{}", out.line);
    }

    #[test]
    fn cache_survives_a_job_that_panicked_holding_the_lock() {
        let cache = Mutex::new(StructuralCache::new());
        let caps = ServerCaps::default();
        let net = generators::token_ring(4);
        // Warm the cache, then poison its mutex the way a panicking job
        // would: mid-critical-section.
        let _ = process_check(&check_req(&net, "ic3", 1), &cache, &caps);
        let poison = catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.lock().unwrap();
            panic!("job died holding the cache lock");
        }));
        assert!(poison.is_err());
        assert!(cache.is_poisoned(), "the panic must have poisoned the lock");
        // Later jobs recover the lock and still hit the cache.
        let hit = process_check(&check_req(&net, "ic3", 2), &cache, &caps);
        assert_eq!(hit.tier, CacheTier::WholeRun);
        assert!(hit.run.expect("replayed").verdict.is_safe());
    }

    #[test]
    fn server_caps_bound_the_job_budget() {
        let cache = Mutex::new(StructuralCache::new());
        let caps = ServerCaps {
            max_sat_checks: Some(1),
            ..ServerCaps::default()
        };
        let out = process_check(
            &check_req(&generators::token_ring(6), "ic3", 1),
            &cache,
            &caps,
        );
        let run = out.run.expect("ran");
        assert!(
            !run.verdict.is_conclusive(),
            "one SAT check cannot settle token_ring(6), got {}",
            run.verdict
        );
    }
}
