//! The serve-regress workload: one client sending regression traffic to
//! an in-process `cbq serve` through `client::submit_one`, one request in
//! flight, plus the traced in-process replay that attributes each
//! request's time to the layers `process_check` calls.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cbq_ckt::io::read_network;
use cbq_mc::json::run_to_json_fields;
use cbq_mc::{Engine, Ic3, McRun};
use cbq_serve::{
    client, CacheStats, CacheTier, CheckRequest, Json, ModelKey, ServeConfig, Server, ServerCaps,
    StructuralCache,
};

use crate::calib::Calibration;
use crate::counters::{add_run, record};
use crate::models::{judge, judge_answer, Judgement, Model};
use crate::schedule::{Kind, Request, ServeSchedule};
use crate::trace::{span, Tracer};
use crate::{budget, check_span, Pass};

/// A server bound to a free local port, serving on its own thread.
pub struct Running {
    /// `host:port` to submit to.
    pub addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

/// Binds `cbq serve` on 127.0.0.1:0 with the default worker pool.
pub fn start_server() -> Running {
    let server = Arc::new(
        Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })
        .expect("bind a free local port"),
    );
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run());
    Running { addr, handle }
}

/// Shuts the server down and waits for its threads.
pub fn stop_server(server: Running) {
    client::shutdown(&server.addr).expect("server acknowledges shutdown");
    server
        .handle
        .join()
        .expect("server thread does not panic")
        .expect("server exits cleanly");
}

/// The wire request for schedule entry `r`, tagged `id`.
pub fn request(s: &ServeSchedule, r: &Request, id: u64) -> CheckRequest {
    CheckRequest {
        id,
        model: s.models[r.model].1.clone(),
        engine: r.engine.to_string(),
        budget: budget(),
        use_cache: true,
    }
}

fn tier_of(kind: Kind) -> u64 {
    match kind {
        Kind::Miss => CacheTier::Miss.number().into(),
        Kind::Replay => CacheTier::WholeRun.number().into(),
        Kind::WarmStart => CacheTier::WarmStart.number().into(),
    }
}

/// Judges a `result` line: the wire carries the verdict and cex depth.
fn judge_line(model: Model, engine: &str, line: &Json) -> Judgement {
    match line.get("verdict").and_then(Json::as_str) {
        Some("safe") => judge_answer(model.expected(), engine, None),
        Some("unsafe") => match line.get("cex_depth").and_then(Json::as_u64) {
            Some(d) => judge_answer(model.expected(), engine, Some(d as usize)),
            None => Judgement::Wrong("unsafe result without cex_depth".to_string()),
        },
        _ => Judgement::Inconclusive,
    }
}

/// What one TCP pass produced.
pub struct TcpPass {
    /// Tallies, latencies and (when asked) guard records.
    pub pass: Pass,
    /// Requests answered from another cache tier than the schedule planned.
    pub misplans: usize,
    /// The process's peak resident set when the `rss_after`-th request
    /// was answered.
    pub rss_mb: Option<f64>,
}

impl TcpPass {
    fn new() -> TcpPass {
        TcpPass {
            pass: Pass::default(),
            misplans: 0,
            rss_mb: None,
        }
    }

    /// Judges one answer; judging a wire line takes microseconds, and
    /// doing it as answers arrive keeps no parsed lines alive to inflate
    /// the peak resident set.
    fn tally(
        &mut self,
        s: &ServeSchedule,
        r: &Request,
        req: &CheckRequest,
        (answer, secs): (Result<Json, String>, f64),
        keep_records: bool,
    ) {
        let pass = &mut self.pass;
        pass.latencies_ms.push(secs * 1e3);
        pass.aag_bytes += req.model.len();
        let model = s.models[r.model].0;
        let judgement = match &answer {
            Ok(line) => {
                let tier = line
                    .get("cache")
                    .and_then(|c| c.get("tier"))
                    .and_then(Json::as_u64);
                self.misplans += usize::from(tier != Some(tier_of(r.kind)));
                if keep_records {
                    pass.records.push(record(line, None));
                }
                judge_line(model, r.engine, line)
            }
            Err(e) => {
                eprintln!("perfbench: request failed: {e}");
                if keep_records {
                    pass.records.push(Default::default());
                }
                Judgement::Inconclusive
            }
        };
        pass.judge(|| format!("{} on {model:?}", r.engine), judgement);
    }
}

fn submit(
    addr: &str,
    req: &CheckRequest,
    tracer: Option<&mut Tracer>,
) -> (Result<Json, String>, f64) {
    let t0 = Instant::now();
    let answer = match tracer {
        Some(t) => t.span("serve.submit", req.id, || client::submit_one(addr, req)),
        None => client::submit_one(addr, req),
    };
    (answer, t0.elapsed().as_secs_f64())
}

/// Sends the schedule's history, or its timed requests, over TCP until
/// the list ends or `seconds` pass; request ids count from 1 across
/// both. Each request's latency spans `submit_one`. Keeps guard records
/// when asked, and reads the peak resident set after `rss_after`
/// requests. With a calibration, samples the host between requests and
/// leaves those samples out of the pass's elapsed time.
pub fn tcp_pass(
    s: &ServeSchedule,
    addr: &str,
    timed: bool,
    seconds: Option<f64>,
    keep_records: bool,
    rss_after: Option<usize>,
    mut calib: Option<&mut Calibration>,
) -> TcpPass {
    let mut out = TcpPass::new();
    let (requests, first_id) = if timed {
        (&s.timed, s.history.len() as u64 + 1)
    } else {
        (&s.history, 1)
    };
    let calibrated = calib.as_ref().map_or(0.0, |c| c.spent_s);
    let start = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        if seconds.is_some_and(|limit| start.elapsed().as_secs_f64() >= limit) {
            break;
        }
        if let Some(c) = calib.as_deref_mut() {
            c.tick();
        }
        let req = request(s, r, first_id + i as u64);
        let answer = submit(addr, &req, None);
        out.tally(s, r, &req, answer, keep_records);
        if rss_after == Some(i + 1) {
            out.rss_mb = crate::stats::peak_rss_mb();
        }
    }
    let calibrating = calib.map_or(0.0, |c| c.spent_s) - calibrated;
    out.pass.elapsed_s = start.elapsed().as_secs_f64() - calibrating;
    out
}

/// The traced pass over the timed requests. Each request goes to `addr`
/// inside a `serve.submit` span, then through the traced in-process
/// `replay` and the untraced `plain` one, in alternating order, so slow
/// drift in host speed hits both alike. The replays carry the spans that
/// give serve's per-layer figures, so their summed step times, returned
/// as (traced, untraced) seconds, measure what that tracing costs. Keeps
/// guard records.
pub fn traced_pass(
    s: &ServeSchedule,
    addr: &str,
    tracer: &mut Tracer,
    replay: &mut Replay,
    plain: &mut Replay,
) -> (TcpPass, f64, f64) {
    let mut out = TcpPass::new();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let first_id = s.history.len() as u64 + 1;
    for (i, r) in s.timed.iter().enumerate() {
        let req = request(s, r, first_id + i as u64);
        let answer = submit(addr, &req, Some(&mut *tracer));
        for k in 0..2 {
            if (i + k) % 2 == 0 {
                traced_s += replay.step(s, r, req.id, Some(&mut *tracer), true);
            } else {
                untraced_s += plain.step(s, r, req.id, None, false);
            }
        }
        out.tally(s, r, &req, answer, true);
    }
    (out, traced_s, untraced_s)
}

/// Set-up: the schedule, a bound server, and the history the timed
/// requests resubmit from. Returns the wrong verdicts seen in the history.
pub fn setup(seed: u64, rounds: usize) -> (ServeSchedule, Running, Vec<String>) {
    let schedule = crate::schedule::serve_schedule(seed, rounds);
    let server = start_server();
    let history = tcp_pass(&schedule, &server.addr, false, None, false, None, None);
    (schedule, server, history.pass.wrong)
}

/// The in-process mirror of the server: calls what `process_check`
/// calls, in its order, against a cache of its own, each call in a span
/// when there is a tracer. Request ids match the TCP pass's, so the two
/// line up by sequence number.
pub struct Replay {
    cache: StructuralCache,
    at_timed: CacheStats,
    /// Tallies, guard records and executed-run counters of the timed
    /// requests.
    pub pass: Pass,
    /// Bytes of the request lines of the timed requests.
    pub request_bytes: usize,
}

impl Replay {
    /// A fresh cache that has seen the schedule's history (not tallied).
    pub fn new(s: &ServeSchedule, mut tracer: Option<&mut Tracer>) -> Replay {
        let mut replay = Replay {
            cache: StructuralCache::new(),
            at_timed: CacheStats::default(),
            pass: Pass::default(),
            request_bytes: 0,
        };
        for (i, r) in s.history.iter().enumerate() {
            replay.step(s, r, i as u64 + 1, tracer.as_deref_mut(), false);
        }
        replay.at_timed = replay.cache.stats.clone();
        replay
    }

    /// Cache counters accumulated over the timed requests.
    pub fn cache_stats(&self) -> CacheStats {
        let (end, start) = (&self.cache.stats, &self.at_timed);
        CacheStats {
            lookups: end.lookups - start.lookups,
            tier1_hits: end.tier1_hits - start.tier1_hits,
            tier2_hits: end.tier2_hits - start.tier2_hits,
            tier3_hits: end.tier3_hits - start.tier3_hits,
            misses: end.misses - start.misses,
            runs_cached: end.runs_cached - start.runs_cached,
            lemma_sets_cached: end.lemma_sets_cached - start.lemma_sets_cached,
        }
    }

    /// Runs request `r` as job `id`; `counted` tallies it. Returns the
    /// seconds the server-side calls took, tallying not included.
    pub fn step(
        &mut self,
        s: &ServeSchedule,
        r: &Request,
        id: u64,
        mut tracer: Option<&mut Tracer>,
        counted: bool,
    ) -> f64 {
        let cache = &mut self.cache;
        let wire = request(s, r, id).to_json_line();
        let t0 = Instant::now();
        let root = tracer.as_deref_mut().map(|t| t.enter("serve.request", id));
        let req = span(tracer.as_deref_mut(), "serve.json_decode", id, || {
            let msg = Json::parse(&wire).expect("request line parses");
            CheckRequest::from_json(&msg, id).expect("valid check request")
        });
        let net = span(tracer.as_deref_mut(), "ckt.read_network", id, || {
            read_network(&req.model, format!("job-{}", req.id)).expect("generated AAG parses")
        });
        let key = span(tracer.as_deref_mut(), "serve.cache_key", id, || {
            ModelKey::of(&net)
        });
        let looked = span(tracer.as_deref_mut(), "serve.cache_lookup", id, || {
            cache
                .lookup_run(&key, &req.engine)
                .ok_or_else(|| cache.seed_for(&key, &req.engine))
        });
        let (run, tier, ran): (McRun, CacheTier, bool) = match looked {
            Ok((run, tier)) => (run.with_job(req.id), tier, false),
            Err(seed) => {
                let tier = if seed.is_some() {
                    CacheTier::WarmStart
                } else {
                    CacheTier::Miss
                };
                let budget = ServerCaps::default().clamp(&req.budget);
                let run = span(
                    tracer.as_deref_mut(),
                    check_span(&req.engine),
                    id,
                    || match seed {
                        Some(seed) => Ic3 {
                            seed,
                            ..Ic3::default()
                        }
                        .check(&net, &budget),
                        None => cbq_mc::by_name(&req.engine)
                            .expect("engine validated at parse")
                            .check(&net, &budget),
                    },
                )
                .with_job(req.id);
                span(tracer.as_deref_mut(), "serve.cache_record", id, || {
                    cache.record(&key, &req.engine, &run)
                });
                (run, tier, true)
            }
        };
        let line = span(tracer.as_deref_mut(), "mc.json_encode", id, || {
            format!(
                "{{\"event\":\"result\",{},\"cache\":{{\"tier\":{},\"hit\":{}}},\"cache_stats\":{}}}",
                run_to_json_fields(&run),
                tier.number(),
                tier != CacheTier::Miss,
                cache.stats.to_json(),
            )
        });
        if let (Some(t), Some(root)) = (tracer, root) {
            t.exit(root);
        }
        let secs = t0.elapsed().as_secs_f64();
        if !counted {
            return secs;
        }
        let pass = &mut self.pass;
        self.request_bytes += wire.len();
        pass.aag_bytes += req.model.len();
        pass.records.push(record(
            &Json::parse(&line).expect("result line parses"),
            None,
        ));
        if ran {
            add_run(&run, &mut pass.counters);
        }
        let model = s.models[r.model].0;
        let judgement = judge(model.expected(), r.engine, &run.verdict, &net);
        pass.judge(|| format!("{} on {model:?} (replay)", r.engine), judgement);
        secs
    }
}
