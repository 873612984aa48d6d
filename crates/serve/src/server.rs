//! The TCP service shell: line-delimited JSON over a socket, a bounded
//! scoped-thread worker pool, and a shared [`StructuralCache`].
//!
//! One thread accepts connections; each connection gets a reader thread
//! that parses requests and enqueues jobs; `workers` pool threads drain
//! the queue through [`crate::job::process_check`]. Responses go back
//! through a per-connection `Mutex<TcpStream>` clone so concurrent
//! writers cannot interleave partial lines. Shutdown is cooperative: the
//! flag flips, a self-connection unblocks `accept`, the condvar wakes
//! the pool, and the scope joins everything.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::cache::StructuralCache;
use crate::job::{
    error_line, lock_recovering, process_check, run_job_guarded, CheckRequest, ServerCaps,
};
use crate::json::Json;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7297` (port 0 picks a free one).
    pub listen: String,
    /// Worker-pool size (clamped to at least 1).
    pub workers: usize,
    /// Per-job resource ceilings.
    pub caps: ServerCaps,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:7297".to_string(),
            workers: 2,
            caps: ServerCaps::default(),
        }
    }
}

struct Job {
    request: CheckRequest,
    out: Mutex<TcpStream>,
}

/// A bound model-checking service; [`Server::run`] blocks until a
/// `shutdown` command arrives.
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
    cache: Mutex<StructuralCache>,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    stop: AtomicBool,
    next_job: AtomicU64,
    jobs_done: AtomicU64,
    /// Aggregate AIG-manager hot-path counters over every completed
    /// quantification-engine job (strash probes / scratchpad walk nodes /
    /// cofactor-cache hits), surfaced by the `stats` command.
    quant_strash_probes: AtomicU64,
    quant_scratch_walk_nodes: AtomicU64,
    quant_cofactor_cache_hits: AtomicU64,
}

impl Server {
    /// Binds the listen address.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.listen)?;
        Ok(Server {
            listener,
            cfg,
            cache: Mutex::new(StructuralCache::new()),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            jobs_done: AtomicU64::new(0),
            quant_strash_probes: AtomicU64::new(0),
            quant_scratch_walk_nodes: AtomicU64::new(0),
            quant_cofactor_cache_hits: AtomicU64::new(0),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until shutdown.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures (per-connection errors are
    /// reported to that client and do not stop the server).
    pub fn run(&self) -> std::io::Result<()> {
        std::thread::scope(|s| {
            for _ in 0..self.cfg.workers.max(1) {
                s.spawn(|| self.worker());
            }
            let result = loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.stop.load(Ordering::SeqCst) {
                            break Ok(());
                        }
                        s.spawn(move || self.serve_connection(stream));
                    }
                    Err(e) => break Err(e),
                }
            };
            // Wake every idle worker (and stop reader threads) so the
            // scope can join whatever ended the loop.
            self.stop.store(true, Ordering::SeqCst);
            self.ready.notify_all();
            result
        })
    }

    fn worker(&self) {
        loop {
            let job = {
                let mut queue = lock_recovering(&self.queue);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self
                        .ready
                        .wait(queue)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            // The firewall keeps a panicking job from unwinding through
            // this loop (which would poison the queue/cache/stream locks
            // and silently kill this worker for all later jobs): the
            // client gets an `error` record and the worker lives on.
            let id = job.request.id;
            let outcome = run_job_guarded(id, || {
                process_check(&job.request, &self.cache, &self.cfg.caps)
            });
            self.jobs_done.fetch_add(1, Ordering::SeqCst);
            let traversal = outcome.run.as_ref();
            if let Some(d) = traversal.and_then(|r| r.detail::<cbq_mc::CircuitUmcStats>()) {
                let p = d.quant_perf;
                self.quant_strash_probes
                    .fetch_add(p.strash_probes, Ordering::SeqCst);
                self.quant_scratch_walk_nodes
                    .fetch_add(p.scratch_walk_nodes, Ordering::SeqCst);
                self.quant_cofactor_cache_hits
                    .fetch_add(p.cofactor_cache_hits, Ordering::SeqCst);
            }
            send_line(&job.out, &outcome.line);
        }
    }

    fn serve_connection(&self, stream: TcpStream) {
        let reader = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => return,
        };
        // A finite read timeout lets the thread poll the stop flag, so
        // an idle client cannot pin the scope open past shutdown.
        let _ = reader.set_read_timeout(Some(Duration::from_millis(200)));
        let out = Mutex::new(stream);
        let mut reader = BufReader::new(reader);
        // `buf` persists across timeouts: `read_until` keeps partial
        // bytes it already copied when the clock runs out mid-line.
        let mut buf = Vec::new();
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => return, // EOF
                Ok(_) => {
                    let line = String::from_utf8_lossy(&buf).trim().to_string();
                    buf.clear();
                    if !line.is_empty() && !self.dispatch(&line, &out) {
                        return;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => return,
            }
        }
    }

    /// Handles one request line; returns `false` when the connection
    /// (or the whole server) should wind down.
    fn dispatch(&self, line: &str, out: &Mutex<TcpStream>) -> bool {
        let msg = match Json::parse(line) {
            Ok(msg) => msg,
            Err(e) => {
                send_line(out, &error_line(0, &format!("bad request: {e}")));
                return true;
            }
        };
        match msg.get("cmd").and_then(Json::as_str) {
            Some("check") => {
                let id = self.next_job.fetch_add(1, Ordering::SeqCst);
                match CheckRequest::from_json(&msg, id) {
                    Ok(request) => {
                        send_line(
                            out,
                            &format!(
                                "{{\"event\":\"accepted\",\"job\":{},\"engine\":{}}}",
                                request.id,
                                cbq_mc::json::json_str(&request.engine)
                            ),
                        );
                        match lock_recovering(out).try_clone() {
                            Ok(clone) => {
                                let mut queue = lock_recovering(&self.queue);
                                queue.push_back(Job {
                                    request,
                                    out: Mutex::new(clone),
                                });
                                drop(queue);
                                self.ready.notify_one();
                            }
                            Err(_) => return false,
                        }
                    }
                    Err(e) => send_line(out, &error_line(id, &e)),
                }
                true
            }
            Some("stats") => {
                let cache = lock_recovering(&self.cache);
                let quant_perf = cbq_aig::AigPerfCounters {
                    strash_probes: self.quant_strash_probes.load(Ordering::SeqCst),
                    scratch_walk_nodes: self.quant_scratch_walk_nodes.load(Ordering::SeqCst),
                    cofactor_cache_hits: self.quant_cofactor_cache_hits.load(Ordering::SeqCst),
                };
                let line = format!(
                    "{{\"event\":\"stats\",\"jobs_done\":{},\"queued\":{},\"workers\":{},\
                     \"cache_entries\":{},\"cache_stats\":{},\"quant_perf\":{}}}",
                    self.jobs_done.load(Ordering::SeqCst),
                    lock_recovering(&self.queue).len(),
                    self.cfg.workers.max(1),
                    cache.len(),
                    cache.stats.to_json(),
                    cbq_mc::json::quant_perf_json(&quant_perf),
                );
                drop(cache);
                send_line(out, &line);
                true
            }
            Some("shutdown") => {
                self.stop.store(true, Ordering::SeqCst);
                self.ready.notify_all();
                send_line(out, "{\"event\":\"bye\"}");
                // Unblock the accept loop so `run` can return.
                if let Ok(addr) = self.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                false
            }
            other => {
                let what = other.unwrap_or("<none>");
                send_line(out, &error_line(0, &format!("unknown cmd `{what}`")));
                true
            }
        }
    }
}

/// Writes one response line; errors (client gone) are ignored — the job
/// still ran and its cache entries persist.
fn send_line(out: &Mutex<TcpStream>, line: &str) {
    let mut stream = lock_recovering(out);
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}
