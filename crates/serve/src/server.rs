//! The TCP service shell: line-delimited JSON over a socket, a bounded
//! scoped-thread worker pool, and a shared [`StructuralCache`].
//!
//! One thread accepts connections; each connection gets a reader thread
//! that parses requests (lines of at most [`MAX_LINE_BYTES`]) and
//! enqueues jobs; `workers` pool threads drain
//! the queue through [`crate::job::process_check`]. Responses go back
//! through a per-connection `Mutex<TcpStream>` clone so concurrent
//! writers cannot interleave partial lines. Shutdown is cooperative: the
//! flag flips, a self-connection unblocks `accept`, the condvar wakes
//! the pool, and the scope joins everything.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use cbq_aig::AigPerfCounters;
use cbq_mc::json::{field, Json};

use crate::cache::StructuralCache;
use crate::job::{
    error_line, lock_recovering, process_check, run_job_guarded, CheckRequest, ServerCaps,
};

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

/// The longest request line the server reads, in bytes (16 MiB, well
/// above the megabyte models a check carries). A longer line is answered
/// with an `error` event and discarded up to its newline, so one client
/// that never sends a newline cannot exhaust the server's memory.
pub const MAX_LINE_BYTES: usize = 16 << 20;

struct Job {
    request: CheckRequest,
    out: Mutex<TcpStream>,
}

/// What one [`read_line_capped`] call ended on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum LineEnd {
    /// A whole line of at most `cap` bytes is in the buffer.
    Line,
    /// A line longer than `cap` bytes ended; its bytes were discarded.
    Overlong,
    /// The stream ended.
    Eof,
}

/// Reads the next `\n`-terminated line into `buf` (newline excluded),
/// storing at most `cap` bytes: once a line outgrows the cap, `buf` is
/// emptied and the rest of the line is skipped. Like `read_until`, it
/// keeps its progress in `buf` and `overlong` when the read times out, so
/// the caller retries with the same pair. A final line without a newline
/// counts as a line.
fn read_line_capped(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    overlong: &mut bool,
    cap: usize,
) -> io::Result<LineEnd> {
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(match (*overlong, buf.is_empty()) {
                (false, false) => LineEnd::Line,
                _ => LineEnd::Eof,
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let content = &chunk[..newline.unwrap_or(chunk.len())];
        if !*overlong && buf.len() + content.len() > cap {
            *overlong = true;
            *buf = Vec::new();
        }
        if !*overlong {
            buf.extend_from_slice(content);
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        reader.consume(used);
        if newline.is_some() {
            return Ok(if std::mem::take(overlong) {
                LineEnd::Overlong
            } else {
                LineEnd::Line
            });
        }
    }
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
    /// quantification-engine job, surfaced by the `stats` command.
    quant_perf: Mutex<AigPerfCounters>,
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
            quant_perf: Mutex::new(AigPerfCounters::default()),
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
                lock_recovering(&self.quant_perf).add(d.quant_perf);
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
        // `buf` and `overlong` persist across timeouts: the reader keeps
        // the partial line it already copied when the clock runs out.
        let mut buf = Vec::new();
        let mut overlong = false;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            match read_line_capped(&mut reader, &mut buf, &mut overlong, MAX_LINE_BYTES) {
                Ok(LineEnd::Eof) => return,
                Ok(LineEnd::Line) => {
                    let line = String::from_utf8_lossy(&buf).trim().to_string();
                    buf.clear();
                    if !line.is_empty() && !self.dispatch(&line, &out) {
                        return;
                    }
                }
                Ok(LineEnd::Overlong) => {
                    let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                    send_line(&out, &error_line(0, &message));
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
                        let accepted = Json::Obj(vec![
                            field("event", "accepted"),
                            field("job", request.id),
                            field("engine", request.engine.as_str()),
                        ]);
                        send_line(out, &accepted.to_string());
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
                let quant_perf = *lock_recovering(&self.quant_perf);
                let cache = lock_recovering(&self.cache);
                let stats = Json::Obj(vec![
                    field("event", "stats"),
                    field("jobs_done", self.jobs_done.load(Ordering::SeqCst)),
                    field("queued", lock_recovering(&self.queue).len()),
                    field("workers", self.cfg.workers.max(1)),
                    field("cache_entries", cache.len()),
                    field("cache_stats", &cache.stats),
                    field("quant_perf", &quant_perf),
                ]);
                drop(cache);
                send_line(out, &stats.to_string());
                true
            }
            Some("shutdown") => {
                self.stop.store(true, Ordering::SeqCst);
                self.ready.notify_all();
                send_line(out, &Json::Obj(vec![field("event", "bye")]).to_string());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_reader_skips_overlong_lines_and_keeps_the_rest() {
        // A tiny buffer forces the line to span several `fill_buf` chunks.
        let input: &[u8] = b"abcd\nabcdefgh\nxy\nlast";
        let mut reader = BufReader::with_capacity(3, input);
        let (mut buf, mut overlong) = (Vec::new(), false);
        let mut ends = Vec::new();
        loop {
            let end = read_line_capped(&mut reader, &mut buf, &mut overlong, 4).expect("read");
            ends.push((end, String::from_utf8_lossy(&buf).to_string()));
            if ends.last().is_some_and(|(e, _)| *e == LineEnd::Eof) {
                break;
            }
            buf.clear();
        }
        let want = [
            (LineEnd::Line, "abcd"),
            (LineEnd::Overlong, ""),
            (LineEnd::Line, "xy"),
            (LineEnd::Line, "last"),
            (LineEnd::Eof, ""),
        ];
        let got: Vec<(LineEnd, &str)> = ends.iter().map(|(e, s)| (*e, s.as_str())).collect();
        assert_eq!(got, want);
    }
}
