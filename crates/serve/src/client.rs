//! Client-side helpers for the line-delimited JSON protocol: one
//! connection per call, blocking until the matching response arrives.
//! `cbq submit` and the end-to-end tests are both built on these.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use cbq_mc::json::{field, Json};

use crate::job::CheckRequest;

fn connect(addr: &str) -> Result<TcpStream, String> {
    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn send(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send: {e}"))
}

fn read_event(lines: &mut impl Iterator<Item = std::io::Result<String>>) -> Result<Json, String> {
    match lines.next() {
        Some(Ok(line)) => Json::parse(&line).map_err(|e| format!("bad response line: {e}")),
        Some(Err(e)) => Err(format!("receive: {e}")),
        None => Err("server closed the connection".to_string()),
    }
}

/// Submits one `check` request and blocks until its `result` (or
/// `error`) event arrives, skipping the `accepted` acknowledgement.
///
/// # Errors
///
/// Returns a message on connection failures, protocol violations, or a
/// server-side `error` event.
pub fn submit_one(addr: &str, request: &CheckRequest) -> Result<Json, String> {
    let mut stream = connect(addr)?;
    send(&mut stream, &request.to_json_line())?;
    let mut lines = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?).lines();
    loop {
        let msg = read_event(&mut lines)?;
        match msg.get("event").and_then(Json::as_str) {
            Some("accepted") => continue,
            Some("result") => return Ok(msg),
            Some("error") => {
                let why = msg
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified");
                return Err(format!("server error: {why}"));
            }
            other => return Err(format!("unexpected event {other:?}")),
        }
    }
}

/// Sends the bare request `{"cmd":cmd}` and returns its one reply,
/// which must be the event `reply`.
fn command(addr: &str, cmd: &str, reply: &str) -> Result<Json, String> {
    let mut stream = connect(addr)?;
    send(&mut stream, &Json::Obj(vec![field("cmd", cmd)]).to_string())?;
    let mut lines = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?).lines();
    let msg = read_event(&mut lines)?;
    match msg.get("event").and_then(Json::as_str) {
        Some(event) if event == reply => Ok(msg),
        other => Err(format!("unexpected event {other:?}")),
    }
}

/// Fetches the server's `stats` record.
///
/// # Errors
///
/// Returns a message on connection failures or protocol violations.
pub fn server_stats(addr: &str) -> Result<Json, String> {
    command(addr, "stats", "stats")
}

/// Asks the server to shut down; returns once the `bye` arrives.
///
/// # Errors
///
/// Returns a message on connection failures or protocol violations.
pub fn shutdown(addr: &str) -> Result<(), String> {
    command(addr, "shutdown", "bye").map(drop)
}
