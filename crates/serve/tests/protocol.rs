//! End-to-end wire-protocol tests: a real [`Server`] on a loopback
//! port, driven through the [`client`] helpers and raw socket lines.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use cbq_ckt::generators;
use cbq_ckt::io::write_network;
use cbq_mc::Budget;
use cbq_serve::{client, CheckRequest, Json, ServeConfig, Server};

struct Running {
    addr: String,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn start(workers: usize) -> Running {
    let server = Arc::new(
        Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            workers,
            ..ServeConfig::default()
        })
        .expect("bind loopback"),
    );
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    Running {
        addr,
        handle: Some(handle),
    }
}

impl Running {
    fn stop(mut self) {
        client::shutdown(&self.addr).expect("bye");
        self.handle
            .take()
            .expect("running")
            .join()
            .expect("no panic")
            .expect("clean exit");
    }
}

fn check(net: &cbq_ckt::Network, engine: &str, id: u64) -> CheckRequest {
    CheckRequest {
        id,
        model: write_network(net),
        engine: engine.to_string(),
        budget: Budget::unlimited(),
        use_cache: true,
    }
}

#[test]
fn submit_twice_reports_a_cache_hit() {
    let server = start(2);
    let net = generators::token_ring(4);

    let first = client::submit_one(&server.addr, &check(&net, "ic3", 0)).expect("first");
    assert_eq!(first.get("verdict").and_then(Json::as_str), Some("safe"));
    assert_eq!(
        first
            .get("cache")
            .and_then(|c| c.get("tier"))
            .and_then(Json::as_u64),
        Some(0),
        "first submission runs cold"
    );
    let first_job = first
        .get("job")
        .and_then(Json::as_u64)
        .expect("assigned id");
    assert!(first_job >= 1);

    let second = client::submit_one(&server.addr, &check(&net, "ic3", 0)).expect("second");
    assert_eq!(second.get("verdict").and_then(Json::as_str), Some("safe"));
    assert_eq!(
        second
            .get("cache")
            .and_then(|c| c.get("tier"))
            .and_then(Json::as_u64),
        Some(1),
        "second submission replays from tier 1"
    );
    assert_ne!(second.get("job").and_then(Json::as_u64), Some(first_job));
    assert_eq!(
        second
            .get("cache_stats")
            .and_then(|s| s.get("tier1_hits"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        second.get("proved_at").and_then(Json::as_u64),
        first.get("proved_at").and_then(Json::as_u64),
        "replayed record matches the original"
    );

    let stats = client::server_stats(&server.addr).expect("stats");
    assert_eq!(stats.get("jobs_done").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("cache_entries").and_then(Json::as_u64), Some(1));
    server.stop();
}

#[test]
fn client_ids_and_unsafe_verdicts_round_trip() {
    let server = start(1);
    let net = generators::token_ring_bug(4);
    let result = client::submit_one(&server.addr, &check(&net, "bmc", 77)).expect("result");
    assert_eq!(result.get("job").and_then(Json::as_u64), Some(77));
    assert_eq!(result.get("verdict").and_then(Json::as_str), Some("unsafe"));
    assert!(result.get("cex_depth").and_then(Json::as_u64).is_some());
    server.stop();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let server = start(1);

    // Malformed JSON, unknown command, unknown engine, bad model — all
    // on one connection, each answered, none killing the server.
    let stream = TcpStream::connect(&server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut send_recv = |line: &str| -> Json {
        let mut s = stream.try_clone().expect("clone");
        s.write_all(line.as_bytes()).expect("send");
        s.write_all(b"\n").expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        Json::parse(&response).expect("parseable response")
    };

    let bad_json = send_recv("{not json");
    assert_eq!(bad_json.get("event").and_then(Json::as_str), Some("error"));

    let bad_cmd = send_recv("{\"cmd\":\"frobnicate\"}");
    assert_eq!(bad_cmd.get("event").and_then(Json::as_str), Some("error"));

    // Nesting past the parser's bound is an error event, not a stack
    // overflow that aborts the whole server.
    let too_deep = send_recv(&"[".repeat(100_000));
    assert!(too_deep
        .get("message")
        .and_then(Json::as_str)
        .expect("message")
        .contains("nesting deeper than"));

    let bad_engine = send_recv("{\"cmd\":\"check\",\"model\":\"x\",\"engine\":\"zchaff\"}");
    assert!(bad_engine
        .get("message")
        .and_then(Json::as_str)
        .expect("message")
        .contains("unknown engine"));

    // A bad model passes parsing (the error surfaces from the worker):
    // expect `accepted` then an `error` event.
    let accepted = send_recv("{\"cmd\":\"check\",\"model\":\"not an aag\",\"engine\":\"bmc\"}");
    assert_eq!(
        accepted.get("event").and_then(Json::as_str),
        Some("accepted")
    );
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    let error = Json::parse(&response).expect("parseable");
    assert_eq!(error.get("event").and_then(Json::as_str), Some("error"));
    assert!(error
        .get("message")
        .and_then(Json::as_str)
        .expect("message")
        .contains("bad model"));
    drop(reader);
    drop(stream);

    // The server still works afterwards.
    let net = generators::mutex();
    let ok = client::submit_one(&server.addr, &check(&net, "ic3", 0)).expect("still alive");
    assert_eq!(ok.get("verdict").and_then(Json::as_str), Some("safe"));
    server.stop();
}

#[test]
fn concurrent_submissions_all_complete() {
    let server = start(3);
    let addr = server.addr.clone();
    let nets = [
        generators::token_ring(4),
        generators::token_ring_bug(4),
        generators::mutex(),
        generators::bounded_counter(4, 9),
    ];
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for (i, net) in nets.iter().enumerate() {
            let addr = &addr;
            joins.push(s.spawn(move || {
                client::submit_one(addr, &check(net, "portfolio", i as u64 + 1)).expect("result")
            }));
        }
        let verdicts: Vec<String> = joins
            .into_iter()
            .map(|j| {
                let result = j.join().expect("no panic");
                result
                    .get("verdict")
                    .and_then(Json::as_str)
                    .expect("verdict")
                    .to_string()
            })
            .collect();
        assert_eq!(verdicts, ["safe", "unsafe", "safe", "safe"]);
    });
    server.stop();
}
