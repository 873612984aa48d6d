//! End-to-end checks of the `cbq` binary: exit codes and behaviour at the
//! process boundary (closed pipes, malformed input files).

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn cbq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cbq"))
        .args(args)
        .output()
        .expect("run cbq")
}

/// Writes `text` to a file of its own in the temp directory.
fn aag_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cbq-cli-{}-{name}.aag", std::process::id()));
    std::fs::write(&path, text).expect("write model");
    path
}

#[test]
fn gen_ends_quietly_when_the_reader_closes_the_pipe() {
    // ring 400 is megabytes of text, far more than a pipe buffers, so
    // the writer is still writing when the read end goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_cbq"))
        .args(["gen", "ring", "400"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cbq");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 10];
    stdout.read_exact(&mut head).expect("first bytes");
    assert_eq!(&head[..4], b"aag ");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for cbq");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn check_rejects_a_redefined_variable_with_exit_2() {
    for (name, text, literal) in [
        // The AND gate defines literal 0: output 0 must not stop being
        // constant false.
        ("constant", "aag 1 1 0 1 1\n2\n0\n0 2 2\n", "literal 0"),
        // The AND gate defines the second input's literal.
        ("input", "aag 2 2 0 1 1\n2\n4\n4\n4 2 2\n", "literal 4"),
    ] {
        let path = aag_file(name, text);
        let out = cbq(&["check", path.to_str().expect("utf-8 path")]);
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(literal), "{name}: {stderr}");
    }
}
