//! End-to-end tests against the real `liteworp-served` binary: startup,
//! load-generator traffic, and the crash-resume contract — kill the
//! daemon mid-drain, restart with `--resume`, and the final digest set
//! must match an uninterrupted run.

use liteworp_runner::Json;
use liteworp_served::frame::{read_frame, write_frame};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(state_dir: &Path, resume: bool) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_liteworp-served"));
        cmd.args(["--addr", "127.0.0.1:0"])
            .args(["--state-dir", state_dir.to_str().expect("utf-8 path")])
            .args(["--drainers", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if resume {
            cmd.arg("--resume");
        }
        let mut child = cmd.spawn().expect("spawn daemon");
        let stdout = child.stdout.take().expect("stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("daemon exited before announcing its address")
                .expect("read stdout");
            if let Some(addr) = line.strip_prefix("listening on ") {
                break addr.to_string();
            }
        };
        Daemon { child, addr }
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn wait(mut self) {
        let _ = self.child.wait();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn exchange(&mut self, payload: &str) -> Json {
        write_frame(&mut self.writer, payload).expect("send");
        let response = read_frame(&mut self.reader)
            .expect("recv (did the daemon die?)")
            .expect("frame");
        Json::parse(&response).expect("json")
    }

    fn ok(&mut self, payload: &str) -> Json {
        let parsed = self.exchange(payload);
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(true),
            "rejected: {payload} -> {}",
            parsed.dump()
        );
        parsed
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "liteworp-served-daemon-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Work specs heavy enough that four of them are still draining a few
/// hundred milliseconds after submission.
fn specs() -> Vec<String> {
    vec![
        r#"{"nodes":30,"seeds":4,"duration":300.0}"#.into(),
        r#"{"nodes":34,"seeds":3,"duration":300.0}"#.into(),
        r#"{"nodes":26,"seeds":4,"duration":250.0}"#.into(),
        r#"{"nodes":22,"seeds":3,"duration":200.0}"#.into(),
    ]
}

fn submit_all(client: &mut Client, specs: &[String]) -> Vec<String> {
    specs
        .iter()
        .map(|spec| {
            client
                .ok(&format!(
                    r#"{{"op":"submit","kind":"scenario","params":{spec}}}"#
                ))
                .get("req")
                .and_then(Json::as_str)
                .expect("req")
                .to_string()
        })
        .collect()
}

fn drain_all(client: &mut Client, reqs: &[String]) -> Vec<String> {
    let mut digests: Vec<String> = reqs
        .iter()
        .map(|req| {
            for _ in 0..4800 {
                let status = client.ok(&format!(r#"{{"op":"status","req":"{req}"}}"#));
                match status.get("phase").and_then(Json::as_str) {
                    Some("done") => {
                        return status
                            .get("digest")
                            .and_then(Json::as_str)
                            .expect("digest")
                            .to_string()
                    }
                    Some("failed") => panic!("request failed: {}", status.dump()),
                    _ => std::thread::sleep(std::time::Duration::from_millis(25)),
                }
            }
            panic!("request {req} never finished");
        })
        .collect();
    digests.sort();
    digests.dedup();
    digests
}

#[test]
fn killing_the_daemon_mid_drain_and_resuming_preserves_the_digest_set() {
    let specs = specs();

    // Reference: an uninterrupted daemon on its own state dir.
    let ref_dir = temp_dir("reference");
    let reference = Daemon::start(&ref_dir, false);
    let mut client = Client::connect(&reference.addr);
    let reqs = submit_all(&mut client, &specs);
    let expected = drain_all(&mut client, &reqs);
    client.ok(r#"{"op":"shutdown"}"#);
    reference.wait();

    // Crash run: submit everything, give the drainers a head start, then
    // kill the process without ceremony.
    let dir = temp_dir("crash");
    let victim = Daemon::start(&dir, false);
    let mut client = Client::connect(&victim.addr);
    let reqs = submit_all(&mut client, &specs);
    std::thread::sleep(std::time::Duration::from_millis(400));
    victim.kill();

    // Restart on the same state dir with --resume: the request WAL
    // re-enqueues whatever had not logged `done`, and each request's
    // journal skips the jobs that already completed.
    let revived = Daemon::start(&dir, true);
    let mut client = Client::connect(&revived.addr);
    // Resubmitting is dedup'd against the replayed registry.
    let again = submit_all(&mut client, &specs);
    assert_eq!(again, reqs, "content-addressed keys survive the restart");
    let resumed = drain_all(&mut client, &again);
    client.ok(r#"{"op":"shutdown"}"#);
    revived.wait();

    assert_eq!(
        resumed, expected,
        "crash + resume must reproduce the uninterrupted digest set"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_generator_passes_against_a_fresh_daemon_twice_with_identical_digests() {
    let dir_a = temp_dir("load-a");
    let daemon_a = Daemon::start(&dir_a, false);
    let digests_a = dir_a.join("digests.txt");
    let status = Command::new(env!("CARGO_BIN_EXE_liteworp-load"))
        .args(["--addr", &daemon_a.addr])
        .args(["--requests", "120"])
        .args(["--connections", "4"])
        .args(["--seed", "42"])
        .args(["--cancel-fraction", "0.2"])
        .args(["--digests", digests_a.to_str().expect("utf-8")])
        .arg("--shutdown")
        .status()
        .expect("run load generator");
    assert!(status.success(), "load generator must pass");
    daemon_a.wait();

    let dir_b = temp_dir("load-b");
    let daemon_b = Daemon::start(&dir_b, false);
    let digests_b = dir_b.join("digests.txt");
    let status = Command::new(env!("CARGO_BIN_EXE_liteworp-load"))
        .args(["--addr", &daemon_b.addr])
        .args(["--requests", "120"])
        .args(["--connections", "4"])
        .args(["--seed", "42"])
        .args(["--cancel-fraction", "0.2"])
        .args(["--digests", digests_b.to_str().expect("utf-8")])
        .arg("--shutdown")
        .status()
        .expect("run load generator");
    assert!(status.success(), "load generator must pass");
    daemon_b.wait();

    let a = std::fs::read(&digests_a).expect("digests A");
    let b = std::fs::read(&digests_b).expect("digests B");
    assert!(!a.is_empty());
    assert_eq!(a, b, "two same-seed runs: byte-identical digest files");

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn a_deeply_nested_frame_gets_a_typed_error_and_the_daemon_lives_on() {
    let dir = temp_dir("deep");
    let daemon = Daemon::start(&dir, false);
    let mut client = Client::connect(&daemon.addr);
    // 100 KB of `[`: far under the frame cap, far over any thread stack
    // a recursive parser could descend.
    let response = client.exchange(&"[".repeat(100_000));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    let error = response.get("error").and_then(Json::as_str).expect("error");
    assert!(error.contains("nesting deeper than 64"), "{error}");

    let mut fresh = Client::connect(&daemon.addr);
    fresh.ok(r#"{"op":"ping"}"#);
    fresh.ok(r#"{"op":"shutdown"}"#);
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_out_of_range_submit_gets_a_typed_error_and_the_daemon_lives_on() {
    let dir = temp_dir("range");
    let daemon = Daemon::start(&dir, false);
    let mut client = Client::connect(&daemon.addr);
    // `sample_every: 0` once spun the submit handler in an endless
    // sample-grid loop until the process ran out of memory.
    let response = client.exchange(r#"{"op":"submit","kind":"fig8","params":{"sample_every":0}}"#);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    let error = response.get("error").and_then(Json::as_str).expect("error");
    assert!(error.contains("sample_every"), "{error}");

    let mut fresh = Client::connect(&daemon.addr);
    fresh.ok(r#"{"op":"ping"}"#);
    fresh.ok(r#"{"op":"shutdown"}"#);
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_wal_torn_inside_a_utf8_character_is_cut_back_and_replayed_on_resume() {
    let dir = temp_dir("wal-utf8");
    let daemon = Daemon::start(&dir, false);
    let mut client = Client::connect(&daemon.addr);
    let spec = r#"{"nodes":20,"seeds":1,"duration":30.0,"note":"é"}"#.to_string();
    let reqs = submit_all(&mut client, std::slice::from_ref(&spec));
    let digests = drain_all(&mut client, &reqs);
    client.ok(r#"{"op":"shutdown"}"#);
    daemon.wait();

    // A crash mid-append that cut the last record inside the two-byte
    // `é`: the tail is not valid UTF-8.
    let wal = dir.join("requests.jsonl");
    let clean = std::fs::read(&wal).expect("read WAL");
    let record =
        r#"{"rec":"submitted","key":"00000000000000aa","kind":"scenario","params":{"note":"é"#;
    let torn = &record.as_bytes()[..record.len() - 1];
    let mut bytes = clean.clone();
    bytes.extend_from_slice(torn);
    std::fs::write(&wal, &bytes).expect("tear WAL tail");

    let revived = Daemon::start(&dir, true);
    assert_eq!(
        std::fs::read(&wal).expect("read healed WAL"),
        clean,
        "resume cuts the torn tail back to the clean prefix"
    );
    let mut client = Client::connect(&revived.addr);
    let status = client.ok(&format!(r#"{{"op":"status","req":"{}"}}"#, reqs[0]));
    assert_eq!(status.get("phase").and_then(Json::as_str), Some("done"));
    assert_eq!(
        status.get("digest").and_then(Json::as_str),
        Some(digests[0].as_str()),
        "the replayed request keeps its digest"
    );
    client.ok(r#"{"op":"shutdown"}"#);
    revived.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
