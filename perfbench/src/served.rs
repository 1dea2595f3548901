//! The served probe: a `liteworp-served` daemon with a 1-thread pool,
//! driven by the benchmark's own client on two connections with a
//! seeded open-loop schedule of small sweeps at a fixed rate. Every traced
//! run runs it to measure the served layer.
//!
//! Of every five operations, three submit a new sweep, one duplicates a
//! sweep still in flight (2 ms after it), and one re-submits a finished
//! one (1.5 s after it). New submits write the request WAL, the journal
//! and the cache; duplicates only read the registry. Every sweep is timed
//! from the moment it was due, so a stall also delays the operations
//! behind it.

use crate::report::{describe_tail, median, peak_rss_mb, quantile, tail, Report};
use crate::trace::Tracer;
use crate::Args;
use liteworp_bench::catalog;
use liteworp_bench::exec::{run_cells, ExecOptions};
use liteworp_runner::{Json, Pcg32, Rng};
use liteworp_served::proto::{format_key, request_key};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Length of the probe's schedule, in seconds.
const PROBE_S: f64 = 10.0;
/// New sweeps submitted per second.
const NEW_RATE: f64 = 12.0;
/// A duplicate is due this long after the submit it duplicates.
const DUP_DELAY: Duration = Duration::from_millis(2);
/// A re-submit is due this long after the submit it repeats.
const RESUBMIT_DELAY: Duration = Duration::from_millis(1500);
/// Daemon spawns per probe for `served.spawn_ms` (the last one serves).
const SPAWNS: usize = 5;
/// The submitter spins for the last stretch before a due time.
const SPIN: Duration = Duration::from_millis(1);
/// How long the drain after the schedule may take before the remaining
/// sweeps count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq)]
enum OpKind {
    New,
    Duplicate,
    Resubmit,
}

struct Op {
    due: Duration,
    spec: usize,
    kind: OpKind,
}

/// One distinct sweep: a `scenario` catalog request.
struct Spec {
    params: Json,
}

impl Spec {
    fn submit_payload(&self) -> String {
        Json::object([
            ("op", Json::from("submit")),
            ("kind", Json::from("scenario")),
            ("params", self.params.clone()),
        ])
        .dump()
    }
}

/// The slot's distinct sweeps, in submission order: 20–36 nodes,
/// 40–60 simulated seconds, density 8–10, LITEWORP on or off, two
/// colluders, one seed each. No two share a job, so every new submit
/// misses the cache.
fn specs(slot: u64) -> Vec<Spec> {
    let mut combos = Vec::new();
    for nodes in 20u64..=36 {
        for duration in 40u64..=60 {
            for density in [8u64, 9, 10] {
                for protected in [true, false] {
                    combos.push((nodes, duration, density, protected));
                }
            }
        }
    }
    let mut rng = Pcg32::seed_from_u64(0x5EED_5EED ^ slot);
    rng.shuffle(&mut combos);
    combos
        .into_iter()
        .map(|(nodes, duration, density, protected)| Spec {
            params: Json::object([
                ("nodes", Json::from(nodes)),
                ("malicious", Json::from(2u64)),
                ("protected", Json::from(protected)),
                ("avg_neighbors", Json::from(density as f64)),
                ("seeds", Json::from(1u64)),
                ("duration", Json::from(duration as f64)),
            ]),
        })
        .collect()
}

/// The open-loop schedule for `seconds` of new submits, sorted by due
/// time.
fn schedule(slot: u64, seconds: f64) -> Vec<Op> {
    let new = (seconds * NEW_RATE).ceil() as usize;
    let mut rng = Pcg32::seed_from_u64(0x0123_4567 ^ slot);
    let gap = Duration::from_secs_f64(1.0 / NEW_RATE);
    let mut ops: Vec<Op> = (0..new)
        .map(|i| Op {
            due: gap * i as u32,
            spec: i,
            kind: OpKind::New,
        })
        .collect();
    for block in (0..new).step_by(3).filter(|b| b + 3 <= new) {
        let dup = block + rng.gen_range(0..3);
        let again = block + (dup - block + 1 + rng.gen_range(0..2)) % 3;
        ops.push(Op {
            due: gap * dup as u32 + DUP_DELAY,
            spec: dup,
            kind: OpKind::Duplicate,
        });
        ops.push(Op {
            due: gap * again as u32 + RESUBMIT_DELAY,
            spec: again,
            kind: OpKind::Resubmit,
        });
    }
    ops.sort_by_key(|op| (op.due, op.spec));
    ops
}

/// A protocol client: one connection, `TCP_NODELAY`, each frame sent
/// with a single write.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let setup = || -> std::io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(DRAIN_LIMIT))?;
            Ok(Client {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
            })
        };
        setup().map_err(|e| format!("connect to {addr}: {e}"))
    }

    fn send(&mut self, payload: &str) -> Result<(), String> {
        let frame = format!("{}\n{payload}\n", payload.len());
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads the next frame.
    fn read(&mut self) -> Result<Json, String> {
        let mut header = String::new();
        self.reader
            .read_line(&mut header)
            .map_err(|e| format!("receive: {e}"))?;
        let len: usize = header
            .trim()
            .parse()
            .map_err(|_| format!("bad frame header {header:?}"))?;
        let mut body = vec![0u8; len + 1];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("receive: {e}"))?;
        body.pop();
        let text = String::from_utf8(body).map_err(|e| format!("receive: {e}"))?;
        Json::parse(&text).map_err(|e| format!("bad frame {text:?}: {e}"))
    }

    /// Sends one request frame and reads its response, which must be
    /// `"ok": true`.
    fn request(&mut self, payload: &str) -> Result<Json, String> {
        self.send(payload)?;
        let json = self.read()?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{payload} rejected: {}", json.dump()));
        }
        Ok(json)
    }
}

/// A running daemon; killed on drop if it did not shut down.
struct Daemon {
    child: Child,
    addr: String,
    state_dir: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and returns it with the time from spawn to its
    /// `listening on` line.
    fn spawn(bin: &Path, state_dir: PathBuf) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(&state_dir);
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--jobs", "1", "--state-dir"])
            .arg(&state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            let _ = BufReader::new(out).read_line(&mut line);
        }
        let elapsed = t.elapsed().as_secs_f64();
        let daemon = Daemon {
            child,
            addr: line
                .trim()
                .strip_prefix("listening on ")
                .unwrap_or("")
                .to_string(),
            state_dir,
        };
        if daemon.addr.is_empty() {
            return Err(format!("daemon did not announce its address: {line:?}"));
        }
        Ok((daemon, elapsed))
    }

    /// Asks the daemon to stop and waits for it; kills it after 10 s.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr).and_then(|mut c| c.request(r#"{"op":"shutdown"}"#));
        for _ in 0..1000 {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked.map(drop);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// What the client saw.
#[derive(Default)]
struct Seen {
    /// Per op: due → done latency, ms (`None` if it never finished).
    latency_ms: Vec<Option<f64>>,
    /// Per spec: the digest its `done` answer carried.
    digests: BTreeMap<usize, String>,
    late_ms: Vec<f64>,
    submit_new_us: Vec<f64>,
    submit_dedup_us: Vec<f64>,
    /// Per new sweep: its submit answer → its `done` frame, ms.
    in_daemon_ms: Vec<f64>,
    /// Client-side op spans: (name, start, end).
    spans: Vec<(&'static str, Instant, Instant)>,
    problems: Vec<String>,
}

/// A submitted request the follower waits on.
struct Pending {
    req: String,
    spec: usize,
    ops: Vec<usize>,
    /// When the submit of a new sweep was answered.
    new_answered: Option<Instant>,
}

impl Pending {
    /// Queues `p`, folding it into a queued request with the same key.
    fn merge_into(self, queue: &mut VecDeque<Pending>) {
        match queue.iter_mut().find(|q| q.req == self.req) {
            Some(q) => {
                q.ops.extend(self.ops);
                q.new_answered = q.new_answered.or(self.new_answered);
            }
            None => queue.push_back(self),
        }
    }
}

/// Fires the schedule on one connection while a second connection
/// follows each in-flight request to its `done` frame.
fn drive(addr: &str, specs: &[Spec], ops: &[Op]) -> Result<Seen, String> {
    let mut submitter = Client::connect(addr)?;
    let mut follower = Client::connect(addr)?;
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now();

    let (mut seen, followed) = std::thread::scope(|scope| {
        let follow = scope.spawn(move || follow_until_done(&mut follower, rx, ops, start));
        let mut seen = Seen {
            latency_ms: vec![None; ops.len()],
            ..Seen::default()
        };
        for (i, op) in ops.iter().enumerate() {
            let due = start + op.due;
            // Sleep to just before the due time, then spin, so a late
            // timer wake-up does not delay the send.
            if let Some(wait) = (due - SPIN).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let sent = Instant::now();
            seen.late_ms.push((sent - due).as_secs_f64() * 1e3);
            let answer = submitter.request(&specs[op.spec].submit_payload());
            let answered = Instant::now();
            let rtt_us = (answered - sent).as_secs_f64() * 1e6;
            let answer = match answer {
                Ok(answer) => answer,
                Err(e) => {
                    seen.problems.push(e);
                    continue;
                }
            };
            let new = op.kind == OpKind::New;
            let dedup = answer.get("dedup").and_then(Json::as_bool) == Some(true);
            if new == dedup {
                seen.problems.push(format!(
                    "op {i}: submit answered dedup={dedup} for a {} submit",
                    if new { "new" } else { "repeated" }
                ));
            }
            if new {
                seen.submit_new_us.push(rtt_us);
                seen.spans.push(("served.submit.new", sent, answered));
            } else {
                seen.submit_dedup_us.push(rtt_us);
                seen.spans.push(("served.submit.dedup", sent, answered));
            }
            if answer.get("phase").and_then(Json::as_str) == Some("done") {
                seen.latency_ms[i] = Some((answered - due).as_secs_f64() * 1e3);
                if let Some(d) = answer.get("digest").and_then(Json::as_str) {
                    seen.digests.entry(op.spec).or_insert_with(|| d.to_string());
                }
                continue;
            }
            let req = answer.get("req").and_then(Json::as_str).unwrap_or("");
            let _ = tx.send(Pending {
                req: req.to_string(),
                spec: op.spec,
                ops: vec![i],
                new_answered: new.then_some(answered),
            });
        }
        drop(tx);
        let followed = follow
            .join()
            .unwrap_or_else(|_| Err("follower panicked".to_string()));
        (seen, followed)
    });
    let followed = followed?;
    for (i, ms) in followed.latency_ms.iter().enumerate() {
        if ms.is_some() {
            seen.latency_ms[i] = *ms;
        }
    }
    for (spec, digest) in followed.digests {
        if let Some(other) = seen.digests.get(&spec).filter(|d| **d != digest) {
            seen.problems.push(format!(
                "spec {spec}: digests {other} and {digest} disagree"
            ));
        }
        seen.digests.insert(spec, digest);
    }
    seen.in_daemon_ms = followed.in_daemon_ms;
    seen.spans.extend(followed.spans);
    seen.problems.extend(followed.problems);
    Ok(seen)
}

/// The follower: subscribes to each in-flight request in submission
/// order and reads its stream to the `done` frame, which the daemon
/// pushes the moment the request completes. Returns when the submitter
/// has hung up and nothing is left.
fn follow_until_done(
    client: &mut Client,
    rx: mpsc::Receiver<Pending>,
    ops: &[Op],
    start: Instant,
) -> Result<Seen, String> {
    let mut seen = Seen {
        latency_ms: vec![None; ops.len()],
        ..Seen::default()
    };
    let mut queue: VecDeque<Pending> = VecDeque::new();
    let mut open = true;
    loop {
        // Take what has arrived; block only while nothing is queued.
        while open {
            let next = if queue.is_empty() {
                rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
            } else {
                rx.try_recv()
            };
            match next {
                Ok(p) => p.merge_into(&mut queue),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => open = false,
            }
        }
        let Some(mut p) = queue.pop_front() else {
            return Ok(seen);
        };
        let asked = Instant::now();
        client.request(&format!(r#"{{"op":"subscribe","req":"{}"}}"#, p.req))?;
        let last = loop {
            let frame = client.read()?;
            if frame.get("stream").and_then(Json::as_str) == Some("done") {
                break frame;
            }
        };
        let done = Instant::now();
        seen.spans.push(("served.subscribe", asked, done));
        // Repeats of this request that were answered while it ran finish
        // with it.
        while let Ok(q) = rx.try_recv() {
            q.merge_into(&mut queue);
        }
        if let Some(pos) = queue.iter().position(|q| q.req == p.req) {
            let q = queue.remove(pos).expect("position is in range");
            p.ops.extend(q.ops);
        }
        if last.get("phase").and_then(Json::as_str) != Some("done") {
            seen.problems
                .push(format!("request {}: {}", p.req, last.dump()));
            continue;
        }
        for &i in &p.ops {
            seen.latency_ms[i] = Some((done - (start + ops[i].due)).as_secs_f64() * 1e3);
        }
        if let Some(answered) = p.new_answered {
            seen.in_daemon_ms
                .push((done - answered).as_secs_f64() * 1e3);
        }
        let digest = last.get("digest").and_then(Json::as_str).unwrap_or("");
        seen.digests.insert(p.spec, digest.to_string());
    }
}

/// Reference digests: the same cells through `exec::run_cells`, one
/// sweep at a time.
fn reference(specs: &[Spec]) -> Vec<String> {
    let opts = ExecOptions {
        jobs: Some(1),
        ..ExecOptions::default()
    };
    specs
        .iter()
        .map(|spec| {
            let cells = catalog::cells_for("scenario", &spec.params).expect("valid catalog params");
            format!("{:016x}", run_cells(&cells, &opts).manifest.results_digest)
        })
        .collect()
}

/// The served probe: daemon spawns, the schedule, the drain, the checks.
/// Returns the served and load-generator figures; client-side op spans
/// go to the tracer.
pub fn probe(args: &Args, report: &mut Report, tracer: &mut Tracer) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if let Err(e) = probe_inner(args, report, tracer, &mut out) {
        report.check(false, || format!("served probe: {e}"));
    }
    out
}

fn probe_inner(
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let bin = args
        .served_bin
        .clone()
        .ok_or("the served probe needs --served-bin PATH")?;
    let slot = args.slot();
    let ops = schedule(slot, PROBE_S);
    let new = ops.iter().filter(|op| op.kind == OpKind::New).count();
    let specs: Vec<Spec> = specs(slot).into_iter().take(new).collect();

    let state = |k: usize| {
        args.work_dir
            .join(format!("served-{}-{k}", std::process::id()))
    };
    let mut spawns = Vec::with_capacity(SPAWNS);
    for k in 1..SPAWNS {
        let (daemon, secs) = Daemon::spawn(&bin, state(k))?;
        spawns.push(secs * 1e3);
        daemon.shutdown()?;
    }
    let (daemon, secs) = Daemon::spawn(&bin, state(SPAWNS))?;
    spawns.push(secs * 1e3);

    let root = tracer.begin("served.schedule");
    let seen = drive(&daemon.addr, &specs, &ops)?;
    for (name, start, end) in &seen.spans {
        tracer.record(*name, *start, *end);
    }
    tracer.end(root);
    // After the drain: one status probe per sweep (its digest must match
    // the done frame's), then the daemon's own counters.
    let mut client = Client::connect(&daemon.addr)?;
    let mut status_us = Vec::with_capacity(new);
    let mut status_digests = Vec::with_capacity(new);
    for spec in &specs {
        let key = format_key(request_key("scenario", &spec.params));
        let t = Instant::now();
        let status = client.request(&format!(r#"{{"op":"status","req":"{key}"}}"#))?;
        status_us.push(t.elapsed().as_secs_f64() * 1e6);
        let digest = status.get("digest").and_then(Json::as_str).unwrap_or("");
        status_digests.push(digest.to_string());
    }
    let stats = client.request(r#"{"op":"stats"}"#)?;
    drop(client);
    let rss = peak_rss_mb(daemon.child.id());
    daemon.shutdown()?;

    // Correctness: every op answered and finished, dedup exactly where
    // due, daemon counters as scheduled, digests equal to run_cells.
    report.attempted += ops.len() as u64;
    let unfinished = seen.latency_ms.iter().filter(|l| l.is_none()).count();
    report.failed += unfinished as u64;
    if unfinished > 0 {
        report
            .problems
            .push(format!("{unfinished} served op(s) never finished"));
    }
    for problem in seen.problems {
        report.check(false, || problem);
    }
    let stat = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |j, k| j.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX)
    };
    let repeats = (ops.len() - new) as u64;
    let submitted = stat(&["requests", "submitted"]);
    let dedups = (ops.len() as u64).saturating_sub(submitted);
    for (what, got, want) in [
        ("requests submitted", submitted, new as u64),
        ("requests done", stat(&["requests", "done"]), new as u64),
        ("jobs run", stat(&["jobs", "total"]), new as u64),
        ("job cache hits", stat(&["jobs", "cache_hits"]), 0),
        ("dedups", dedups, repeats),
    ] {
        report.check(got == want, || {
            format!("daemon {what}: {got}, expected {want}")
        });
    }
    let want = reference(&specs);
    let got: Vec<String> = (0..new)
        .map(|s| seen.digests.get(&s).cloned().unwrap_or_default())
        .collect();
    let sorted = |v: &[String]| v.iter().cloned().collect::<BTreeSet<_>>();
    report.check(
        sorted(&got) == sorted(&want) && got.len() == want.len(),
        || "served digest set differs from exec::run_cells".to_string(),
    );
    report.check(status_digests == got, || {
        "status digests differ from the done frames".to_string()
    });
    let mismatched = got.iter().zip(&want).filter(|(a, b)| a != b).count();
    report.check(mismatched == 0, || {
        format!("{mismatched} sweep(s) served a digest other than run_cells")
    });

    let all: Vec<f64> = seen.latency_ms.iter().flatten().copied().collect();
    eprintln!(
        "served probe: slot {slot}, {} ops ({new} new, {repeats} repeated) at {NEW_RATE} new/s; \
         {}; generator late p95 {:.3} ms",
        ops.len(),
        describe_tail("served.sweep_p95_ms", &all),
        quantile(&seen.late_ms, 0.95)
    );
    // Mean queue wait of a new sweep: its time in the daemon as the
    // client saw it (submit answer → done frame), less the mean time a
    // drainer spent on a request (the daemon's `request` span). A drainer
    // may start before the answer reaches the client, so near-empty
    // queues read slightly below zero.
    let request_span = |k: &str| {
        stats
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get("span_us.request"))
            .and_then(|h| h.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let drain_ms = request_span("sum") / request_span("count").max(1.0) / 1e3;
    out.insert("served.spawn_ms", median(&spawns));
    out.insert("served.sweep_p50_ms", median(&all));
    out.insert("served.sweep_p95_ms", tail(&all).1);
    out.insert("served.submit_new_us", median(&seen.submit_new_us));
    out.insert("served.submit_dedup_us", median(&seen.submit_dedup_us));
    out.insert("served.status_us", median(&status_us));
    out.insert("served.drain_ms", drain_ms);
    out.insert(
        "served.queue_wait_ms",
        crate::report::mean(&seen.in_daemon_ms) - drain_ms,
    );
    out.insert("served.dedups", dedups as f64);
    out.insert("served.wal_bytes", stat(&["wal_bytes"]) as f64);
    out.insert("served.peak_rss_mb", rss);
    out.insert("load.late_p95_ms", quantile(&seen.late_ms, 0.95));
    out.insert("load.ops", ops.len() as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteworp_served::server::{Server, ServerConfig};

    #[test]
    fn schedule_has_fixed_shares_and_is_seeded() {
        let ops = schedule(3, 20.0);
        let count = |k: OpKind| ops.iter().filter(|op| op.kind == k).count();
        assert_eq!(count(OpKind::New), 240);
        assert_eq!(count(OpKind::Duplicate), 80);
        assert_eq!(count(OpKind::Resubmit), 80);
        assert!(ops.windows(2).all(|w| w[0].due <= w[1].due));
        let again = schedule(3, 20.0);
        assert!(ops
            .iter()
            .zip(&again)
            .all(|(a, b)| a.due == b.due && a.spec == b.spec));
        let other = schedule(4, 20.0);
        assert!(ops.iter().zip(&other).any(|(a, b)| a.spec != b.spec));
    }

    #[test]
    fn specs_are_distinct_requests() {
        let specs = specs(0);
        let keys: BTreeSet<String> = specs.iter().map(|s| s.params.dump()).collect();
        assert_eq!(keys.len(), specs.len());
        assert!(specs.len() >= 240);
    }

    /// The client sets TCP_NODELAY and sends each frame in one write, so
    /// a round trip never waits out the 40 ms delayed-ACK timer.
    #[test]
    fn ping_round_trip_is_far_below_the_delayed_ack_floor() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("ping-{}", std::process::id()));
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: Some(1),
            state_dir: dir.clone(),
            drainers: 1,
            resume: false,
            no_cache: true,
            metrics_interval: None,
            stall_accept: None,
        })
        .unwrap();
        let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
        let mut rtts = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            client.request(r#"{"op":"ping"}"#).unwrap();
            rtts.push(t.elapsed().as_secs_f64() * 1e3);
        }
        client.request(r#"{"op":"shutdown"}"#).unwrap();
        server.join();
        let _ = std::fs::remove_dir_all(dir);
        assert!(median(&rtts) < 4.0, "ping p50 {} ms", median(&rtts));
        assert!(
            quantile(&rtts, 0.9) < 10.0,
            "ping p90 {} ms",
            quantile(&rtts, 0.9)
        );
    }
}
