//! The sweep-service daemon: accepts JSONL-framed requests over TCP,
//! runs each request's sweep through the runner's one executor, and
//! streams progress to subscribers.
//!
//! # Request lifecycle
//!
//! A `submit` is validated against the experiment catalog, keyed by its
//! content ([`crate::proto::request_key`]), WAL-logged, and enqueued;
//! duplicates of a live or finished request are deduplicated to the
//! existing one (`"dedup": true`). Drainer threads pop keys and execute
//! each request's sweep through the batch bins' own path
//! ([`run_cells_observed`] → `run_supervised` → `pool::run`) — same jobs,
//! same derived seeds, same cache keys, so a daemon-served sweep
//! reproduces the batch `results_digest` byte for byte. Each request
//! journals to its own WAL under `state_dir/journals/`, so a daemon
//! killed mid-sweep resumes the request from its last completed job on
//! restart with `--resume`.
//!
//! # Shared state
//!
//! One [`RunConfig`] (worker count + result cache + code version) serves
//! every request; the request registry, queue, and request WAL are
//! daemon-global. Per-client state is only the connection handler's
//! socket. Each drain runs on its own scoped pool of `threads` workers,
//! so a daemon runs at most `drainers × threads` job threads at once.

use crate::frame::{read_frame_paced, write_frame, FrameError};
use crate::net;
use crate::proto::{err_response, format_key, ok_response, request_key, Request};
use crate::state::{DoneInfo, ReqPhase, RequestState, RequestWal, WalRecord};
use liteworp_bench::catalog;
use liteworp_bench::exec::{run_cells_observed, SimCell, SIM_CODE_VERSION};
use liteworp_obs as obs;
use liteworp_runner::supervisor::Supervision;
use liteworp_runner::{pool, JobProgress, Json, ResultCache, RunConfig};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How a daemon instance is configured.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (printed on startup).
    pub addr: String,
    /// Worker threads per drain (`None` = `LITEWORP_JOBS` / core
    /// count); each drainer runs its sweep on its own pool of this size.
    pub threads: Option<usize>,
    /// Where the daemon keeps its cache, journals, and request WAL.
    pub state_dir: PathBuf,
    /// Concurrent sweep drainers (how many requests run at once).
    pub drainers: usize,
    /// Replay the request WAL: unfinished submissions are re-enqueued
    /// and resume from their per-request journals.
    pub resume: bool,
    /// Disable the shared result cache.
    pub no_cache: bool,
    /// Broadcast a `{"stream":"metrics",…}` frame to every subscriber
    /// this often (seconds). `None` disables the periodic stream.
    pub metrics_interval: Option<f64>,
    /// Chaos hook: sleep this long inside the accept loop after every
    /// accepted connection, simulating a stalled/overwhelmed acceptor so
    /// the shard front's liveness probes can be tested. Never set it in
    /// production.
    pub stall_accept: Option<std::time::Duration>,
}

impl ServerConfig {
    /// Defaults: loopback with an ephemeral port, two drainers, cache
    /// on, fresh (non-resuming) start.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: None,
            state_dir: state_dir.into(),
            drainers: 2,
            resume: false,
            no_cache: false,
            metrics_interval: None,
            stall_accept: None,
        }
    }
}

/// Cap on telemetry lines retained per traced request, so a subscriber
/// replay cannot hold an unbounded event log in memory.
pub const TRACE_LINE_CAP: usize = 2000;

/// The daemon's registered metric handles (see `liteworp_obs::names`
/// for the registry S003 checks these literals against). Handles are
/// plain atomics, live whether or not the span plane is on.
struct ServedMetrics {
    requests_submitted: obs::Counter,
    requests_done: obs::Counter,
    requests_failed: obs::Counter,
    requests_cancelled: obs::Counter,
    jobs_total: obs::Counter,
    cache_hits: obs::Counter,
    cache_misses: obs::Counter,
    journal_hits: obs::Counter,
    queue_depth: obs::Gauge,
    active_drains: obs::Gauge,
}

impl ServedMetrics {
    fn new() -> ServedMetrics {
        ServedMetrics {
            requests_submitted: obs::counter("served.requests_submitted"),
            requests_done: obs::counter("served.requests_done"),
            requests_failed: obs::counter("served.requests_failed"),
            requests_cancelled: obs::counter("served.requests_cancelled"),
            jobs_total: obs::counter("served.jobs_total"),
            cache_hits: obs::counter("served.cache_hits"),
            cache_misses: obs::counter("served.cache_misses"),
            journal_hits: obs::counter("served.journal_hits"),
            queue_depth: obs::gauge("served.queue_depth"),
            active_drains: obs::gauge("served.active_drains"),
        }
    }
}

/// Holds a gauge one higher for the guard's lifetime (early returns
/// included).
struct GaugeHold(obs::Gauge);

impl GaugeHold {
    fn new(gauge: obs::Gauge) -> GaugeHold {
        gauge.add(1);
        GaugeHold(gauge)
    }
}

impl Drop for GaugeHold {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

struct DaemonState {
    runner: RunConfig,
    registry: Mutex<BTreeMap<u64, Arc<RequestState>>>,
    queue: Mutex<VecDeque<u64>>,
    work: Condvar,
    shutdown: AtomicBool,
    wal: RequestWal,
    state_dir: PathBuf,
    local_addr: SocketAddr,
    metrics: ServedMetrics,
    drainer_count: usize,
    /// Obs-clock reading at startup, for `uptime_ms`.
    started_us: u64,
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl DaemonState {
    fn enqueue(&self, key: u64) {
        let mut queue = lock(&self.queue);
        queue.push_back(key);
        self.metrics.queue_depth.set(queue.len() as i64);
        drop(queue);
        self.work.notify_one();
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.work.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }

    fn journal_path(&self, key: u64) -> PathBuf {
        self.state_dir
            .join("journals")
            .join(format!("{}.jsonl", format_key(key)))
    }
}

/// A running daemon instance (in-process handle, used by the binary and
/// by integration tests).
pub struct Server {
    state: Arc<DaemonState>,
    accept: Option<std::thread::JoinHandle<()>>,
    drainers: Vec<std::thread::JoinHandle<()>>,
    metrics_pump: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, replays the WAL when resuming, and starts the accept and
    /// drainer threads.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        // The daemon always runs with the span plane on: its per-phase
        // latency quantiles (the `stats` op) come from span closings.
        obs::enable();
        std::fs::create_dir_all(&cfg.state_dir)?;
        let wal_path = cfg.state_dir.join("requests.jsonl");
        let (wal, records) = if cfg.resume {
            let (wal, records, torn_bytes) = RequestWal::recover(&wal_path)?;
            if torn_bytes > 0 {
                eprintln!(
                    "liteworp-served: request WAL ended mid-append; truncated {torn_bytes} torn \
                     byte(s) before replay"
                );
            }
            (wal, records)
        } else {
            let _ = std::fs::remove_dir_all(cfg.state_dir.join("journals"));
            (RequestWal::open(&wal_path)?, Vec::new())
        };

        let runner = RunConfig {
            threads: pool::resolve_threads(cfg.threads),
            cache: (!cfg.no_cache).then(|| ResultCache::new(cfg.state_dir.join("cache"))),
            code_version: SIM_CODE_VERSION.to_string(),
        };

        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;

        let state = Arc::new(DaemonState {
            runner,
            registry: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            wal,
            state_dir: cfg.state_dir.clone(),
            local_addr,
            metrics: ServedMetrics::new(),
            drainer_count: cfg.drainers.max(1),
            started_us: obs::clock::now_micros(),
        });
        replay(&state, records);

        let accept = {
            let state = Arc::clone(&state);
            let stall = cfg.stall_accept;
            std::thread::spawn(move || accept_loop(listener, state, stall))
        };
        let drainers = (0..cfg.drainers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || drain_loop(state))
            })
            .collect();
        let metrics_pump = cfg.metrics_interval.filter(|s| *s > 0.0).map(|secs| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || metrics_loop(state, secs))
        });

        Ok(Server {
            state,
            accept: Some(accept),
            drainers,
            metrics_pump,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Initiates shutdown: stop accepting, let drainers finish their
    /// current sweep, leave still-queued submissions in the WAL for a
    /// `--resume` restart.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Waits for the accept loop and drainers to exit. Connection
    /// handler threads are detached; they notice the shutdown flag at
    /// their next frame and hang up.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for d in self.drainers.drain(..) {
            let _ = d.join();
        }
        if let Some(pump) = self.metrics_pump.take() {
            let _ = pump.join();
        }
    }
}

/// Rebuilds the registry and queue from WAL records, in order. A request
/// whose sweep never logged `done` (the daemon died while it was queued
/// or running) comes back `Queued`; its per-request journal then skips
/// the jobs that already completed. Telemetry trace lines are not
/// persisted, so a restarted daemon replays `done` requests without
/// them.
fn replay(state: &DaemonState, records: Vec<WalRecord>) {
    // `restore_phase` takes each request's own lock, so restores are
    // collected under the registry guard and applied after it drops —
    // one lock at a time (the C001 discipline). Order is preserved, and
    // each restore only touches its own request, so the final state is
    // identical to interleaved application.
    let mut registry = lock(&state.registry);
    let mut order: Vec<u64> = Vec::new();
    let mut restores: Vec<(Arc<RequestState>, ReqPhase)> = Vec::new();
    for record in records {
        match record {
            WalRecord::Submitted {
                key,
                kind,
                params,
                trace,
            } => {
                let req = registry
                    .entry(key)
                    .or_insert_with(|| Arc::new(RequestState::new(key, kind, params, trace)));
                restores.push((Arc::clone(req), ReqPhase::Queued));
                if !order.contains(&key) {
                    order.push(key);
                }
            }
            WalRecord::Done { key, info } => {
                if let Some(req) = registry.get(&key) {
                    restores.push((Arc::clone(req), ReqPhase::Done(info)));
                }
                order.retain(|k| *k != key);
            }
            WalRecord::Cancelled { key } => {
                if let Some(req) = registry.get(&key) {
                    restores.push((Arc::clone(req), ReqPhase::Cancelled));
                }
                order.retain(|k| *k != key);
            }
        }
    }
    drop(registry);
    for (req, phase) in restores {
        req.restore_phase(phase);
    }
    let mut queue = lock(&state.queue);
    queue.extend(order);
    if !queue.is_empty() {
        state.work.notify_all();
    }
}

fn accept_loop(
    listener: TcpListener,
    state: Arc<DaemonState>,
    stall_accept: Option<std::time::Duration>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(stall) = stall_accept {
                    // Chaos hook: a deliberately unresponsive acceptor.
                    std::thread::sleep(stall);
                }
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, state);
                });
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn drain_loop(state: Arc<DaemonState>) {
    loop {
        let key = {
            let mut queue = lock(&state.queue);
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(key) = queue.pop_front() {
                    state.metrics.queue_depth.set(queue.len() as i64);
                    break key;
                }
                queue = state
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        drain_one(&state, key);
    }
}

/// Executes one request's sweep on this drainer's own worker pool.
fn drain_one(state: &DaemonState, key: u64) {
    let Some(req) = lock(&state.registry).get(&key).cloned() else {
        return;
    };
    if !req.set_running() {
        return; // a cancel won the race, or a stale queue entry
    }
    let _request_span = obs::span("request");
    let _active = GaugeHold::new(state.metrics.active_drains.clone());
    let cells = match catalog::cells_for(&req.kind, &req.params) {
        Ok(cells) => cells,
        Err(e) => {
            // Submit validated this, so only a version-skewed WAL replay
            // can land here.
            state.metrics.requests_failed.inc();
            req.complete(Err(format!("catalog rejected request: {e}")), Vec::new());
            return;
        }
    };

    let journal = state.journal_path(key);
    let sup = Supervision {
        journal: Some(journal.clone()),
        resume: true,
        ..Supervision::default()
    };
    let observer = |p: JobProgress| {
        let frame = Json::object([
            ("stream", Json::from("progress")),
            ("req", Json::from(format_key(req.key))),
            ("index", Json::from(p.index)),
            ("total", Json::from(p.total)),
            ("label", Json::from(p.label)),
            ("ok", Json::from(p.ok)),
            ("cached", Json::from(p.cached)),
            ("journaled", Json::from(p.journaled)),
        ])
        .dump();
        req.broadcast(&frame);
    };

    let run = {
        let _sweep_span = obs::span("sweep");
        run_cells_observed(&cells, &state.runner, &sup, &observer)
    };
    let m = &run.manifest;
    state.metrics.jobs_total.add(m.jobs as u64);
    state.metrics.cache_hits.add(m.cache_hits as u64);
    state.metrics.cache_misses.add(m.cache_misses as u64);
    state.metrics.journal_hits.add(m.journal_hits as u64);
    if m.failed > 0 {
        // Keep the journal: completed jobs replay if the request is
        // retried after a restart.
        state.metrics.requests_failed.inc();
        req.complete(
            Err(format!("{} of {} jobs quarantined", m.failed, m.jobs)),
            Vec::new(),
        );
        return;
    }
    let trace_lines = if req.trace {
        trace_request(&cells, key)
    } else {
        Vec::new()
    };
    let info = DoneInfo {
        digest: m.results_digest,
        jobs: m.jobs,
        cache_hits: m.cache_hits,
        journal_hits: m.journal_hits,
        cache_misses: m.cache_misses,
        failed: m.failed,
    };
    let _ = state.wal.append(&WalRecord::Done {
        key,
        info: info.clone(),
    });
    let _ = std::fs::remove_file(&journal);
    state.metrics.requests_done.inc();
    req.complete(Ok(info), trace_lines);
}

/// Builds one `{"stream":"metrics",…}` frame: uptime, queue depth, and
/// the full registry snapshot.
fn metrics_frame(state: &DaemonState) -> String {
    Json::object([
        ("stream", Json::from("metrics")),
        (
            "uptime_ms",
            Json::from(obs::clock::now_micros().saturating_sub(state.started_us) / 1_000),
        ),
        ("metrics", obs::snapshot().to_json()),
    ])
    .dump()
}

/// Periodically broadcasts a metrics frame to every subscriber of every
/// live request (`--metrics-interval`). Sleeps in short steps so
/// shutdown is honored promptly.
fn metrics_loop(state: Arc<DaemonState>, interval_secs: f64) {
    let step = std::time::Duration::from_millis(50);
    let steps_per_tick = ((interval_secs / 0.05).ceil() as u64).max(1);
    loop {
        for _ in 0..steps_per_tick {
            if state.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(step);
        }
        let frame = metrics_frame(&state);
        let requests: Vec<Arc<RequestState>> = lock(&state.registry).values().cloned().collect();
        for req in requests {
            req.broadcast(&frame);
        }
    }
}

/// The `stats` response body: live daemon figures plus the full metrics
/// snapshot. `phase_latency_us` summarizes the per-span histograms the
/// drain and simulate paths feed (`span_us.<name>` series).
fn stats_pairs(state: &DaemonState) -> Vec<(String, Json)> {
    let queue_depth = lock(&state.queue).len();
    let phases: Vec<(ReqPhase, u64)> = {
        let registry = lock(&state.registry);
        registry.values().map(|r| (r.phase(), r.key)).collect()
    };
    let count = |want: &str| phases.iter().filter(|(p, _)| p.name() == want).count();
    let wal_bytes = std::fs::metadata(state.wal.path())
        .map(|m| m.len())
        .unwrap_or(0);
    let snapshot = obs::snapshot();
    let phase_latency: Vec<(String, Json)> = snapshot
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let phase = name.strip_prefix("span_us.")?;
            Some((
                phase.to_string(),
                Json::object([
                    ("count", Json::from(h.count())),
                    ("p50", Json::from(h.p50())),
                    ("p95", Json::from(h.p95())),
                    ("max", Json::from(h.max())),
                ]),
            ))
        })
        .collect();
    let m = &state.metrics;
    vec![
        ("role".to_string(), Json::from("server")),
        (
            "uptime_ms".to_string(),
            Json::from(obs::clock::now_micros().saturating_sub(state.started_us) / 1_000),
        ),
        ("queue_depth".to_string(), Json::from(queue_depth)),
        ("drainers".to_string(), Json::from(state.drainer_count)),
        (
            "active_drains".to_string(),
            Json::from(m.active_drains.get().max(0) as u64),
        ),
        (
            "requests".to_string(),
            Json::object([
                ("registered", Json::from(phases.len())),
                ("queued", Json::from(count("queued"))),
                ("running", Json::from(count("running"))),
                ("submitted", Json::from(m.requests_submitted.get())),
                ("done", Json::from(m.requests_done.get())),
                ("failed", Json::from(m.requests_failed.get())),
                ("cancelled", Json::from(m.requests_cancelled.get())),
            ]),
        ),
        (
            "jobs".to_string(),
            Json::object([
                ("total", Json::from(m.jobs_total.get())),
                ("cache_hits", Json::from(m.cache_hits.get())),
                ("cache_misses", Json::from(m.cache_misses.get())),
                ("journal_hits", Json::from(m.journal_hits.get())),
            ]),
        ),
        ("wal_bytes".to_string(), Json::from(wal_bytes)),
        ("phase_latency_us".to_string(), Json::Obj(phase_latency)),
        ("metrics".to_string(), snapshot.to_json()),
    ]
}

/// Runs one instrumented seed of the request's first cell and wraps its
/// event log as subscriber frames (capped at [`TRACE_LINE_CAP`]).
fn trace_request(cells: &[SimCell], key: u64) -> Vec<String> {
    let Some(cell) = cells.first() else {
        return Vec::new();
    };
    let mut scenario = cell.scenario.clone();
    scenario.seed = cell.seed_base;
    let mut run = scenario.build();
    run.run_until_secs(cell.duration);
    let jsonl = run.sim().trace().log().to_jsonl();
    let mut lines: Vec<String> = jsonl
        .lines()
        .take(TRACE_LINE_CAP)
        .map(|line| {
            Json::object([
                ("stream", Json::from("telemetry")),
                ("req", Json::from(format_key(key))),
                (
                    "data",
                    Json::parse(line).unwrap_or_else(|_| Json::from(line)),
                ),
            ])
            .dump()
        })
        .collect();
    let total = jsonl.lines().count();
    if total > TRACE_LINE_CAP {
        lines.push(
            Json::object([
                ("stream", Json::from("telemetry")),
                ("req", Json::from(format_key(key))),
                ("truncated", Json::from(total - TRACE_LINE_CAP)),
            ])
            .dump(),
        );
    }
    lines
}

fn handle_connection(stream: TcpStream, state: Arc<DaemonState>) -> std::io::Result<()> {
    net::configure(&stream)?;
    let deadline = net::ConnDeadline::new(net::CONN_LIFETIME);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        if state.shutdown.load(Ordering::SeqCst) || deadline.expired() {
            return Ok(());
        }
        // A fresh pacer per frame: idle waits between frames get the
        // idle budget, and a started frame must complete within the
        // frame budget (slow-loris defence, `FrameError::FrameTimeout`).
        let pacer = net::FramePacer::new();
        let payload = match read_frame_paced(&mut reader, &pacer) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),               // client hung up
            Err(FrameError::Io(_)) => return Ok(()), // idle timeout / transport death
            Err(e) => {
                // Framing errors are answered, then the connection is
                // dropped: the stream position is no longer trustworthy.
                let _ = write_frame(&mut writer, &err_response(&e.to_string()));
                return Ok(());
            }
        };
        let request = match Request::parse(&payload) {
            Ok(request) => request,
            Err(e) => {
                write_frame(&mut writer, &err_response(&e))?;
                continue;
            }
        };
        match request {
            Request::Submit {
                kind,
                params,
                trace,
            } => {
                let response = submit(&state, kind, params, trace);
                write_frame(&mut writer, &response)?;
            }
            Request::Status { req } => {
                // Registry and queue locks are taken one at a time (the
                // drain path does the same), so a stale position is
                // possible but a deadlock is not.
                let entry = lock(&state.registry).get(&req).cloned();
                let response = match entry {
                    Some(r) => {
                        let queue_position = lock(&state.queue).iter().position(|k| *k == req);
                        ok_response(r.status_json(queue_position))
                    }
                    None => err_response(&format!("unknown request {}", format_key(req))),
                };
                write_frame(&mut writer, &response)?;
            }
            Request::Stats => {
                write_frame(&mut writer, &ok_response(stats_pairs(&state)))?;
            }
            Request::Cancel { req } => {
                // Like Status: clone the entry out of the registry guard
                // before touching the request's own lock in `cancel()`.
                let entry = lock(&state.registry).get(&req).cloned();
                let response = match entry {
                    Some(r) => {
                        let cancelled = r.cancel();
                        if cancelled {
                            state.metrics.requests_cancelled.inc();
                            let _ = state.wal.append(&WalRecord::Cancelled { key: req });
                        }
                        ok_response([
                            ("req", Json::from(format_key(req))),
                            ("cancelled", Json::from(cancelled)),
                            ("phase", Json::from(r.phase().name())),
                        ])
                    }
                    None => err_response(&format!("unknown request {}", format_key(req))),
                };
                write_frame(&mut writer, &response)?;
            }
            Request::Subscribe { req } => {
                let Some(r) = lock(&state.registry).get(&req).cloned() else {
                    write_frame(
                        &mut writer,
                        &err_response(&format!("unknown request {}", format_key(req))),
                    )?;
                    continue;
                };
                let rx = r.subscribe();
                write_frame(
                    &mut writer,
                    &ok_response([
                        ("req", Json::from(format_key(req))),
                        ("stream", Json::from(true)),
                    ]),
                )?;
                // Stream until the request completes (sender dropped) or
                // the client goes away (write fails).
                for frame in rx {
                    write_frame(&mut writer, &frame)?;
                }
            }
            Request::Shards => {
                write_frame(
                    &mut writer,
                    &err_response("this daemon is not a shard front (run with --front)"),
                )?;
            }
            Request::Ping => {
                write_frame(&mut writer, &ok_response([("pong", Json::from(true))]))?;
            }
            Request::Shutdown => {
                write_frame(
                    &mut writer,
                    &ok_response([("shutting_down", Json::from(true))]),
                )?;
                writer.flush()?;
                state.begin_shutdown();
                return Ok(());
            }
        }
    }
}

/// Handles one `submit`: validate, dedup by content key, WAL, enqueue.
fn submit(state: &DaemonState, kind: String, params: Json, trace: bool) -> String {
    if let Err(e) = catalog::cells_for(&kind, &params) {
        return err_response(&e);
    }
    let key = request_key(&kind, &params);
    let mut registry = lock(&state.registry);
    match registry.get(&key).cloned() {
        None => {
            let req = Arc::new(RequestState::new(key, kind.clone(), params.clone(), trace));
            registry.insert(key, req);
            drop(registry);
            state.metrics.requests_submitted.inc();
            let _ = state.wal.append(&WalRecord::Submitted {
                key,
                kind,
                params,
                trace,
            });
            state.enqueue(key);
            ok_response([
                ("req", Json::from(format_key(key))),
                ("dedup", Json::from(false)),
                ("phase", Json::from("queued")),
            ])
        }
        Some(req) => {
            drop(registry);
            if req.requeue() {
                // A cancelled request revived: log a fresh submission so
                // WAL replay re-enqueues it, and queue it again.
                state.metrics.requests_submitted.inc();
                let _ = state.wal.append(&WalRecord::Submitted {
                    key,
                    kind: req.kind.clone(),
                    params: req.params.clone(),
                    trace: req.trace,
                });
                state.enqueue(key);
                return ok_response([
                    ("req", Json::from(format_key(key))),
                    ("dedup", Json::from(true)),
                    ("phase", Json::from("queued")),
                ]);
            }
            let phase = req.phase();
            let mut pairs = vec![
                ("req".to_string(), Json::from(format_key(key))),
                ("dedup".to_string(), Json::from(true)),
                ("phase".to_string(), Json::from(phase.name())),
            ];
            if let ReqPhase::Done(info) = &phase {
                pairs.push(("digest".to_string(), Json::from(format_key(info.digest))));
            }
            ok_response(pairs)
        }
    }
}
