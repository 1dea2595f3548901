//! The shard front: one daemon that spawns, supervises, and routes to a
//! ring of per-shard worker daemons (`liteworp-served --front`).
//!
//! # Topology
//!
//! The front listens on the public address and owns N worker processes
//! (shards), each a full plain daemon — own engine pool, result cache,
//! per-request journals, request WAL — under
//! `state_dir/shard-<id>/`. Submits route to `key % N` (ring successor
//! when the home shard is out), so the same content-addressed request
//! always lands on the same shard while the ring is healthy. A local
//! in-process [`Server`] under `state_dir/local/` is the fallback of
//! last resort: when no shard can take a request the front degrades
//! onto it — reduced throughput, but work is never refused.
//!
//! # Supervision
//!
//! A supervisor thread probes every `Up` shard each interval: child
//! exit status (crash detection) plus a protocol ping over a *fresh*
//! connection (catches stalled accept loops, not just dead processes).
//! A failed shard walks the ladder `Up → Degraded → (Up | Quarantined)`:
//! restarts are paced by the runner's seeded capped-exponential backoff
//! ([`liteworp_runner::supervisor::RestartBudget`]) and bounded by
//! `max_restarts`; a restarted worker adopts its state dir with
//! `--resume`, so it finishes exactly the sweeps it had accepted. When
//! the budget is exhausted the shard is quarantined and its orphaned
//! (not-yet-done) requests are rerouted — in deterministic key order —
//! to ring survivors or the local engine. Because sweep digests are
//! pure functions of request content and seeds, a rerouted sweep drains
//! to the same digest as an uninterrupted one.
//!
//! # Lock discipline
//!
//! Registry and shard-slot locks are taken one at a time, always as
//! statement-scoped temporaries, and never across a socket operation —
//! the C001/C002 lint rules hold on every path here.

use crate::frame::{read_frame, read_frame_paced, write_frame, FrameError};
use crate::net;
use crate::proto::{err_response, format_key, ok_response, request_key, Request};
use crate::server::{Server, ServerConfig};
use crate::shard::{self, ShardHealth, ShardSlot, WorkerSpawn};
use liteworp_bench::catalog;
use liteworp_obs as obs;
use liteworp_runner::cache::atomic_write;
use liteworp_runner::supervisor::RestartBudget;
use liteworp_runner::Json;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How a front instance is configured.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Public listen address; port 0 picks a free port.
    pub addr: String,
    /// Root state directory (`shard-<id>/` and `local/` live under it).
    pub state_dir: PathBuf,
    /// Number of worker shards to spawn.
    pub shards: usize,
    /// How worker processes are launched.
    pub spawn: WorkerSpawn,
    /// Restarts allowed per shard before it is quarantined.
    pub max_restarts: u32,
    /// Seed for the deterministic restart backoff schedule.
    pub seed: u64,
    /// How often the supervisor probes shard liveness.
    pub ping_interval: Duration,
    /// Deadline per liveness probe (connect / write / read each).
    pub ping_timeout: Duration,
    /// Adopt existing shard state dirs (workers start with `--resume`).
    pub resume: bool,
}

impl FrontConfig {
    /// Defaults: loopback ephemeral port, 2 shards, 2 restarts per
    /// shard, 500 ms probe interval with a 2 s probe deadline.
    pub fn new(state_dir: impl Into<PathBuf>, exe: impl Into<PathBuf>) -> FrontConfig {
        FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state_dir.into(),
            shards: 2,
            spawn: WorkerSpawn {
                exe: exe.into(),
                jobs: None,
                drainers: 2,
                no_cache: false,
            },
            max_restarts: 2,
            seed: 42,
            ping_interval: Duration::from_millis(500),
            ping_timeout: Duration::from_secs(2),
            resume: false,
        }
    }
}

/// Where a routed request currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Worker shard by ring index.
    Shard(usize),
    /// The front's in-process fallback engine.
    Local,
}

fn target_json(target: Target) -> Json {
    match target {
        Target::Shard(id) => Json::from(id),
        Target::Local => Json::from("local"),
    }
}

/// The front's record of one submitted request: enough to re-submit it
/// anywhere (content-addressed identity) plus its current owner.
struct RoutedReq {
    kind: String,
    params: Json,
    trace: bool,
    target: Target,
    /// Printed digest once a `done` phase has been observed; lets the
    /// front answer status for requests whose owner is gone.
    done_digest: Option<String>,
}

struct FrontMetrics {
    submits: obs::Counter,
    submits_local: obs::Counter,
    reroutes: obs::Counter,
    restarts: obs::Counter,
    ping_failures: obs::Counter,
    shards_up: obs::Gauge,
}

impl FrontMetrics {
    fn new() -> FrontMetrics {
        FrontMetrics {
            submits: obs::counter("front.submits"),
            submits_local: obs::counter("front.submits_local"),
            reroutes: obs::counter("front.reroutes"),
            restarts: obs::counter("front.restarts"),
            ping_failures: obs::counter("front.ping_failures"),
            shards_up: obs::gauge("front.shards_up"),
        }
    }
}

struct FrontState {
    shards: Vec<ShardSlot>,
    registry: Mutex<BTreeMap<u64, RoutedReq>>,
    shutdown: AtomicBool,
    /// The front's own listen address.
    local_addr: SocketAddr,
    /// The in-process fallback daemon's listen address.
    fallback_addr: SocketAddr,
    metrics: FrontMetrics,
    state_dir: PathBuf,
    started_us: u64,
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FrontState {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running shard front (in-process handle, used by the binary and by
/// integration tests).
pub struct Front {
    state: Arc<FrontState>,
    accept: Option<std::thread::JoinHandle<()>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    local: Option<Server>,
}

impl Front {
    /// Starts the fallback engine, spawns the worker ring, binds the
    /// public socket, and starts the accept and supervisor threads.
    pub fn start(cfg: FrontConfig) -> std::io::Result<Front> {
        obs::enable();
        std::fs::create_dir_all(&cfg.state_dir)?;

        // The never-dying last-resort shard: a full in-process daemon on
        // a loopback port. Started eagerly so degradation never races a
        // lazy bring-up.
        let local = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: cfg.spawn.jobs,
            state_dir: cfg.state_dir.join("local"),
            drainers: cfg.spawn.drainers,
            resume: cfg.resume,
            no_cache: cfg.spawn.no_cache,
            metrics_interval: None,
            stall_accept: None,
        })?;

        let mut slots = Vec::new();
        let mut children: Vec<Option<Child>> = Vec::new();
        for id in 0..cfg.shards.max(1) {
            let dir = cfg.state_dir.join(format!("shard-{id}"));
            let (child, addr) = shard::spawn_worker(&cfg.spawn, &dir, cfg.resume)?;
            slots.push(ShardSlot::new(id, dir, addr, child.id()));
            children.push(Some(child));
        }
        let budgets: Vec<RestartBudget> = (0..slots.len())
            .map(|id| shard::restart_budget(cfg.seed, id, cfg.max_restarts))
            .collect();

        let listener = TcpListener::bind(&cfg.addr)?;
        let front_addr = listener.local_addr()?;

        let state = Arc::new(FrontState {
            shards: slots,
            registry: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            local_addr: front_addr,
            fallback_addr: local.local_addr(),
            metrics: FrontMetrics::new(),
            state_dir: cfg.state_dir.clone(),
            started_us: obs::clock::now_micros(),
        });
        publish(&state);

        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(listener, state))
        };
        let supervisor = {
            let state = Arc::clone(&state);
            let spawn = cfg.spawn.clone();
            let (interval, timeout) = (cfg.ping_interval, cfg.ping_timeout);
            std::thread::spawn(move || {
                supervise(state, children, budgets, spawn, interval, timeout)
            })
        };

        Ok(Front {
            state,
            accept: Some(accept),
            supervisor: Some(supervisor),
            local: Some(local),
        })
    }

    /// The front's bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Initiates shutdown: the supervisor shuts the worker ring down
    /// (gracefully where possible) and the accept loop stops.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Waits for the accept loop, the supervisor (which reaps the
    /// workers), and the local fallback engine to finish.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        if let Some(local) = self.local.take() {
            local.shutdown();
            local.join();
        }
    }
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// Ring routing: the home shard is `key % N`; a non-routable home falls
/// through to its ring successors, then to the local engine. `exclude`
/// drops one shard from consideration (the one that just failed).
fn pick_target(state: &FrontState, key: u64, exclude: Option<usize>) -> Target {
    let n = state.shards.len();
    if n > 0 {
        let home = (key % n as u64) as usize;
        for off in 0..n {
            let id = (home + off) % n;
            if exclude == Some(id) {
                continue;
            }
            if state.shards[id].routable_addr().is_some() {
                return Target::Shard(id);
            }
        }
    }
    Target::Local
}

fn target_addr(state: &FrontState, target: Target) -> Option<SocketAddr> {
    match target {
        Target::Local => Some(state.fallback_addr),
        Target::Shard(id) => state.shards[id].routable_addr(),
    }
}

fn set_target(state: &FrontState, key: u64, target: Target) {
    if let Some(r) = lock(&state.registry).get_mut(&key) {
        r.target = target;
    }
}

/// Records an observed `done` digest so the front can answer status for
/// this request even after its owner shard is gone.
fn remember_done(state: &FrontState, key: u64, resp: &Json) {
    if resp.get("phase").and_then(Json::as_str) != Some("done") {
        return;
    }
    let Some(digest) = resp.get("digest").and_then(Json::as_str) else {
        return;
    };
    if let Some(r) = lock(&state.registry).get_mut(&key) {
        r.done_digest = Some(digest.to_string());
    }
}

fn submit_payload(kind: &str, params: &Json, trace: bool) -> String {
    Json::object([
        ("op", Json::from("submit")),
        ("kind", Json::from(kind)),
        ("params", params.clone()),
        ("trace", Json::from(trace)),
    ])
    .dump()
}

/// Overrides/appends fields on a worker response before relaying it.
fn with_fields(resp: Json, extra: Vec<(String, Json)>) -> String {
    match resp {
        Json::Obj(mut pairs) => {
            for (key, value) in extra {
                if let Some(slot) = pairs.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    pairs.push((key, value));
                }
            }
            Json::Obj(pairs).dump()
        }
        other => other.dump(),
    }
}

// ---------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------

/// Handles one routed `submit`: validate, register (dedup is decided by
/// the *front's* registry — a shard that restarted or inherited a
/// reroute has no memory of earlier submissions), then walk the forward
/// ladder owner → ring successors → local engine. Work is never
/// refused while the local engine stands.
fn front_submit(state: &FrontState, kind: String, params: Json, trace: bool) -> String {
    if let Err(e) = catalog::cells_for(&kind, &params) {
        return err_response(&e);
    }
    let _route_span = obs::span("route");
    let key = request_key(&kind, &params);
    let preferred = pick_target(state, key, None);
    let (mut target, dedup) = {
        let mut registry = lock(&state.registry);
        match registry.entry(key) {
            Entry::Occupied(occupied) => (occupied.get().target, true),
            Entry::Vacant(vacant) => {
                vacant.insert(RoutedReq {
                    kind: kind.clone(),
                    params: params.clone(),
                    trace,
                    target: preferred,
                    done_digest: None,
                });
                (preferred, false)
            }
        }
    };
    state.metrics.submits.inc();
    // A request owned by a quarantined shard is re-homed up front; one
    // owned by a merely degraded shard stays put (the worker resumes it).
    if let Target::Shard(id) = target {
        if state.shards[id].snapshot().health == ShardHealth::Quarantined {
            target = pick_target(state, key, Some(id));
            set_target(state, key, target);
        }
    }
    let payload = submit_payload(&kind, &params, trace);
    let mut attempts = 0usize;
    loop {
        let forwarded = match target_addr(state, target) {
            Some(addr) => shard::forward(addr, &payload),
            None => Err("shard not routable".to_string()),
        };
        match forwarded {
            Ok(resp) => {
                if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                    // The worker rejected a validated submit — relay the
                    // error verbatim rather than masking it.
                    return resp.dump();
                }
                if target == Target::Local {
                    state.metrics.submits_local.inc();
                }
                set_target(state, key, target);
                remember_done(state, key, &resp);
                let shard_dedup = resp.get("dedup").and_then(Json::as_bool).unwrap_or(false);
                return with_fields(
                    resp,
                    vec![
                        ("dedup".to_string(), Json::from(dedup || shard_dedup)),
                        ("shard".to_string(), target_json(target)),
                    ],
                );
            }
            Err(e) => {
                if target == Target::Local {
                    return err_response(&format!("local fallback engine failed: {e}"));
                }
                attempts += 1;
                state.metrics.reroutes.inc();
                if let Target::Shard(id) = target {
                    state.shards[id].add_reroutes(1);
                }
                target = match target {
                    Target::Shard(id) if attempts < state.shards.len() => {
                        pick_target(state, key, Some(id))
                    }
                    _ => Target::Local,
                };
                set_target(state, key, target);
            }
        }
    }
}

fn synthesized_done(key: u64, kind: &str, digest: &str) -> String {
    ok_response([
        ("req", Json::from(format_key(key))),
        ("kind", Json::from(kind)),
        ("phase", Json::from("done")),
        ("digest", Json::from(digest)),
        ("synthesized", Json::from(true)),
    ])
}

fn synthesized_queued(key: u64, kind: &str, target: Target) -> String {
    ok_response([
        ("req", Json::from(format_key(key))),
        ("kind", Json::from(kind)),
        ("phase", Json::from("queued")),
        ("shard", target_json(target)),
        ("degraded", Json::from(true)),
    ])
}

/// Handles one routed `status`. The path self-heals: an owner shard
/// that does not know the request (it restarted without the WAL record,
/// or a reroute never landed) gets the submit re-planted, and a shard
/// that is unreachable is answered from the front's own knowledge —
/// the cached done digest, or a synthesized `queued` the client can
/// keep polling against.
fn front_status(state: &FrontState, req: u64) -> String {
    let known = {
        let registry = lock(&state.registry);
        registry.get(&req).map(|r| {
            (
                r.target,
                r.done_digest.clone(),
                r.kind.clone(),
                r.params.clone(),
                r.trace,
            )
        })
    };
    let Some((target, done, kind, params, trace)) = known else {
        return err_response(&format!("unknown request {}", format_key(req)));
    };
    if let Some(digest) = &done {
        // Terminal and remembered: answer locally, no forwarding needed.
        return synthesized_done(req, &kind, digest);
    }
    let addr = target_addr(state, target);
    let payload = Json::object([
        ("op", Json::from("status")),
        ("req", Json::from(format_key(req))),
    ])
    .dump();
    let forwarded = match addr {
        Some(a) => shard::forward(a, &payload),
        None => Err("shard not routable".to_string()),
    };
    match forwarded {
        Ok(resp) if resp.get("ok").and_then(Json::as_bool) == Some(true) => {
            remember_done(state, req, &resp);
            with_fields(resp, vec![("shard".to_string(), target_json(target))])
        }
        Ok(_shard_does_not_know_it) => {
            if let Some(a) = addr {
                let _ = shard::forward(a, &submit_payload(&kind, &params, trace));
            }
            synthesized_queued(req, &kind, target)
        }
        Err(_) => synthesized_queued(req, &kind, target),
    }
}

/// Handles one routed `cancel`: forwarded to the owner; an unreachable
/// owner answers `cancelled: false` (the request is still safe — it
/// either drains on the restarted worker or is rerouted).
fn front_cancel(state: &FrontState, req: u64) -> String {
    let target = {
        let registry = lock(&state.registry);
        registry.get(&req).map(|r| r.target)
    };
    let Some(target) = target else {
        return err_response(&format!("unknown request {}", format_key(req)));
    };
    let payload = Json::object([
        ("op", Json::from("cancel")),
        ("req", Json::from(format_key(req))),
    ])
    .dump();
    let forwarded = match target_addr(state, target) {
        Some(a) => shard::forward(a, &payload),
        None => Err("shard not routable".to_string()),
    };
    match forwarded {
        Ok(resp) if resp.get("ok").and_then(Json::as_bool) == Some(true) => {
            with_fields(resp, vec![("shard".to_string(), target_json(target))])
        }
        _ => ok_response([
            ("req", Json::from(format_key(req))),
            ("cancelled", Json::from(false)),
            ("shard", target_json(target)),
            ("degraded", Json::from(true)),
        ]),
    }
}

/// Proxies a subscription stream from the owner shard to the client.
/// The relay ends at the stream's final frame (`"stream":"done"`), when
/// either side hangs up, or on a worker death mid-stream (the client
/// re-subscribes and lands on the new owner).
fn front_subscribe(state: &FrontState, writer: &mut TcpStream, req: u64) -> std::io::Result<()> {
    let target = {
        let registry = lock(&state.registry);
        registry.get(&req).map(|r| r.target)
    };
    let Some(target) = target else {
        return write_frame(
            writer,
            &err_response(&format!("unknown request {}", format_key(req))),
        );
    };
    let Some(addr) = target_addr(state, target) else {
        return write_frame(
            writer,
            &err_response("owner shard is not routable; retry subscribe shortly"),
        );
    };
    let upstream = match TcpStream::connect_timeout(&addr, shard::FORWARD_TIMEOUT) {
        Ok(s) => s,
        Err(e) => return write_frame(writer, &err_response(&format!("shard connect: {e}"))),
    };
    let mut up_writer = upstream.try_clone()?;
    let payload = Json::object([
        ("op", Json::from("subscribe")),
        ("req", Json::from(format_key(req))),
    ])
    .dump();
    if write_frame(&mut up_writer, &payload).is_err() {
        return write_frame(writer, &err_response("shard hung up on subscribe"));
    }
    let mut up_reader = BufReader::new(upstream);
    loop {
        match read_frame(&mut up_reader) {
            Ok(Some(frame)) => {
                write_frame(writer, &frame)?;
                let done = Json::parse(&frame)
                    .ok()
                    .map(|j| {
                        j.get("stream").and_then(Json::as_str) == Some("done")
                            || j.get("ok").and_then(Json::as_bool) == Some(false)
                    })
                    .unwrap_or(false);
                if done {
                    return Ok(());
                }
            }
            Ok(None) | Err(_) => return Ok(()),
        }
    }
}

fn shards_json(state: &FrontState) -> Json {
    Json::Arr(state.shards.iter().map(|s| s.to_json()).collect())
}

/// The front's `stats` body: fabric health first (the per-shard block
/// the smoke scripts and load generator assert on), then the metrics
/// snapshot.
fn front_stats_pairs(state: &FrontState) -> Vec<(String, Json)> {
    let (registered, done_known) = {
        let registry = lock(&state.registry);
        let done = registry
            .values()
            .filter(|r| r.done_digest.is_some())
            .count();
        (registry.len(), done)
    };
    let up = state
        .shards
        .iter()
        .filter(|s| s.snapshot().health == ShardHealth::Up)
        .count();
    let m = &state.metrics;
    vec![
        ("role".to_string(), Json::from("front")),
        (
            "uptime_ms".to_string(),
            Json::from(obs::clock::now_micros().saturating_sub(state.started_us) / 1_000),
        ),
        ("shards_total".to_string(), Json::from(state.shards.len())),
        ("shards_up".to_string(), Json::from(up)),
        (
            "requests".to_string(),
            Json::object([
                ("registered", Json::from(registered)),
                ("done_known", Json::from(done_known)),
                ("submitted", Json::from(m.submits.get())),
                ("local", Json::from(m.submits_local.get())),
            ]),
        ),
        ("restarts_total".to_string(), Json::from(m.restarts.get())),
        ("reroutes_total".to_string(), Json::from(m.reroutes.get())),
        (
            "ping_failures_total".to_string(),
            Json::from(m.ping_failures.get()),
        ),
        ("shards".to_string(), shards_json(state)),
        (
            "local".to_string(),
            Json::object([("addr", Json::from(state.fallback_addr.to_string()))]),
        ),
        ("metrics".to_string(), obs::snapshot().to_json()),
    ]
}

// ---------------------------------------------------------------------
// Connection plumbing
// ---------------------------------------------------------------------

fn accept_loop(listener: TcpListener, state: Arc<FrontState>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
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

fn handle_connection(stream: TcpStream, state: Arc<FrontState>) -> std::io::Result<()> {
    net::configure(&stream)?;
    let deadline = net::ConnDeadline::new(net::CONN_LIFETIME);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        if state.shutdown.load(Ordering::SeqCst) || deadline.expired() {
            return Ok(());
        }
        let pacer = net::FramePacer::new();
        let payload = match read_frame_paced(&mut reader, &pacer) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),               // client hung up
            Err(FrameError::Io(_)) => return Ok(()), // idle timeout / transport death
            Err(e) => {
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
                let response = front_submit(&state, kind, params, trace);
                write_frame(&mut writer, &response)?;
            }
            Request::Status { req } => {
                let response = front_status(&state, req);
                write_frame(&mut writer, &response)?;
            }
            Request::Cancel { req } => {
                let response = front_cancel(&state, req);
                write_frame(&mut writer, &response)?;
            }
            Request::Subscribe { req } => {
                front_subscribe(&state, &mut writer, req)?;
            }
            Request::Stats => {
                write_frame(&mut writer, &ok_response(front_stats_pairs(&state)))?;
            }
            Request::Shards => {
                write_frame(&mut writer, &ok_response([("shards", shards_json(&state))]))?;
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

// ---------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------

/// Writes the current fabric topology to `state_dir/shards.json` so
/// scripts and operators can find worker pids/addresses without a
/// protocol client. Best-effort; refreshed on every health change.
fn publish(state: &FrontState) {
    let manifest = Json::object([
        ("front", Json::from(state.local_addr.to_string())),
        ("local", Json::from(state.fallback_addr.to_string())),
        ("shards", shards_json(state)),
    ])
    .dump();
    // Temp file + rename: scripts poll this file while the front may be
    // rewriting it, and must never see it empty or half written.
    let _ = atomic_write(
        &state.state_dir.join("shards.json"),
        (manifest + "\n").as_bytes(),
    );
}

fn update_up_gauge(state: &FrontState) {
    let up = state
        .shards
        .iter()
        .filter(|s| s.snapshot().health == ShardHealth::Up)
        .count();
    state.metrics.shards_up.set(up as i64);
}

fn reap(child_slot: &mut Option<Child>) {
    if let Some(mut child) = child_slot.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The supervisor loop: probe, restart within budget, quarantine and
/// reroute beyond it, and reap the worker ring on shutdown.
fn supervise(
    state: Arc<FrontState>,
    mut children: Vec<Option<Child>>,
    mut budgets: Vec<RestartBudget>,
    spawn: WorkerSpawn,
    ping_interval: Duration,
    ping_timeout: Duration,
) {
    update_up_gauge(&state);
    loop {
        // Sleep in short steps so shutdown is honored promptly.
        let step = Duration::from_millis(25);
        let mut slept = Duration::ZERO;
        while slept < ping_interval {
            if state.shutdown.load(Ordering::SeqCst) {
                shutdown_workers(&state, &mut children);
                return;
            }
            std::thread::sleep(step);
            slept += step;
        }
        for id in 0..state.shards.len() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let snap = state.shards[id].snapshot();
            if snap.health != ShardHealth::Up {
                continue;
            }
            let exited = match children[id].as_mut() {
                Some(child) => matches!(child.try_wait(), Ok(Some(_))),
                None => true,
            };
            let alive = !exited
                && snap
                    .addr
                    .map(|a| shard::ping(a, ping_timeout))
                    .unwrap_or(false);
            if alive {
                continue;
            }
            state.metrics.ping_failures.inc();
            eprintln!(
                "liteworp-served: shard {id} failed its liveness probe ({})",
                if exited {
                    "process exited"
                } else {
                    "unresponsive"
                }
            );
            state.shards[id].mark_degraded();
            publish(&state);
            update_up_gauge(&state);
            reap(&mut children[id]);
            restart_or_quarantine(
                &state,
                id,
                &mut children[id],
                &mut budgets[id],
                &spawn,
                ping_timeout,
            );
            publish(&state);
            update_up_gauge(&state);
        }
    }
}

/// Walks one degraded shard back up the ladder: seeded-backoff-paced
/// restarts (each adopting the shard's state dir with `--resume`) until
/// one answers a ping, or quarantine + deterministic reroute once the
/// budget is dry.
fn restart_or_quarantine(
    state: &Arc<FrontState>,
    id: usize,
    child_slot: &mut Option<Child>,
    budget: &mut RestartBudget,
    spawn: &WorkerSpawn,
    ping_timeout: Duration,
) {
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(pause_us) = budget.next_backoff_us() else {
            eprintln!(
                "liteworp-served: shard {id} exhausted its restart budget; quarantining and \
                 rerouting its requests"
            );
            state.shards[id].mark_quarantined();
            reroute_orphans(state, id);
            return;
        };
        std::thread::sleep(Duration::from_micros(pause_us));
        match shard::spawn_worker(spawn, &state.shards[id].state_dir, true) {
            Ok((child, addr)) => {
                if shard::ping(addr, ping_timeout) {
                    let pid = child.id();
                    state.shards[id].mark_restarted(addr, pid);
                    state.metrics.restarts.inc();
                    *child_slot = Some(child);
                    eprintln!(
                        "liteworp-served: shard {id} restarted (pid {pid}, {} restart(s) used)",
                        budget.used()
                    );
                    return;
                }
                let mut child = child;
                let _ = child.kill();
                let _ = child.wait();
            }
            Err(e) => eprintln!("liteworp-served: shard {id} restart failed: {e}"),
        }
    }
}

/// Rerouting at quarantine: every not-yet-done request owned by the
/// dead shard is re-submitted to a survivor (ring successor) or the
/// local engine. The registry is a `BTreeMap`, so orphans reroute in
/// key order — deterministic for a given registry state. Forwarding is
/// best-effort: a reroute that does not land is re-planted by the
/// self-healing status path on the client's next poll.
fn reroute_orphans(state: &Arc<FrontState>, dead: usize) {
    let orphans: Vec<(u64, String, Json, bool)> = {
        let registry = lock(&state.registry);
        registry
            .iter()
            .filter(|(_, r)| r.target == Target::Shard(dead) && r.done_digest.is_none())
            .map(|(k, r)| (*k, r.kind.clone(), r.params.clone(), r.trace))
            .collect()
    };
    if orphans.is_empty() {
        return;
    }
    eprintln!(
        "liteworp-served: rerouting {} orphaned request(s) off shard {dead}",
        orphans.len()
    );
    for (key, kind, params, trace) in orphans {
        let target = pick_target(state, key, Some(dead));
        set_target(state, key, target);
        state.metrics.reroutes.inc();
        state.shards[dead].add_reroutes(1);
        if target == Target::Local {
            state.metrics.submits_local.inc();
        }
        let payload = submit_payload(&kind, &params, trace);
        if let Some(addr) = target_addr(state, target) {
            let _ = shard::forward(addr, &payload);
        }
    }
}

/// Shuts the worker ring down: graceful protocol shutdown where the
/// worker still answers, SIGKILL otherwise, then reap every child.
fn shutdown_workers(state: &FrontState, children: &mut [Option<Child>]) {
    for (slot, child_slot) in state.shards.iter().zip(children.iter_mut()) {
        let addr = slot.snapshot().addr;
        if let Some(mut child) = child_slot.take() {
            let graceful = addr
                .map(|a| shard::forward(a, r#"{"op":"shutdown"}"#).is_ok())
                .unwrap_or(false);
            if !graceful {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}
