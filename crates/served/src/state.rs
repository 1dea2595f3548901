//! Daemon-side request registry: per-request lifecycle state, subscriber
//! fan-out, and the write-ahead request log that makes submissions
//! survive a daemon crash.
//!
//! A request is identified by its content-addressed key (see
//! [`crate::proto::request_key`]) and moves through
//! `Queued → Running → Done/Failed`, with `Queued → Cancelled` (and back
//! to `Queued` on re-submit) as the only other edges. Subscribers attach
//! an [`std::sync::mpsc`] sender to the request; the attach-vs-complete
//! race is serialized by the request's mutex — completion takes the
//! subscriber list under the lock, flushes the stored telemetry lines
//! and the final frame, and drops the senders so each subscriber's
//! receiver disconnects and its stream ends.

use crate::proto::{format_key, parse_key};
use liteworp_runner::append_log::AppendLog;
use liteworp_runner::Json;
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};

/// Result summary of a finished sweep, as recorded in the WAL and
/// reported by `status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneInfo {
    /// The sweep's order-sensitive `results_digest`.
    pub digest: u64,
    /// Total jobs in the sweep.
    pub jobs: usize,
    /// Jobs answered from the shared result cache.
    pub cache_hits: usize,
    /// Jobs replayed from the request's resume journal.
    pub journal_hits: usize,
    /// Jobs that executed a simulation.
    pub cache_misses: usize,
    /// Jobs quarantined after exhausting retries.
    pub failed: usize,
}

/// Where a request is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum ReqPhase {
    /// Accepted, waiting for a drainer.
    Queued,
    /// A drainer is executing the sweep.
    Running,
    /// The sweep drained; all jobs succeeded.
    Done(DoneInfo),
    /// Cancelled while still queued. Re-submitting requeues it.
    Cancelled,
    /// The sweep drained but quarantined jobs or hit a daemon-side
    /// error; carries the reason.
    Failed(String),
}

impl ReqPhase {
    /// Phase name as reported on the wire.
    pub fn name(&self) -> &'static str {
        match self {
            ReqPhase::Queued => "queued",
            ReqPhase::Running => "running",
            ReqPhase::Done(_) => "done",
            ReqPhase::Cancelled => "cancelled",
            ReqPhase::Failed(_) => "failed",
        }
    }

    /// Whether the phase is terminal for the current submission
    /// (`Cancelled` counts: only a fresh submit revives the request).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ReqPhase::Done(_) | ReqPhase::Cancelled | ReqPhase::Failed(_)
        )
    }
}

struct ReqInner {
    phase: ReqPhase,
    subs: Vec<mpsc::Sender<String>>,
    trace_lines: Vec<String>,
    /// Obs-clock reading of the (latest) submission, for `age_ms`.
    submitted_us: u64,
}

/// One registered request: immutable identity plus mutex-guarded
/// lifecycle state.
pub struct RequestState {
    /// Content-addressed request key.
    pub key: u64,
    /// Catalog kind.
    pub kind: String,
    /// Parameter object of the first submission.
    pub params: Json,
    /// Whether the first submission asked for a telemetry trace.
    pub trace: bool,
    inner: Mutex<ReqInner>,
}

impl RequestState {
    /// A freshly submitted (queued) request.
    pub fn new(key: u64, kind: String, params: Json, trace: bool) -> Self {
        RequestState {
            key,
            kind,
            params,
            trace,
            inner: Mutex::new(ReqInner {
                phase: ReqPhase::Queued,
                subs: Vec::new(),
                trace_lines: Vec::new(),
                submitted_us: liteworp_obs::clock::now_micros(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ReqInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A snapshot of the current phase.
    pub fn phase(&self) -> ReqPhase {
        self.lock().phase.clone()
    }

    /// Restores a phase loaded from the WAL (startup only).
    pub fn restore_phase(&self, phase: ReqPhase) {
        self.lock().phase = phase;
    }

    /// `Queued → Running`. Returns false (and does nothing) from any
    /// other phase — in particular a cancel that won the race.
    pub fn set_running(&self) -> bool {
        let mut inner = self.lock();
        if inner.phase == ReqPhase::Queued {
            inner.phase = ReqPhase::Running;
            true
        } else {
            false
        }
    }

    /// `Queued → Cancelled`. Running or finished sweeps are unaffected;
    /// returns whether the cancel took. Subscribers of a cancelled
    /// request get its final frame and their streams end.
    pub fn cancel(&self) -> bool {
        let mut inner = self.lock();
        if inner.phase != ReqPhase::Queued {
            return false;
        }
        inner.phase = ReqPhase::Cancelled;
        let frame = final_frame(self.key, &inner.phase);
        for sub in inner.subs.drain(..) {
            let _ = sub.send(frame.clone());
        }
        true
    }

    /// `Cancelled → Queued` (a duplicate submit reviving the request).
    /// Returns whether the transition happened.
    pub fn requeue(&self) -> bool {
        let mut inner = self.lock();
        if inner.phase == ReqPhase::Cancelled {
            inner.phase = ReqPhase::Queued;
            inner.trace_lines.clear();
            inner.submitted_us = liteworp_obs::clock::now_micros();
            true
        } else {
            false
        }
    }

    /// Attaches a subscriber. On a live request the receiver sees
    /// progress frames as they happen; on a terminal one it is served
    /// the stored telemetry lines and the final frame immediately.
    /// Either way the stream ends when the sender side is dropped.
    pub fn subscribe(&self) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        let mut inner = self.lock();
        if inner.phase.is_terminal() {
            for line in &inner.trace_lines {
                let _ = tx.send(line.clone());
            }
            let _ = tx.send(final_frame(self.key, &inner.phase));
            // tx drops here: the replayed stream ends immediately.
        } else {
            inner.subs.push(tx);
        }
        rx
    }

    /// Sends one frame to every live subscriber, pruning the hung-up.
    pub fn broadcast(&self, frame: &str) {
        self.lock()
            .subs
            .retain(|sub| sub.send(frame.to_string()).is_ok());
    }

    /// Finishes the request: records the terminal phase and telemetry
    /// lines, then flushes both to every subscriber and hangs them up.
    pub fn complete(&self, outcome: Result<DoneInfo, String>, trace_lines: Vec<String>) {
        let mut inner = self.lock();
        inner.phase = match outcome {
            Ok(info) => ReqPhase::Done(info),
            Err(reason) => ReqPhase::Failed(reason),
        };
        inner.trace_lines = trace_lines;
        let frame = final_frame(self.key, &inner.phase);
        let lines = inner.trace_lines.clone();
        for sub in inner.subs.drain(..) {
            for line in &lines {
                let _ = sub.send(line.clone());
            }
            let _ = sub.send(frame.clone());
        }
    }

    /// The `status` response body for this request (without the `ok`
    /// field). `queue_position` is the request's 0-based place in the
    /// drain queue, passed in by the server for queued requests only.
    pub fn status_json(&self, queue_position: Option<usize>) -> Vec<(String, Json)> {
        let inner = self.lock();
        let age_us = liteworp_obs::clock::now_micros().saturating_sub(inner.submitted_us);
        let mut pairs = vec![
            ("req".to_string(), Json::from(format_key(self.key))),
            ("kind".to_string(), Json::from(self.kind.clone())),
            ("phase".to_string(), Json::from(inner.phase.name())),
            ("age_ms".to_string(), Json::from(age_us / 1_000)),
        ];
        if inner.phase == ReqPhase::Queued {
            if let Some(pos) = queue_position {
                pairs.push(("queue_position".to_string(), Json::from(pos)));
            }
        }
        match &inner.phase {
            ReqPhase::Done(info) => pairs.extend(done_pairs(info)),
            ReqPhase::Failed(reason) => {
                pairs.push(("reason".to_string(), Json::from(reason.clone())));
            }
            _ => {}
        }
        pairs
    }
}

fn done_pairs(info: &DoneInfo) -> Vec<(String, Json)> {
    vec![
        ("digest".to_string(), Json::from(format_key(info.digest))),
        ("jobs".to_string(), Json::from(info.jobs)),
        ("cache_hits".to_string(), Json::from(info.cache_hits)),
        ("journal_hits".to_string(), Json::from(info.journal_hits)),
        ("cache_misses".to_string(), Json::from(info.cache_misses)),
        ("failed".to_string(), Json::from(info.failed)),
    ]
}

/// The last frame of a subscription stream.
pub fn final_frame(key: u64, phase: &ReqPhase) -> String {
    let mut pairs = vec![
        ("stream".to_string(), Json::from("done")),
        ("req".to_string(), Json::from(format_key(key))),
        ("phase".to_string(), Json::from(phase.name())),
    ];
    match phase {
        ReqPhase::Done(info) => pairs.extend(done_pairs(info)),
        ReqPhase::Failed(reason) => {
            pairs.push(("reason".to_string(), Json::from(reason.clone())));
        }
        _ => {}
    }
    Json::Obj(pairs).dump()
}

/// One record of the request WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A request was accepted (written again when a cancelled request is
    /// requeued, so replay order reconstructs the final queue).
    Submitted {
        /// Request key.
        key: u64,
        /// Catalog kind.
        kind: String,
        /// Parameter object.
        params: Json,
        /// Trace flag.
        trace: bool,
    },
    /// A request's sweep drained successfully.
    Done {
        /// Request key.
        key: u64,
        /// Result summary.
        info: DoneInfo,
    },
    /// A queued request was cancelled.
    Cancelled {
        /// Request key.
        key: u64,
    },
}

impl WalRecord {
    fn to_json(&self) -> Json {
        match self {
            WalRecord::Submitted {
                key,
                kind,
                params,
                trace,
            } => Json::object([
                ("rec", Json::from("submitted")),
                ("key", Json::from(format_key(*key))),
                ("kind", Json::from(kind.clone())),
                ("params", params.clone()),
                ("trace", Json::from(*trace)),
            ]),
            WalRecord::Done { key, info } => {
                let mut pairs = vec![
                    ("rec".to_string(), Json::from("done")),
                    ("key".to_string(), Json::from(format_key(*key))),
                ];
                pairs.extend(done_pairs(info));
                Json::Obj(pairs)
            }
            WalRecord::Cancelled { key } => Json::object([
                ("rec", Json::from("cancelled")),
                ("key", Json::from(format_key(*key))),
            ]),
        }
    }

    fn from_json(json: &Json) -> Option<WalRecord> {
        let key = parse_key(json.get("key")?.as_str()?)?;
        match json.get("rec")?.as_str()? {
            "submitted" => Some(WalRecord::Submitted {
                key,
                kind: json.get("kind")?.as_str()?.to_string(),
                params: json.get("params").cloned().unwrap_or(Json::Null),
                trace: json.get("trace").and_then(Json::as_bool).unwrap_or(false),
            }),
            "done" => {
                let n = |k: &str| json.get(k)?.as_u64().map(|v| v as usize);
                Some(WalRecord::Done {
                    key,
                    info: DoneInfo {
                        digest: parse_key(json.get("digest")?.as_str()?)?,
                        jobs: n("jobs")?,
                        cache_hits: n("cache_hits")?,
                        journal_hits: n("journal_hits")?,
                        cache_misses: n("cache_misses")?,
                        failed: n("failed")?,
                    },
                })
            }
            "cancelled" => Some(WalRecord::Cancelled { key }),
            _ => None,
        }
    }
}

/// Append-only JSONL log of request lifecycle records: the record codec
/// on top of the shared [`AppendLog`]. Replaying it in order (last
/// record per key wins for phase; submit order builds the queue)
/// reconstructs the registry after a crash.
pub struct RequestWal {
    log: AppendLog,
}

impl RequestWal {
    /// Starts an empty WAL at `path`, atomically replacing any previous
    /// one.
    pub fn open(path: &Path) -> std::io::Result<RequestWal> {
        AppendLog::create(path, b"").map(|log| RequestWal { log })
    }

    /// Reopens the WAL at `path` (a missing file is an empty log) and
    /// returns it with every well-formed record, in order, plus the
    /// number of torn bytes cut from its end. A torn or malformed line —
    /// the daemon died mid-append — ends the replay; everything before
    /// it is kept and appends resume after clean bytes.
    pub fn recover(path: &Path) -> std::io::Result<(RequestWal, Vec<WalRecord>, u64)> {
        let mut records = Vec::new();
        let (log, torn_bytes) = AppendLog::recover(path, |line| {
            match Json::parse(line)
                .ok()
                .and_then(|j| WalRecord::from_json(&j))
            {
                Some(record) => records.push(record),
                None if line.trim().is_empty() => {}
                None => return Ok::<_, std::io::Error>(false),
            }
            Ok(true)
        })?;
        Ok((RequestWal { log }, records, torn_bytes))
    }

    /// Appends one record durably (fsync per record: a crash loses at
    /// most the torn line that recovery cuts off).
    pub fn append(&self, record: &WalRecord) -> std::io::Result<()> {
        self.log.append(&record.to_json())
    }

    /// The log's location.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> DoneInfo {
        DoneInfo {
            digest: 0xabcd,
            jobs: 4,
            cache_hits: 1,
            journal_hits: 0,
            cache_misses: 3,
            failed: 0,
        }
    }

    #[test]
    fn lifecycle_edges_are_enforced() {
        let req = RequestState::new(7, "fig9".into(), Json::Null, false);
        assert_eq!(req.phase(), ReqPhase::Queued);
        assert!(req.set_running());
        assert!(!req.set_running(), "running is not queued");
        assert!(!req.cancel(), "running sweeps cannot be cancelled");
        req.complete(Ok(info()), Vec::new());
        assert_eq!(req.phase(), ReqPhase::Done(info()));
        assert!(!req.requeue(), "done requests stay done");

        let req = RequestState::new(8, "fig9".into(), Json::Null, false);
        assert!(req.cancel());
        assert!(!req.set_running(), "cancel wins the race to the drainer");
        assert!(req.requeue());
        assert_eq!(req.phase(), ReqPhase::Queued);
    }

    #[test]
    fn status_reports_age_and_queue_position_while_queued() {
        let req = RequestState::new(11, "fig9".into(), Json::Null, false);
        let status = Json::Obj(req.status_json(Some(3)));
        assert!(status.get("age_ms").and_then(Json::as_u64).is_some());
        assert_eq!(status.get("queue_position").and_then(Json::as_u64), Some(3));

        // Once past Queued the position is gone, even if the caller
        // passes one; age keeps counting from the submission.
        req.set_running();
        let status = Json::Obj(req.status_json(Some(0)));
        assert_eq!(status.get("queue_position"), None);
        assert!(status.get("age_ms").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn late_subscribers_get_the_stored_stream() {
        let req = RequestState::new(9, "fig9".into(), Json::Null, true);
        req.set_running();
        req.complete(Ok(info()), vec!["line-a".into(), "line-b".into()]);
        let rx = req.subscribe();
        let got: Vec<String> = rx.iter().collect();
        assert_eq!(got.len(), 3, "two trace lines plus the final frame");
        assert_eq!(got[0], "line-a");
        let done = Json::parse(&got[2]).unwrap();
        assert_eq!(done.get("phase").and_then(Json::as_str), Some("done"));
        assert_eq!(done.get("stream").and_then(Json::as_str), Some("done"));
    }

    #[test]
    fn live_subscribers_see_broadcasts_then_hang_up() {
        let req = RequestState::new(10, "fig9".into(), Json::Null, false);
        let rx = req.subscribe();
        req.broadcast("progress-1");
        req.set_running();
        req.broadcast("progress-2");
        req.complete(Err("boom".into()), Vec::new());
        let got: Vec<String> = rx.iter().collect(); // iter ends: sender dropped
        assert_eq!(got[0], "progress-1");
        assert_eq!(got[1], "progress-2");
        let last = Json::parse(&got[2]).unwrap();
        assert_eq!(last.get("phase").and_then(Json::as_str), Some("failed"));
        assert_eq!(last.get("reason").and_then(Json::as_str), Some("boom"));
    }

    #[test]
    fn wal_recovery_keeps_the_prefix_and_cuts_the_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "liteworp-wal-trunc-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("requests.jsonl");

        // A missing file is an empty log.
        let (_, loaded, torn_bytes) = RequestWal::recover(&path).unwrap();
        assert_eq!((loaded, torn_bytes), (Vec::new(), 0));

        // All three record kinds round-trip.
        let records = vec![
            WalRecord::Submitted {
                key: 3,
                kind: "fig9".into(),
                params: Json::parse(r#"{"seeds":2,"note":"é"}"#).unwrap(),
                trace: true,
            },
            WalRecord::Done {
                key: 3,
                info: info(),
            },
            WalRecord::Cancelled { key: 2 },
        ];
        {
            let wal = RequestWal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let (_, loaded, torn_bytes) = RequestWal::recover(&path).unwrap();
        assert_eq!((loaded, torn_bytes), (records.clone(), 0));

        // Dying mid-append leaves a partial record with no newline; one
        // cut inside a multi-byte character is not even valid UTF-8. A
        // complete line that is not UTF-8 ends the prefix too, and takes
        // the well-formed records after it along.
        let torn_ascii = br#"{"rec":"submitted","key":"dead"#.to_vec();
        let torn_utf8 = r#"{"rec":"submitted","params":{"note":"é"#.as_bytes();
        let torn_utf8 = torn_utf8[..torn_utf8.len() - 1].to_vec();
        let bad_line = b"\"\xff\"\n{\"rec\":\"cancelled\",\"key\":\"0000000000000002\"}\n".to_vec();
        for torn_tail in [torn_ascii, torn_utf8, bad_line] {
            {
                use std::io::Write as _;
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .unwrap();
                f.write_all(&torn_tail).unwrap();
            }
            let (_, loaded, torn_bytes) = RequestWal::recover(&path).unwrap();
            assert_eq!(loaded, records);
            assert_eq!(torn_bytes, torn_tail.len() as u64);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                clean_len,
                "torn tail physically removed"
            );
        }

        // Appending after repair yields a well-formed log again.
        let extra = WalRecord::Cancelled { key: 9 };
        let (wal, _, _) = RequestWal::recover(&path).unwrap();
        wal.append(&extra).unwrap();
        let (_, loaded, torn_bytes) = RequestWal::recover(&path).unwrap();
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded[3], extra);
        assert_eq!(torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
