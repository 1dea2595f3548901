//! Write-ahead sweep journal: crash-resumable record of job completion.
//!
//! A sweep journal is a JSONL file. The first line is a header binding the
//! journal to one exact sweep (a hash of every job's cache key plus the
//! code version); every following line records one finished job — its
//! key, label, seed, retry count, and either the full result value or the
//! failure that quarantined it. The file handling — atomic creation,
//! fsync'd one-line appends, torn-tail recovery — is the shared
//! [`AppendLog`]; this module holds the record codec and the header check.
//!
//! On [`SweepJournal::resume`] the file is replayed: a torn or corrupt
//! tail (the partially written last line of a crash) is detected,
//! reported, and truncated away rather than parsed, and the recovered
//! entries let the supervisor skip exactly the jobs that already
//! finished. Because result values are embedded, resume works even with
//! the result cache disabled, and a resumed sweep merges to byte-identical
//! aggregates (JSON round-trips are exact).

use crate::append_log::AppendLog;
use crate::cache::fnv64;
use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

/// First header field, guarding against feeding some other JSONL file in.
pub const JOURNAL_MAGIC: &str = "liteworp-sweep-journal";

/// On-disk format version.
pub const JOURNAL_VERSION: u64 = 1;

/// The sweep identity a journal is bound to: a hash of the code version
/// and every job's cache key, in job order. Resuming with a different job
/// set, scenario, or code version is rejected instead of silently merging
/// unrelated results.
pub fn sweep_id(keys: &[u64], code_version: &str) -> u64 {
    let mut bytes = Vec::with_capacity(code_version.len() + keys.len() * 9);
    bytes.extend_from_slice(code_version.as_bytes());
    for k in keys {
        bytes.push(0);
        bytes.extend_from_slice(&k.to_le_bytes());
    }
    fnv64(&bytes)
}

/// How a journaled job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalStatus {
    /// The job produced a result (embedded in the entry).
    Done,
    /// The job was quarantined after exhausting its retries.
    Failed,
}

impl JournalStatus {
    fn as_str(self) -> &'static str {
        match self {
            JournalStatus::Done => "done",
            JournalStatus::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<JournalStatus> {
        match s {
            "done" => Some(JournalStatus::Done),
            "failed" => Some(JournalStatus::Failed),
            _ => None,
        }
    }
}

/// One journaled job completion.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The job's cache key (unique per job within a sweep).
    pub key: u64,
    /// The job's label, for humans reading the journal.
    pub label: String,
    /// Seed index of the job.
    pub seed: u64,
    /// Retries the job needed before this outcome.
    pub retries: u32,
    /// Whether the job finished or was quarantined.
    pub status: JournalStatus,
    /// The result value (present iff `status` is [`JournalStatus::Done`]).
    pub value: Option<Json>,
    /// The serialized failure (present iff `status` is
    /// [`JournalStatus::Failed`]).
    pub failure: Option<Json>,
}

impl JournalEntry {
    /// A completion entry carrying the job's result.
    pub fn done(key: u64, label: &str, seed: u64, retries: u32, value: Json) -> JournalEntry {
        JournalEntry {
            key,
            label: label.to_string(),
            seed,
            retries,
            status: JournalStatus::Done,
            value: Some(value),
            failure: None,
        }
    }

    /// A quarantine entry carrying the serialized failure.
    pub fn failed(key: u64, label: &str, seed: u64, retries: u32, failure: Json) -> JournalEntry {
        JournalEntry {
            key,
            label: label.to_string(),
            seed,
            retries,
            status: JournalStatus::Failed,
            value: None,
            failure: Some(failure),
        }
    }

    /// Serializes to one JSONL line's value.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("key", Json::from(format!("{:016x}", self.key))),
            ("label", Json::from(self.label.clone())),
            ("seed", Json::from(self.seed)),
            ("retries", Json::from(self.retries as u64)),
            ("status", Json::from(self.status.as_str())),
            ("value", self.value.clone().unwrap_or(Json::Null)),
            ("failure", self.failure.clone().unwrap_or(Json::Null)),
        ])
    }

    /// Parses an entry back; `None` marks a corrupt line.
    pub fn from_json(json: &Json) -> Option<JournalEntry> {
        let key = u64::from_str_radix(json.get("key")?.as_str()?, 16).ok()?;
        let status = JournalStatus::parse(json.get("status")?.as_str()?)?;
        let field = |name: &str| match json.get(name) {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.clone()),
        };
        let (value, failure) = (field("value"), field("failure"));
        match status {
            JournalStatus::Done if value.is_none() => return None,
            JournalStatus::Failed if failure.is_none() => return None,
            _ => {}
        }
        Some(JournalEntry {
            key,
            label: json.get("label")?.as_str()?.to_string(),
            seed: json.get("seed")?.as_u64()?,
            retries: json.get("retries")?.as_u64()? as u32,
            status,
            value,
            failure,
        })
    }
}

/// Why a journal could not be opened for resume.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error reading or rewriting the journal.
    Io(io::Error),
    /// The file is not a journal, is from a different format version, or
    /// records a different sweep.
    Header(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Header(m) => write!(f, "journal header mismatch: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What [`SweepJournal::resume`] recovered.
#[derive(Debug)]
pub struct Recovered {
    /// Last recorded outcome per job key (later lines win, so a job that
    /// failed in one run and succeeded in a resume reads as done).
    pub entries: BTreeMap<u64, JournalEntry>,
    /// Bytes of torn or corrupt tail that were truncated away.
    pub torn_bytes: usize,
}

/// An open, appendable sweep journal: the entry codec and the header
/// identity check on top of an [`AppendLog`].
#[derive(Debug)]
pub struct SweepJournal {
    log: AppendLog,
}

impl SweepJournal {
    /// Creates a fresh journal for a sweep of `jobs` jobs, replacing any
    /// existing file atomically (temp file + rename), then reopens it for
    /// fsync'd appends.
    pub fn create(path: &Path, sweep_id: u64, jobs: usize) -> io::Result<SweepJournal> {
        let header = Json::object([
            ("magic", Json::from(JOURNAL_MAGIC)),
            ("version", Json::from(JOURNAL_VERSION)),
            ("sweep", Json::from(format!("{sweep_id:016x}"))),
            ("jobs", Json::from(jobs)),
        ])
        .dump()
            + "\n";
        AppendLog::create(path, header.as_bytes()).map(|log| SweepJournal { log })
    }

    /// Reopens an existing journal, verifying it records exactly this
    /// sweep, and replays its entries.
    ///
    /// A torn tail — the half-written last line a crash leaves behind, or
    /// any corrupt suffix — ends the replay: everything after the last
    /// fully parsed line is truncated from the file so appends resume from
    /// a clean boundary. The valid prefix is never discarded. A header
    /// naming another sweep is rejected with the file untouched; a torn
    /// header leaves nothing to keep, so the file is cut to empty and
    /// the resume is rejected.
    pub fn resume(
        path: &Path,
        sweep_id: u64,
        jobs: usize,
    ) -> Result<(SweepJournal, Recovered), JournalError> {
        let mut header_seen = false;
        let mut entries = BTreeMap::new();
        let (log, torn_bytes) = AppendLog::recover(path, |line| -> Result<bool, JournalError> {
            if !header_seen {
                check_header(line, sweep_id, jobs)?;
                header_seen = true;
                return Ok(true);
            }
            let Some(entry) = Json::parse(line)
                .ok()
                .as_ref()
                .and_then(JournalEntry::from_json)
            else {
                return Ok(false); // corrupt line: stop replay, truncate the rest
            };
            entries.insert(entry.key, entry);
            Ok(true)
        })?;
        if !header_seen {
            return Err(JournalError::Header("empty or truncated header".into()));
        }
        Ok((
            SweepJournal { log },
            Recovered {
                entries,
                torn_bytes: torn_bytes as usize,
            },
        ))
    }

    /// Appends one entry, fsync'd before returning, so a subsequent crash
    /// cannot lose it. Safe to call from many threads at once.
    pub fn append(&self, entry: &JournalEntry) -> io::Result<()> {
        self.log.append(&entry.to_json())
    }
}

/// Verifies that a header line names this exact sweep.
fn check_header(line: &str, sweep_id: u64, jobs: usize) -> Result<(), JournalError> {
    let header =
        Json::parse(line).map_err(|e| JournalError::Header(format!("unparsable header: {e}")))?;
    if header.get("magic").and_then(Json::as_str) != Some(JOURNAL_MAGIC) {
        return Err(JournalError::Header("not a sweep journal".into()));
    }
    if header.get("version").and_then(Json::as_u64) != Some(JOURNAL_VERSION) {
        return Err(JournalError::Header("unsupported journal version".into()));
    }
    let recorded = header
        .get("sweep")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| JournalError::Header("missing sweep id".into()))?;
    if recorded != sweep_id {
        return Err(JournalError::Header(format!(
            "journal records sweep {recorded:016x}, this run is {sweep_id:016x} \
             (different jobs, scenario, or code version)"
        )));
    }
    if header.get("jobs").and_then(Json::as_u64) != Some(jobs as u64) {
        return Err(JournalError::Header("job count changed".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};
    use std::io::Write;
    use std::path::PathBuf;

    fn tempfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "liteworp-journal-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir.join("sweep.jsonl")
    }

    fn entry(key: u64, seed: u64) -> JournalEntry {
        JournalEntry::done(
            key,
            "cell",
            seed,
            0,
            Json::object([("v", Json::from(seed as f64 * 1.5))]),
        )
    }

    #[test]
    fn sweep_id_is_sensitive_to_keys_and_version() {
        let a = sweep_id(&[1, 2, 3], "v1");
        assert_eq!(a, sweep_id(&[1, 2, 3], "v1"));
        assert_ne!(a, sweep_id(&[1, 2], "v1"));
        assert_ne!(a, sweep_id(&[3, 2, 1], "v1"), "order matters");
        assert_ne!(a, sweep_id(&[1, 2, 3], "v2"));
    }

    #[test]
    fn entry_round_trips() {
        let e = entry(0xdead_beef, 7);
        let parsed = Json::parse(&e.to_json().dump()).unwrap();
        assert_eq!(JournalEntry::from_json(&parsed), Some(e));
        let f = JournalEntry::failed(1, "bad", 2, 3, Json::from("panic: boom"));
        let parsed = Json::parse(&f.to_json().dump()).unwrap();
        assert_eq!(JournalEntry::from_json(&parsed), Some(f));
    }

    #[test]
    fn status_value_consistency_is_enforced() {
        // A done entry whose value is null is corrupt, not half-trusted.
        let mut e = entry(1, 1);
        e.value = None;
        let parsed = Json::parse(&e.to_json().dump()).unwrap();
        assert_eq!(JournalEntry::from_json(&parsed), None);
    }

    #[test]
    fn create_append_resume_round_trip() {
        let path = tempfile("roundtrip");
        let id = sweep_id(&[10, 11, 12], "v");
        let j = SweepJournal::create(&path, id, 3).unwrap();
        j.append(&entry(10, 0)).unwrap();
        j.append(&entry(11, 1)).unwrap();
        drop(j);
        let (_, rec) = SweepJournal::resume(&path, id, 3).unwrap();
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.entries[&10], entry(10, 0));
        assert_eq!(rec.entries[&11], entry(11, 1));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_truncated_not_parsed() {
        let path = tempfile("torn");
        let id = sweep_id(&[1, 2], "v");
        let j = SweepJournal::create(&path, id, 2).unwrap();
        j.append(&entry(1, 0)).unwrap();
        drop(j);
        // Simulate a crash mid-append: a partial line with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\":\"0000").unwrap();
        drop(f);
        let before = fs::metadata(&path).unwrap().len();
        let (j, rec) = SweepJournal::resume(&path, id, 2).unwrap();
        assert_eq!(rec.entries.len(), 1, "only the complete entry survives");
        assert_eq!(rec.torn_bytes, 12);
        assert!(fs::metadata(&path).unwrap().len() < before, "tail removed");
        // Appending after recovery lands on a clean line boundary.
        j.append(&entry(2, 1)).unwrap();
        drop(j);
        let (_, rec) = SweepJournal::resume(&path, id, 2).unwrap();
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.torn_bytes, 0);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn later_entries_override_earlier_ones() {
        let path = tempfile("override");
        let id = sweep_id(&[5], "v");
        let j = SweepJournal::create(&path, id, 1).unwrap();
        j.append(&JournalEntry::failed(5, "cell", 0, 2, Json::from("io")))
            .unwrap();
        j.append(&entry(5, 0)).unwrap();
        drop(j);
        let (_, rec) = SweepJournal::resume(&path, id, 1).unwrap();
        assert_eq!(rec.entries[&5].status, JournalStatus::Done);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn mismatched_sweep_is_rejected() {
        let path = tempfile("mismatch");
        let id = sweep_id(&[1], "v");
        SweepJournal::create(&path, id, 1).unwrap();
        let other = sweep_id(&[2], "v");
        assert!(matches!(
            SweepJournal::resume(&path, other, 1),
            Err(JournalError::Header(_))
        ));
        assert!(matches!(
            SweepJournal::resume(&path, id, 9),
            Err(JournalError::Header(_))
        ));
        // A non-journal file is rejected, not replayed.
        fs::write(&path, "{\"whatever\": 1}\n").unwrap();
        assert!(matches!(
            SweepJournal::resume(&path, id, 1),
            Err(JournalError::Header(_))
        ));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn fresh_create_replaces_stale_journal() {
        let path = tempfile("replace");
        let id = sweep_id(&[1], "v");
        let j = SweepJournal::create(&path, id, 1).unwrap();
        j.append(&entry(1, 0)).unwrap();
        drop(j);
        SweepJournal::create(&path, id, 1).unwrap();
        let (_, rec) = SweepJournal::resume(&path, id, 1).unwrap();
        assert!(rec.entries.is_empty(), "create starts over");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
