//! A crash-safe append-only JSONL log: the one primitive behind the sweep
//! journal ([`crate::journal`]) and the daemon's request WAL. It owns
//! the file contract — atomic creation, one fsync'd line per record, and
//! torn-tail recovery from raw bytes — so its users keep only their
//! record codecs.

use crate::cache::atomic_write;
use crate::json::Json;
use std::fs::{self, File, OpenOptions};
use std::io::{self, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// An open, appendable JSONL log.
#[derive(Debug)]
pub struct AppendLog {
    path: PathBuf,
    file: Mutex<File>,
}

impl AppendLog {
    /// Starts a log holding exactly `initial` (a header line, or nothing),
    /// atomically replacing any file at `path` via temp file + rename, so
    /// a crash leaves the old log or the new one. Parent directories are
    /// created.
    pub fn create(path: &Path, initial: &[u8]) -> io::Result<AppendLog> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        atomic_write(path, initial)?;
        Self::open(path, None)
    }

    /// Reopens the log at `path`, replaying its longest well-formed
    /// prefix through `accept`, and returns the log plus the number of
    /// torn bytes cut from its end (`set_len` + fsync), so appends resume
    /// on a clean line boundary. A missing file is an empty log.
    ///
    /// `accept` sees each complete line without its newline. `Ok(true)`
    /// keeps the line, `Ok(false)` ends the prefix there, and `Err`
    /// aborts the recovery with the file left untouched (for a header
    /// that names a different log). The prefix also ends at a line that
    /// is not valid UTF-8 — a crash can cut a multi-byte character in
    /// half — and at a final line without its newline.
    pub fn recover<E: From<io::Error>>(
        path: &Path,
        mut accept: impl FnMut(&str) -> Result<bool, E>,
    ) -> Result<(AppendLog, u64), E> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut good = 0usize;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let Some(body) = line.strip_suffix(b"\n") else {
                break; // torn final line: the crash interrupted this write
            };
            match std::str::from_utf8(body) {
                Ok(text) if accept(text)? => good += line.len(),
                _ => break, // corrupt line: the prefix ends here
            }
        }
        let torn = (bytes.len() - good) as u64;
        let log = Self::open(path, (torn > 0).then_some(good as u64))?;
        Ok((log, torn))
    }

    /// Opens `path` for appends, first cutting it to `truncate_to` bytes
    /// (fsync'd) when given.
    fn open(path: &Path, truncate_to: Option<u64>) -> io::Result<AppendLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if let Some(len) = truncate_to {
            file.set_len(len)?;
            file.sync_data()?;
        }
        Ok(AppendLog {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Appends `record` as one line in a single write under the log's
    /// lock, fsync'd before returning: records reach disk in append
    /// order, and a crash loses at most the line being written.
    pub fn append(&self, record: &Json) -> io::Result<()> {
        let mut line = record.dump();
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())?;
        // lint: allow(C002) durability contract: the fsync is serialized
        // under the log's lock so records reach disk in append order
        file.sync_data()
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempfile(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("liteworp-append-log-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("log.jsonl")
    }

    #[test]
    fn a_refused_header_leaves_the_file_untouched() {
        let path = tempfile("refuse");
        AppendLog::create(&path, b"{\"other\":1}\ntorn").unwrap();
        let before = fs::read(&path).unwrap();
        let refused = AppendLog::recover(&path, |_| Err(io::Error::other("not my log")));
        assert!(refused.is_err());
        assert_eq!(fs::read(&path).unwrap(), before);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
