//! Pins the exact on-disk bytes of the two crash-safe logs: the sweep
//! journal (`journals/*.jsonl`) and the request WAL (`requests.jsonl`).
//! State directories written by one build must `--resume` under the
//! next, so any change to these bytes is a format change, not a refactor.

use liteworp_runner::journal::{sweep_id, JournalEntry, SweepJournal};
use liteworp_runner::Json;
use liteworp_served::state::{DoneInfo, RequestWal, WalRecord};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("liteworp-log-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn append(journal: &mut SweepJournal, entry: &JournalEntry) {
    journal.append(entry).expect("journal append");
}

#[test]
fn journal_lines_are_byte_identical_to_the_pinned_format() {
    let dir = temp_dir("journal");
    let path = dir.join("journals").join("sweep.jsonl");
    let id = sweep_id(&[0x1234, 0xabcd], "v1");
    let mut journal = SweepJournal::create(&path, id, 2).expect("create journal");
    let value = Json::object([
        ("drops", Json::from(12u64)),
        ("ratio", Json::from(0.25)),
        ("label", Json::from("é")),
    ]);
    append(
        &mut journal,
        &JournalEntry::done(0x1234, "M=2 on", 3, 1, value),
    );
    append(
        &mut journal,
        &JournalEntry::failed(0xabcd, "M=4 off", 4, 2, Json::from("panic: boom")),
    );
    drop(journal);

    let text = std::fs::read_to_string(&path).expect("read journal");
    let expected = format!(
        "{{\"magic\":\"liteworp-sweep-journal\",\"version\":1,\"sweep\":\"{id:016x}\",\"jobs\":2}}\n\
         {{\"key\":\"0000000000001234\",\"label\":\"M=2 on\",\"seed\":3,\"retries\":1,\
         \"status\":\"done\",\"value\":{{\"drops\":12,\"ratio\":0.25,\"label\":\"é\"}},\
         \"failure\":null}}\n\
         {{\"key\":\"000000000000abcd\",\"label\":\"M=4 off\",\"seed\":4,\"retries\":2,\
         \"status\":\"failed\",\"value\":null,\"failure\":\"panic: boom\"}}\n"
    );
    assert_eq!(text, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_records_are_byte_identical_to_the_pinned_format() {
    let dir = temp_dir("wal");
    std::fs::create_dir_all(&dir).expect("state dir");
    let path = dir.join("requests.jsonl");
    let wal = RequestWal::open(&path).expect("open WAL");
    for record in [
        WalRecord::Submitted {
            key: 0x00c0_ffee,
            kind: "scenario".into(),
            params: Json::parse(r#"{"nodes":24,"note":"é","seeds":2}"#).expect("params"),
            trace: true,
        },
        WalRecord::Done {
            key: 0x00c0_ffee,
            info: DoneInfo {
                digest: 0x0123_4567_89ab_cdef,
                jobs: 2,
                cache_hits: 1,
                journal_hits: 0,
                cache_misses: 1,
                failed: 0,
            },
        },
        WalRecord::Cancelled { key: 0xbeef },
    ] {
        wal.append(&record).expect("WAL append");
    }
    drop(wal);

    let text = std::fs::read_to_string(&path).expect("read WAL");
    let expected = "{\"rec\":\"submitted\",\"key\":\"0000000000c0ffee\",\"kind\":\"scenario\",\
                    \"params\":{\"nodes\":24,\"note\":\"é\",\"seeds\":2},\"trace\":true}\n\
                    {\"rec\":\"done\",\"key\":\"0000000000c0ffee\",\"digest\":\"0123456789abcdef\",\
                    \"jobs\":2,\"cache_hits\":1,\"journal_hits\":0,\"cache_misses\":1,\"failed\":0}\n\
                    {\"rec\":\"cancelled\",\"key\":\"000000000000beef\"}\n";
    assert_eq!(text, expected);
    let _ = std::fs::remove_dir_all(&dir);
}
