//! Length-delimited JSONL framing for the service socket.
//!
//! A frame on the wire is `<decimal-length>\n<payload>\n` where the
//! length counts the payload bytes (excluding the trailing newline).
//! The reader also accepts a *bare* JSON line — any line whose first
//! byte is `{` — so a human at `nc` can type requests without counting
//! bytes; responses are always written in the length-delimited form.
//!
//! Frames larger than [`MAX_FRAME`] are rejected before their payload is
//! read, so a hostile or buggy client cannot make the daemon buffer
//! unbounded input.
//!
//! ## Pacing
//!
//! [`read_frame_paced`] accepts a [`ReadPacer`] that is consulted every
//! time the transport reports a read timeout (`WouldBlock`/`TimedOut`).
//! The daemon pairs this with a short socket read timeout so a
//! slow-loris client — one that opens a frame and then trickles bytes —
//! is bounded by a per-frame deadline ([`FrameError::FrameTimeout`])
//! instead of holding a handler thread for the connection lifetime.
//! This module stays clock-free: the pacer implementation that reads
//! time lives in `net.rs`.

use std::io::{BufRead, ErrorKind, Write};

/// Maximum accepted payload size in bytes (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The declared length exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The length line was not a decimal number (and not a bare JSON
    /// line). Carries the offending line.
    BadLength(String),
    /// The stream ended mid-frame (declared length, fewer bytes).
    Torn,
    /// A frame was started but not completed within the per-frame read
    /// deadline (slow-loris defence; see [`ReadPacer`]).
    FrameTimeout,
    /// The underlying transport failed.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::BadLength(line) => write!(f, "bad frame length line: {line:?}"),
            FrameError::Torn => write!(f, "stream ended mid-frame"),
            FrameError::FrameTimeout => write!(f, "frame not completed within the read deadline"),
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Decides whether a stalled read may continue.
///
/// `tick` is called once per transport read timeout while a frame is
/// being awaited (`mid_frame == false`) or assembled (`mid_frame ==
/// true`). Returning `Err` aborts the read with that error; returning
/// `Ok(())` retries the read. Implementations hold whatever notion of
/// time they like — the framing layer itself never reads a clock.
pub trait ReadPacer {
    /// One transport timeout elapsed; decide whether to keep waiting.
    fn tick(&self, mid_frame: bool) -> Result<(), FrameError>;
}

/// The pacer behind plain [`read_frame`]: any transport timeout is
/// surfaced as an `Io` error, preserving the historical behavior where
/// the socket read timeout *was* the frame deadline.
struct FailFast;

impl ReadPacer for FailFast {
    fn tick(&self, _mid_frame: bool) -> Result<(), FrameError> {
        Err(FrameError::Io("read timed out".to_string()))
    }
}

/// Writes one length-delimited frame in a single write, so a socket
/// with Nagle's algorithm on sends it without waiting for the peer's
/// delayed ACK between the length line and the payload.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    w.write_all(format!("{}\n{payload}\n", payload.len()).as_bytes())?;
    w.flush()
}

/// Pulls the next byte off the reader, consulting the pacer on every
/// transport timeout. `Ok(None)` is end of stream.
fn next_byte(
    r: &mut impl BufRead,
    pacer: &impl ReadPacer,
    mid_frame: bool,
) -> Result<Option<u8>, FrameError> {
    loop {
        let got = match r.fill_buf() {
            Ok([]) => return Ok(None),
            Ok(buf) => Some(buf[0]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        };
        match got {
            Some(b) => {
                r.consume(1);
                return Ok(Some(b));
            }
            None => pacer.tick(mid_frame)?,
        }
    }
}

/// Reads one frame. Returns `Ok(None)` on a clean end of stream (EOF
/// before any byte of a new frame), `Ok(Some(payload))` on success.
/// Blank lines between frames are skipped so interactive sessions can
/// hit return freely.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<String>, FrameError> {
    read_frame_paced(r, &FailFast)
}

/// [`read_frame`] with an explicit [`ReadPacer`]. The pacer is ticked
/// on every transport read timeout, with `mid_frame` true once at least
/// one byte of the current frame has been consumed — so an
/// implementation can allow a long idle wait between frames while
/// bounding how long a single frame may take to arrive.
pub fn read_frame_paced(
    r: &mut impl BufRead,
    pacer: &impl ReadPacer,
) -> Result<Option<String>, FrameError> {
    let header = loop {
        let mut line: Vec<u8> = Vec::new();
        loop {
            match next_byte(r, pacer, !line.is_empty())? {
                None if line.is_empty() => return Ok(None),
                None => break,
                Some(b'\n') => break,
                Some(b) => line.push(b),
            }
        }
        let text = String::from_utf8(line)
            .map_err(|_| FrameError::BadLength("header is not valid UTF-8".to_string()))?;
        let trimmed = text.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        break trimmed.to_string();
    };
    // Bare-JSON escape hatch for humans: a line that *is* the payload.
    if header.starts_with('{') {
        return Ok(Some(header));
    }
    let len: usize = header
        .trim()
        .parse()
        .map_err(|_| FrameError::BadLength(header.clone()))?;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = Vec::with_capacity(len);
    while payload.len() < len {
        match next_byte(r, pacer, true)? {
            None => return Err(FrameError::Torn),
            Some(b) => payload.push(b),
        }
    }
    // Consume the trailing newline. A missing one (EOF, or a pacer that
    // gives up waiting for the courtesy byte) is tolerated: the payload
    // is already complete.
    match next_byte(r, pacer, true) {
        Ok(Some(b)) if b != b'\n' => {
            return Err(FrameError::BadLength(format!(
                "expected newline after {len}-byte payload, got byte {b:#04x}"
            )))
        }
        _ => {}
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::BadLength("payload is not valid UTF-8".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::io::{BufReader, Read};

    fn round_trip(payloads: &[&str]) -> Vec<String> {
        let mut buf = Vec::new();
        for p in payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = BufReader::new(&buf[..]);
        let mut out = Vec::new();
        while let Some(p) = read_frame(&mut r).unwrap() {
            out.push(p);
        }
        out
    }

    #[test]
    fn frames_round_trip_in_order() {
        let payloads = [r#"{"op":"ping"}"#, "", "exact\nnewlines\ninside", "x"];
        assert_eq!(round_trip(&payloads), payloads);
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct WriteLog {
        writes: Vec<Vec<u8>>,
    }

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_sent_in_one_write() {
        let mut sink = WriteLog::default();
        write_frame(&mut sink, r#"{"op":"ping"}"#).unwrap();
        write_frame(&mut sink, "").unwrap();
        assert_eq!(
            sink.writes,
            vec![b"13\n{\"op\":\"ping\"}\n".to_vec(), b"0\n\n".to_vec()]
        );
    }

    #[test]
    fn bare_json_lines_are_accepted() {
        let wire = b"{\"op\":\"ping\"}\n\n{\"op\":\"status\"}\n";
        let mut r = BufReader::new(&wire[..]);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), r#"{"op":"ping"}"#);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), r#"{"op":"status"}"#);
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_rejected_without_reading_them() {
        let wire = format!("{}\nwhatever", MAX_FRAME + 1);
        let mut r = BufReader::new(wire.as_bytes());
        assert_eq!(
            read_frame(&mut r),
            Err(FrameError::Oversized(MAX_FRAME + 1))
        );
    }

    #[test]
    fn torn_frames_and_bad_lengths_are_typed() {
        let mut r = BufReader::new(&b"10\nshort"[..]);
        assert_eq!(read_frame(&mut r), Err(FrameError::Torn));
        let mut r = BufReader::new(&b"not-a-length\n"[..]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadLength(_))));
        // A payload not followed by a newline mid-stream is a framing bug.
        let mut r = BufReader::new(&b"2\nabX"[..]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadLength(_))));
    }

    #[test]
    fn missing_trailing_newline_at_eof_is_tolerated() {
        let mut r = BufReader::new(&b"5\nhello"[..]);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "hello");
    }

    /// A transport that yields one byte per read, with a read timeout
    /// reported between every byte — the shape of a slow-loris client.
    struct Trickle<'a> {
        bytes: &'a [u8],
        pos: Cell<usize>,
        ready: Cell<bool>,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos.get() >= self.bytes.len() {
                return Ok(0);
            }
            if !self.ready.get() {
                self.ready.set(true);
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "not yet"));
            }
            self.ready.set(false);
            out[0] = self.bytes[self.pos.get()];
            self.pos.set(self.pos.get() + 1);
            Ok(1)
        }
    }

    /// A pacer that allows `budget` mid-frame ticks before expiring.
    struct CountdownPacer {
        budget: Cell<u32>,
    }

    impl ReadPacer for CountdownPacer {
        fn tick(&self, mid_frame: bool) -> Result<(), FrameError> {
            if !mid_frame {
                return Ok(());
            }
            if self.budget.get() == 0 {
                return Err(FrameError::FrameTimeout);
            }
            self.budget.set(self.budget.get() - 1);
            Ok(())
        }
    }

    #[test]
    fn slow_loris_frame_hits_the_typed_deadline() {
        let wire = b"5\nhello\n";
        // Enough budget: the trickled frame completes.
        let mut r = BufReader::new(Trickle {
            bytes: wire,
            pos: Cell::new(0),
            ready: Cell::new(false),
        });
        let pacer = CountdownPacer {
            budget: Cell::new(64),
        };
        assert_eq!(read_frame_paced(&mut r, &pacer).unwrap().unwrap(), "hello");

        // Budget exhausted mid-frame: typed FrameTimeout, not a generic
        // io error.
        let mut r = BufReader::new(Trickle {
            bytes: wire,
            pos: Cell::new(0),
            ready: Cell::new(false),
        });
        let pacer = CountdownPacer {
            budget: Cell::new(2),
        };
        assert_eq!(
            read_frame_paced(&mut r, &pacer),
            Err(FrameError::FrameTimeout)
        );
    }

    #[test]
    fn idle_waits_between_frames_do_not_count_against_the_frame_budget() {
        // The first ticks happen before any frame byte arrives; a pacer
        // that only limits mid-frame ticks must still read the frame.
        let wire = b"3\nabc\n";
        let mut r = BufReader::new(Trickle {
            bytes: wire,
            pos: Cell::new(0),
            ready: Cell::new(false),
        });
        let pacer = CountdownPacer {
            budget: Cell::new(32),
        };
        assert_eq!(read_frame_paced(&mut r, &pacer).unwrap().unwrap(), "abc");
    }
}
