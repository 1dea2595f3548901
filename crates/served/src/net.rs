//! The daemon's socket-timeout policy.
//!
//! Sweep results never depend on wall time (determinism is seed- and
//! sim-time-based throughout the workspace); the deadlines here only
//! bound how long a silent or trickling client can hold a connection
//! handler thread. They read time through
//! [`liteworp_obs::clock::now_micros`], the obs crate's registered
//! wall-clock seam, so this file reads no clock itself.
//!
//! Two layers of defence:
//!
//! * [`configure`] arms a short *poll tick* read timeout on the socket.
//!   Each timeout surfaces as a `WouldBlock` in the framing layer, which
//!   forwards it to the connection's [`FramePacer`].
//! * [`FramePacer`] converts ticks into policy: a client may idle up to
//!   [`IDLE_TIMEOUT`] between frames, but once a frame has started it
//!   must complete within [`FRAME_TIMEOUT`] or the read aborts with the
//!   typed [`FrameError::FrameTimeout`] — a slow-loris client trickling
//!   one byte per tick can no longer hold a handler thread for the
//!   connection lifetime.

use crate::frame::{FrameError, ReadPacer};
use liteworp_obs::clock::now_micros;
use std::net::TcpStream;
use std::time::Duration;

/// Time since an obs-clock reading taken earlier.
fn since(start_us: u64) -> Duration {
    Duration::from_micros(now_micros().saturating_sub(start_us))
}

/// How long a connection may sit idle between frames before the daemon
/// hangs up on it. Idle expiry surfaces as a transport `Io` error in
/// the framing layer, and the handler closes the connection silently.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Once the first byte of a frame has arrived, the rest must follow
/// within this budget (measured from the start of the read call).
pub const FRAME_TIMEOUT: Duration = Duration::from_secs(20);

/// Socket read timeout — the granularity at which a stalled read checks
/// in with the [`FramePacer`] (and at which shutdown is noticed).
pub const POLL_TICK: Duration = Duration::from_secs(1);

/// Absolute lifetime cap per connection: even a client that keeps
/// issuing requests is asked to reconnect after this long, so handler
/// threads cannot accumulate forever.
pub const CONN_LIFETIME: Duration = Duration::from_secs(3600);

/// Applies the daemon's socket policy to an accepted connection.
pub fn configure(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_nodelay(true)
}

/// Tracks one connection's absolute lifetime against [`CONN_LIFETIME`].
pub struct ConnDeadline {
    opened_us: u64,
    limit: Duration,
}

impl ConnDeadline {
    /// Starts the clock for a freshly accepted connection.
    pub fn new(limit: Duration) -> ConnDeadline {
        ConnDeadline {
            opened_us: now_micros(),
            limit,
        }
    }

    /// Whether the connection has outlived its welcome.
    pub fn expired(&self) -> bool {
        since(self.opened_us) >= self.limit
    }
}

/// Per-frame read pacer: construct one before each `read_frame_paced`
/// call. Waiting for a frame to *start* is bounded by the idle limit;
/// assembling a started frame is bounded by idle + frame budget from
/// the start of the call (a client cannot bank idle time to extend a
/// trickled frame beyond that sum).
pub struct FramePacer {
    started_us: u64,
    idle_limit: Duration,
    frame_limit: Duration,
}

impl FramePacer {
    /// Starts the per-frame clock with the daemon's default limits.
    pub fn new() -> FramePacer {
        FramePacer::with_limits(IDLE_TIMEOUT, FRAME_TIMEOUT)
    }

    /// Starts the per-frame clock with explicit limits (tests).
    pub fn with_limits(idle_limit: Duration, frame_limit: Duration) -> FramePacer {
        FramePacer {
            started_us: now_micros(),
            idle_limit,
            frame_limit,
        }
    }
}

impl Default for FramePacer {
    fn default() -> FramePacer {
        FramePacer::new()
    }
}

impl ReadPacer for FramePacer {
    fn tick(&self, mid_frame: bool) -> Result<(), FrameError> {
        let elapsed = since(self.started_us);
        if mid_frame {
            if elapsed >= self.idle_limit + self.frame_limit {
                return Err(FrameError::FrameTimeout);
            }
        } else if elapsed >= self.idle_limit {
            return Err(FrameError::Io("idle timeout".to_string()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fresh_deadline_is_not_expired_and_a_zero_one_is() {
        assert!(!ConnDeadline::new(CONN_LIFETIME).expired());
        assert!(ConnDeadline::new(Duration::ZERO).expired());
    }

    #[test]
    fn frame_pacer_distinguishes_idle_from_mid_frame_expiry() {
        // Zero limits: both arms expire immediately, with distinct types.
        let p = FramePacer::with_limits(Duration::ZERO, Duration::ZERO);
        assert_eq!(p.tick(true), Err(FrameError::FrameTimeout));
        assert!(matches!(p.tick(false), Err(FrameError::Io(_))));

        // Generous limits: both arms keep waiting.
        let p = FramePacer::with_limits(Duration::from_secs(60), Duration::from_secs(60));
        assert_eq!(p.tick(true), Ok(()));
        assert_eq!(p.tick(false), Ok(()));

        // Idle exhausted but frame budget open: a started frame may
        // still complete while a between-frames wait would hang up.
        let p = FramePacer::with_limits(Duration::ZERO, Duration::from_secs(60));
        assert_eq!(p.tick(true), Ok(()));
        assert!(matches!(p.tick(false), Err(FrameError::Io(_))));
    }
}
