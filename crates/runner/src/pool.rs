//! A std-only thread pool for batch job execution.
//!
//! Jobs are identified by index. Workers claim the next unclaimed index
//! from one shared atomic counter, so jobs start in index order and a
//! worker that finishes early simply claims more. Workers are scoped
//! threads, so borrowed job data needs no `'static` bound.
//!
//! Panicking jobs are caught per job and reported as errors; the pool and
//! the remaining jobs keep running.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How one job ended.
#[derive(Debug, Clone)]
pub struct JobRun<T> {
    /// The job's output, or the panic message if it panicked.
    pub result: Result<T, String>,
    /// Wall-clock spent executing the job.
    pub elapsed: Duration,
    /// Time the job spent queued before a worker picked it up (measured
    /// from batch start; job order approximates submission order).
    pub queue_wait: Duration,
    /// Index of the worker thread that ran it.
    pub worker: usize,
}

/// Aggregate timing of one pool invocation.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Number of worker threads used.
    pub threads: usize,
    /// Wall-clock of the whole batch.
    pub wall: Duration,
    /// Busy time per worker (sum of job runtimes on that worker).
    pub busy: Vec<Duration>,
}

impl PoolStats {
    /// Per-worker utilization in `[0, 1]`: busy time / batch wall-clock.
    pub fn utilization(&self) -> Vec<f64> {
        let wall = self.wall.as_secs_f64().max(1e-9);
        self.busy
            .iter()
            .map(|b| (b.as_secs_f64() / wall).min(1.0))
            .collect()
    }
}

/// Resolves the worker count: an explicit request, else the
/// `LITEWORP_JOBS` environment variable, else all available cores.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    requested
        .or_else(|| {
            std::env::var("LITEWORP_JOBS")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Runs `count` jobs on `threads` workers and returns their outcomes in
/// job order, plus pool timing stats.
///
/// `f` is called as `f(job_index)` and may be called from any worker
/// concurrently. Results are written to per-job slots, so output order is
/// independent of scheduling.
pub fn run<T, F>(threads: usize, count: usize, f: F) -> (Vec<JobRun<T>>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(count.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobRun<T>>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let busy_nanos: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();

    // lint: allow(D001) wall-clock profiling of host execution, never
    // of simulated behavior; results feed the manifest profile block
    let started = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let next = &next;
            let slots = &slots;
            let busy_nanos = &busy_nanos;
            let f = &f;
            scope.spawn(move || loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= count {
                    break;
                }
                // lint: allow(D001) per-job host wall time for PoolStats only
                let t0 = Instant::now();
                let queue_wait = t0.duration_since(started);
                let result = catch_unwind(AssertUnwindSafe(|| f(job)))
                    .map_err(|payload| format!("job {job}: {}", panic_message(payload)));
                let elapsed = t0.elapsed();
                busy_nanos[w].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
                *slots[job].lock().unwrap_or_else(PoisonError::into_inner) = Some(JobRun {
                    result,
                    elapsed,
                    queue_wait,
                    worker: w,
                });
            });
        }
    });

    let stats = PoolStats {
        threads,
        wall: started.elapsed(),
        busy: busy_nanos
            .iter()
            .map(|n| Duration::from_nanos(n.load(Ordering::Relaxed)))
            .collect(),
    };
    let outcomes = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // lint: allow(P002) invariant: every job index is claimed
                // exactly once and writes its slot; job panics are
                // contained by catch_unwind above
                .expect("every job index was executed exactly once")
        })
        .collect();
    (outcomes, stats)
}

/// Extracts the human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_job_exactly_once() {
        let calls = AtomicUsize::new(0);
        let (runs, stats) = run(4, 100, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i * 2
        });
        assert_eq!(calls.load(Ordering::SeqCst), 100);
        assert_eq!(runs.len(), 100);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(*r.result.as_ref().unwrap(), i * 2, "slot order preserved");
            assert!(r.worker < stats.threads);
            assert!(
                r.queue_wait <= stats.wall,
                "queue wait is bounded by the batch wall-clock"
            );
        }
    }

    #[test]
    fn single_thread_matches_multi_thread_output() {
        let work = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
        let (a, _) = run(1, 50, work);
        let (b, _) = run(4, 50, work);
        let va: Vec<u64> = a.into_iter().map(|r| r.result.unwrap()).collect();
        let vb: Vec<u64> = b.into_iter().map(|r| r.result.unwrap()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn panicking_job_does_not_sink_the_batch() {
        let (runs, _) = run(3, 10, |i| {
            if i == 4 {
                panic!("boom at {i}");
            }
            i
        });
        assert_eq!(runs.len(), 10);
        for (i, r) in runs.iter().enumerate() {
            if i == 4 {
                let msg = r.result.as_ref().unwrap_err();
                assert!(msg.contains("boom"), "{msg}");
                assert!(msg.contains("job 4"), "panicking job id preserved: {msg}");
            } else {
                assert_eq!(*r.result.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let (runs, stats) = run(4, 0, |_| 1u8);
        assert!(runs.is_empty());
        assert_eq!(stats.threads, 1, "no point spawning idle workers");
    }

    #[test]
    fn more_threads_than_jobs_is_clamped() {
        let (runs, stats) = run(16, 3, |i| i);
        assert_eq!(runs.len(), 3);
        assert_eq!(stats.threads, 3);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn utilization_is_bounded() {
        let (_, stats) = run(2, 20, |i| {
            std::thread::sleep(Duration::from_micros(100 + i as u64));
        });
        for u in stats.utilization() {
            assert!((0.0..=1.0).contains(&u));
        }
    }
}
