//! A warm, shareable sweep engine for long-lived services.
//!
//! [`run_supervised`](crate::supervisor::run_supervised) builds its pool,
//! opens its journal, and tears everything down per batch — right for
//! one-shot experiment bins, wrong for a daemon. [`SweepEngine`] owns a
//! persistent [`TaskPool`](crate::task_pool::TaskPool) plus one shared
//! result cache and multiplexes any number of concurrent
//! [`SweepEngine::run_sweep`] calls over them: every request's jobs land
//! on the same workers, hit the same content-addressed cache, and journal
//! to their own per-request WAL for crash resume.
//!
//! Determinism is unchanged from the batch path: both run the same
//! per-job supervision body ([`crate::supervisor`]), so a sweep submitted
//! to a warm engine produces the byte-identical `results_digest` the
//! batch bins produce — regardless of what else the engine is serving.

use crate::cache::ResultCache;
use crate::engine::{CacheValue, JobSpec, RunConfig, RunReport};
use crate::journal::sweep_id;
use crate::pool;
use crate::supervisor::{
    build_report, job_keys, open_journal, supervise_one, FinishedJob, JobContext, JobFailure,
    JobFaultHook, Supervision,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Progress of one job inside a sweep, reported to the observer as soon
/// as the job settles (in completion order, not job order).
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// Index of the job within its sweep.
    pub index: usize,
    /// Total jobs in the sweep.
    pub total: usize,
    /// The job's label.
    pub label: String,
    /// Seed index of the job.
    pub seed: u64,
    /// Whether the job produced a result (false = quarantined).
    pub ok: bool,
    /// Whether the result came from the shared cache.
    pub cached: bool,
    /// Whether the result was replayed from the resume journal.
    pub journaled: bool,
}

/// The type a sweep observer must have: called once per settled job,
/// possibly from several worker threads at once.
pub type ProgressObserver = dyn Fn(JobProgress) + Send + Sync;

/// The job body a service sweep executes, shared across worker threads.
pub type SweepExec<T> = dyn Fn(&JobSpec, u64, &JobContext) -> Result<T, JobFailure> + Send + Sync;

/// A persistent execution engine: one pool, one cache, many sweeps.
pub struct SweepEngine {
    pool: crate::task_pool::TaskPool,
    cache: Option<ResultCache>,
    code_version: String,
}

impl SweepEngine {
    /// Builds an engine with `threads` workers (`None` resolves via
    /// `LITEWORP_JOBS` / core count), an optional shared result cache,
    /// and the code version folded into every cache key.
    pub fn new(threads: Option<usize>, cache: Option<ResultCache>, code_version: &str) -> Self {
        SweepEngine {
            pool: crate::task_pool::TaskPool::new(pool::resolve_threads(threads)),
            cache,
            code_version: code_version.to_string(),
        }
    }

    /// Worker threads the engine multiplexes sweeps over.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The code version folded into cache keys.
    pub fn code_version(&self) -> &str {
        &self.code_version
    }

    /// The [`RunConfig`] equivalent of this engine's identity — the
    /// config a batch bin would use to produce the same cache keys.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            threads: self.threads(),
            cache: self.cache.clone(),
            code_version: self.code_version.clone(),
        }
    }

    /// Executes one sweep on the shared pool and blocks until it drains.
    ///
    /// Safe to call from many threads at once: jobs from concurrent
    /// sweeps interleave on the workers, but each sweep's report is
    /// assembled in its own job order, so `results_digest` matches the
    /// batch path exactly. `sup.journal` names this request's own WAL
    /// (per-request, unlike the shared cache). The observer, if any, is
    /// invoked once per settled job from worker threads.
    ///
    /// The manifest's `utilization` is empty on this path: workers are
    /// shared by every in-flight sweep, so per-sweep busy fractions are
    /// not attributable.
    pub fn run_sweep<T>(
        &self,
        sup: &Supervision,
        jobs: Vec<JobSpec>,
        hook: Option<Arc<dyn JobFaultHook + Send + Sync>>,
        exec: Arc<SweepExec<T>>,
        observer: Option<Arc<ProgressObserver>>,
    ) -> RunReport<T>
    where
        T: CacheValue + Send + 'static,
    {
        let cfg = self.run_config();
        // lint: allow(D001) sweep wall-clock for the manifest profile
        // block; results, retries and deadlines never depend on it
        let started = Instant::now();
        let keys = job_keys(&cfg, &jobs);
        let sweep = sweep_id(&keys, &cfg.code_version);
        let (journal, resumed) = open_journal(sup, sweep, jobs.len());

        let total = jobs.len();
        let shared = Arc::new(SweepShared {
            jobs,
            keys,
            resumed,
            journal,
            cache: self.cache.clone(),
            sup: sup.clone(),
            hook,
            slots: (0..total).map(|_| Mutex::new(None)).collect(),
            remaining: Mutex::new(total),
            drained: Condvar::new(),
        });

        for i in 0..total {
            let shared = Arc::clone(&shared);
            let exec = Arc::clone(&exec);
            let observer = observer.clone();
            self.pool.spawn(move |worker| {
                shared.run_job(i, worker, &*exec, observer.as_deref());
            });
        }

        // Wait for every job to settle. The per-job tasks always fill
        // their slot and decrement the counter, even if the supervision
        // body itself panics.
        let mut remaining = shared
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *remaining > 0 {
            remaining = shared
                .drained
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);

        let finished: Vec<FinishedJob<T>> = shared
            .slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    // lint: allow(P002) invariant: run_job writes every
                    // slot before the drained counter reaches zero
                    .expect("every sweep job settled exactly once")
            })
            .collect();

        build_report(
            &shared.jobs,
            &shared.keys,
            finished,
            self.threads(),
            started.elapsed().as_secs_f64() * 1000.0,
            Vec::new(),
        )
    }
}

/// Per-sweep state shared between the submitting thread and the pool
/// workers running the sweep's jobs.
struct SweepShared<T> {
    jobs: Vec<JobSpec>,
    keys: Vec<u64>,
    resumed: std::collections::BTreeMap<u64, crate::journal::JournalEntry>,
    journal: Option<crate::journal::SweepJournal>,
    cache: Option<ResultCache>,
    sup: Supervision,
    hook: Option<Arc<dyn JobFaultHook + Send + Sync>>,
    slots: Vec<Mutex<Option<FinishedJob<T>>>>,
    remaining: Mutex<usize>,
    drained: Condvar,
}

impl<T: CacheValue> SweepShared<T> {
    fn run_job(
        &self,
        i: usize,
        worker: usize,
        exec: &SweepExec<T>,
        observer: Option<&ProgressObserver>,
    ) {
        // lint: allow(D001) per-job host wall time for the manifest
        // profile only (queue wait is not measurable on the shared pool)
        let t0 = Instant::now();
        let supervised = catch_unwind(AssertUnwindSafe(|| {
            supervise_one(
                &self.jobs[i],
                self.keys[i],
                &self.resumed,
                self.cache.as_ref(),
                &self.sup,
                self.hook.as_deref().map(|h| h as &dyn JobFaultHook),
                self.journal.as_ref(),
                &|job, derived, ctx| exec(job, derived, ctx),
            )
        }))
        .map_err(|payload| format!("job {i}: {}", pool::panic_message(payload)));

        if let (Some(observer), Ok(s)) = (observer, supervised.as_ref()) {
            observer(JobProgress {
                index: i,
                total: self.jobs.len(),
                label: self.jobs[i].label.clone(),
                seed: self.jobs[i].seed,
                ok: s.outcome.is_ok(),
                cached: matches!(s.outcome, Ok(crate::supervisor::Source::Cache(_))),
                journaled: matches!(s.outcome, Ok(crate::supervisor::Source::Journal(_))),
            });
        }

        *self.slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(FinishedJob {
            result: supervised,
            wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
            queue_wait_ms: 0.0,
            worker,
        });
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *remaining -= 1;
        if *remaining == 0 {
            self.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_jobs;
    use crate::json::Json;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, Clone, PartialEq)]
    struct Val(f64);

    impl CacheValue for Val {
        fn to_json(&self) -> Json {
            Json::object([("v", Json::from(self.0))])
        }
        fn from_json(json: &Json) -> Option<Self> {
            json.get("v")?.as_f64().map(Val)
        }
    }

    fn jobs(scenario: &str, n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|seed| JobSpec {
                label: format!("cell seed={seed}"),
                scenario: scenario.into(),
                seed,
            })
            .collect()
    }

    fn val_exec() -> Arc<SweepExec<Val>> {
        Arc::new(|j: &JobSpec, derived: u64, _: &JobContext| {
            Ok(Val((j.seed as f64) + (derived % 7) as f64))
        })
    }

    #[test]
    fn engine_digest_matches_the_batch_path() {
        let js = jobs("svc-parity", 12);
        let batch = run_jobs(
            &RunConfig {
                threads: 3,
                cache: None,
                code_version: "svc-test-v1".into(),
            },
            &js,
            |j, derived| Val((j.seed as f64) + (derived % 7) as f64),
        );
        let engine = SweepEngine::new(Some(3), None, "svc-test-v1");
        let report = engine.run_sweep(&Supervision::default(), js, None, val_exec(), None);
        assert_eq!(report.manifest.failed, 0);
        assert_eq!(
            report.manifest.results_digest, batch.manifest.results_digest,
            "warm engine reproduces the batch digest"
        );
    }

    #[test]
    fn concurrent_sweeps_share_the_engine_deterministically() {
        let engine = Arc::new(SweepEngine::new(Some(4), None, "svc-test-v1"));
        let solo: Vec<u64> = (0..4)
            .map(|k| {
                let report = engine.run_sweep(
                    &Supervision::default(),
                    jobs(&format!("svc-conc-{k}"), 8),
                    None,
                    val_exec(),
                    None,
                );
                report.manifest.results_digest
            })
            .collect();
        let concurrent: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    let engine = Arc::clone(&engine);
                    scope.spawn(move || {
                        engine
                            .run_sweep(
                                &Supervision::default(),
                                jobs(&format!("svc-conc-{k}"), 8),
                                None,
                                val_exec(),
                                None,
                            )
                            .manifest
                            .results_digest
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(solo, concurrent, "interleaving does not perturb digests");
    }

    #[test]
    fn shared_cache_answers_repeat_sweeps() {
        let dir = std::env::temp_dir().join(format!("liteworp-svc-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = SweepEngine::new(Some(2), Some(ResultCache::new(&dir)), "svc-test-v1");
        let executions = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&executions);
        let exec: Arc<SweepExec<Val>> = Arc::new(move |j, _, _| {
            counted.fetch_add(1, Ordering::SeqCst);
            Ok(Val(j.seed as f64))
        });
        let first = engine.run_sweep(
            &Supervision::default(),
            jobs("svc-cache", 6),
            None,
            Arc::clone(&exec),
            None,
        );
        assert_eq!(first.manifest.cache_misses, 6);
        let second = engine.run_sweep(
            &Supervision::default(),
            jobs("svc-cache", 6),
            None,
            exec,
            None,
        );
        assert_eq!(second.manifest.cache_hits, 6, "second request is all hits");
        assert_eq!(executions.load(Ordering::SeqCst), 6, "no re-execution");
        assert_eq!(
            first.manifest.results_digest,
            second.manifest.results_digest
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observer_sees_every_job_with_provenance() {
        let dir = std::env::temp_dir().join(format!("liteworp-svc-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = SweepEngine::new(Some(2), Some(ResultCache::new(&dir)), "svc-test-v1");
        let seen: Arc<Mutex<Vec<JobProgress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let observer: Arc<ProgressObserver> = Arc::new(move |p| sink.lock().unwrap().push(p));
        engine.run_sweep(
            &Supervision::default(),
            jobs("svc-obs", 5),
            None,
            val_exec(),
            Some(Arc::clone(&observer)),
        );
        {
            let events = seen.lock().unwrap();
            assert_eq!(events.len(), 5);
            assert!(events.iter().all(|p| p.ok && !p.cached && p.total == 5));
        }
        seen.lock().unwrap().clear();
        engine.run_sweep(
            &Supervision::default(),
            jobs("svc-obs", 5),
            None,
            val_exec(),
            Some(observer),
        );
        let events = seen.lock().unwrap();
        assert_eq!(events.len(), 5);
        assert!(
            events.iter().all(|p| p.ok && p.cached),
            "second run is hits"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_survives_a_panicking_job_body() {
        let engine = SweepEngine::new(Some(2), None, "svc-test-v1");
        let exec: Arc<SweepExec<Val>> = Arc::new(|j, _, _| {
            if j.seed == 1 {
                panic!("svc boom");
            }
            Ok(Val(j.seed as f64))
        });
        let report = engine.run_sweep(
            &Supervision::default(),
            jobs("svc-panic", 4),
            None,
            exec,
            None,
        );
        assert_eq!(report.manifest.failed, 1);
        assert_eq!(report.successes().count(), 3);
        // The engine is still serviceable afterwards.
        let after = engine.run_sweep(
            &Supervision::default(),
            jobs("svc-after", 3),
            None,
            val_exec(),
            None,
        );
        assert_eq!(after.manifest.failed, 0);
    }

    #[test]
    fn per_request_journal_resumes_on_a_warm_engine() {
        let dir = std::env::temp_dir().join(format!("liteworp-svc-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("req.jsonl");
        let engine = SweepEngine::new(Some(2), None, "svc-test-v1");
        let sup = Supervision {
            journal: Some(journal.clone()),
            ..Supervision::default()
        };
        let full = engine.run_sweep(&sup, jobs("svc-journal", 6), None, val_exec(), None);

        // Keep the header plus 3 completions, as if the daemon died.
        let text = std::fs::read_to_string(&journal).unwrap();
        let keep: Vec<&str> = text.lines().take(4).collect();
        std::fs::write(&journal, format!("{}\n", keep.join("\n"))).unwrap();

        let resume = Supervision {
            journal: Some(journal.clone()),
            resume: true,
            ..Supervision::default()
        };
        let resumed = engine.run_sweep(&resume, jobs("svc-journal", 6), None, val_exec(), None);
        assert_eq!(resumed.manifest.journal_hits, 3);
        assert_eq!(
            resumed.manifest.results_digest, full.manifest.results_digest,
            "resumed request matches the uninterrupted one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
