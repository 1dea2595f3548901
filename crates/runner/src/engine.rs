//! The execution engine: describes simulation jobs, runs them on the
//! [`pool`](crate::pool) with the [`cache`](crate::cache) in front, and
//! reports a [`Manifest`] of what happened.
//!
//! Execution itself lives in [`crate::supervisor`]: [`run_jobs`] is the
//! unsupervised convenience entry point (no retries, no deadline, no
//! journal), equivalent to [`crate::supervisor::run_supervised`] with the
//! default [`crate::supervisor::Supervision`] policy.
//!
//! # Determinism contract
//!
//! A job is identified by `(scenario, seed)`. Its RNG seed is
//! [`JobSpec::derived_seed`] — a pure function of the scenario hash and
//! the seed index — and results are returned in job order, so any
//! aggregate computed over them is byte-identical at every thread count,
//! with or without cache hits, journal replays, or retries. The
//! [`Manifest::results_digest`] field condenses that contract into one
//! comparable number.

use crate::cache::{fnv64, ResultCache};
use crate::json::Json;
use crate::pool;
use crate::rng::derive_seed;
use crate::stats::Percentiles;
use crate::supervisor::{run_supervised, FailureReport, JobFailure, Supervision};

/// One unit of work: a scenario cell at one seed index.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable label for manifests and error reports
    /// (e.g. `"fig9 m=2 liteworp"`).
    pub label: String,
    /// Canonical description of the full scenario configuration. Equal
    /// strings mean "the same experiment cell"; the cache and the per-job
    /// RNG both key off it.
    pub scenario: String,
    /// Seed index within the cell (`0..cfg.seeds`).
    pub seed: u64,
}

impl JobSpec {
    /// The 64-bit hash of the scenario description.
    pub fn scenario_hash(&self) -> u64 {
        fnv64(self.scenario.as_bytes())
    }

    /// The RNG seed this job must simulate with: splitmix-derived from
    /// `(scenario_hash, seed)`, independent of scheduling.
    pub fn derived_seed(&self) -> u64 {
        derive_seed(self.scenario_hash(), self.seed)
    }
}

/// Values that can round-trip through the result cache.
pub trait CacheValue: Sized {
    /// Serializes for the cache and result files.
    fn to_json(&self) -> Json;
    /// Deserializes a cached entry; `None` marks it stale/corrupt (it is
    /// then recomputed, not trusted).
    fn from_json(json: &Json) -> Option<Self>;
}

/// How to execute a batch.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads (`pool::resolve_threads` turns `--jobs` /
    /// `LITEWORP_JOBS` / core count into this).
    pub threads: usize,
    /// Result cache, or `None` to always execute.
    pub cache: Option<ResultCache>,
    /// Version string folded into every cache key; bump it when simulator
    /// behavior changes so stale results are never reused.
    pub code_version: String,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: pool::resolve_threads(None),
            cache: None,
            code_version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }
}

/// A job that was quarantined: it produced no result even after its
/// retry budget.
#[derive(Debug, Clone)]
pub struct JobError {
    /// The job's label.
    pub label: String,
    /// Seed index of the failing job.
    pub seed: u64,
    /// The derived RNG seed the failing attempt ran with — together with
    /// the label this is the reproducer for engine-level failures.
    pub derived_seed: u64,
    /// Why the job failed.
    pub failure: JobFailure,
}

impl JobError {
    /// The failure rendered as text (class plus detail).
    pub fn message(&self) -> String {
        self.failure.to_string()
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job '{}' (seed {}) quarantined: {} [reproduce: derived_seed={:#018x}]",
            self.label, self.seed, self.failure, self.derived_seed
        )
    }
}

/// Timing and provenance of one executed job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job's label.
    pub label: String,
    /// Seed index.
    pub seed: u64,
    /// Cache key used for this job.
    pub key: u64,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Whether the result was replayed from the resume journal.
    pub journaled: bool,
    /// Retries the job needed (0 = first attempt sufficed).
    pub retries: u32,
    /// Failure class when the job was quarantined, `None` on success.
    pub failure: Option<&'static str>,
    /// Whether the job failed.
    pub failed: bool,
    /// Wall-clock of this job in milliseconds.
    pub wall_ms: f64,
    /// Time the job waited in the pool queue, in milliseconds.
    pub queue_wait_ms: f64,
    /// Worker thread that ran it.
    pub worker: usize,
}

/// What a run did: per-job wall-clock, cache hit/miss counts, thread
/// utilization, and the failure/retry accounting of the supervisor.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Worker threads used.
    pub threads: usize,
    /// Total jobs in the batch.
    pub jobs: usize,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Jobs replayed from the resume journal.
    pub journal_hits: usize,
    /// Jobs that executed a simulation.
    pub cache_misses: usize,
    /// Jobs quarantined after exhausting their retries.
    pub failed: usize,
    /// Wall-clock of the whole batch in milliseconds.
    pub wall_ms: f64,
    /// Busy-fraction per worker over the batch.
    pub utilization: Vec<f64>,
    /// Per-job wall-clock percentiles (ms), over every job.
    pub job_duration_ms: Option<Percentiles>,
    /// Pool queue-wait percentiles (ms), over every job.
    pub queue_wait_ms: Option<Percentiles>,
    /// Wall-clock percentiles (ms) of jobs answered from the cache.
    pub cache_hit_ms: Option<Percentiles>,
    /// Wall-clock percentiles (ms) of jobs that executed a simulation.
    pub cache_miss_ms: Option<Percentiles>,
    /// Order-sensitive FNV digest of the batch results; equal digests
    /// mean byte-identical results (see
    /// [`crate::supervisor::digest_results`]).
    pub results_digest: u64,
    /// Failure classes, retry histogram, and quarantined job ids.
    pub failures: FailureReport,
    /// One record per job, in job order.
    pub per_job: Vec<JobRecord>,
}

impl Manifest {
    /// The one-line summary the experiment binaries print.
    pub fn summary_line(&self) -> String {
        let util = if self.utilization.is_empty() {
            0.0
        } else {
            self.utilization.iter().sum::<f64>() / self.utilization.len() as f64
        };
        let mut line = format!(
            "runner: {} jobs on {} threads in {:.2} s ({} cache hits, {} executed, {} failed, {:.0}% utilization) digest={:016x}",
            self.jobs,
            self.threads,
            self.wall_ms / 1000.0,
            self.cache_hits,
            self.cache_misses,
            self.failed,
            util * 100.0,
            self.results_digest
        );
        if self.journal_hits > 0 {
            line.push_str(&format!(", {} journal hits", self.journal_hits));
        }
        let retried: u64 = self.failures.retry_histogram.values().sum();
        if retried > 0 {
            line.push_str(&format!(", {retried} retried"));
        }
        if !self.failures.quarantined.is_empty() {
            line.push_str(&format!(
                ", {} quarantined",
                self.failures.quarantined.len()
            ));
        }
        line
    }

    /// Full manifest as JSON (for `results/` provenance files).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("threads", Json::from(self.threads)),
            ("jobs", Json::from(self.jobs)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("journal_hits", Json::from(self.journal_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("failed", Json::from(self.failed)),
            ("wall_ms", Json::from(self.wall_ms)),
            (
                "results_digest",
                Json::from(format!("{:016x}", self.results_digest)),
            ),
            (
                "utilization",
                Json::Arr(self.utilization.iter().map(|&u| Json::from(u)).collect()),
            ),
            ("failures", self.failures.to_json()),
            (
                "profile",
                Json::object([
                    (
                        "job_duration_ms",
                        self.job_duration_ms
                            .as_ref()
                            .map_or(Json::Null, Percentiles::to_json),
                    ),
                    (
                        "queue_wait_ms",
                        self.queue_wait_ms
                            .as_ref()
                            .map_or(Json::Null, Percentiles::to_json),
                    ),
                    (
                        "cache_hit_ms",
                        self.cache_hit_ms
                            .as_ref()
                            .map_or(Json::Null, Percentiles::to_json),
                    ),
                    (
                        "cache_miss_ms",
                        self.cache_miss_ms
                            .as_ref()
                            .map_or(Json::Null, Percentiles::to_json),
                    ),
                ]),
            ),
            (
                "per_job",
                Json::Arr(
                    self.per_job
                        .iter()
                        .map(|j| {
                            Json::object([
                                ("label", Json::from(j.label.clone())),
                                ("seed", Json::from(j.seed)),
                                ("key", Json::from(format!("{:016x}", j.key))),
                                ("cached", Json::from(j.cached)),
                                ("journaled", Json::from(j.journaled)),
                                ("retries", Json::from(j.retries as u64)),
                                ("failure", j.failure.map_or(Json::Null, Json::from)),
                                ("failed", Json::from(j.failed)),
                                ("wall_ms", Json::from(j.wall_ms)),
                                ("queue_wait_ms", Json::from(j.queue_wait_ms)),
                                ("worker", Json::from(j.worker)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A finished batch: per-job results in job order, plus the manifest.
#[derive(Debug)]
pub struct RunReport<T> {
    /// One entry per job, in the order the jobs were given.
    pub results: Vec<Result<T, JobError>>,
    /// What happened.
    pub manifest: Manifest,
}

impl<T> RunReport<T> {
    /// The successful results in job order (failed jobs skipped).
    pub fn successes(&self) -> impl Iterator<Item = &T> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// Executes a batch of jobs: cache lookup first, then the simulation via
/// `exec(job, derived_seed)` on the thread pool, storing fresh results
/// back into the cache.
///
/// This is the unsupervised entry point — no retries, deadline, or
/// journal; a panic fails its job immediately. Sweeps that want those use
/// [`run_supervised`] directly.
pub fn run_jobs<T, F>(cfg: &RunConfig, jobs: &[JobSpec], exec: F) -> RunReport<T>
where
    T: CacheValue + Send,
    F: Fn(&JobSpec, u64) -> T + Sync,
{
    run_supervised(
        cfg,
        &Supervision::default(),
        jobs,
        None,
        None,
        |job, derived, _| Ok(exec(job, derived)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn jobs(n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|seed| JobSpec {
                label: format!("cell seed={seed}"),
                scenario: "test-scenario".into(),
                seed,
            })
            .collect()
    }

    #[test]
    fn derived_seeds_are_distinct_per_job() {
        let js = jobs(10);
        let mut seen = std::collections::BTreeSet::new();
        for j in &js {
            assert!(seen.insert(j.derived_seed()));
        }
    }

    #[test]
    fn results_arrive_in_job_order_at_any_thread_count() {
        let js = jobs(16);
        let exec = |j: &JobSpec, derived: u64| Val((j.seed as f64) + (derived % 7) as f64);
        let one = run_jobs(
            &RunConfig {
                threads: 1,
                ..RunConfig::default()
            },
            &js,
            exec,
        );
        let four = run_jobs(
            &RunConfig {
                threads: 4,
                ..RunConfig::default()
            },
            &js,
            exec,
        );
        let a: Vec<f64> = one.successes().map(|v| v.0).collect();
        let b: Vec<f64> = four.successes().map(|v| v.0).collect();
        assert_eq!(a, b);
        assert_eq!(one.manifest.cache_misses, 16, "no cache configured");
        assert_eq!(
            one.manifest.results_digest, four.manifest.results_digest,
            "digest is thread-count independent"
        );
    }

    #[test]
    fn cache_round_trip_skips_execution() {
        let dir = std::env::temp_dir().join(format!("liteworp-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig {
            threads: 2,
            cache: Some(ResultCache::new(&dir)),
            code_version: "test-v1".into(),
        };
        let executions = AtomicUsize::new(0);
        let exec = |j: &JobSpec, _: u64| {
            executions.fetch_add(1, Ordering::SeqCst);
            Val(j.seed as f64 * 2.0)
        };
        let first = run_jobs(&cfg, &jobs(8), exec);
        assert_eq!(first.manifest.cache_hits, 0);
        assert_eq!(executions.load(Ordering::SeqCst), 8);
        let second = run_jobs(&cfg, &jobs(8), exec);
        assert_eq!(second.manifest.cache_hits, 8, "all hits on re-run");
        assert_eq!(executions.load(Ordering::SeqCst), 8, "no re-execution");
        let a: Vec<f64> = first.successes().map(|v| v.0).collect();
        let b: Vec<f64> = second.successes().map(|v| v.0).collect();
        assert_eq!(a, b, "cached results identical to fresh ones");
        assert_eq!(
            first.manifest.results_digest,
            second.manifest.results_digest
        );
        // A different code version invalidates every entry.
        let bumped = RunConfig {
            code_version: "test-v2".into(),
            ..cfg
        };
        let third = run_jobs(&bumped, &jobs(8), exec);
        assert_eq!(third.manifest.cache_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_job_is_isolated() {
        let js = jobs(6);
        let report = run_jobs(
            &RunConfig {
                threads: 3,
                ..RunConfig::default()
            },
            &js,
            |j, _| {
                if j.seed == 2 {
                    panic!("scenario build failed");
                }
                Val(1.0)
            },
        );
        assert_eq!(report.manifest.failed, 1);
        assert_eq!(report.successes().count(), 5);
        let err = report.results[2].as_ref().unwrap_err();
        assert!(err.message().contains("scenario build failed"), "{err}");
        assert_eq!(err.failure.class(), "panic");
        assert_eq!(err.derived_seed, js[2].derived_seed());
        let rendered = err.to_string();
        assert!(rendered.contains("derived_seed="), "{rendered}");
        assert!(report.manifest.per_job[2].failed);
        assert_eq!(report.manifest.per_job[2].failure, Some("panic"));
        assert_eq!(report.manifest.failures.panics, 1);
    }

    #[test]
    fn manifest_serializes() {
        let report = run_jobs(&RunConfig::default(), &jobs(3), |j, _| Val(j.seed as f64));
        let json = report.manifest.to_json();
        assert_eq!(json.get("jobs").and_then(Json::as_u64), Some(3));
        assert_eq!(
            json.get("per_job").and_then(Json::as_arr).map(|a| a.len()),
            Some(3)
        );
        assert!(report.manifest.summary_line().contains("3 jobs"));
        assert_eq!(
            json.get("results_digest").and_then(Json::as_str),
            Some(format!("{:016x}", report.manifest.results_digest).as_str())
        );
        let failures = json.get("failures").expect("failures block");
        assert_eq!(failures.get("panics").and_then(Json::as_u64), Some(0));
        assert!(report.manifest.failures.is_empty());

        // Profiling: duration and queue-wait percentiles are present and
        // consistent with the per-job records.
        let profile = json.get("profile").expect("profile object");
        let p50 = profile
            .get("job_duration_ms")
            .and_then(|p| p.get("p50"))
            .and_then(Json::as_f64)
            .expect("duration p50");
        let durations = report.manifest.job_duration_ms.expect("duration profile");
        assert_eq!(durations.n, 3);
        assert_eq!(durations.p50, p50);
        assert!(durations.p50 <= durations.p95 && durations.p95 <= durations.max);
        let qw = report.manifest.queue_wait_ms.expect("queue-wait profile");
        assert_eq!(qw.n, 3);
        assert!(qw.max <= report.manifest.wall_ms);
        // No cache configured: every job is a miss, no hit profile.
        assert!(report.manifest.cache_hit_ms.is_none());
        assert_eq!(report.manifest.cache_miss_ms.expect("miss profile").n, 3);
        for j in json.get("per_job").and_then(Json::as_arr).unwrap() {
            assert!(j.get("queue_wait_ms").and_then(Json::as_f64).is_some());
            assert_eq!(j.get("retries").and_then(Json::as_u64), Some(0));
        }
    }
}
