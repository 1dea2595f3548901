//! Bridges [`Scenario`] to the `liteworp-runner` execution engine.
//!
//! Every multi-seed experiment describes its work as [`SimCell`]s (one
//! scenario configuration × a seed count) and hands them to [`run_cells`],
//! which executes all seeds of all cells on the runner's thread pool with
//! the result cache in front. A cell's per-seed RNG seed is derived from
//! the cell's canonical [`descriptor`] and the seed index, so aggregates
//! are identical at any `--jobs` value and cache hits are exact.

use crate::scenario::Scenario;
use liteworp_chaos::EngineFaultPlan;
use liteworp_obs as obs;
use liteworp_runner::supervisor::{JobContext, JobFailure, JobFaultHook, Supervision};
use liteworp_runner::{
    pool, run_supervised, CacheValue, JobSpec, Json, Manifest, ProgressObserver, ResultCache,
    RunConfig, Summary,
};
use std::collections::{BTreeMap, BTreeSet};

/// Version string folded into every cache key. Bump the suffix whenever
/// simulator or measurement behavior changes, so stale cached results are
/// never reused across code versions.
pub const SIM_CODE_VERSION: &str = concat!(env!("CARGO_PKG_VERSION"), "+sim2");

/// One experiment cell: a scenario configuration to run at many seeds.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// Label for manifests and error reports (e.g. `"fig9 m=2 liteworp"`).
    pub label: String,
    /// The configuration; its `seed` field is ignored (each job gets a
    /// derived seed).
    pub scenario: Scenario,
    /// Independent seeds to run.
    pub seeds: u64,
    /// Offset added to the seed index (kept from the serial harness for
    /// provenance; distinctness comes from the derived seed).
    pub seed_base: u64,
    /// Simulated duration in seconds.
    pub duration: f64,
    /// Instants (seconds, ascending, ≤ `duration`) at which cumulative
    /// wormhole drops are sampled into [`SeedOutcome::drops_at`].
    pub sample_times: Vec<f64>,
}

impl SimCell {
    /// A cell with no intermediate sampling.
    pub fn snapshot(
        label: impl Into<String>,
        scenario: Scenario,
        seeds: u64,
        seed_base: u64,
        duration: f64,
    ) -> Self {
        SimCell {
            label: label.into(),
            scenario,
            seeds,
            seed_base,
            duration,
            sample_times: Vec::new(),
        }
    }

    /// The canonical description this cell is cached and seeded under.
    pub fn descriptor(&self) -> String {
        let mut canon = self.scenario.clone();
        canon.seed = 0;
        format!(
            "{canon:?}|duration={}|samples={:?}",
            self.duration, self.sample_times
        )
    }
}

/// Everything a figure or table needs from one simulated seed.
///
/// Deliberately universal: every experiment extracts its metrics from the
/// same outcome type, so one cached run serves any experiment that asks
/// the same scenario question.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedOutcome {
    /// Cumulative wormhole drops at each of the cell's `sample_times`.
    pub drops_at: Vec<f64>,
    /// Final cumulative data packets swallowed by the wormhole.
    pub drops: f64,
    /// Data packets originated network-wide.
    pub data_sent: f64,
    /// Established routes, total.
    pub routes_total: f64,
    /// Established routes relayed by a colluder.
    pub routes_malicious: f64,
    /// Whether every colluder was detected somewhere.
    pub all_detected: bool,
    /// Seconds from attack start to the first isolation event.
    pub first_detection_latency: Option<f64>,
    /// Seconds from attack start to complete isolation, if it completed.
    pub isolation_latency: Option<f64>,
    /// Honest nodes falsely isolated anywhere in the network.
    pub false_isolations: f64,
    /// Fraction of frame receptions lost to collisions — the measured
    /// `P_C` the closed-form detection model takes as its one free
    /// parameter (see `tests/differential_detection.rs` and the
    /// `scale_sweep` experiment).
    pub collision_fraction: f64,
}

impl CacheValue for SeedOutcome {
    fn to_json(&self) -> Json {
        Json::object([
            (
                "drops_at",
                Json::Arr(self.drops_at.iter().map(|&d| Json::from(d)).collect()),
            ),
            ("drops", Json::from(self.drops)),
            ("data_sent", Json::from(self.data_sent)),
            ("routes_total", Json::from(self.routes_total)),
            ("routes_malicious", Json::from(self.routes_malicious)),
            ("all_detected", Json::from(self.all_detected)),
            (
                "first_detection_latency",
                Json::from(self.first_detection_latency),
            ),
            ("isolation_latency", Json::from(self.isolation_latency)),
            ("false_isolations", Json::from(self.false_isolations)),
            ("collision_fraction", Json::from(self.collision_fraction)),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        let f = |k: &str| json.get(k)?.as_f64();
        let opt = |k: &str| match json.get(k) {
            Some(Json::Null) | None => Some(None),
            Some(v) => v.as_f64().map(Some),
        };
        Some(SeedOutcome {
            drops_at: json
                .get("drops_at")?
                .as_arr()?
                .iter()
                .map(|v| v.as_f64())
                .collect::<Option<Vec<_>>>()?,
            drops: f("drops")?,
            data_sent: f("data_sent")?,
            routes_total: f("routes_total")?,
            routes_malicious: f("routes_malicious")?,
            all_detected: json.get("all_detected")?.as_bool()?,
            first_detection_latency: opt("first_detection_latency")?,
            isolation_latency: opt("isolation_latency")?,
            false_isolations: f("false_isolations")?,
            collision_fraction: f("collision_fraction")?,
        })
    }
}

/// Execution options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads (`None` = `LITEWORP_JOBS` env or all cores).
    pub jobs: Option<usize>,
    /// Use the on-disk result cache.
    pub cache: bool,
    /// Cache directory override (`None` = `results/cache`).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Retries after a job's first failed attempt (`--max-retries`).
    pub max_retries: u32,
    /// Per-job deadline in *simulated* seconds (`--job-deadline`).
    pub job_deadline_secs: Option<f64>,
    /// Write-ahead sweep journal path (`--journal`).
    pub journal: Option<std::path::PathBuf>,
    /// Resume finished jobs from the journal (`--resume`).
    pub resume: bool,
    /// Probability of injected transient engine faults per job
    /// (`--engine-faults`; exercises the supervisor, recovered by
    /// retries).
    pub engine_faults: f64,
    /// Seed of the engine-fault plan (`--engine-fault-seed`).
    pub engine_fault_seed: u64,
}

impl Default for ExecOptions {
    /// All supervision features off and no cache — the in-process
    /// default for library callers and tests. Binaries get the cache-on
    /// default via [`ExecOptions::from_flags`].
    fn default() -> Self {
        ExecOptions {
            jobs: None,
            cache: false,
            cache_dir: None,
            max_retries: 0,
            job_deadline_secs: None,
            journal: None,
            resume: false,
            engine_faults: 0.0,
            engine_fault_seed: 0,
        }
    }
}

impl ExecOptions {
    /// Reads the execution flags shared by every experiment binary:
    /// `--jobs N`, `--no-cache`, `--cache-dir <dir>`, `--max-retries N`,
    /// `--job-deadline <sim-secs>`, `--journal <path>`, `--resume`,
    /// `--engine-faults <p>`, `--engine-fault-seed N`. The cache is on by
    /// default for binaries (interrupted sweeps resume).
    pub fn from_flags(flags: &crate::cli::Flags) -> Self {
        let journal = flags.get_str("journal").map(std::path::PathBuf::from);
        let resume = flags.get_bool("resume");
        if resume && journal.is_none() {
            eprintln!("warning: --resume has no effect without --journal <path>");
        }
        ExecOptions {
            jobs: flags.get_opt_usize("jobs"),
            cache: !flags.get_bool("no-cache"),
            cache_dir: flags.get_str("cache-dir").map(std::path::PathBuf::from),
            max_retries: flags.get_u64("max-retries", 0) as u32,
            job_deadline_secs: flags.get_opt_f64("job-deadline"),
            journal,
            resume,
            engine_faults: flags.get_f64("engine-faults", 0.0),
            engine_fault_seed: flags.get_u64("engine-fault-seed", 0),
        }
    }

    pub(crate) fn run_config(&self) -> RunConfig {
        RunConfig {
            threads: pool::resolve_threads(self.jobs),
            cache: self.cache.then(|| {
                ResultCache::new(
                    self.cache_dir
                        .clone()
                        .unwrap_or_else(ResultCache::default_dir),
                )
            }),
            code_version: SIM_CODE_VERSION.to_string(),
        }
    }

    pub(crate) fn supervision(&self) -> Supervision {
        Supervision {
            max_retries: self.max_retries,
            journal: self.journal.clone(),
            resume: self.resume,
            ..Supervision::default()
        }
        .with_deadline_secs(self.job_deadline_secs)
    }

    /// The engine-fault hook, when `--engine-faults` is positive.
    pub(crate) fn engine_fault_plan(&self) -> Option<EngineFaultPlan> {
        (self.engine_faults > 0.0)
            .then(|| EngineFaultPlan::transient(self.engine_fault_seed, self.engine_faults))
    }
}

/// Results of a cell batch: the successful outcomes of cell `i` in seed
/// order at `outcomes[i]`, plus the run manifest.
#[derive(Debug)]
pub struct CellRun {
    /// Per-cell successful outcomes, in seed order.
    pub outcomes: Vec<Vec<SeedOutcome>>,
    /// What the runner did (timings, cache hits, utilization).
    pub manifest: Manifest,
}

/// Runs every seed of every cell on the thread pool and groups the
/// results back per cell.
///
/// Execution is supervised per [`ExecOptions`]: jobs get retries,
/// sim-time deadlines, and optional journaling. A seed that still fails
/// after its retry budget (e.g. no connected deployment found, or a
/// deadline overrun) is quarantined — reported on stderr with its
/// reproducer seed and dropped from its cell's outcomes; the rest of the
/// batch is unaffected and the manifest's `failures` block records it.
pub fn run_cells(cells: &[SimCell], opts: &ExecOptions) -> CellRun {
    let fault_plan = opts.engine_fault_plan();
    let hook = fault_plan.as_ref().map(|p| p as &dyn JobFaultHook);
    let (outcomes, manifest) = run_grouped(
        cells,
        &opts.run_config(),
        &opts.supervision(),
        hook,
        None,
        execute,
    );
    CellRun { outcomes, manifest }
}

/// [`run_cells`] under an explicit runner config and supervision policy,
/// telling `observer` of each job as it settles: the sweep daemon's drain
/// path. The jobs, derived seeds and cache keys are those of
/// [`run_cells`], so a served sweep reproduces the batch
/// `results_digest`.
pub fn run_cells_observed(
    cells: &[SimCell],
    cfg: &RunConfig,
    sup: &Supervision,
    observer: &ProgressObserver,
) -> CellRun {
    let (outcomes, manifest) = run_grouped(cells, cfg, sup, None, Some(observer), execute);
    CellRun { outcomes, manifest }
}

/// What [`run_grouped`] needs from a cell.
pub(crate) trait Cell {
    /// The cell's label, the canonical descriptor it is cached and
    /// seeded under, and its seed indices in job order.
    fn jobs(&self) -> (&str, String, std::ops::Range<u64>);
}

impl Cell for SimCell {
    fn jobs(&self) -> (&str, String, std::ops::Range<u64>) {
        let seeds = self.seed_base..self.seed_base + self.seeds;
        (&self.label, self.descriptor(), seeds)
    }
}

/// Flattens cells into runner jobs, runs them through
/// [`run_supervised`], and groups the job-ordered results back per cell,
/// warning about (and dropping) quarantined seeds. The one cells → jobs
/// → outcomes path behind [`run_cells`], [`run_cells_observed`] and
/// [`crate::chaos_exec::run_chaos_cells`].
pub(crate) fn run_grouped<C, T>(
    cells: &[C],
    cfg: &RunConfig,
    sup: &Supervision,
    hook: Option<&dyn JobFaultHook>,
    observer: Option<&ProgressObserver>,
    exec: impl Fn(&C, u64, &JobContext) -> Result<T, JobFailure> + Sync,
) -> (Vec<Vec<T>>, Manifest)
where
    C: Cell + Sync,
    T: CacheValue + Send,
{
    let mut specs = Vec::new();
    let mut per_cell = Vec::with_capacity(cells.len());
    let mut lookup: BTreeMap<(u64, u64), &C> = BTreeMap::new();
    for cell in cells {
        let (label, descriptor, seeds) = cell.jobs();
        per_cell.push(seeds.end - seeds.start);
        for seed in seeds {
            let spec = JobSpec {
                label: format!("{label} seed={seed}"),
                scenario: descriptor.clone(),
                seed,
            };
            lookup.insert((spec.scenario_hash(), seed), cell);
            specs.push(spec);
        }
    }
    let report = run_supervised(cfg, sup, &specs, hook, observer, |job, derived, ctx| {
        exec(lookup[&(job.scenario_hash(), job.seed)], derived, ctx)
    });

    let mut results = report.results.into_iter();
    let outcomes = per_cell
        .into_iter()
        .map(|n| {
            results
                .by_ref()
                .take(n as usize)
                .filter_map(|r| {
                    r.map_err(|e| eprintln!("warning: {e}; excluded from aggregates"))
                        .ok()
                })
                .collect()
        })
        .collect();
    (outcomes, report.manifest)
}

/// Summarizes one metric over a cell's outcomes.
pub fn summarize(outcomes: &[SeedOutcome], metric: impl Fn(&SeedOutcome) -> f64) -> Summary {
    let xs: Vec<f64> = outcomes.iter().map(metric).collect();
    Summary::of(&xs)
}

fn execute(cell: &SimCell, derived_seed: u64, ctx: &JobContext) -> Result<SeedOutcome, JobFailure> {
    let _job = obs::span("job");
    let mut scenario = cell.scenario.clone();
    scenario.seed = derived_seed;
    let mut run = {
        let _span = obs::span("neighbor_discovery");
        scenario.build()
    };
    let mut drops_at = Vec::with_capacity(cell.sample_times.len());
    for &t in &cell.sample_times {
        ctx.charge_sim_to_secs(t)?;
        {
            let _span = obs::span("event_loop");
            run.run_until_secs(t);
        }
        drops_at.push(run.wormhole_dropped() as f64);
    }
    // Step the tail in chunks, charging sim time before each, so a
    // `--job-deadline` binds mid-run instead of only at the end. The
    // chunk boundaries are a pure function of the cell (duration / 8),
    // and the event queue processes identically under incremental
    // deadlines, so results stay byte-identical with or without a budget.
    let mut t = cell.sample_times.last().copied().unwrap_or(0.0);
    let chunk = (cell.duration / 8.0).max(1.0);
    while t < cell.duration {
        t = (t + chunk).min(cell.duration);
        ctx.charge_sim_to_secs(t)?;
        let _span = obs::span("event_loop");
        run.run_until_secs(t);
    }

    let (routes_total, routes_malicious) = run.route_counts();
    let first_detection_latency = run
        .sim()
        .trace()
        .first_isolation_time()
        .map(|t| t.saturating_since(run.attack_start()).as_secs_f64());
    let malicious: Vec<u32> = run.malicious().iter().map(|m| m.0).collect();
    let falsely_isolated: BTreeSet<u32> = run
        .sim()
        .trace()
        .isolations()
        .filter(|i| !malicious.contains(&i.suspect.0))
        .map(|i| i.suspect.0)
        .collect();

    Ok(SeedOutcome {
        drops_at,
        drops: run.wormhole_dropped() as f64,
        data_sent: run.data_sent() as f64,
        routes_total: routes_total as f64,
        routes_malicious: routes_malicious as f64,
        all_detected: run.all_detected(),
        first_detection_latency,
        isolation_latency: run.isolation_latency_secs(),
        false_isolations: falsely_isolated.len() as f64,
        collision_fraction: run.sim().metrics().collision_fraction(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_ignores_seed_but_not_config() {
        let cell = |seed, nodes| {
            SimCell::snapshot(
                "t",
                Scenario {
                    nodes,
                    seed,
                    ..Scenario::default()
                },
                1,
                0,
                100.0,
            )
        };
        assert_eq!(cell(1, 30).descriptor(), cell(2, 30).descriptor());
        assert_ne!(cell(1, 30).descriptor(), cell(1, 40).descriptor());
        let mut timed = cell(1, 30);
        timed.sample_times = vec![50.0];
        assert_ne!(timed.descriptor(), cell(1, 30).descriptor());
    }

    #[test]
    fn seed_outcome_round_trips_through_json() {
        let outcome = SeedOutcome {
            drops_at: vec![1.0, 2.5],
            drops: 2.5,
            data_sent: 100.0,
            routes_total: 12.0,
            routes_malicious: 3.0,
            all_detected: true,
            first_detection_latency: Some(4.25),
            isolation_latency: None,
            false_isolations: 0.0,
            collision_fraction: 0.125,
        };
        let json = outcome.to_json();
        let parsed = Json::parse(&json.dump()).unwrap();
        assert_eq!(SeedOutcome::from_json(&parsed), Some(outcome));
    }

    #[test]
    fn small_batch_runs_and_groups_by_cell() {
        let base = Scenario {
            nodes: 20,
            malicious: 0,
            ..Scenario::default()
        };
        let cells = vec![
            SimCell::snapshot("clean a", base.clone(), 2, 0, 60.0),
            SimCell::snapshot("clean b", base, 1, 100, 60.0),
        ];
        let run = run_cells(&cells, &ExecOptions::default());
        assert_eq!(run.outcomes.len(), 2);
        assert_eq!(run.outcomes[0].len(), 2);
        assert_eq!(run.outcomes[1].len(), 1);
        assert_eq!(run.manifest.jobs, 3);
        for o in run.outcomes.iter().flatten() {
            assert_eq!(o.drops, 0.0, "no attackers, no wormhole drops");
            assert!(o.data_sent > 0.0, "traffic should flow");
        }
    }

    #[test]
    fn observed_runs_match_the_batch_digest_and_attribute_their_pool() {
        let base = Scenario {
            nodes: 20,
            malicious: 0,
            ..Scenario::default()
        };
        let cells = vec![
            SimCell::snapshot("obs a", base.clone(), 2, 0, 40.0),
            SimCell::snapshot("obs b", base, 1, 7, 40.0),
        ];
        let opts = ExecOptions {
            jobs: Some(2),
            ..ExecOptions::default()
        };
        let batch = run_cells(&cells, &opts);
        let seen = std::sync::atomic::AtomicUsize::new(0);
        let observer = |p: liteworp_runner::JobProgress| {
            assert!(p.ok && !p.cached && !p.journaled && p.total == 3);
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        };
        let served = run_cells_observed(&cells, &opts.run_config(), &opts.supervision(), &observer);
        assert_eq!(seen.into_inner(), 3, "one progress call per job");
        assert_eq!(
            served.manifest.results_digest,
            batch.manifest.results_digest
        );
        assert_eq!(served.outcomes, batch.outcomes);
        assert_eq!(served.manifest.utilization.len(), 2, "per-worker busy time");
    }
}
