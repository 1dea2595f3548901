//! `scale_100k`: the `scale_sweep` 100 000-node scenario (64 traffic
//! sources, TTL-scoped discovery), a few seeds one after another on one
//! thread. Each seed runs with LITEWORP and, on the same deployment,
//! without it; every build and event loop is timed on its own.

use crate::layers::{self, run_phased, total_counts, PhasedJob};
use crate::pins::{self, Pin};
use crate::report::{describe_tail, median, own_peak_rss_mb, tail, Report};
use crate::trace::Tracer;
use crate::Args;
use liteworp_bench::exec::SimCell;
use liteworp_bench::experiments::scale_sweep::{self, ScaleRow, ScaleSweepConfig};
use liteworp_bench::Scenario;
use liteworp_runner::cache::fnv64;
use std::collections::BTreeMap;
use std::time::Instant;

pub const NAME: &str = "scale_100k";
const NODES: usize = 100_000;
/// Seeds per slot; the timed phase cycles through them.
const SEEDS_PER_SLOT: u64 = 2;
/// Host seconds one seed (both variants) takes on the reference
/// machine; the timed phase runs `ceil(seconds / ROUND_S)` seeds.
const ROUND_S: f64 = 3.0;

/// The slot's cell: the scale sweep's 100k cell with the slot's seeds,
/// seed indices `7000 + SEEDS_PER_SLOT * slot + k` of that sweep.
fn cell(slot: u64) -> SimCell {
    let cfg = ScaleSweepConfig::default();
    SimCell::snapshot(
        "scale",
        scale_sweep::scenario_for(&cfg, NODES),
        SEEDS_PER_SLOT,
        7_000 + SEEDS_PER_SLOT * slot,
        cfg.duration,
    )
}

/// The slot's seeds: `(label, LITEWORP scenario)`, each the job the
/// runner would run for that seed of the cell.
fn seeds(slot: u64) -> Vec<(String, Scenario)> {
    let cell = cell(slot);
    (0..cell.seeds)
        .map(|k| {
            let j = cell.seed_base + k;
            (format!("seed{j}"), layers::runner_job(&cell, j).0)
        })
        .collect()
}

fn undefended(scenario: &Scenario) -> Scenario {
    Scenario {
        protected: false,
        ..scenario.clone()
    }
}

fn duration() -> f64 {
    ScaleSweepConfig::default().duration
}

/// The digest of one run: FNV-64 over its exact counts.
fn digest(job: &PhasedJob) -> String {
    let text: String = job
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    format!("{:016x}", fnv64(text.as_bytes()))
}

fn check_run(report: &mut Report, pin: Option<&Pin>, key: &str, job: &PhasedJob) {
    let got = digest(job);
    let want = pin.and_then(|p| p.digests.get(key));
    report.check(want == Some(&got), || {
        format!("{key}: digest {got} != pinned {want:?}")
    });
}

/// `scale_sweep::check` on the LITEWORP runs: detection rate against
/// the closed form at the measured collision fraction, and guard
/// coverage of the deployment against the exact geometry.
fn check_closed_forms(report: &mut Report, runs: &[&PhasedJob]) {
    let cfg = ScaleSweepConfig::default();
    let geometry = scale_sweep::measure_geometry(
        NODES,
        cfg.avg_neighbors,
        Scenario::default().radio.range_m,
        cfg.guard_links,
        41 + NODES as u64,
    );
    let n = runs.len().max(1) as f64;
    let per_run = |f: &dyn Fn(&PhasedJob) -> f64| runs.iter().map(|j| f(j)).sum::<f64>() / n;
    let collision_fraction = per_run(&|j| {
        let c = |k: &str| j.counts[k] as f64;
        c("netsim.rx_collided")
            / (c("netsim.rx_delivered") + c("netsim.rx_collided") + c("netsim.rx_lost_noise"))
                .max(1.0)
    });
    let row = ScaleRow {
        nodes: NODES,
        seeds: runs.len(),
        geometry,
        detection_rate: per_run(&|j| j.counts["attacks.all_detected"] as f64),
        predicted_detection: scale_sweep::detection_model(collision_fraction)
            .detection_probability_with(
                geometry.measured_guards.round() as u64,
                collision_fraction,
            ),
        collision_fraction,
        data_sent: per_run(&|j| j.counts["routing.data_sent"] as f64),
        drops: per_run(&|j| j.counts["attacks.dropped"] as f64),
    };
    let violations = scale_sweep::check(&[row]);
    report.check(violations.is_empty(), || {
        format!("closed-form bounds: {}", violations.join("; "))
    });
}

/// The timed, untraced run.
pub fn run(args: &Args, report: &mut Report) {
    let slot = args.slot();
    let pin = pins::lookup(NAME, slot);
    let seeds = seeds(slot);
    let rounds = ((args.seconds / ROUND_S).ceil() as usize).max(SEEDS_PER_SLOT as usize);
    let quiet = &mut Tracer::new(false);
    let (mut builds, mut lite, mut base, mut per_seed) = (vec![], vec![], vec![], vec![]);
    let mut protected_runs = Vec::new();
    let t = Instant::now();
    for r in 0..rounds {
        let (label, scenario) = &seeds[r % seeds.len()];
        let on = run_phased(scenario, duration(), quiet);
        let off = run_phased(&undefended(scenario), duration(), quiet);
        report.attempted += 2;
        check_run(report, pin.as_ref(), &format!("{label}.liteworp"), &on);
        check_run(report, pin.as_ref(), &format!("{label}.baseline"), &off);
        builds.push(on.build_ns as f64 / 1e9);
        lite.push(on.loop_ns() as f64 / 1e6);
        base.push(off.loop_ns() as f64 / 1e6);
        per_seed.push((on.build_ns + on.loop_ns()) as f64 / 1e6);
        if r < seeds.len() {
            protected_runs.push(on);
        }
    }
    let wall = t.elapsed().as_secs_f64();
    check_closed_forms(report, &protected_runs.iter().collect::<Vec<_>>());
    eprintln!(
        "{NAME}: slot {slot}, {rounds} seeds x 2 variants on 1 thread; {}; builds {:?} s",
        describe_tail("sweep_p95_ms", &per_seed),
        builds
            .iter()
            .map(|b| (b * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    report.metric("setup_s", median(&builds), "s");
    report.metric("wall_s", wall, "s");
    report.metric("job_liteworp_ms", median(&lite), "ms");
    report.metric("job_baseline_ms", median(&base), "ms");
    report.metric("sweep_p50_ms", median(&per_seed), "ms");
    report.metric("sweep_p95_ms", tail(&per_seed).1, "ms");
    report.metric("peak_rss_mb", own_peak_rss_mb(), "MB");
}

/// Every seed of the slot, both variants: labels and `(scenario, duration)` jobs.
fn all_runs(slot: u64) -> (Vec<String>, Vec<(Scenario, f64)>) {
    let mut labels = Vec::new();
    let mut jobs = Vec::new();
    for (label, scenario) in seeds(slot) {
        labels.push(format!("{label}.liteworp"));
        labels.push(format!("{label}.baseline"));
        let off = undefended(&scenario);
        jobs.push((scenario, duration()));
        jobs.push((off, duration()));
    }
    (labels, jobs)
}

/// The traced run: per-layer figures and the attribution table.
pub fn traced(args: &Args, report: &mut Report) -> BTreeMap<&'static str, f64> {
    let slot = args.slot();
    let pin = pins::lookup(NAME, slot);
    let (labels, runs) = all_runs(slot);
    let mut tracer = Tracer::new(true);
    let passes = layers::paired(&runs, &mut tracer);
    let jobs = &passes.traced;
    report.attempted += 2 * jobs.len() as u64;
    for (key, job) in labels.iter().zip(jobs) {
        check_run(report, pin.as_ref(), key, job);
    }
    crate::check_counts(
        report,
        &total_counts(jobs),
        &total_counts(&passes.untraced),
        pin.as_ref(),
    );
    check_closed_forms(
        report,
        &jobs.iter().filter(|j| j.protected).collect::<Vec<_>>(),
    );

    let mut out: BTreeMap<&'static str, f64> = layers::layer_metrics(jobs)
        .into_iter()
        .map(|(k, v, _)| (k, v))
        .collect();
    // The undefended builds skip LITEWORP's key and neighbor set-up; the
    // figure that moves `setup_s` is the LITEWORP build.
    let builds: Vec<f64> = jobs
        .iter()
        .filter(|j| j.protected)
        .map(|j| j.build_ns as f64 / 1e6)
        .collect();
    out.insert("scenario.build_ms", median(&builds));
    out.insert("trace.overhead_s", passes.overhead_s);
    // The runner and served layers, which the timed phase does not use:
    // the slot's LITEWORP seeds through `run_cells` on two workers, then
    // the served probe.
    let (_, _, runner) = layers::runner_pass(args, &[cell(slot)], 2, report, &mut tracer);
    out.extend(runner);
    out.extend(crate::served::probe(args, report, &mut tracer));
    eprintln!("{NAME} traced pass, slot {slot}:\n{}", tracer.table());
    eprintln!("{}", layers::attribution_table(jobs));
    crate::write_spans(args, NAME, &tracer);
    out
}

/// The pin of one slot: a digest per seed and variant, and the counts of
/// the slot's pass.
pub fn pin(slot: u64) -> Pin {
    let (labels, runs) = all_runs(slot);
    let jobs: Vec<PhasedJob> = runs
        .iter()
        .map(|(s, d)| run_phased(s, *d, &mut Tracer::new(false)))
        .collect();
    Pin {
        digests: labels.into_iter().zip(jobs.iter().map(digest)).collect(),
        counts: total_counts(&jobs),
    }
}
