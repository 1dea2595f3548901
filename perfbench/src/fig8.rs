//! `paper_fig8`: the Figure 8 cells at paper scale (100 nodes, M ∈ {2, 4},
//! LITEWORP on and off), cache off, through `exec::run_cells` on a
//! 2-thread runner pool, with seeds and duration reduced.

use crate::layers::{self, run_phased, total_counts, PhasedJob};
use crate::pins::{self, Pin};
use crate::report::{describe_tail, median, own_peak_rss_mb, tail, Report};
use crate::trace::Tracer;
use crate::Args;
use liteworp_bench::exec::{run_cells, CellRun, ExecOptions, SimCell};
use liteworp_bench::experiments::fig8::{self, Fig8Config};
use liteworp_bench::Scenario;
use liteworp_runner::pool;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub const NAME: &str = "paper_fig8";
/// Runner pool threads.
const THREADS: usize = 2;
/// Seeds per cell: 4 cells × 2 seeds = 8 jobs per batch.
const SEEDS_PER_CELL: u64 = 2;
/// Simulated seconds per job (the paper runs 2000 s; the attack starts
/// at 50 s, isolation follows within ≈ 15 s).
const DURATION_S: f64 = 200.0;
/// Host seconds one batch takes on the reference machine; the timed
/// phase runs `ceil(seconds / ROUND_S)` batches.
const ROUND_S: f64 = 2.0;
/// Set-up repetitions before each batch (median over the run reported).
const SETUP_REPS: usize = 3;
/// Distinct batches per slot; batch `r` of a run simulates batch
/// `r % BATCHES`, so a 20 s run simulates ten different sets of worlds.
const BATCHES: u64 = 12;

/// Batch `batch` of a seed slot: the Figure 8 cells with their own seed
/// base.
pub fn cells(slot: u64, batch: u64) -> Vec<SimCell> {
    let cfg = Fig8Config {
        nodes: 100,
        colluder_counts: vec![2, 4],
        seeds: SEEDS_PER_CELL,
        duration: DURATION_S,
        sample_every: 50.0,
    };
    let mut cells = fig8::cells(&cfg);
    for cell in &mut cells {
        cell.seed_base = 1000 + SEEDS_PER_CELL * (slot * BATCHES + batch % BATCHES);
    }
    cells
}

/// Every job of the batch as the scenario the runner simulates, with its
/// duration, in job order.
fn job_scenarios(cells: &[SimCell]) -> Vec<(Scenario, f64)> {
    cells
        .iter()
        .flat_map(|c| (0..c.seeds).map(move |s| layers::runner_job(c, c.seed_base + s)))
        .collect()
}

/// The timed phase's runner options: the pool, cache off.
fn options() -> ExecOptions {
    ExecOptions {
        jobs: Some(THREADS),
        ..ExecOptions::default()
    }
}

fn check_batch(report: &mut Report, run: &CellRun, pin: Option<&Pin>, batch: u64) {
    let m = &run.manifest;
    report.attempted += m.jobs as u64;
    report.failed += m.failed as u64;
    let batch = batch % BATCHES;
    if m.failed > 0 {
        report
            .problems
            .push(format!("batch {batch}: {} job(s) failed", m.failed));
    }
    let digest = format!("{:016x}", m.results_digest);
    let want = pin.and_then(|p| p.digests.get(&format!("batch{batch}")));
    report.check(want == Some(&digest), || {
        format!("batch {batch}: results_digest {digest} != pinned {want:?}")
    });
}

/// The timed, untraced run.
pub fn run(args: &Args, report: &mut Report) {
    let slot = args.slot();
    let pin = pins::lookup(NAME, slot);
    let rounds = ((args.seconds / ROUND_S).ceil() as usize).max(2);
    let (mut lite, mut base, mut done) = (Vec::new(), Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let mut wall = 0.0;
    for r in 0..rounds as u64 {
        let cells = cells(slot, r);
        // Set-up, sampled before every batch so its median spans the
        // run: start the pool and build the batch's scenarios.
        let scenarios = job_scenarios(&cells);
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            pool::run(THREADS, THREADS, black_box);
            for (s, _) in &scenarios {
                black_box(s.build());
            }
            setups.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let batch = run_cells(&cells, &options());
        wall += t.elapsed().as_secs_f64();
        check_batch(report, &batch, pin.as_ref(), r);
        for j in &batch.manifest.per_job {
            if j.label.contains("liteworp") {
                lite.push(j.wall_ms);
            } else {
                base.push(j.wall_ms);
            }
            done.push(j.queue_wait_ms + j.wall_ms);
        }
    }
    eprintln!(
        "{NAME}: slot {slot}, {rounds} batches of 8 jobs on {THREADS} threads; {}",
        describe_tail("sweep_p95_ms", &done)
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("wall_s", wall, "s");
    report.metric("job_liteworp_ms", median(&lite), "ms");
    report.metric("job_baseline_ms", median(&base), "ms");
    report.metric("sweep_p50_ms", median(&done), "ms");
    report.metric("sweep_p95_ms", tail(&done).1, "ms");
    report.metric("peak_rss_mb", own_peak_rss_mb(), "MB");
}

/// The traced run: per-layer figures and the attribution table.
pub fn traced(args: &Args, report: &mut Report) -> BTreeMap<&'static str, f64> {
    let slot = args.slot();
    let cells = cells(slot, 0);
    let pin = pins::lookup(NAME, slot);
    let mut tracer = Tracer::new(true);

    let (miss, hit, mut out) = layers::runner_pass(args, &cells, THREADS, report, &mut tracer);
    check_batch(report, &miss, pin.as_ref(), 0);
    check_batch(report, &hit, pin.as_ref(), 0);

    let passes = layers::paired(&job_scenarios(&cells), &mut tracer);
    let jobs = &passes.traced;
    report.attempted += 2 * jobs.len() as u64;
    crate::check_counts(
        report,
        &total_counts(jobs),
        &total_counts(&passes.untraced),
        pin.as_ref(),
    );

    out.extend(
        layers::layer_metrics(jobs)
            .into_iter()
            .map(|(k, v, _)| (k, v)),
    );
    out.insert("trace.overhead_s", passes.overhead_s);
    out.extend(crate::served::probe(args, report, &mut tracer));
    eprintln!("{NAME} traced pass, slot {slot}:\n{}", tracer.table());
    eprintln!("{}", layers::attribution_table(jobs));
    crate::write_spans(args, NAME, &tracer);
    out
}

/// The pin of one slot: every batch's digest and the counts of the
/// traced pass over batch 0.
pub fn pin(slot: u64) -> Pin {
    let digests = (0..BATCHES)
        .map(|b| {
            let run = run_cells(&cells(slot, b), &options());
            (
                format!("batch{b}"),
                format!("{:016x}", run.manifest.results_digest),
            )
        })
        .collect();
    let jobs: Vec<PhasedJob> = job_scenarios(&cells(slot, 0))
        .iter()
        .map(|(s, d)| run_phased(s, *d, &mut Tracer::new(false)))
        .collect();
    Pin {
        digests,
        counts: total_counts(&jobs),
    }
}
