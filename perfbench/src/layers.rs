//! One simulation job run through the public `Scenario` / `ScenarioRun`
//! calls, timed per phase, with the per-layer counters the program
//! already keeps.
//!
//! The event loop is advanced to the attack start, then to the end of
//! the detection window, then to the end of the run. The event queue
//! processes identically however `run_until_secs` is split, so a phased
//! job simulates exactly what the runner's job does.

use crate::report::{mean, Report};
use crate::trace::Tracer;
use crate::Args;
use liteworp::types::NodeId as CoreId;
use liteworp_bench::exec::{run_cells, CellRun, ExecOptions, SimCell};
use liteworp_bench::Scenario;
use liteworp_runner::{JobSpec, Manifest, Percentiles};
use std::collections::BTreeMap;
use std::time::Instant;

/// Length of the detection window after the attack starts, in simulated
/// seconds. Isolation at paper density lands 8–15 s after the start.
pub const DETECT_WINDOW_S: f64 = 50.0;

/// Exact counts from one or more runs, keyed by metric name.
pub type Counts = BTreeMap<String, u64>;

/// The three event-loop windows, in order.
pub const WINDOWS: [&str; 3] = ["pre_attack", "detect", "steady"];

/// One phased job.
pub struct PhasedJob {
    pub protected: bool,
    pub build_ns: u64,
    /// Host ns of each event-loop window.
    pub window_ns: [u64; 3],
    pub counts: Counts,
}

impl PhasedJob {
    pub fn loop_ns(&self) -> u64 {
        self.window_ns.iter().sum()
    }

    /// Receptions the medium resolved: delivered or collided.
    pub fn receptions(&self) -> u64 {
        self.counts["netsim.rx_delivered"] + self.counts["netsim.rx_collided"]
    }
}

/// Seed `seed` of `cell` as the runner simulates it: the cell's scenario
/// with the job's derived RNG seed, and the cell's duration.
pub fn runner_job(cell: &SimCell, seed: u64) -> (Scenario, f64) {
    let spec = JobSpec {
        label: String::new(),
        scenario: cell.descriptor(),
        seed,
    };
    let mut scenario = cell.scenario.clone();
    scenario.seed = spec.derived_seed();
    (scenario, cell.duration)
}

/// Builds and runs `scenario` for `duration` simulated seconds, phase by
/// phase, recording spans when the tracer is on.
pub fn run_phased(scenario: &Scenario, duration: f64, tracer: &mut Tracer) -> PhasedJob {
    let variant = if scenario.protected {
        "liteworp"
    } else {
        "baseline"
    };
    let job_span = tracer.begin(format!("job.{variant}"));
    let span = tracer.begin("scenario.build");
    let t0 = Instant::now();
    let mut run = scenario.build();
    let build_ns = t0.elapsed().as_nanos() as u64;
    tracer.end(span);

    let attack = scenario.attack_start.min(duration);
    let bounds = [attack, (attack + DETECT_WINDOW_S).min(duration), duration];
    let mut window_ns = [0u64; 3];
    let mut watch_rows_peak = 0u64;
    for (i, &until) in bounds.iter().enumerate() {
        let span = tracer.begin(format!("event_loop.{}.{variant}", WINDOWS[i]));
        let t = Instant::now();
        run.run_until_secs(until);
        window_ns[i] = t.elapsed().as_nanos() as u64;
        tracer.end(span);
        if scenario.protected {
            let rows: usize = (0..run.sim().node_count())
                .filter_map(|n| run.protocol_node(CoreId(n as u32)).liteworp())
                .map(|l| l.monitor().watch().len())
                .sum();
            watch_rows_peak = watch_rows_peak.max(rows as u64);
        }
    }

    let m = run.sim().metrics();
    let mut counts = Counts::new();
    let mut put = |k: &str, v: u64| {
        counts.insert(k.to_string(), v);
    };
    put("netsim.frames_sent", m.frames_sent);
    put("netsim.rx_delivered", m.frames_delivered);
    put("netsim.rx_collided", m.frames_collided);
    put("netsim.rx_lost_noise", m.frames_lost_noise);
    put("netsim.mac_deferrals", m.mac_deferrals);
    put("routing.unicast_retries", m.get("unicast_retries"));
    put("routing.unicast_exhausted", m.get("unicast_exhausted"));
    put("routing.route_requests", m.get("route_requests"));
    put("routing.routes_established", m.get("routes_established"));
    put("routing.queue_overflow", m.get("data_queue_overflow"));
    put("routing.data_sent", m.get("data_sent"));
    put("routing.data_delivered", m.get("data_delivered"));
    put("core.watch_expiries", m.get("watch_expiries"));
    put("core.suspicions", m.get("suspicions"));
    put("core.alerts_sent", m.get("alerts_sent"));
    put("core.alerts_relayed", m.get("alerts_relayed"));
    put("core.isolations", m.get("isolations"));
    put("core.watch_rows_peak", watch_rows_peak);
    put(
        "attacks.tunneled",
        m.get("wormhole_tunneled_requests") + m.get("wormhole_tunneled_replies"),
    );
    put("attacks.dropped", m.get("wormhole_dropped"));
    put("attacks.all_detected", u64::from(run.all_detected()));
    for (kind, n) in run.sim().trace().log().counts() {
        put(&format!("trace.{kind}"), n);
    }
    tracer.end(job_span);
    PhasedJob {
        protected: scenario.protected,
        build_ns,
        window_ns,
        counts,
    }
}

/// Every job run twice, without and with tracing.
pub struct Paired {
    pub traced: Vec<PhasedJob>,
    pub untraced: Vec<PhasedJob>,
    /// Host seconds the traced runs took beyond the untraced ones.
    pub overhead_s: f64,
}

/// Runs each `(scenario, duration)` job untraced and traced, alternating
/// which goes first, so drift in the host's speed cancels out of the
/// tracing overhead. The two runs of a job must count identically.
pub fn paired(jobs: &[(Scenario, f64)], tracer: &mut Tracer) -> Paired {
    let quiet = &mut Tracer::new(false);
    let mut out = Paired {
        traced: Vec::new(),
        untraced: Vec::new(),
        overhead_s: 0.0,
    };
    for (i, (scenario, duration)) in jobs.iter().enumerate() {
        let timed = |tracer: &mut Tracer| {
            let t = Instant::now();
            let job = run_phased(scenario, *duration, tracer);
            (job, t.elapsed().as_secs_f64())
        };
        let ((traced, t_on), (untraced, t_off)) = if i % 2 == 0 {
            let off = timed(quiet);
            (timed(tracer), off)
        } else {
            let on = timed(tracer);
            (on, timed(quiet))
        };
        out.overhead_s += t_on - t_off;
        out.traced.push(traced);
        out.untraced.push(untraced);
    }
    out
}

/// The runner layer: `cells` through `exec::run_cells` on `threads`
/// workers with a cold cache, then again on the warm cache, each in a
/// span. The warm pass must hit the cache for every job and reproduce
/// the cold digest. Returns both runs and the runner's figures.
pub fn runner_pass(
    args: &Args,
    cells: &[SimCell],
    threads: usize,
    report: &mut Report,
    tracer: &mut Tracer,
) -> (CellRun, CellRun, BTreeMap<&'static str, f64>) {
    let cache_dir = args.work_dir.join("runner-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let opts = ExecOptions {
        jobs: Some(threads),
        cache: true,
        cache_dir: Some(cache_dir.clone()),
        ..ExecOptions::default()
    };
    let span = tracer.begin("runner.run_cells.cold_cache");
    let miss = run_cells(cells, &opts);
    tracer.end(span);
    let span = tracer.begin("runner.run_cells.warm_cache");
    let hit = run_cells(cells, &opts);
    tracer.end(span);
    let _ = std::fs::remove_dir_all(&cache_dir);
    let (m, h) = (&miss.manifest, &hit.manifest);
    report.check(h.cache_hits == h.jobs, || {
        format!("warm-cache batch hit {} of {} jobs", h.cache_hits, h.jobs)
    });
    report.check(h.results_digest == m.results_digest, || {
        format!(
            "warm-cache digest {:016x} != cold {:016x}",
            h.results_digest, m.results_digest
        )
    });
    let metrics = runner_metrics(m, h);
    (miss, hit, metrics)
}

/// Runner figures of a cold-cache batch and the same batch again.
fn runner_metrics(miss: &Manifest, hit: &Manifest) -> BTreeMap<&'static str, f64> {
    let mut last_finish: BTreeMap<usize, f64> = BTreeMap::new();
    for j in &miss.per_job {
        let end = j.queue_wait_ms + j.wall_ms;
        let slot = last_finish.entry(j.worker).or_insert(0.0);
        *slot = slot.max(end);
    }
    let batch_end = last_finish.values().copied().fold(0.0, f64::max);
    let tail_idle_ms: f64 = last_finish.values().map(|&f| batch_end - f).sum();
    let p50 = |p: &Option<Percentiles>| p.as_ref().map_or(0.0, |p| p.p50);
    BTreeMap::from([
        ("runner.utilization", mean(&miss.utilization)),
        ("runner.queue_wait_p50_ms", p50(&miss.queue_wait_ms)),
        ("runner.tail_idle_s", tail_idle_ms / 1000.0),
        ("runner.cache_hit_ms", p50(&hit.cache_hit_ms)),
        ("runner.cache_miss_ms", p50(&miss.cache_miss_ms)),
        ("runner.cache_hits", hit.cache_hits as f64),
    ])
}

/// Sums counts over jobs; `core.watch_rows_peak` takes the maximum.
pub fn total_counts<'a>(jobs: impl IntoIterator<Item = &'a PhasedJob>) -> Counts {
    let mut total = Counts::new();
    for job in jobs {
        for (k, &v) in &job.counts {
            let slot = total.entry(k.clone()).or_insert(0);
            if k == "core.watch_rows_peak" {
                *slot = (*slot).max(v);
            } else {
                *slot += v;
            }
        }
    }
    total
}

/// The first count that differs between two tallies, if any.
pub fn first_difference(a: &Counts, b: &Counts) -> Option<String> {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter().find_map(|k| {
        let (x, y) = (a.get(k).copied(), b.get(k).copied());
        (x != y).then(|| format!("{k}: {x:?} vs {y:?}"))
    })
}

/// Per-layer metrics of a set of phased jobs, as `(name, value, unit)`.
/// Timings are per job (means); counts are totals over the jobs.
pub fn layer_metrics(jobs: &[PhasedJob]) -> Vec<(&'static str, f64, &'static str)> {
    let c = total_counts(jobs);
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let variant = |protected: bool| jobs.iter().filter(move |j| j.protected == protected);
    let ns_per_rx = |protected: bool| {
        let ns: u64 = variant(protected).map(PhasedJob::loop_ns).sum();
        let rx: u64 = variant(protected).map(PhasedJob::receptions).sum();
        ratio(ns as f64, rx as f64)
    };
    let window_ms = |protected: bool, w: usize| {
        let n = variant(protected).count();
        let ns: u64 = variant(protected).map(|j| j.window_ns[w]).sum();
        ratio(ns as f64 / 1e6, n as f64)
    };
    let builds: Vec<f64> = jobs.iter().map(|j| j.build_ns as f64 / 1e6).collect();
    let rx = get("netsim.rx_delivered") + get("netsim.rx_collided");
    let netsim_ns = ns_per_rx(false);
    let core_ns = ns_per_rx(true);
    vec![
        ("scenario.build_ms", crate::report::median(&builds), "ms"),
        ("netsim.frames_sent", get("netsim.frames_sent"), "count"),
        ("netsim.rx_delivered", get("netsim.rx_delivered"), "count"),
        ("netsim.rx_collided", get("netsim.rx_collided"), "count"),
        ("netsim.mac_deferrals", get("netsim.mac_deferrals"), "count"),
        (
            "netsim.fanout",
            ratio(rx, get("netsim.frames_sent")),
            "ratio",
        ),
        (
            "netsim.collision_fraction",
            ratio(get("netsim.rx_collided"), rx + get("netsim.rx_lost_noise")),
            "ratio",
        ),
        ("netsim.ns_per_rx", netsim_ns, "ns"),
        (
            "routing.unicast_retries",
            get("routing.unicast_retries"),
            "count",
        ),
        (
            "routing.unicast_exhausted",
            get("routing.unicast_exhausted"),
            "count",
        ),
        (
            "routing.route_requests",
            get("routing.route_requests"),
            "count",
        ),
        (
            "routing.routes_established",
            get("routing.routes_established"),
            "count",
        ),
        (
            "routing.queue_overflow",
            get("routing.queue_overflow"),
            "count",
        ),
        (
            "routing.delivery_ratio",
            ratio(get("routing.data_delivered"), get("routing.data_sent")),
            "ratio",
        ),
        ("core.watch_expiries", get("core.watch_expiries"), "count"),
        ("core.suspicions", get("core.suspicions"), "count"),
        ("core.alerts_sent", get("core.alerts_sent"), "count"),
        ("core.alerts_relayed", get("core.alerts_relayed"), "count"),
        ("core.isolations", get("core.isolations"), "count"),
        ("core.watch_rows_peak", get("core.watch_rows_peak"), "count"),
        ("core.ns_per_rx", core_ns, "ns"),
        ("core.cost_ratio", ratio(core_ns, netsim_ns), "ratio"),
        ("core.pre_attack_ms.liteworp", window_ms(true, 0), "ms"),
        ("core.detect_ms.liteworp", window_ms(true, 1), "ms"),
        ("core.steady_ms.liteworp", window_ms(true, 2), "ms"),
        ("core.pre_attack_ms.baseline", window_ms(false, 0), "ms"),
        ("core.detect_ms.baseline", window_ms(false, 1), "ms"),
        ("core.steady_ms.baseline", window_ms(false, 2), "ms"),
        ("attacks.tunneled", get("attacks.tunneled"), "count"),
        ("attacks.dropped", get("attacks.dropped"), "count"),
    ]
}

/// The per-layer attribution table of a set of phased jobs: where the
/// host time went, by layer, and where the LITEWORP-minus-baseline job
/// time falls across the three windows.
///
/// From outside the program, one event loop cannot be split by layer.
/// The table therefore charges each LITEWORP loop the undefended cost per
/// reception (`netsim.ns_per_rx`, medium + MAC + routing + attacks) for
/// its own receptions, and attributes the remainder to `core`.
pub fn attribution_table(jobs: &[PhasedJob]) -> String {
    let sum = |f: &dyn Fn(&PhasedJob) -> u64, protected: Option<bool>| -> f64 {
        jobs.iter()
            .filter(|j| protected.is_none_or(|p| j.protected == p))
            .map(f)
            .sum::<u64>() as f64
    };
    let build = sum(&|j| j.build_ns, None);
    let base_loop = sum(&PhasedJob::loop_ns, Some(false));
    let base_rx = sum(&PhasedJob::receptions, Some(false)).max(1.0);
    let lite_loop = sum(&PhasedJob::loop_ns, Some(true));
    let lite_rx = sum(&PhasedJob::receptions, Some(true));
    let lite_undefended = (lite_rx * base_loop / base_rx).min(lite_loop);
    let core = lite_loop - lite_undefended;
    let total = (build + base_loop + lite_loop).max(1.0);
    let mut out = String::from("layer                                   self ms    share\n");
    for (layer, ns) in [
        ("bench::scenario (Scenario::build)", build),
        (
            "netsim+routing+attacks (event loop)",
            base_loop + lite_undefended,
        ),
        ("core (LITEWORP, beyond undefended/rx)", core),
    ] {
        out.push_str(&format!(
            "{layer:<38} {:>9.1} {:>7.1}%\n",
            ns / 1e6,
            100.0 * ns / total
        ));
    }
    let n_lite = jobs.iter().filter(|j| j.protected).count().max(1) as f64;
    let n_base = jobs.iter().filter(|j| !j.protected).count().max(1) as f64;
    let deltas: Vec<f64> = (0..3)
        .map(|w| {
            sum(&|j| j.window_ns[w], Some(true)) / n_lite / 1e6
                - sum(&|j| j.window_ns[w], Some(false)) / n_base / 1e6
        })
        .collect();
    let delta_total: f64 = deltas.iter().sum();
    let lite_ns_per_rx = lite_loop / lite_rx.max(1.0);
    let base_ns_per_rx = base_loop / base_rx;
    out.push_str(&format!(
        "\ncore.cost_ratio {:.3} = core.ns_per_rx {lite_ns_per_rx:.1} / netsim.ns_per_rx {base_ns_per_rx:.1}\n",
        lite_ns_per_rx / base_ns_per_rx
    ));
    out.push_str("\nLITEWORP minus baseline, mean ms per job (core.<window>_ms.liteworp - .baseline)\nwindow          liteworp   baseline      delta    share\n");
    for (w, name) in WINDOWS.iter().enumerate() {
        let lite = sum(&|j| j.window_ns[w], Some(true)) / n_lite / 1e6;
        let base = sum(&|j| j.window_ns[w], Some(false)) / n_base / 1e6;
        out.push_str(&format!(
            "{name:<14} {lite:>9.2} {base:>10.2} {:>10.2} {:>7.1}%\n",
            deltas[w],
            if delta_total.abs() > 0.0 {
                100.0 * deltas[w] / delta_total
            } else {
                0.0
            }
        ));
    }
    out
}
