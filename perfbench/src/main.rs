//! The benchmark of the LITEWORP reproduction.
//!
//! ```text
//! perfbench --workload <paper_fig8|scale_100k|all> --seed N
//!           --seconds S --trace <0|1> [--served-bin PATH] [--work-dir DIR]
//! perfbench --pin --workload <NAME|all>
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! every per-layer metric, a span table and a per-layer attribution
//! table (stderr), and writes the spans to `<work-dir>/spans-<workload>.jsonl`.
//! Each workload's result is one JSON line on stdout:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`; `all`
//! runs every workload in turn. Any digest, closed-form or exact-count
//! mismatch makes `correct` false and the exit code 1. `--pin` prints
//! the selected workloads' pins as a `pins.json` object.
//! See `perfbench/README.md` for the metric → layer → workload map.

mod fig8;
mod layers;
mod pins;
mod report;
mod scale;
mod served;
mod trace;

use layers::Counts;
use liteworp_runner::Json;
use pins::Pin;
use report::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_liteworp_ms", "ms"),
    ("job_baseline_ms", "ms"),
    ("sweep_p50_ms", "ms"),
    ("sweep_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("scenario.build_ms", "ms"),
    ("netsim.frames_sent", "count"),
    ("netsim.rx_delivered", "count"),
    ("netsim.rx_collided", "count"),
    ("netsim.mac_deferrals", "count"),
    ("netsim.fanout", "ratio"),
    ("netsim.collision_fraction", "ratio"),
    ("netsim.ns_per_rx", "ns"),
    ("routing.unicast_retries", "count"),
    ("routing.unicast_exhausted", "count"),
    ("routing.route_requests", "count"),
    ("routing.routes_established", "count"),
    ("routing.queue_overflow", "count"),
    ("routing.delivery_ratio", "ratio"),
    ("core.watch_expiries", "count"),
    ("core.suspicions", "count"),
    ("core.alerts_sent", "count"),
    ("core.alerts_relayed", "count"),
    ("core.isolations", "count"),
    ("core.watch_rows_peak", "count"),
    ("core.ns_per_rx", "ns"),
    ("core.cost_ratio", "ratio"),
    ("core.pre_attack_ms.liteworp", "ms"),
    ("core.detect_ms.liteworp", "ms"),
    ("core.steady_ms.liteworp", "ms"),
    ("core.pre_attack_ms.baseline", "ms"),
    ("core.detect_ms.baseline", "ms"),
    ("core.steady_ms.baseline", "ms"),
    ("attacks.tunneled", "count"),
    ("attacks.dropped", "count"),
    ("runner.utilization", "ratio"),
    ("runner.queue_wait_p50_ms", "ms"),
    ("runner.tail_idle_s", "s"),
    ("runner.cache_hit_ms", "ms"),
    ("runner.cache_miss_ms", "ms"),
    ("runner.cache_hits", "count"),
    ("served.spawn_ms", "ms"),
    ("served.sweep_p50_ms", "ms"),
    ("served.sweep_p95_ms", "ms"),
    ("served.peak_rss_mb", "MB"),
    ("served.submit_new_us", "us"),
    ("served.submit_dedup_us", "us"),
    ("served.status_us", "us"),
    ("served.drain_ms", "ms"),
    ("served.queue_wait_ms", "ms"),
    ("served.dedups", "count"),
    ("served.wal_bytes", "bytes"),
    ("load.late_p95_ms", "ms"),
    ("load.ops", "count"),
    ("trace.overhead_s", "s"),
];

const WORKLOADS: [&str; 2] = [fig8::NAME, scale::NAME];
/// `--workload all` runs every workload in turn, one result line each.
const ALL: &str = "all";

/// Command-line options of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pin: bool,
    pub served_bin: Option<PathBuf>,
    /// Scratch space inside the checkout (daemon state, caches, spans).
    pub work_dir: PathBuf,
}

impl Args {
    /// The input set this seed selects.
    pub fn slot(&self) -> u64 {
        self.seed % pins::SLOTS
    }

    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 40.0,
            trace: false,
            pin: false,
            served_bin: None,
            work_dir: PathBuf::from(".bench_work"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--pin" {
                args.pin = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value != "0",
                "--served-bin" => args.served_bin = Some(PathBuf::from(value)),
                "--work-dir" => args.work_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload != ALL && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be {ALL:?} or one of {WORKLOADS:?}, got {:?}",
                args.workload
            ));
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }
}

/// Exact counts must repeat between two passes of one run and equal the
/// slot's pin.
pub fn check_counts(report: &mut Report, counts: &Counts, again: &Counts, pin: Option<&Pin>) {
    let repeat = layers::first_difference(counts, again);
    report.check(repeat.is_none(), || {
        format!("counts differ between two passes of one seed: {repeat:?}")
    });
    let pinned = pin.map(|p| layers::first_difference(counts, &p.counts));
    report.check(matches!(pinned, Some(None)), || match pinned {
        Some(Some(diff)) => format!("counts differ from the pin: {diff}"),
        _ => "no pinned counts for this slot".to_string(),
    });
}

/// Writes the traced run's spans next to its other scratch files.
pub fn write_spans(args: &Args, workload: &str, tracer: &trace::Tracer) {
    let path = args.work_dir.join(format!("spans-{workload}.jsonl"));
    match tracer.write(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// The workloads `--workload` selects: one, or every one for `all`.
fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .into_iter()
        .filter(|w| args.workload == ALL || args.workload == *w)
        .collect()
}

/// The selected workloads' pins, as the object `pins.json` holds.
fn pin_all(args: &Args) -> Json {
    let pins = selected(args).into_iter().map(|workload| {
        let slots: Vec<(u64, Pin)> = (0..pins::SLOTS)
            .map(|slot| {
                eprintln!("pinning {workload} slot {slot}");
                let pin = match workload {
                    fig8::NAME => fig8::pin(slot),
                    _ => scale::pin(slot),
                };
                (slot, pin)
            })
            .collect();
        (workload, pins::render(&slots))
    });
    Json::object(pins)
}

/// One run of one workload.
fn run(args: &Args, workload: &str) -> Report {
    let mut report = Report::default();
    if args.trace {
        let mut values: BTreeMap<&'static str, f64> = match workload {
            fig8::NAME => fig8::traced(args, &mut report),
            _ => scale::traced(args, &mut report),
        };
        for (name, unit) in PER_LAYER {
            let value = values.remove(name);
            report.check(value.is_some(), || format!("{name} was not measured"));
            report.metric(name, value.unwrap_or(0.0), unit);
        }
    } else {
        match workload {
            fig8::NAME => fig8::run(args, &mut report),
            _ => scale::run(args, &mut report),
        }
    }
    report
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.pin {
        println!("{}", pin_all(&args).dump());
        return;
    }
    let mut failed = false;
    for workload in selected(&args) {
        if args.workload == ALL {
            eprintln!("== {workload}");
        }
        let report = run(&args, workload);
        for problem in &report.problems {
            eprintln!("CHECK FAILED: {problem}");
        }
        println!("{}", report.json_line());
        failed |= report.failed > 0;
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = Json::parse(text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
