//! The experiment catalog: every sweep a service can serve, addressed by
//! a stable kind name plus a JSON parameter object.
//!
//! [`cells_for`] maps `(kind, params)` to the same [`SimCell`] lists the
//! experiment binaries build, so a daemon request for `"fig9"` executes
//! — and caches under — exactly the jobs `cargo run --bin fig9` would.
//! Unknown kinds and malformed parameters come back as `Err(reason)` so
//! protocol layers can answer with a typed error instead of panicking.

use crate::exec::SimCell;
use crate::experiments::{ablation, fig10, fig8, fig9, sweep};
use crate::scenario::Scenario;
use liteworp_runner::Json;

/// The kind names [`cells_for`] accepts, in catalog order.
pub const KINDS: [&str; 6] = ["fig8", "fig9", "fig10", "sweep", "ablation", "scenario"];

/// Most seeds one cell of a request may ask for (the paper averages 30).
pub const MAX_SEEDS: u64 = 1_000;
/// Most nodes one request may deploy (the simulator's tested scale).
pub const MAX_NODES: u64 = 100_000;
/// Longest simulated duration a request may ask for, in seconds.
pub const MAX_DURATION_SECS: f64 = 1e6;
/// Most `fig8` sample instants (`duration / sample_every`) per cell.
pub const MAX_SAMPLES: f64 = 10_000.0;

/// A request's parameter object, read through range checks: a value
/// that would hang, exhaust memory, or panic the simulation is rejected
/// here, at submit time, instead of inside a drain.
struct Params<'a>(&'a Json);

impl Params<'_> {
    /// A count field: an integer in `[0, max]`.
    fn count(&self, key: &str, max: u64) -> Result<Option<u64>, String> {
        let Some(value) = self.0.get(key) else {
            return Ok(None);
        };
        match value.as_u64() {
            Some(v) if v <= max => Ok(Some(v)),
            _ => Err(format!(
                "{key} must be an integer in [0, {max}], got {}",
                value.dump()
            )),
        }
    }

    /// A real field in `[min, max]` that is positive (NaN, infinities and
    /// non-numbers fail).
    fn real(&self, key: &str, min: f64, max: f64) -> Result<Option<f64>, String> {
        let Some(value) = self.0.get(key) else {
            return Ok(None);
        };
        match value.as_f64() {
            Some(v) if v > 0.0 && v >= min && v <= max => Ok(Some(v)),
            _ => Err(format!(
                "{key} must be a positive number in [{min}, {max}], got {}",
                value.dump()
            )),
        }
    }

    fn nodes(&self) -> Result<Option<usize>, String> {
        Ok(self.count("nodes", MAX_NODES)?.map(|n| n as usize))
    }

    fn seeds(&self) -> Result<Option<u64>, String> {
        self.count("seeds", MAX_SEEDS)
    }

    fn duration(&self) -> Result<Option<f64>, String> {
        self.real("duration", 0.0, MAX_DURATION_SECS)
    }

    /// Average neighbor count: below one the deployment field (and its
    /// spatial grid) grows without bound.
    fn avg_neighbors(&self) -> Result<Option<f64>, String> {
        self.real("avg_neighbors", 1.0, MAX_NODES as f64)
    }
}

/// Builds the cells for one catalog entry.
///
/// Every parameter is optional; omitted fields keep the experiment's
/// defaults (which reproduce the paper figures). Recognized fields per
/// kind:
///
/// * `fig8` — `nodes`, `seeds`, `duration`, `sample_every`
/// * `fig9` — `nodes`, `seeds`, `duration`
/// * `fig10` — `nodes`, `avg_neighbors`, `seeds`, `duration`
/// * `sweep` — `seeds`, `duration`
/// * `ablation` — `nodes`, `seeds`, `duration`
/// * `scenario` — one custom cell: `nodes`, `malicious`, `protected`,
///   `avg_neighbors`, `seeds`, `duration`
///
/// Mistyped and out-of-range values are errors: a count that is not an
/// integer, `seeds` above [`MAX_SEEDS`], `nodes` above [`MAX_NODES`],
/// `malicious` above `nodes`, a `duration` or `sample_every` that is not
/// positive or exceeds [`MAX_DURATION_SECS`], more than [`MAX_SAMPLES`]
/// `fig8` samples, and an `avg_neighbors` below one.
pub fn cells_for(kind: &str, params: &Json) -> Result<Vec<SimCell>, String> {
    if !matches!(params, Json::Obj(_) | Json::Null) {
        return Err("params must be a JSON object".to_string());
    }
    let p = Params(params);
    match kind {
        "fig8" => {
            let mut cfg = fig8::Fig8Config::default();
            cfg.nodes = p.nodes()?.unwrap_or(cfg.nodes);
            cfg.seeds = p.seeds()?.unwrap_or(cfg.seeds);
            cfg.duration = p.duration()?.unwrap_or(cfg.duration);
            cfg.sample_every = p
                .real("sample_every", 0.0, MAX_DURATION_SECS)?
                .unwrap_or(cfg.sample_every);
            let samples = cfg.duration / cfg.sample_every;
            if samples > MAX_SAMPLES {
                return Err(format!(
                    "fig8 would take {samples:.0} samples (duration / sample_every); \
                     at most {MAX_SAMPLES} allowed"
                ));
            }
            Ok(fig8::cells(&cfg))
        }
        "fig9" => {
            let mut cfg = fig9::Fig9Config::default();
            cfg.nodes = p.nodes()?.unwrap_or(cfg.nodes);
            cfg.seeds = p.seeds()?.unwrap_or(cfg.seeds);
            cfg.duration = p.duration()?.unwrap_or(cfg.duration);
            Ok(fig9::cells(&cfg))
        }
        "fig10" => {
            let mut cfg = fig10::Fig10Config::default();
            cfg.nodes = p.nodes()?.unwrap_or(cfg.nodes);
            cfg.avg_neighbors = p.avg_neighbors()?.unwrap_or(cfg.avg_neighbors);
            cfg.seeds = p.seeds()?.unwrap_or(cfg.seeds);
            cfg.duration = p.duration()?.unwrap_or(cfg.duration);
            Ok(fig10::cells(&cfg))
        }
        "sweep" => {
            let mut cfg = sweep::SweepConfig::default();
            cfg.seeds = p.seeds()?.unwrap_or(cfg.seeds);
            cfg.duration = p.duration()?.unwrap_or(cfg.duration);
            Ok(sweep::cells(&cfg))
        }
        "ablation" => {
            let mut cfg = ablation::AblationConfig::default();
            cfg.nodes = p.nodes()?.unwrap_or(cfg.nodes);
            cfg.seeds = p.seeds()?.unwrap_or(cfg.seeds);
            cfg.duration = p.duration()?.unwrap_or(cfg.duration);
            Ok(ablation::cells(&cfg))
        }
        "scenario" => {
            let nodes = p.nodes()?.unwrap_or(30);
            if nodes < 4 {
                return Err(format!("scenario needs at least 4 nodes, got {nodes}"));
            }
            let scenario = Scenario {
                nodes,
                malicious: p.count("malicious", nodes as u64)?.unwrap_or(2) as usize,
                protected: params
                    .get("protected")
                    .and_then(Json::as_bool)
                    .unwrap_or(true),
                avg_neighbors: p.avg_neighbors()?.unwrap_or(8.0),
                ..Scenario::default()
            };
            let label = format!(
                "scenario n={nodes} m={} {}",
                scenario.malicious,
                if scenario.protected {
                    "liteworp"
                } else {
                    "baseline"
                }
            );
            Ok(vec![SimCell::snapshot(
                label,
                scenario,
                p.seeds()?.unwrap_or(1),
                0,
                p.duration()?.unwrap_or(200.0),
            )])
        }
        other => Err(format!(
            "unknown experiment kind '{other}' (known: {})",
            KINDS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_yields_cells_with_defaults() {
        for kind in KINDS {
            let cells = cells_for(kind, &Json::Null).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(!cells.is_empty(), "{kind} produced no cells");
        }
    }

    #[test]
    fn catalog_cells_match_the_experiment_modules() {
        let catalog = cells_for("fig9", &Json::Null).unwrap();
        let module = fig9::cells(&fig9::Fig9Config::default());
        assert_eq!(catalog.len(), module.len());
        for (a, b) in catalog.iter().zip(&module) {
            assert_eq!(a.descriptor(), b.descriptor());
            assert_eq!(a.label, b.label);
            assert_eq!(a.seed_base, b.seed_base);
        }
    }

    #[test]
    fn params_override_defaults() {
        let params = Json::parse(r#"{"nodes":24,"seeds":2,"duration":100.0}"#).unwrap();
        let cells = cells_for("fig9", &params).unwrap();
        assert!(cells.iter().all(|c| c.scenario.nodes == 24 && c.seeds == 2));
    }

    #[test]
    fn unknown_kind_and_bad_params_are_typed_errors() {
        assert!(cells_for("fig99", &Json::Null)
            .unwrap_err()
            .contains("known:"));
        let not_obj = Json::parse("[1,2]").unwrap();
        assert!(cells_for("fig9", &not_obj).is_err());
        let too_small = Json::parse(r#"{"nodes":2}"#).unwrap();
        assert!(cells_for("scenario", &too_small).is_err());
    }

    /// `cells_for(kind, {key: value})`'s error, which must name `key`.
    fn rejected(kind: &str, key: &str, value: Json) -> String {
        let params = Json::Obj(vec![(key.to_string(), value)]);
        let err = cells_for(kind, &params).expect_err("out-of-range value accepted");
        assert!(err.contains(key), "{err}");
        err
    }

    #[test]
    fn zero_negative_or_infinite_sample_every_is_rejected() {
        // `sample_every: 0` once looped forever building the sample grid.
        rejected("fig8", "sample_every", Json::from(0.0));
        rejected("fig8", "sample_every", Json::from(-5.0));
        rejected("fig8", "sample_every", Json::from(f64::INFINITY));
    }

    #[test]
    fn non_positive_or_non_finite_duration_is_rejected() {
        for kind in KINDS {
            rejected(kind, "duration", Json::from(0.0));
            rejected(kind, "duration", Json::from(-1.0));
            rejected(kind, "duration", Json::from(f64::INFINITY));
            rejected(kind, "duration", Json::from(MAX_DURATION_SECS * 2.0));
        }
    }

    #[test]
    fn too_many_samples_is_rejected() {
        let params = Json::parse(r#"{"duration":1000.0,"sample_every":0.01}"#).unwrap();
        let err = cells_for("fig8", &params).unwrap_err();
        assert!(err.contains("samples"), "{err}");
        let edge = Json::parse(r#"{"duration":100.0,"sample_every":0.01}"#).unwrap();
        assert!(
            cells_for("fig8", &edge).is_ok(),
            "exactly MAX_SAMPLES is fine"
        );
    }

    #[test]
    fn too_many_seeds_is_rejected() {
        for kind in KINDS {
            rejected(kind, "seeds", Json::from(MAX_SEEDS + 1));
        }
        rejected("scenario", "seeds", Json::from(1e300));
        rejected("scenario", "seeds", Json::from(-1.0));
        rejected("scenario", "seeds", Json::from("8"));
    }

    #[test]
    fn too_many_nodes_is_rejected() {
        for kind in ["fig8", "fig9", "fig10", "ablation", "scenario"] {
            rejected(kind, "nodes", Json::from(MAX_NODES + 1));
        }
    }

    #[test]
    fn more_colluders_than_nodes_is_rejected() {
        let params = Json::parse(r#"{"nodes":10,"malicious":11}"#).unwrap();
        let err = cells_for("scenario", &params).unwrap_err();
        assert!(err.contains("malicious"), "{err}");
        let all = Json::parse(r#"{"nodes":10,"malicious":10}"#).unwrap();
        assert!(cells_for("scenario", &all).is_ok());
    }

    #[test]
    fn sparse_or_non_finite_avg_neighbors_is_rejected() {
        for kind in ["fig10", "scenario"] {
            rejected(kind, "avg_neighbors", Json::from(0.0));
            rejected(kind, "avg_neighbors", Json::from(0.5));
            rejected(kind, "avg_neighbors", Json::from(f64::INFINITY));
        }
    }

    #[test]
    fn the_load_generators_and_default_specs_stay_accepted() {
        for kind in KINDS {
            assert!(cells_for(kind, &Json::Null).is_ok(), "{kind} defaults");
        }
        for (kind, spec) in [
            (
                "fig8",
                r#"{"nodes":28,"seeds":1,"duration":40.0,"sample_every":20.0}"#,
            ),
            ("fig9", r#"{"nodes":36,"seeds":2,"duration":40.0}"#),
            (
                "fig10",
                r#"{"nodes":32,"avg_neighbors":10.0,"seeds":1,"duration":40.0}"#,
            ),
            ("sweep", r#"{"seeds":1,"duration":70.0}"#),
            ("ablation", r#"{"nodes":32,"seeds":1,"duration":60.0}"#),
            (
                "scenario",
                r#"{"nodes":28,"malicious":3,"protected":true,"seeds":1,"duration":60.0}"#,
            ),
            (
                "scenario",
                r#"{"nodes":36,"seeds":1,"duration":30.0,"avg_neighbors":12.0}"#,
            ),
        ] {
            let params = Json::parse(spec).unwrap();
            assert!(cells_for(kind, &params).is_ok(), "{kind} {spec}");
        }
    }
}
