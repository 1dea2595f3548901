//! Pinned digests and exact counts, per workload and seed slot.
//!
//! A workload's inputs are a function of `seed % SLOTS`, so every seed
//! the benchmark can be given has a pin. `pins.json` is compiled in;
//! regenerate it with `perfbench --pin` only when a change to simulated
//! behaviour is intended (the determinism digests are the contract).

use crate::layers::Counts;
use liteworp_runner::Json;
use std::collections::BTreeMap;

/// Distinct input sets per workload.
pub const SLOTS: u64 = 8;

/// What one slot of one workload must reproduce.
#[derive(Default, Clone)]
pub struct Pin {
    /// Named result digests (16 hex digits each).
    pub digests: BTreeMap<String, String>,
    /// Exact per-layer counts of the slot's traced pass.
    pub counts: Counts,
}

const PINS: &str = include_str!("../pins.json");

/// The pin of `workload` at `slot`, if one is recorded.
pub fn lookup(workload: &str, slot: u64) -> Option<Pin> {
    let all = Json::parse(PINS).ok()?;
    let entry = all.get(workload)?.get(&slot.to_string())?;
    let mut pin = Pin::default();
    if let Some(Json::Obj(pairs)) = entry.get("digests") {
        for (k, v) in pairs {
            pin.digests.insert(k.clone(), v.as_str()?.to_string());
        }
    }
    if let Some(Json::Obj(pairs)) = entry.get("counts") {
        for (k, v) in pairs {
            pin.counts.insert(k.clone(), v.as_u64()?);
        }
    }
    Some(pin)
}

/// One workload's pins as the JSON object `pins.json` holds for it.
pub fn render(pins: &[(u64, Pin)]) -> Json {
    let slots = pins.iter().map(|(slot, pin)| {
        let digests = pin
            .digests
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(v.as_str())));
        let counts = pin.counts.iter().map(|(k, &v)| (k.clone(), Json::from(v)));
        (
            slot.to_string(),
            Json::object([
                ("digests", Json::Obj(digests.collect())),
                ("counts", Json::Obj(counts.collect())),
            ]),
        )
    });
    Json::Obj(slots.collect())
}
