//! `perfbench/pins.json`: the outcome digest pinned for each workload
//! and seed, and the held-out seed kept for claims made after a change
//! was written.

use crate::Workload;
use serde::Value;
use std::collections::BTreeMap;

const PINS_JSON: &str = include_str!("../pins.json");

/// A seed no tuning looked at; its digests are pinned like seeds 0–20.
pub const HELD_OUT_SEED: u64 = 7919;

/// Workload name → seed → outcome digest.
#[derive(Debug, Clone)]
pub struct Pins(BTreeMap<String, BTreeMap<u64, String>>);

impl Pins {
    /// Parses the table compiled into the binary.
    pub fn load() -> Result<Self, String> {
        let v: Value = serde_json::from_str(PINS_JSON).map_err(|e| format!("pins.json: {e}"))?;
        let table = v.as_object().ok_or("pins.json: not an object")?;
        let mut pins = BTreeMap::new();
        for (workload, seeds) in table {
            let mut by_seed = BTreeMap::new();
            for (seed, digest) in seeds.as_object().unwrap_or_default() {
                let seed = seed
                    .parse::<u64>()
                    .map_err(|_| format!("pins.json: bad seed {seed}"))?;
                let Value::Str(digest) = digest else {
                    return Err(format!("pins.json: pin for seed {seed} is not a string"));
                };
                by_seed.insert(seed, digest.clone());
            }
            pins.insert(workload.clone(), by_seed);
        }
        Ok(Pins(pins))
    }

    /// The digest pinned for `workload` at `seed`, if any.
    pub fn get(&self, workload: Workload, seed: u64) -> Option<&str> {
        self.0
            .get(workload.name())
            .and_then(|by_seed| by_seed.get(&seed))
            .map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shipped_table_parses_and_pins_the_held_out_seed() {
        let pins = Pins::load().expect("pins.json parses");
        for w in [
            Workload::MarketLarge,
            Workload::DenseRecovery,
            Workload::WireMix,
        ] {
            assert!(
                pins.get(w, HELD_OUT_SEED).is_some(),
                "{} has no pin for the held-out seed",
                w.name()
            );
        }
    }
}
