//! The metric catalog and the result line.
//!
//! The catalogs below are the single source of the metric names and
//! units. `BENCHMARK.json` lists the end-to-end and per-layer names (a
//! unit test holds them equal); the descriptive counts are printed by the
//! traced run but have no better direction, so it does not list them.

use crate::{pins, Workload};
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("capacity_eps", "ev/s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.generate_s", "s"),
    ("serve.stage_provider_ms", "ms"),
    ("recovery.plan_s", "s"),
    ("recovery.backfill.self_s", "s"),
    ("recovery.backfill.rungs", "count"),
    ("msoa.round.self_s", "s"),
    ("msoa.patch_s", "s"),
    ("msoa.patch.slot_share", "ratio"),
    ("wsp.build_s", "s"),
    ("ssam.call_s", "s"),
    ("ssam.self_s", "s"),
    ("ssam.arena_build_s", "s"),
    ("ssam.merge_s", "s"),
    ("ssam.prefix_build_s", "s"),
    ("ssam.replays_s", "s"),
    ("ssam.replay_iterations", "count"),
    ("ssam.prefix_share", "ratio"),
    ("ssam.pop_best_scans", "count"),
    ("ssam.head_reads_per_scan", "reads/scan"),
    ("service.check_us_p50", "us"),
    ("service.apply_us_p50", "us"),
    ("service.apply_us_p99", "us"),
    ("service.stage_ms_p50", "ms"),
    ("service.stage_ms_max", "ms"),
    ("log.parse_s", "s"),
    ("log.append_us_p50", "us"),
    ("log.append_us_p99", "us"),
    ("daemon.service_apply_ms", "ms"),
    ("daemon.msoa_ms", "ms"),
    ("daemon.queue_depth_max", "count"),
    ("daemon.rejected.backpressure", "count"),
    ("daemon.rejected.malformed", "count"),
    ("daemon.rejected.oversized_body", "count"),
    ("daemon.rejected.bad_utf8", "count"),
    ("daemon.rejected.admission", "count"),
    ("wire.parse_us", "us"),
    ("http.connect_ms_p50", "ms"),
    ("http.connect_ms_p99", "ms"),
    ("http.ttfb_ms_p50", "ms"),
    ("http.ttfb_ms_p99", "ms"),
    ("http.read_ms_p50", "ms"),
    ("http.read_ms_p99", "ms"),
    ("scrape.p90_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("spans.max_nonleaf_self_share", "ratio"),
];

/// Counts that describe what a traced run did (winners, stages, threads,
/// rebuilds, bytes) rather than how well: fewer is not better, so they
/// are printed as `count` lines and left out of the result object.
pub const DESCRIPTIVE: &[(&str, &str)] = &[
    ("msoa.patch.rebuilds", "count"),
    ("msoa.patch.dirty_sellers", "count"),
    ("ssam.winners", "count"),
    ("ssam.replays", "count"),
    ("pricing.pool_threads", "count"),
    ("pricing.replay_batches", "count"),
    ("daemon.stages", "count"),
    ("scrape.bytes", "bytes"),
    ("loadgen.inflight_max", "count"),
];

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    /// An empty report; the header note names the workload, seeds and sizes.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Report {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            values: BTreeMap::new(),
            notes: vec![format!(
                "workload {} seed {seed} (held-out seed {})",
                workload.name(),
                pins::HELD_OUT_SEED
            )],
        }
    }

    /// Records a metric. Panics on a name outside both catalogs.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .chain(DESCRIPTIVE)
                .any(|(n, _)| *n == name),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name.to_owned(), value);
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one checked operation; a failed check is also a problem.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok));
        if !ok {
            self.problems.push(what());
        }
    }

    /// A context line printed before the result (sample counts, sizes).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the notes, one `count` line per descriptive count (traced
    /// runs), one `metric` line per value, and the result object as the
    /// last line of stdout.
    pub fn print(&mut self, trace: bool) -> Result<(), String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        if !trace {
            let ok = 1.0 - self.failed as f64 / self.attempted as f64;
            self.set("ok_share", ok);
        }
        for note in &self.notes {
            println!("note {note}");
        }
        for problem in &self.problems {
            println!("FAILED {problem}");
        }
        if trace {
            for &(name, unit) in DESCRIPTIVE {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                println!("count {name} {value} {unit}");
            }
        }
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            println!("metric {name} {value} {unit}");
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(",")
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units listed in `BENCHMARK.json` under `key`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let Some(serde::Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| match m.get(f) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    _ => panic!("{key} entry without {f}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalog: &[(&str, &str)]) -> Vec<(String, String)> {
        catalog
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
        let per_layer = listed("per_layer");
        for (name, _) in owned(DESCRIPTIVE) {
            assert!(
                per_layer.iter().all(|(n, _)| *n != name),
                "{name} is descriptive"
            );
        }
    }
}
