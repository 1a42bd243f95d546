//! Per-layer metrics read from the program's own span profiler.
//!
//! Stage times, self times (total minus direct children) and
//! deterministic counters are copied from [`SpanTree::views`] unchanged;
//! the tree's top-level attribution figure is not used.

use crate::report::Report;
use crate::stats;
use edge_telemetry::spans::{SpanTree, SpanView};

/// Sums over every span of a name, wherever it nests.
struct Views {
    views: Vec<SpanView>,
}

impl Views {
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanView> {
        self.views.iter().filter(move |v| v.name == name)
    }

    fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|v| v.total_ns).sum::<u64>() as f64 / 1e9
    }

    fn self_s(&self, name: &str) -> f64 {
        self.named(name).map(|v| v.self_ns).sum::<u64>() as f64 / 1e9
    }

    fn pick(list: &[(&'static str, u64)], key: &str) -> u64 {
        list.iter()
            .filter(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .sum()
    }

    fn ctr(&self, name: &str, key: &str) -> u64 {
        self.named(name).map(|v| Self::pick(&v.counters, key)).sum()
    }

    fn diag(&self, name: &str, key: &str) -> u64 {
        self.named(name).map(|v| Self::pick(&v.diag, key)).sum()
    }

    fn diag_max(&self, name: &str, key: &str) -> u64 {
        self.named(name)
            .map(|v| Self::pick(&v.diag, key))
            .max()
            .unwrap_or(0)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every span-derived per-layer metric, as `(name, value)` pairs.
pub fn from_tree(tree: &SpanTree) -> Vec<(&'static str, f64)> {
    let v = Views {
        views: tree.views(),
    };
    let replay_iterations = v.ctr("pricing", "replay_iterations");
    let scans = v.ctr("selection", "pop_best_scans") + v.ctr("pricing", "pop_best_scans");
    let head_reads = v.diag("selection", "lane_head_reads") + v.diag("pricing", "lane_head_reads");
    vec![
        ("msoa.round.self_s", v.self_s("round")),
        ("msoa.patch_s", v.total_s("patch")),
        ("msoa.patch.rebuilds", v.ctr("patch", "rebuilds") as f64),
        (
            "msoa.patch.dirty_sellers",
            v.ctr("patch", "dirty_sellers") as f64,
        ),
        (
            "msoa.patch.slot_share",
            ratio(
                v.ctr("patch", "patched_slots"),
                v.ctr("patch", "total_slots"),
            ),
        ),
        ("recovery.backfill.self_s", v.self_s("backfill")),
        ("recovery.backfill.rungs", v.ctr("backfill", "rungs") as f64),
        ("ssam.self_s", v.self_s("ssam")),
        ("ssam.arena_build_s", v.total_s("arena.build")),
        ("ssam.merge_s", v.total_s("merge")),
        ("ssam.prefix_build_s", v.total_s("prefix.build")),
        ("ssam.replays_s", v.total_s("replays")),
        ("ssam.winners", v.ctr("selection", "winners") as f64),
        ("ssam.replays", v.ctr("pricing", "replays") as f64),
        ("ssam.replay_iterations", replay_iterations as f64),
        (
            "ssam.prefix_share",
            ratio(v.ctr("pricing", "prefix_iterations"), replay_iterations),
        ),
        ("ssam.pop_best_scans", scans as f64),
        ("ssam.head_reads_per_scan", ratio(head_reads, scans)),
        (
            "pricing.pool_threads",
            v.diag_max("replays", "pool_threads") as f64,
        ),
        (
            "pricing.replay_batches",
            v.diag("replays", "replay_batches") as f64,
        ),
        (
            "spans.max_nonleaf_self_share",
            stats::max_nonleaf_self_share(
                &v.views
                    .iter()
                    .map(|s| (s.depth, s.total_ns, s.self_ns))
                    .collect::<Vec<_>>(),
            ),
        ),
    ]
}

/// Per-metric medians over several traced repetitions.
pub fn median_of(runs: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(k, &(name, _))| {
            let xs: Vec<f64> = runs.iter().map(|r| r[k].1).collect();
            (name, stats::median(&xs))
        })
        .collect()
}

/// Records span metrics into the report.
pub fn record(report: &mut Report, metrics: &[(&'static str, f64)]) {
    for &(name, value) in metrics {
        report.set(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_telemetry::spans;
    use std::time::Duration;

    fn busy(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn self_time_is_total_minus_direct_children() {
        // round ⊃ patch, ssam ⊃ arena.build; each span also keeps time
        // to itself.
        spans::install();
        {
            let _round = spans::enter("round");
            {
                let _patch = spans::enter("patch");
                busy(1);
            }
            {
                let _ssam = spans::enter("ssam");
                {
                    let _build = spans::enter("arena.build");
                    busy(1);
                }
                busy(2);
            }
            busy(3);
        }
        let tree = spans::uninstall().expect("the tree was installed");
        let views = tree.views();
        let names: Vec<_> = views.iter().map(|v| (v.name, v.depth)).collect();
        assert_eq!(
            names,
            [("round", 0), ("patch", 1), ("ssam", 1), ("arena.build", 2)]
        );
        for (i, v) in views.iter().enumerate() {
            let children: u64 = views[i + 1..]
                .iter()
                .take_while(|c| c.depth > v.depth)
                .filter(|c| c.depth == v.depth + 1)
                .map(|c| c.total_ns)
                .sum();
            assert_eq!(v.self_ns, v.total_ns - children, "{}", v.path);
        }
        let metrics = from_tree(&tree);
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).expect(name).1;
        assert_eq!(get("msoa.round.self_s"), views[0].self_ns as f64 / 1e9);
        assert_eq!(get("ssam.self_s"), views[2].self_ns as f64 / 1e9);
        assert!(views[0].self_ns >= 3_000_000 && views[2].self_ns >= 2_000_000);
    }
}
