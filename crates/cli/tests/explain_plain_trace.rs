//! `explain` over a plain `msoa --trace`: the round narration must keep
//! its ψ price adjustments, exclusion reasons, exactly reproduced
//! payments and a round-totals line with what the platform paid.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("edge-market-explain-{}-{name}", std::process::id()));
    p
}

fn edge_market(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_edge-market"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "edge-market {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `msoa --trace` on `instance`, then `explain --round round`.
fn explain_plain(instance: &Path, trace: &Path, round: &str) -> String {
    let (instance, trace) = (instance.to_str().unwrap(), trace.to_str().unwrap());
    edge_market(&["msoa", "--input", instance, "--trace", trace]);
    edge_market(&["explain", "--trace", trace, "--round", round])
}

#[test]
fn explain_narrates_a_generated_plain_round() {
    let scenario = temp_path("scenario.json");
    let trace = temp_path("trace.jsonl");
    edge_market(&[
        "generate",
        "--seed",
        "11",
        "--microservices",
        "8",
        "--rounds",
        "5",
        "--out",
        scenario.to_str().unwrap(),
    ]);
    let out = explain_plain(&scenario, &trace, "0");
    let _ = std::fs::remove_file(&scenario);
    let _ = std::fs::remove_file(&trace);

    assert!(out.contains("+ ψ·a "), "{out}");
    let verified = out
        .lines()
        .find_map(|l| l.strip_prefix("payments verified: "))
        .unwrap_or_else(|| panic!("no payment tally: {out}"));
    let (ok, total) = verified
        .split_whitespace()
        .next()
        .and_then(|tally| tally.split_once('/'))
        .unwrap_or_else(|| panic!("malformed tally: {verified}"));
    assert_eq!(ok, total, "{out}");
    assert_ne!(total, "0", "{out}");
    assert!(!out.contains('✗'), "{out}");
    let totals = out
        .lines()
        .find(|l| l.starts_with("round totals:"))
        .unwrap_or_else(|| panic!("no round totals: {out}"));
    assert!(totals.contains(", payments "), "{totals}");
}

/// The generated scenario above excludes no bid, so exclusions get an
/// instance of their own: seller 2 bids outside its window in round 0,
/// and seller 0's first win uses up its capacity for round 1.
#[test]
fn explain_gives_window_and_capacity_exclusion_reasons() {
    let instance = temp_path("exclusions.json");
    let trace = temp_path("exclusions.jsonl");
    let round = r#"{"estimated_demand": 2, "true_demand": 2, "bids": [
        {"seller": 0, "id": 0, "amount": 2, "price": 4.0},
        {"seller": 1, "id": 0, "amount": 2, "price": 6.0},
        {"seller": 2, "id": 0, "amount": 2, "price": 5.0}
    ]}"#;
    let json = format!(
        r#"{{"sellers": [
            {{"id": 0, "capacity": 2, "window": [0, 1]}},
            {{"id": 1, "capacity": 10, "window": [0, 1]}},
            {{"id": 2, "capacity": 10, "window": [1, 1]}}
        ], "rounds": [{round}, {round}]}}"#
    );
    std::fs::write(&instance, json).unwrap();
    let first = explain_plain(&instance, &trace, "0");
    let second = explain_plain(&instance, &trace, "1");
    let _ = std::fs::remove_file(&instance);
    let _ = std::fs::remove_file(&trace);

    assert!(first.contains("excluded bids:"), "{first}");
    assert!(first.contains("seller 2 bid#0 — window"), "{first}");
    assert!(second.contains("seller 0 bid#0 — capacity"), "{second}");
    for out in [&first, &second] {
        assert!(out.contains("payments verified: 1/1"), "{out}");
        assert!(!out.contains('✗'), "{out}");
    }
}
