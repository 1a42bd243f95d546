//! Hostile instance files: `msoa --input` deserializes a
//! `MultiRoundInstance`, which skips the constructor's checks, so the
//! loader validates after parsing. An unknown seller or a repeated bid id
//! must end in a structured error and exit code 1 — never a panic (exit
//! 101) — on every `msoa` path: the plain run, the variants, and the
//! fault pipeline.

use std::path::PathBuf;
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("edge-market-hostile-{}-{name}", std::process::id()));
    p
}

fn instance_json(bids: &str) -> String {
    format!(
        r#"{{
            "sellers": [
                {{"id": 0, "capacity": 3, "window": [0, 0]}},
                {{"id": 1, "capacity": 10, "window": [0, 0]}}
            ],
            "rounds": [{{"estimated_demand": 2, "true_demand": 2, "bids": [{bids}]}}]
        }}"#
    )
}

/// Runs `edge-market msoa --input <file> <extra…>`; returns (exit code,
/// stderr).
fn msoa(file: &str, extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_edge-market"))
        .args(["msoa", "--input", file])
        .args(extra)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn hostile_instances_get_structured_errors() {
    let cases = [
        (
            "unknown.json",
            r#"{"seller": 0, "id": 0, "amount": 2, "price": 4.0},
               {"seller": 7, "id": 0, "amount": 2, "price": 6.0}"#,
            "undeclared seller 7",
        ),
        (
            "duplicate.json",
            r#"{"seller": 0, "id": 0, "amount": 2, "price": 4.0},
               {"seller": 0, "id": 0, "amount": 5, "price": 9.0},
               {"seller": 1, "id": 0, "amount": 2, "price": 40.0}"#,
            "seller 0 submitted bid id 0 twice",
        ),
    ];
    for (name, bids, message) in cases {
        let path = temp_path(name);
        std::fs::write(&path, instance_json(bids)).unwrap();
        let file = path.to_str().unwrap();
        for extra in [&[][..], &["--variant", "rc"], &["--recovery", "on"]] {
            let extra: Vec<&str> = extra.to_vec();
            let (code, stderr) = msoa(file, &extra);
            assert_eq!(code, Some(1), "{name} {extra:?}: stderr {stderr}");
            assert!(
                stderr.contains("error:") && stderr.contains(message),
                "{name} {extra:?}: stderr {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_valid_instance_file_still_runs() {
    let path = temp_path("valid.json");
    std::fs::write(
        &path,
        instance_json(
            r#"{"seller": 0, "id": 0, "amount": 2, "price": 4.0},
               {"seller": 1, "id": 0, "amount": 2, "price": 40.0}"#,
        ),
    )
    .unwrap();
    let (code, stderr) = msoa(path.to_str().unwrap(), &[]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(0), "stderr {stderr}");
}
