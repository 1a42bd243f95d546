//! The environment a result was measured in, and the `edge-market`
//! binary the wire path drives.

use crate::{pins, Workload};
use edge_auction::service::fnv1a64;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The repository checkout this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// Cargo's target directory: `CARGO_TARGET_DIR` (relative to the working
/// directory, as cargo reads it) or `<root>/target`.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                std::env::current_dir().unwrap_or_default().join(dir)
            }
        }
        None => root.join("target"),
    }
}

/// Builds the shipped `edge-market` binary from source (a plain
/// `cargo build --release` at the root builds only the umbrella crate and
/// leaves this binary stale) and returns its path.
pub fn build_edge_market(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "edge-market-cli",
            "--bin",
            "edge-market",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building edge-market failed ({status})"));
    }
    let binary = target_dir(root).join("release").join("edge-market");
    if !binary.is_file() {
        return Err(format!("{} was not built", binary.display()));
    }
    Ok(binary)
}

/// Peak resident memory (`VmHWM`) of a process, in MB. `pid` is a
/// `/proc` entry name: a process id or `self`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Cumulative CPU time as `(steal, total)` jiffies from `/proc/stat`;
/// zeros where it cannot be read.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// FNV-1a over every source file the program is built from (the
/// checkout need not be a git repository, so this stands in for a
/// revision).
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["src", "crates", "shims"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = Vec::new();
    for file in &files {
        h.extend_from_slice(
            file.strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .as_bytes(),
        );
        h.extend_from_slice(&std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x}", fnv1a64(&h))
}

/// The `env` line: seeds, core count, the resolved auction settings
/// (read, never set), the source digest and the binary driven.
pub fn record(
    workload: Workload,
    seed: u64,
    root: &Path,
    binary: &Path,
    jiffies_at_start: (u64, u64),
) -> String {
    let (steal, total) = cpu_jiffies();
    let steal_share =
        (steal - jiffies_at_start.0) as f64 / (total - jiffies_at_start.1).max(1) as f64;
    let binary_digest = std::fs::read(binary)
        .map(|bytes| format!("{:016x}", fnv1a64(&bytes)))
        .unwrap_or_else(|_| "unreadable".into());
    format!(
        "env {{\"workload\":\"{}\",\"seed\":{seed},\"held_out_seed\":{},\"nproc\":{},\
         \"pricing_threads_setting\":{},\"pricing_threads\":{},\"shards_setting\":{},\
         \"replay_batch_setting\":{},\"lane_class_cap\":{},\"source_digest\":\"{}\",\
         \"edge_market\":\"{}\",\"edge_market_digest\":\"{binary_digest}\",\"cpu_steal_share\":{steal_share:.4}}}",
        workload.name(),
        pins::HELD_OUT_SEED,
        edge_auction::available_pricing_threads(),
        edge_auction::pricing_threads_setting(),
        edge_auction::current_pricing_threads(),
        edge_auction::shards_setting(),
        edge_auction::replay_batch_setting(),
        edge_auction::lane_class_cap(),
        source_digest(root),
        binary.strip_prefix(root).unwrap_or(binary).display(),
    )
}
