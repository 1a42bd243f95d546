//! `perfbench` — the repository's benchmark of its two user paths.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <market-large|dense-recovery|wire-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the program untraced and reports the end-to-end
//! metrics; `--trace 1` is a separate run that reports the per-layer
//! metrics. Stdout carries one `metric` line per reported value, one
//! `env` line, and — last — the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! `--pin <first>..<last>` prints the outcome digests to pin in
//! `perfbench/pins.json` for a seed range instead.
//!
//! See `perfbench/README.md` for the workloads, the metric definitions
//! and the layer-to-metric table.

mod batch;
mod env;
mod host;
mod layers;
mod pins;
mod report;
mod stats;
mod wire;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A quarter of a million sellers, three rounds of the same bid list.
    MarketLarge,
    /// Twenty thousand sellers, fresh bids every round, faults and recovery.
    DenseRecovery,
    /// The `serve` daemon under seeded wire traffic, plus log replay.
    WireMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "market-large" => Some(Workload::MarketLarge),
            "dense-recovery" => Some(Workload::DenseRecovery),
            "wire-mix" => Some(Workload::WireMix),
            _ => None,
        }
    }

    /// The workload's name on the command line and in `pins.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MarketLarge => "market-large",
            Workload::DenseRecovery => "dense-recovery",
            Workload::WireMix => "wire-mix",
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    pin: Option<(u64, u64)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut pin = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--pin" => {
                let (a, b) = value.split_once("..").ok_or_else(bad)?;
                pin = Some((a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace,
        pin,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let pins = pins::Pins::load()?;
    if let Some((first, last)) = args.pin {
        for seed in first..=last {
            let digest = match args.workload {
                Workload::WireMix => wire::offline_digest(seed)?,
                w => batch::digest_for(w, seed)?,
            };
            println!("\"{seed}\": \"{digest}\",");
        }
        return Ok(());
    }

    let jiffies = env::cpu_jiffies();
    let root = env::repo_root();
    let binary = env::build_edge_market(&root)?;
    let mut report = Report::new(args.workload, args.seed);
    match args.workload {
        Workload::WireMix => wire::run(
            &pins,
            args.seed,
            args.seconds,
            args.trace,
            &binary,
            &mut report,
        )?,
        w => batch::run(&pins, w, args.seed, args.seconds, args.trace, &mut report)?,
    }
    println!(
        "{}",
        env::record(args.workload, args.seed, &root, &binary, jiffies)
    );
    report.print(args.trace)
}
