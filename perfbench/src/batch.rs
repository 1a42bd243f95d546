//! The operator path: `market-large` and `dense-recovery`.
//!
//! Both build a multi-round instance from the seed, run one untimed
//! warm-up auction, then repeat the full auction until the time is up.
//! Every run's outcome is checked: its digest against the pin (or, for an
//! unpinned seed, against the warm-up's), individual rationality of every
//! winner, and per-round coverage or recorded shortfall.

use crate::host::HostSpeed;
use crate::pins::Pins;
use crate::report::Report;
use crate::{env, layers, stats, Workload};
use edge_auction::bid::{Bid, Seller};
use edge_auction::msoa::{run_msoa, MsoaConfig, MsoaOutcome, MultiRoundInstance, RoundInput};
use edge_auction::recovery::{
    run_msoa_with_faults, FaultInjectionConfig, FaultPlan, FaultyMsoaOutcome, RecoveryConfig,
};
use edge_auction::service::fnv1a64;
use edge_auction::ssam::{run_ssam, SsamConfig};
use edge_auction::wsp::WspInstance;
use edge_bench::scenario::scale_instance;
use edge_common::id::{BidId, MicroserviceId};
use edge_common::rng::derive_rng;
use edge_common::units::MONEY_EPSILON;
use edge_telemetry::spans;
use rand::Rng;
use std::time::{Duration, Instant};

/// The report-independent `α` both workloads pin, as `serve` does.
const ALPHA: f64 = 2.0;

/// `market-large`: ROADMAP's million-seller shape, three rounds, at a
/// quarter of the population so a run holds four times the repetitions
/// (about 20 of 1.4 s each in 30 s instead of 6 of 5 s).
const MARKET_SELLERS: usize = 250_000;
const MARKET_ROUNDS: u64 = 3;
/// Set-ups per run whose median is `setup_s` (each takes about 0.25 s).
const MARKET_SETUPS: usize = 5;

/// `dense-recovery`: 20 000 sellers, four rounds, demand a tenth of the
/// supply, capacity never binding.
const DENSE_SELLERS: usize = 20_000;
const DENSE_ROUNDS: u64 = 4;
const DENSE_DEMAND_SHARE: f64 = 0.1;
const DENSE_CAPACITY: u64 = 64;
/// Set-ups per run whose median is `setup_s` (each takes about 20 ms).
const DENSE_SETUPS: usize = 15;

/// A generated workload: the instance and its fault plan.
struct Inputs {
    instance: MultiRoundInstance,
    plan: Option<FaultPlan>,
}

enum Outcome {
    Plain(MsoaOutcome),
    Faulty(FaultyMsoaOutcome),
}

/// `dense-recovery`'s instance: every seller available in every round
/// with ample capacity, fresh bids (one or two alternatives of 1–4 units)
/// drawn each round, and demand a fixed share of the round's supply.
fn dense_instance(seed: u64) -> MultiRoundInstance {
    let mut rng = derive_rng(seed, "perfbench.dense-recovery");
    let sellers: Vec<Seller> = (0..DENSE_SELLERS)
        .map(|s| {
            Seller::new(
                MicroserviceId::new(s),
                DENSE_CAPACITY,
                (0, DENSE_ROUNDS - 1),
            )
            .expect("window is ordered")
        })
        .collect();
    let rounds = (0..DENSE_ROUNDS)
        .map(|_| {
            let mut bids = Vec::with_capacity(DENSE_SELLERS * 2);
            let mut supply = 0u64;
            for seller in &sellers {
                let mut best = 0;
                for j in 0..1 + rng.gen_range(0..2usize) {
                    let amount = rng.gen_range(1..=4u64);
                    let price = rng.gen_range(10.0..35.0) * amount as f64 / 5.0;
                    best = best.max(amount);
                    bids.push(
                        Bid::new(seller.id, BidId::new(j), amount, price).expect("valid bid"),
                    );
                }
                supply += best;
            }
            let demand = ((supply as f64 * DENSE_DEMAND_SHARE) as u64).max(1);
            RoundInput::new(demand, demand, bids)
        })
        .collect();
    MultiRoundInstance::new(sellers, rounds).expect("dense instances are valid")
}

/// Generates the workload; returns it with the fault-plan time alone.
fn generate(workload: Workload, seed: u64) -> (Inputs, Duration) {
    match workload {
        Workload::MarketLarge => {
            let mut rng = derive_rng(seed, "perfbench.market-large");
            let inputs = Inputs {
                instance: scale_instance(MARKET_SELLERS, MARKET_ROUNDS, &mut rng),
                plan: None,
            };
            (inputs, Duration::ZERO)
        }
        Workload::DenseRecovery => {
            let instance = dense_instance(seed);
            let t = Instant::now();
            let plan = FaultPlan::seeded(
                seed,
                DENSE_ROUNDS,
                DENSE_SELLERS,
                &FaultInjectionConfig::default(),
            );
            let plan_time = t.elapsed();
            let inputs = Inputs {
                instance,
                plan: Some(plan),
            };
            (inputs, plan_time)
        }
        Workload::WireMix => unreachable!("wire-mix is not a batch workload"),
    }
}

fn run_once(inputs: &Inputs) -> Result<Outcome, String> {
    let config = MsoaConfig::pinned(ALPHA);
    let result = match &inputs.plan {
        None => run_msoa(&inputs.instance, &config).map(Outcome::Plain),
        Some(plan) => {
            run_msoa_with_faults(&inputs.instance, &config, plan, &RecoveryConfig::default())
                .map(Outcome::Faulty)
        }
    };
    result.map_err(|e| format!("auction failed: {e}"))
}

/// FNV-1a of the serialized outcome, as 16 hex digits.
fn digest(outcome: &Outcome) -> String {
    let json = match outcome {
        Outcome::Plain(o) => serde_json::to_string(o),
        Outcome::Faulty(o) => serde_json::to_string(o),
    }
    .expect("outcomes serialize");
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

/// Individual rationality and coverage; the first violation, if any.
fn violation(outcome: &Outcome) -> Option<String> {
    match outcome {
        Outcome::Plain(o) => o.rounds.iter().find_map(|r| {
            let covered: u64 = r.winners.iter().map(|w| w.contribution).sum();
            if r.infeasible && !r.winners.is_empty() {
                return Some(format!("round {}: infeasible but has winners", r.round));
            }
            if !r.infeasible && covered < r.demand {
                return Some(format!(
                    "round {}: {covered} units cover demand {}",
                    r.round, r.demand
                ));
            }
            r.winners.iter().find_map(|w| {
                (w.payment.value() < w.scaled_price.value() - MONEY_EPSILON).then(|| {
                    format!(
                        "round {}: seller {:?} paid {} below its price {}",
                        r.round, w.seller, w.payment, w.scaled_price
                    )
                })
            })
        }),
        Outcome::Faulty(o) => o.rounds.iter().find_map(|r| {
            let delivered: u64 = r.winners.iter().map(|w| w.delivered).sum();
            if delivered != r.delivered || r.delivered + r.shortfall < r.demand {
                return Some(format!(
                    "round {}: delivered {} (winners {delivered}) + shortfall {} < demand {}",
                    r.round, r.delivered, r.shortfall, r.demand
                ));
            }
            r.winners.iter().find_map(|w| {
                (w.payment_due.value() < w.scaled_price.value() - MONEY_EPSILON).then(|| {
                    format!(
                        "round {}: seller {:?} due {} below its price {}",
                        r.round, w.seller, w.payment_due, w.scaled_price
                    )
                })
            })
        }),
    }
}

/// Checks one run and counts it. `expected` is the pinned digest, or the
/// first run's digest when the seed is not pinned.
fn verify(report: &mut Report, outcome: &Outcome, expected: &mut Option<String>) {
    let got = digest(outcome);
    let digest_problem = match expected {
        Some(want) if *want != got => Some(format!("outcome digest {got}, expected {want}")),
        Some(_) => None,
        None => {
            *expected = Some(got);
            None
        }
    };
    let problem = digest_problem.or_else(|| violation(outcome));
    let ok = problem.is_none();
    report.check(ok, || problem.unwrap_or_default());
}

/// The digest of one run at `seed`, for pinning.
pub fn digest_for(workload: Workload, seed: u64) -> Result<String, String> {
    let (inputs, _) = generate(workload, seed);
    Ok(digest(&run_once(&inputs)?))
}

/// Runs a batch workload for `seconds` and fills the report.
pub fn run(
    pins: &Pins,
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let setups = match workload {
        Workload::MarketLarge => MARKET_SETUPS,
        _ => DENSE_SETUPS,
    };
    let mut host = HostSpeed::new();
    let mut setup_s = Vec::new();
    let mut plan_s = Vec::new();
    let mut inputs = None;
    for _ in 0..setups {
        drop(inputs.take());
        host.sample();
        let t = Instant::now();
        let (generated, plan_time) = generate(workload, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        plan_s.push(plan_time.as_secs_f64());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one setup");
    let rounds = inputs.instance.num_rounds();
    let bids: usize = inputs.instance.rounds().iter().map(|r| r.bids.len()).sum();
    report.note(format!(
        "{} sellers x {rounds} rounds, {bids} bids in total; setup median of {setups}",
        inputs.instance.sellers().len()
    ));

    let mut expected = pins.get(workload, seed).map(str::to_owned);
    if expected.is_none() {
        report.note(format!(
            "seed {seed} has no pinned digest; runs are checked against each other"
        ));
    }
    let warm = run_once(&inputs)?;
    verify(report, &warm, &mut expected);
    drop(warm);

    if trace {
        let generate_s: Vec<f64> = setup_s.iter().zip(&plan_s).map(|(s, p)| s - p).collect();
        report.set("scenario.generate_s", stats::median(&generate_s));
        if inputs.plan.is_some() {
            report.set("recovery.plan_s", stats::median(&plan_s));
        }
        return traced(report, &inputs, seconds, &mut expected);
    }

    let start = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || start.elapsed() < seconds {
        host.sample();
        let t = Instant::now();
        let outcome = run_once(&inputs)?;
        times.push(t.elapsed().as_secs_f64());
        verify(report, &outcome, &mut expected);
    }
    // Timings are scaled to the reference host speed (see `host`). A
    // batch run clears its rounds one call after another with nothing
    // arriving in between, so it has no latency distribution: p50_ms and
    // p90_ms both report the per-round clearing time of the median run.
    let scale = host.factor();
    let run_s = stats::median(&times) * scale;
    let per_round_ms = run_s * 1e3 / rounds as f64;
    report.note(format!(
        "{} timed runs, wall s: {}",
        times.len(),
        times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    report.note(host.describe());
    report.set("setup_s", stats::median(&setup_s) * scale);
    report.set("run_s", run_s);
    report.set("p50_ms", per_round_ms);
    report.set("p90_ms", per_round_ms);
    report.set("capacity_eps", bids as f64 / run_s);
    report.set("peak_rss_mb", env::peak_rss_mb("self")?);
    Ok(())
}

/// The traced run: standalone public calls on round 0, then traced and
/// untraced repetitions alternating until the time is up.
fn traced(
    report: &mut Report,
    inputs: &Inputs,
    seconds: Duration,
    expected: &mut Option<String>,
) -> Result<(), String> {
    let round0 = &inputs.instance.rounds()[0];
    let bids = round0.bids.clone();
    let t = Instant::now();
    let wsp = WspInstance::new(round0.estimated_demand, bids).map_err(|e| e.to_string())?;
    report.set("wsp.build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    run_ssam(&wsp, &SsamConfig::default()).map_err(|e| e.to_string())?;
    report.set("ssam.call_s", t.elapsed().as_secs_f64());
    drop(wsp);

    let start = Instant::now();
    let (mut plain, mut spanned, mut trees) = (Vec::new(), Vec::new(), Vec::new());
    while plain.is_empty() || spanned.is_empty() || start.elapsed() < seconds {
        let with_spans = spanned.len() <= plain.len();
        if with_spans {
            spans::install();
        }
        let t = Instant::now();
        let outcome = {
            let _root = spans::enter("bench.run");
            run_once(inputs)?
        };
        let took = t.elapsed().as_secs_f64();
        if with_spans {
            let tree = spans::uninstall().ok_or("span tree was not installed")?;
            trees.push(layers::from_tree(&tree));
            spanned.push(took);
        } else {
            plain.push(took);
        }
        verify(report, &outcome, expected);
    }
    let overhead = stats::median(&spanned) / stats::median(&plain) - 1.0;
    report.set("trace.overhead_share", overhead);
    report.note(format!(
        "{} traced and {} untraced runs; traced run_s {:.4}",
        spanned.len(),
        plain.len(),
        stats::median(&spanned)
    ));
    layers::record(report, &layers::median_of(&trees));
    Ok(())
}
