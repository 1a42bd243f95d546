//! Differential suite for the persistent market book: MSOA (and its
//! fault-injected variant) run with the book patched across rounds must
//! be **byte-identical** to a cold rebuild of the book every round —
//! same outcomes, same deterministic JSONL traces (event order, every
//! field), including under non-empty fault plans where crashes,
//! blacklisting, and reliability updates dirty sellers mid-run. There is
//! one cold oracle, `run_msoa_with_faults_cold_traced`; plain MSOA is
//! held against it with an empty plan and recovery off.

#![cfg(feature = "ssam-reference")]

use edge_auction::bid::{Bid, Seller};
use edge_auction::msoa::{
    run_msoa_traced, MsoaConfig, MsoaOutcome, MultiRoundInstance, RoundInput,
};
use edge_auction::recovery::{
    run_msoa_with_faults_cold_traced, run_msoa_with_faults_traced, FaultInjectionConfig, FaultPlan,
    FaultyMsoaOutcome, RecoveryConfig,
};
use edge_auction::ssam::SsamConfig;
use edge_common::id::{BidId, MicroserviceId};
use edge_telemetry::{Collector, Trace};
use proptest::prelude::*;

/// Multi-round instances that keep the book honest: some rounds repeat
/// the same bid list (patching engages), others change it (rebuild
/// path); windows open and close mid-run; capacities bind for some
/// sellers and not others.
fn arb_multi_round() -> impl Strategy<Value = MultiRoundInstance> {
    (
        proptest::collection::vec((4u64..30, 0u64..3, 2u64..6), 2..7), // capacity, window start, window len
        2u64..6,                                                       // rounds
        proptest::collection::vec((1u64..6, 1u32..25), 2..7),          // per-seller (amount, price)
        proptest::collection::vec(0u32..4, 2..6),                      // per-round price jitter
        1u64..8,                                                       // demand
    )
        .prop_filter_map(
            "instance must validate",
            |(seller_specs, rounds, bid_specs, jitter, demand)| {
                let sellers: Vec<Seller> = seller_specs
                    .iter()
                    .enumerate()
                    .map(|(i, &(cap, from, len))| {
                        Seller::new(MicroserviceId::new(i), cap, (from, from + len)).ok()
                    })
                    .collect::<Option<_>>()?;
                let round_inputs: Vec<RoundInput> = (0..rounds)
                    .map(|t| {
                        let bids: Vec<Bid> = bid_specs
                            .iter()
                            .take(sellers.len())
                            .enumerate()
                            .filter_map(|(i, &(amount, price))| {
                                // Jittered rounds submit different prices →
                                // a different bid list → rebuild; the rest
                                // repeat the previous list → patching.
                                let j = jitter.get(t as usize % jitter.len()).copied().unwrap_or(0);
                                Bid::new(
                                    MicroserviceId::new(i),
                                    BidId::new(0),
                                    amount,
                                    f64::from(price + j * u32::from(t % 2 == 0)),
                                )
                                .ok()
                            })
                            .collect();
                        RoundInput::new(demand, demand, bids)
                    })
                    .collect();
                MultiRoundInstance::new(sellers, round_inputs).ok()
            },
        )
}

/// One seller of [`arb_book_stress`]: capacity, window start and length,
/// and one or two alternatives `(amount, price)`.
type SellerSpec = (u64, u64, u64, Vec<(u64, u32)>);

/// Long runs (5–9 rounds) over sellers with one or two alternatives of
/// different amounts, so a partial capacity exclusion drops a seller's
/// larger bid and changes its best offer and the Σ-supply. The bid list
/// follows a schedule of blocks that each repeat one of three lists for
/// several rounds — the full list, the list with some sellers absent (a
/// seller leaves the table and later returns), or a re-priced list — so
/// both the patch path and the rebuild path run, back and forth.
fn arb_book_stress() -> impl Strategy<Value = MultiRoundInstance> {
    let seller = (
        3u64..16,
        0u64..3,
        1u64..9,
        proptest::collection::vec((1u64..6, 1u32..30), 1..3),
    );
    (
        proptest::collection::vec(seller, 2..9),
        proptest::collection::vec((0u8..3, 1usize..5), 2..6), // (list, repeats) blocks
        proptest::collection::vec(0u32..2, 2..9),             // absent-seller mask
        1u64..12,                                             // demand
    )
        .prop_filter_map(
            "instance must validate",
            |(specs, blocks, absent, demand): (Vec<SellerSpec>, _, Vec<u32>, u64)| {
                let sellers: Vec<Seller> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, (cap, from, len, _))| {
                        Seller::new(MicroserviceId::new(i), *cap, (*from, from + len)).ok()
                    })
                    .collect::<Option<_>>()?;
                let list = |kind: u8| -> Vec<Bid> {
                    specs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| kind != 1 || absent.get(*i).copied().unwrap_or(0) == 0)
                        .flat_map(|(i, (_, _, _, alternatives))| {
                            let mut amount = 0;
                            alternatives
                                .iter()
                                .enumerate()
                                .map(|(j, &(step, price))| {
                                    // Strictly growing amounts per seller.
                                    amount += step;
                                    let price =
                                        f64::from(price) + if kind == 2 { 0.5 } else { 0.0 };
                                    Bid::new(MicroserviceId::new(i), BidId::new(j), amount, price)
                                        .expect("positive amount, finite price")
                                })
                                .collect::<Vec<_>>()
                        })
                        .collect()
                };
                let rounds: Vec<RoundInput> = blocks
                    .iter()
                    .flat_map(|&(kind, repeats)| std::iter::repeat_n(kind, repeats))
                    .take(9)
                    .map(|kind| RoundInput::new(demand, demand, list(kind)))
                    .collect();
                if rounds.len() < 5 {
                    return None;
                }
                MultiRoundInstance::new(sellers, rounds).ok()
            },
        )
}

/// Pinned α, with and without a reserve unit price (the reserve filter
/// moves bids in and out of the candidate set as ψ grows).
fn arb_config() -> impl Strategy<Value = MsoaConfig> {
    (0u32..8).prop_map(|r| MsoaConfig {
        ssam: SsamConfig {
            reserve_unit_price: (r > 1).then(|| f64::from(r)),
        },
        alpha: Some(2.0),
    })
}

/// The cold oracle for plain MSOA: the fault pipeline with the book
/// rebuilt every round, an empty plan, and recovery off.
fn plain_cold_traced(
    instance: &MultiRoundInstance,
    config: &MsoaConfig,
    trace: Trace<'_>,
) -> Result<FaultyMsoaOutcome, edge_auction::AuctionError> {
    run_msoa_with_faults_cold_traced(
        instance,
        config,
        &FaultPlan::empty(),
        &RecoveryConfig::disabled(),
        trace,
    )
}

/// Every field a plain outcome shares with the cold fault-pipeline
/// outcome, compared bit for bit.
fn assert_same_outcome(plain: &MsoaOutcome, cold: &FaultyMsoaOutcome) -> Result<(), String> {
    prop_assert_eq!(&plain.psi, &cold.psi);
    prop_assert_eq!(&plain.chi, &cold.chi);
    prop_assert_eq!(plain.alpha.to_bits(), cold.alpha.to_bits());
    prop_assert_eq!(plain.beta.to_bits(), cold.beta.to_bits());
    prop_assert_eq!(plain.social_cost, cold.social_cost);
    prop_assert_eq!(plain.total_payment, cold.platform_cost);
    prop_assert_eq!(plain.rounds.len(), cold.rounds.len());
    for (p, c) in plain.rounds.iter().zip(&cold.rounds) {
        prop_assert_eq!((p.round, p.demand), (c.round, c.demand));
        prop_assert_eq!(p.infeasible, c.primary_infeasible);
        prop_assert_eq!(p.social_cost, c.social_cost);
        prop_assert_eq!(p.total_payment, c.platform_cost);
        prop_assert_eq!(p.winners.len(), c.winners.len());
        for (pw, cw) in p.winners.iter().zip(&c.winners) {
            prop_assert_eq!(
                (pw.seller, pw.bid, pw.amount),
                (cw.seller, cw.bid, cw.amount)
            );
            prop_assert_eq!(pw.contribution, cw.committed);
            prop_assert_eq!(pw.true_price, cw.true_price);
            prop_assert_eq!(pw.scaled_price, cw.scaled_price);
            prop_assert_eq!(pw.payment, cw.payment_due);
        }
    }
    Ok(())
}

/// Persistent MSOA ≡ cold-rebuild MSOA: outcome and full trace.
fn assert_plain_matches_cold(
    instance: &MultiRoundInstance,
    config: &MsoaConfig,
) -> Result<(), String> {
    let warm_c = Collector::new();
    let warm = run_msoa_traced(instance, config, Trace::new(&warm_c));
    let cold_c = Collector::new();
    let cold = plain_cold_traced(instance, config, Trace::new(&cold_c));
    match (warm, cold) {
        (Ok(a), Ok(b)) => assert_same_outcome(&a, &b)?,
        (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
        (a, b) => return Err(format!("divergent results: {a:?} vs {b:?}")),
    }
    prop_assert_eq!(warm_c.deterministic_jsonl(), cold_c.deterministic_jsonl());
    Ok(())
}

/// The same under a fault plan and recovery policy.
fn assert_faulty_matches_cold(
    instance: &MultiRoundInstance,
    config: &MsoaConfig,
    plan: &FaultPlan,
    recovery: &RecoveryConfig,
) -> Result<(), String> {
    let warm_c = Collector::new();
    let warm = run_msoa_with_faults_traced(instance, config, plan, recovery, Trace::new(&warm_c));
    let cold_c = Collector::new();
    let cold =
        run_msoa_with_faults_cold_traced(instance, config, plan, recovery, Trace::new(&cold_c));
    match (warm, cold) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
        (a, b) => return Err(format!("divergent results: {a:?} vs {b:?}")),
    }
    prop_assert_eq!(warm_c.deterministic_jsonl(), cold_c.deterministic_jsonl());
    Ok(())
}

/// Fault plans aggressive enough to be non-empty on most cases; the
/// second component toggles recovery on/off.
fn arb_fault_inputs() -> impl Strategy<Value = (u64, u64)> {
    (0u64..1_000_000, 0u64..2)
}

fn plan_for(instance: &MultiRoundInstance, seed: u64) -> FaultPlan {
    FaultPlan::seeded(
        seed,
        instance.num_rounds(),
        instance.sellers().len(),
        &FaultInjectionConfig {
            default_probability: 0.35,
            crash_probability: 0.2,
            crash_length: 2,
            dropout_probability: 0.1,
            ..FaultInjectionConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Persistent MSOA ≡ cold-rebuild MSOA: outcome and full trace.
    #[test]
    fn incremental_matches_cold_msoa(instance in arb_multi_round()) {
        assert_plain_matches_cold(&instance, &MsoaConfig::pinned(2.0))?;
    }

    /// Same under injected faults: crashes, defaults, blacklisting, and
    /// reliability-scaled prices all flow through the seller context, so
    /// patched rounds must still match a cold rebuild bit-for-bit.
    #[test]
    fn incremental_matches_cold_under_faults(
        (instance, (seed, enabled)) in (arb_multi_round(), arb_fault_inputs())
    ) {
        let plan = plan_for(&instance, seed);
        let recovery = if enabled == 1 {
            RecoveryConfig::default()
        } else {
            RecoveryConfig::disabled()
        };
        assert_faulty_matches_cold(&instance, &MsoaConfig::pinned(2.0), &plan, &recovery)?;
    }

    /// Multi-alternative sellers, long repeated lists, sellers leaving
    /// and rejoining the table, and a reserve: persistent ≡ cold.
    #[test]
    fn persistent_book_matches_cold_msoa(
        (instance, config) in (arb_book_stress(), arb_config())
    ) {
        assert_plain_matches_cold(&instance, &config)?;
    }

    /// The same stress instances under seeded fault plans.
    #[test]
    fn persistent_book_matches_cold_under_faults(
        (instance, config, (seed, enabled)) in (arb_book_stress(), arb_config(), arb_fault_inputs())
    ) {
        let plan = plan_for(&instance, seed);
        let recovery = if enabled == 1 {
            RecoveryConfig::default()
        } else {
            RecoveryConfig::disabled()
        };
        assert_faulty_matches_cold(&instance, &config, &plan, &recovery)?;
    }
}

/// Deterministic anchor: a long run with a repeated bid list, where a
/// non-empty plan provably fires (crash every round for seller 0), so
/// the patched path demonstrably crosses crash/blacklist transitions.
#[test]
fn incremental_matches_cold_on_forced_faults() {
    let sellers: Vec<Seller> = (0..4)
        .map(|i| Seller::new(MicroserviceId::new(i), 40, (0, 9)).unwrap())
        .collect();
    let rounds: Vec<RoundInput> = (0..8)
        .map(|_| {
            RoundInput::new(
                4,
                4,
                (0..4)
                    .map(|i| {
                        Bid::new(MicroserviceId::new(i), BidId::new(0), 2, 4.0 + i as f64).unwrap()
                    })
                    .collect(),
            )
        })
        .collect();
    let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
    let config = MsoaConfig::pinned(2.0);
    let mut plan = FaultPlan::empty();
    plan.crashes.push(edge_auction::CrashWindow {
        seller: MicroserviceId::new(0),
        from: 2,
        until: 5,
    });
    plan.defaults.push(edge_auction::DefaultEvent {
        round: 1,
        seller: MicroserviceId::new(1),
        delivered_fraction: 0.25,
    });
    let recovery = RecoveryConfig::default();
    let warm_c = Collector::new();
    let warm =
        run_msoa_with_faults_traced(&instance, &config, &plan, &recovery, Trace::new(&warm_c))
            .unwrap();
    let cold_c = Collector::new();
    let cold =
        run_msoa_with_faults_cold_traced(&instance, &config, &plan, &recovery, Trace::new(&cold_c))
            .unwrap();
    assert_eq!(warm, cold);
    assert_eq!(warm_c.deterministic_jsonl(), cold_c.deterministic_jsonl());
    assert!(
        warm.rounds.iter().any(|r| !r.winners.is_empty()),
        "the forced-fault run still settles winners"
    );
}

/// Deterministic anchor for the book: eight rounds in three blocks of a
/// repeated list; seller 0's capacity binds after one win and drops its
/// larger alternative (its best offer and the Σ-supply shrink); seller 2
/// joins through its window; seller 3 leaves the list for two rounds and
/// returns. Persistent ≡ cold with and without a reserve, and the span
/// counters prove the persistent run patched rather than rebuilt.
#[test]
fn persistent_book_matches_cold_on_a_scripted_run() {
    let sellers = vec![
        Seller::new(MicroserviceId::new(0), 6, (0, 7)).unwrap(),
        Seller::new(MicroserviceId::new(1), 40, (0, 7)).unwrap(),
        Seller::new(MicroserviceId::new(2), 40, (2, 7)).unwrap(),
        Seller::new(MicroserviceId::new(3), 40, (0, 7)).unwrap(),
    ];
    let bid = |s: usize, j: usize, amount: u64, price: f64| {
        Bid::new(MicroserviceId::new(s), BidId::new(j), amount, price).unwrap()
    };
    let full = vec![
        bid(0, 0, 2, 3.0),
        bid(0, 1, 5, 10.0),
        bid(1, 0, 3, 9.0),
        bid(2, 0, 2, 5.0),
        bid(3, 0, 1, 3.0),
        bid(3, 1, 4, 14.0),
    ];
    let without_3: Vec<Bid> = full
        .iter()
        .copied()
        .filter(|b| b.seller != MicroserviceId::new(3))
        .collect();
    let rounds: Vec<RoundInput> = (0..8)
        .map(|t| {
            let bids = if (3..5).contains(&t) {
                without_3.clone()
            } else {
                full.clone()
            };
            RoundInput::new(5, 5, bids)
        })
        .collect();
    let instance = MultiRoundInstance::new(sellers, rounds).unwrap();

    for reserve in [None, Some(3.0)] {
        let config = MsoaConfig {
            ssam: SsamConfig {
                reserve_unit_price: reserve,
            },
            alpha: Some(2.0),
        };
        edge_telemetry::spans::install();
        let warm_c = Collector::new();
        let warm = run_msoa_traced(&instance, &config, Trace::new(&warm_c)).unwrap();
        let tree = edge_telemetry::spans::uninstall().unwrap();
        let cold_c = Collector::new();
        let cold = plain_cold_traced(&instance, &config, Trace::new(&cold_c)).unwrap();
        assert_same_outcome(&warm, &cold).unwrap();
        assert_eq!(warm_c.deterministic_jsonl(), cold_c.deterministic_jsonl());

        let counter = |key: &str| -> u64 {
            tree.views()
                .iter()
                .filter(|v| v.name == "patch")
                .flat_map(|v| v.counters.iter())
                .filter(|(k, _)| *k == key)
                .map(|&(_, n)| n)
                .sum()
        };
        assert_eq!(counter("rebuilds"), 3, "one rebuild per list change");
        assert!(
            counter("dirty_sellers") > 0,
            "patched rounds saw dirty sellers"
        );

        let faults = FaultPlan::empty();
        assert_faulty_matches_cold(&instance, &config, &faults, &RecoveryConfig::default())
            .unwrap();
    }

    // The capacity exclusion really happened: seller 0's 5-unit bid sits
    // out while its 2-unit bid is still admitted in the same round.
    let c = Collector::new();
    run_msoa_traced(&instance, &MsoaConfig::pinned(2.0), Trace::new(&c)).unwrap();
    let events = c.events();
    let field = |e: &edge_telemetry::Event, k: &str| e.field(k).and_then(|v| v.as_f64());
    let partial = events.iter().any(|e| {
        e.name == "bid.excluded"
            && field(e, "seller") == Some(0.0)
            && field(e, "bid") == Some(1.0)
            && e.field("reason").and_then(|v| v.as_str()) == Some("capacity")
            && events.iter().any(|s| {
                s.name == "bid.scaled"
                    && field(s, "seller") == Some(0.0)
                    && field(s, "bid") == Some(0.0)
                    && field(s, "round") == field(e, "round")
            })
    });
    assert!(
        partial,
        "seller 0 lost only its larger alternative to capacity"
    );
}
