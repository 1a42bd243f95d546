//! MSOA — the Multi-Stage Online Auction (Algorithm 2).
//!
//! MSOA ties a series of single-stage auctions into an online mechanism
//! that never looks at future rounds. The key idea is a per-seller dual
//! variable `ψ_i` that *augments* the seller's bid price as its remaining
//! long-run capacity `Θ_i` depletes:
//!
//! * a bid is **excluded** once `χ_i + a_ij > Θ_i` (the seller has sold
//!   too much already — constraint (11), Alg. 2 line 5);
//! * otherwise its **scaled price** is `∇_ij = J_ij + a_ij · ψ_i^{t−1}`
//!   (line 8), so sellers close to depletion look expensive and are
//!   saved for rounds where they are truly needed;
//! * after each win, `ψ_i ← ψ_i(1 + a/(α·Θ_i)) + J·a/(α·Θ_i²)`
//!   (line 11), a multiplicative-update familiar from online primal-dual
//!   covering.
//!
//! Theorem 7 gives the competitive ratio `α·β/(β−1)` against the offline
//! optimum, with `α` the single-stage approximation factor and
//! `β = min_i Θ_i / a_ij > 1`.
//!
//! This module holds the instance types, `α`/`β`, and the per-round
//! pieces the loop calls (`clear_round`, `record_patch`). The round
//! loop itself lives in [`crate::recovery`]: [`run_msoa`] is *defined*
//! as that loop run with an empty fault plan and recovery disabled, so
//! there is one Algorithm 2 implementation, not two kept in step.
//!
//! # Examples
//!
//! ```
//! use edge_auction::bid::{Bid, Seller};
//! use edge_auction::msoa::{run_msoa, MsoaConfig, MultiRoundInstance, RoundInput};
//! use edge_common::id::{BidId, MicroserviceId};
//!
//! # fn main() -> Result<(), edge_auction::AuctionError> {
//! let sellers = vec![
//!     Seller::new(MicroserviceId::new(0), 10, (0, 1))?,
//!     Seller::new(MicroserviceId::new(1), 10, (0, 1))?,
//! ];
//! let round = |price0: f64, price1: f64| -> Result<RoundInput, edge_auction::AuctionError> {
//!     Ok(RoundInput::new(3, 3, vec![
//!         Bid::new(MicroserviceId::new(0), BidId::new(0), 2, price0)?,
//!         Bid::new(MicroserviceId::new(1), BidId::new(0), 2, price1)?,
//!     ]))
//! };
//! let instance = MultiRoundInstance::new(sellers, vec![round(4.0, 6.0)?, round(4.0, 6.0)?])?;
//! let outcome = run_msoa(&instance, &MsoaConfig::default())?;
//! assert_eq!(outcome.rounds.len(), 2);
//! assert!(outcome.competitive_bound.is_finite());
//! # Ok(())
//! # }
//! ```

use crate::bid::{Bid, Seller};
use crate::book::{MarketBook, SellerIndex};
use crate::error::AuctionError;
use crate::recovery::{run_msoa_with_faults_traced, FaultPlan, RecoveryConfig};
use crate::ssam::{clear_book, Cleared, SsamConfig};
use edge_common::id::{BidId, MicroserviceId};
use edge_common::units::Price;
use edge_telemetry::{event, Scoped, Trace, Value};
use serde::{Deserialize, Serialize};

/// One round's market input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundInput {
    /// The demand the platform *estimates* and auctions for (`X^t` from
    /// the §III estimator).
    pub estimated_demand: u64,
    /// The ground-truth demand (used by the MSOA-DA variant and for
    /// accounting).
    pub true_demand: u64,
    /// Bids submitted this round, with **true** prices `J_ij^t`.
    pub bids: Vec<Bid>,
}

impl RoundInput {
    /// Creates a round input.
    pub fn new(estimated_demand: u64, true_demand: u64, bids: Vec<Bid>) -> Self {
        RoundInput {
            estimated_demand,
            true_demand,
            bids,
        }
    }
}

/// A validated multi-round instance: the seller table plus per-round
/// inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiRoundInstance {
    sellers: Vec<Seller>,
    rounds: Vec<RoundInput>,
}

impl MultiRoundInstance {
    /// Builds and validates an instance.
    ///
    /// # Errors
    ///
    /// As [`MultiRoundInstance::validate`].
    pub fn new(sellers: Vec<Seller>, rounds: Vec<RoundInput>) -> Result<Self, AuctionError> {
        let instance = MultiRoundInstance { sellers, rounds };
        instance.validate()?;
        Ok(instance)
    }

    /// Checks the invariants [`MultiRoundInstance::new`] establishes —
    /// for instances that bypassed it, such as ones deserialized from a
    /// file.
    ///
    /// # Errors
    ///
    /// * [`AuctionError::EmptyInstance`] — no rounds.
    /// * [`AuctionError::InvalidWindow`] — a seller's window is inverted.
    /// * [`AuctionError::ZeroAmountBid`] / [`AuctionError::InvalidPrice`]
    ///   — a bid [`Bid::new`] would reject.
    /// * [`AuctionError::UnknownSeller`] — a bid references a seller not
    ///   in the table.
    /// * [`AuctionError::DuplicateBidId`] — a seller submitted the same
    ///   bid id twice in one round.
    pub fn validate(&self) -> Result<(), AuctionError> {
        if self.rounds.is_empty() {
            return Err(AuctionError::EmptyInstance);
        }
        for s in &self.sellers {
            Seller::new(s.id, s.capacity, s.window)?;
        }
        let ids: Vec<MicroserviceId> = self.sellers.iter().map(|s| s.id).collect();
        let index = SellerIndex::new(&ids);
        // Per seller: the round it last bid in and its last bid id there.
        // Ids rising within a round (every generator's shape) cannot
        // repeat; any other order gets an exact check by sorting.
        let mut last_round = vec![usize::MAX; ids.len()];
        let mut last_id = vec![BidId::new(0); ids.len()];
        for (t, round) in self.rounds.iter().enumerate() {
            let mut ordered = true;
            for bid in &round.bids {
                Bid::new(bid.seller, bid.id, bid.amount, bid.price.value())?;
                let s = index
                    .get(bid.seller)
                    .ok_or(AuctionError::UnknownSeller(bid.seller.index()))?;
                if last_round[s] == t && bid.id <= last_id[s] {
                    ordered = false;
                }
                last_round[s] = t;
                last_id[s] = bid.id;
            }
            if !ordered {
                first_duplicate(&round.bids)?;
            }
        }
        Ok(())
    }

    /// The seller table.
    pub fn sellers(&self) -> &[Seller] {
        &self.sellers
    }

    /// The per-round inputs.
    pub fn rounds(&self) -> &[RoundInput] {
        &self.rounds
    }

    /// Number of rounds `T`.
    pub fn num_rounds(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// `β = min_i Θ_i / a_ij` over every bid in the instance
    /// (`f64::INFINITY` when no bids exist).
    pub fn beta(&self) -> f64 {
        let ids: Vec<MicroserviceId> = self.sellers.iter().map(|s| s.id).collect();
        let index = SellerIndex::new(&ids);
        self.rounds
            .iter()
            .flat_map(|r| &r.bids)
            .map(|b| {
                let s = index.get(b.seller).expect("bids reference known sellers");
                self.sellers[s].capacity as f64 / b.amount as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// A conservative single-stage approximation factor `α` derived from
    /// the instance: the harmonic number of the largest round demand
    /// times the global unit-price spread of submitted bids.
    pub fn derive_alpha(&self) -> f64 {
        let max_demand = self
            .rounds
            .iter()
            .map(|r| r.estimated_demand)
            .max()
            .unwrap_or(0);
        let harmonic: f64 = (1..=max_demand).map(|k| 1.0 / k as f64).sum();
        let (min_unit, max_unit) = self
            .rounds
            .iter()
            .flat_map(|r| &r.bids)
            .map(Bid::unit_price)
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), u| {
                (lo.min(u), hi.max(u))
            });
        let spread = match (min_unit, max_unit) {
            (min, max) if min > 0.0 && max.is_finite() => max / min,
            _ => 1.0,
        };
        (harmonic * spread).max(1.0)
    }
}

/// The first bid (in list order) repeating an earlier bid's
/// `(seller, bid id)`, as an error.
fn first_duplicate(bids: &[Bid]) -> Result<(), AuctionError> {
    let mut keyed: Vec<(MicroserviceId, BidId, usize)> = bids
        .iter()
        .enumerate()
        .map(|(pos, b)| (b.seller, b.id, pos))
        .collect();
    keyed.sort_unstable();
    let repeat = keyed
        .windows(2)
        .filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        .map(|w| w[1].2)
        .min();
    match repeat {
        Some(pos) => Err(AuctionError::DuplicateBidId {
            seller: bids[pos].seller.index(),
            bid: bids[pos].id.index(),
        }),
        None => Ok(()),
    }
}

/// Configuration of the online mechanism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MsoaConfig {
    /// Single-stage auction settings.
    pub ssam: SsamConfig,
    /// The `α` used in the ψ update. `None` derives it from the instance
    /// via [`MultiRoundInstance::derive_alpha`].
    ///
    /// **Truthfulness footgun:** a derived `α` depends on the submitted
    /// bid prices, so a seller's misreport changes every seller's ψ
    /// trajectory and the per-round mechanism is no longer independent
    /// of reports. Leaving this `None` is fine for benchmarking the
    /// competitive ratio, but incentive experiments must pin `α` (see
    /// [`MsoaConfig::pinned`]); the runner warns once per process when
    /// it falls back to deriving.
    pub alpha: Option<f64>,
}

impl MsoaConfig {
    /// A config with `α` pinned to a report-independent constant, the
    /// safe choice whenever truthfulness matters.
    pub fn pinned(alpha: f64) -> Self {
        MsoaConfig {
            ssam: SsamConfig::default(),
            alpha: Some(alpha),
        }
    }
}

/// Resolves the `α` an online run will use, warning loudly (once per
/// process) when it has to derive one from the reported bids.
pub(crate) fn resolve_alpha(instance: &MultiRoundInstance, config: &MsoaConfig) -> f64 {
    match config.alpha {
        Some(alpha) => alpha,
        None => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                // Through the telemetry layer: with no subscriber this
                // falls back to the same `warning: ...` stderr line the
                // bare eprintln! used to produce.
                event!(warn: "msoa.alpha_derived",
                    message = "MsoaConfig.alpha is None; deriving α from submitted bids. \
                     A derived α depends on reports, which voids the truthfulness guarantee \
                     — pin it with MsoaConfig::pinned(α) for incentive experiments.");
            });
            instance.derive_alpha()
        }
    }
}

/// A winner in one MSOA round, carrying both the true and the scaled
/// price.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MsoaWinner {
    /// The selling microservice.
    pub seller: MicroserviceId,
    /// Which alternative bid won.
    pub bid: BidId,
    /// Units offered by the bid (counted against capacity).
    pub amount: u64,
    /// Units credited toward this round's demand.
    pub contribution: u64,
    /// The true price `J_ij^t` (enters the social cost).
    pub true_price: Price,
    /// The ψ-scaled price `∇_ij^t` SSAM selected on.
    pub scaled_price: Price,
    /// The critical-value payment (computed on scaled prices, which are
    /// what the platform sees — §IV-E).
    pub payment: Price,
}

/// One round's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundResult {
    /// Round index `t`.
    pub round: u64,
    /// The demand that was auctioned.
    pub demand: u64,
    /// Winners of this round.
    pub winners: Vec<MsoaWinner>,
    /// Σ true prices of this round's winners.
    pub social_cost: Price,
    /// Σ payments of this round.
    pub total_payment: Price,
    /// `true` when this round's demand could not be covered with the
    /// available (window- and capacity-feasible) bids, in which case no
    /// winners were selected.
    pub infeasible: bool,
}

/// The full outcome of an MSOA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MsoaOutcome {
    /// Per-round results, in order.
    pub rounds: Vec<RoundResult>,
    /// Σ true prices over all rounds — the online social cost `μ`.
    pub social_cost: Price,
    /// Σ payments over all rounds.
    pub total_payment: Price,
    /// Final ψ_i per seller (instance seller-table order).
    pub psi: Vec<f64>,
    /// Units yielded per seller (χ_i, seller-table order).
    pub chi: Vec<u64>,
    /// The α used in ψ updates.
    pub alpha: f64,
    /// The instance's β.
    pub beta: f64,
    /// Theorem 7's competitive bound `α·β/(β−1)` (infinite when β ≤ 1).
    pub competitive_bound: f64,
}

impl MsoaOutcome {
    /// Round indices that could not be covered.
    pub fn infeasible_rounds(&self) -> Vec<u64> {
        self.rounds
            .iter()
            .filter(|r| r.infeasible)
            .map(|r| r.round)
            .collect()
    }
}

/// Runs Algorithm 2.
///
/// Rounds whose demand cannot be covered by the feasible bids are
/// recorded as infeasible and skipped (the platform simply fails to
/// reclaim resources that round); all other rounds run a full SSAM on
/// ψ-scaled prices.
///
/// # Errors
///
/// Currently infallible for a validated instance, but kept fallible for
/// forward compatibility with stricter configs.
pub fn run_msoa(
    instance: &MultiRoundInstance,
    config: &MsoaConfig,
) -> Result<MsoaOutcome, AuctionError> {
    run_msoa_traced(instance, config, Trace::off())
}

/// [`run_msoa`] with an audit trail: per round, every bid exclusion
/// (window/capacity), every ψ-scaling applied to a surviving bid, and
/// every winner's settlement with its ψ/χ update is recorded on `trace`;
/// the nested single-stage auction's events are stamped with the round
/// index. Tracing does not change the outcome.
///
/// MSOA *is* the fault pipeline of [`crate::recovery`] run with an
/// [empty plan](FaultPlan::empty) and recovery
/// [disabled](RecoveryConfig::disabled): nobody defaults, crashes or
/// gets blacklisted, no reliability penalty is priced in, and an
/// infeasible round never starts a backfill ladder. Its outcome is
/// projected onto [`MsoaOutcome`] — every winner's commitment is its
/// contribution and it is paid what it is due.
///
/// # Errors
///
/// Exactly as [`run_msoa`].
pub fn run_msoa_traced(
    instance: &MultiRoundInstance,
    config: &MsoaConfig,
    trace: Trace<'_>,
) -> Result<MsoaOutcome, AuctionError> {
    let run = run_msoa_with_faults_traced(
        instance,
        config,
        &FaultPlan::empty(),
        &RecoveryConfig::disabled(),
        trace,
    )?;
    let rounds = run
        .rounds
        .into_iter()
        .map(|r| RoundResult {
            round: r.round,
            demand: r.demand,
            winners: r
                .winners
                .iter()
                .map(|w| MsoaWinner {
                    seller: w.seller,
                    bid: w.bid,
                    amount: w.amount,
                    contribution: w.committed,
                    true_price: w.true_price,
                    scaled_price: w.scaled_price,
                    payment: w.payment_due,
                })
                .collect(),
            social_cost: r.social_cost,
            total_payment: r.platform_cost,
            infeasible: r.primary_infeasible,
        })
        .collect();
    let competitive_bound = if run.beta > 1.0 {
        run.alpha * run.beta / (run.beta - 1.0)
    } else {
        f64::INFINITY
    };
    Ok(MsoaOutcome {
        rounds,
        social_cost: run.social_cost,
        total_payment: run.platform_cost,
        psi: run.psi,
        chi: run.chi,
        alpha: run.alpha,
        beta: run.beta,
        competitive_bound,
    })
}

/// Clears one round's primary auction on the book. `None` when the
/// admitted bids cannot cover `demand` — no auction runs, exactly as a
/// `WspInstance` over them would refuse to build — or when the reserve
/// leaves too little supply. The nested single-stage auction inherits
/// the trace with the round index stamped onto every one of its events.
pub(crate) fn clear_round(
    book: &mut MarketBook<'_>,
    demand: u64,
    config: &MsoaConfig,
    t: u64,
    trace: Trace<'_>,
) -> Result<Option<Cleared>, AuctionError> {
    if book.admitted_supply() < demand {
        return Ok(None);
    }
    let scoped = trace
        .sink()
        .map(|s| Scoped::new(s, vec![("round", Value::from(t))]));
    let ssam_trace = match &scoped {
        Some(s) => Trace::new(s),
        None => Trace::off(),
    };
    let _ssam_span = edge_telemetry::spans::enter("ssam");
    match clear_book(book, demand, &config.ssam, ssam_trace) {
        Ok(cleared) => Ok(Some(cleared)),
        Err(AuctionError::InfeasibleDemand { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Records one round's patch accounting on the open `patch` span. The
/// counts are a pure function of the workload (which sellers' contexts
/// changed) — deterministic side.
pub(crate) fn record_patch(stats: crate::book::PatchStats) {
    if edge_telemetry::spans::is_enabled() {
        edge_telemetry::spans::ctr("rebuilds", u64::from(stats.rebuilt));
        edge_telemetry::spans::ctr("dirty_sellers", stats.dirty_sellers);
        edge_telemetry::spans::ctr("patched_slots", stats.patched_slots);
        edge_telemetry::spans::ctr("total_slots", stats.total_slots);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn bid(seller: usize, id: usize, amount: u64, price: f64) -> Bid {
        Bid::new(MicroserviceId::new(seller), BidId::new(id), amount, price).unwrap()
    }

    fn seller(id: usize, capacity: u64, window: (u64, u64)) -> Seller {
        Seller::new(MicroserviceId::new(id), capacity, window).unwrap()
    }

    fn two_seller_instance(rounds: usize, capacity: u64) -> MultiRoundInstance {
        let last = rounds as u64 - 1;
        let sellers = vec![
            seller(0, capacity, (0, last)),
            seller(1, capacity, (0, last)),
        ];
        let round_inputs = (0..rounds)
            .map(|_| RoundInput::new(3, 3, vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)]))
            .collect();
        MultiRoundInstance::new(sellers, round_inputs).unwrap()
    }

    #[test]
    fn validates_unknown_sellers() {
        let err = MultiRoundInstance::new(
            vec![seller(0, 10, (0, 0))],
            vec![RoundInput::new(1, 1, vec![bid(7, 0, 1, 1.0)])],
        )
        .unwrap_err();
        assert_eq!(err, AuctionError::UnknownSeller(7));
    }

    #[test]
    fn validates_duplicate_bid_ids() {
        let sellers = vec![seller(0, 3, (0, 0)), seller(1, 10, (0, 0))];
        let err = MultiRoundInstance::new(
            sellers.clone(),
            vec![RoundInput::new(
                2,
                2,
                vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 40.0), bid(0, 0, 5, 9.0)],
            )],
        )
        .unwrap_err();
        assert_eq!(err, AuctionError::DuplicateBidId { seller: 0, bid: 0 });
        // The same id in different rounds, or for different sellers, is
        // fine; descending ids take the exact (sorting) check.
        let rounds = vec![
            RoundInput::new(
                2,
                2,
                vec![bid(0, 1, 2, 4.0), bid(0, 0, 1, 2.0), bid(1, 0, 2, 6.0)],
            ),
            RoundInput::new(2, 2, vec![bid(0, 1, 2, 4.0), bid(1, 1, 2, 6.0)]),
        ];
        assert!(MultiRoundInstance::new(sellers.clone(), rounds).is_ok());
        let err = MultiRoundInstance::new(
            sellers,
            vec![RoundInput::new(
                2,
                2,
                vec![
                    bid(1, 3, 2, 4.0),
                    bid(1, 1, 1, 2.0),
                    bid(1, 3, 3, 6.0),
                    bid(1, 1, 3, 6.0),
                ],
            )],
        )
        .unwrap_err();
        assert_eq!(err, AuctionError::DuplicateBidId { seller: 1, bid: 3 });
    }

    /// A deserialized instance skips [`MultiRoundInstance::new`]; the
    /// round loop must still settle each winner against the bid that
    /// actually won, never against another copy of its `(seller, id)`.
    pub(crate) fn duplicate_id_instance() -> MultiRoundInstance {
        let json = r#"{
            "sellers": [
                {"id": 0, "capacity": 3, "window": [0, 0]},
                {"id": 1, "capacity": 10, "window": [0, 0]}
            ],
            "rounds": [{
                "estimated_demand": 2,
                "true_demand": 2,
                "bids": [
                    {"seller": 0, "id": 0, "amount": 2, "price": 4.0},
                    {"seller": 0, "id": 0, "amount": 5, "price": 9.0},
                    {"seller": 1, "id": 0, "amount": 2, "price": 40.0}
                ]
            }]
        }"#;
        let instance: MultiRoundInstance = serde_json::from_str(json).unwrap();
        assert_eq!(
            instance.validate(),
            Err(AuctionError::DuplicateBidId { seller: 0, bid: 0 })
        );
        instance
    }

    #[test]
    fn winner_settles_against_the_bid_that_won() {
        let out = run_msoa(&duplicate_id_instance(), &MsoaConfig::pinned(2.0)).unwrap();
        let w = &out.rounds[0].winners[0];
        assert_eq!((w.seller, w.amount), (MicroserviceId::new(0), 2));
        assert_eq!(w.true_price, Price::new(4.0).unwrap());
        assert_eq!(out.chi, vec![2, 0], "capacity 3 is respected");
    }

    #[test]
    fn validate_rejects_what_new_rejects() {
        let inverted = r#"{
            "sellers": [{"id": 0, "capacity": 3, "window": [2, 1]}],
            "rounds": [{"estimated_demand": 1, "true_demand": 1, "bids": []}]
        }"#;
        let instance: MultiRoundInstance = serde_json::from_str(inverted).unwrap();
        assert_eq!(
            instance.validate(),
            Err(AuctionError::InvalidWindow { start: 2, end: 1 })
        );
        let zero = r#"{
            "sellers": [{"id": 0, "capacity": 3, "window": [0, 1]}],
            "rounds": [{"estimated_demand": 1, "true_demand": 1,
                        "bids": [{"seller": 0, "id": 0, "amount": 0, "price": 1.0}]}]
        }"#;
        let instance: MultiRoundInstance = serde_json::from_str(zero).unwrap();
        assert_eq!(instance.validate(), Err(AuctionError::ZeroAmountBid));
        let empty = MultiRoundInstance {
            sellers: vec![],
            rounds: vec![],
        };
        assert_eq!(empty.validate(), Err(AuctionError::EmptyInstance));
    }

    #[test]
    fn validates_empty_instance() {
        let err = MultiRoundInstance::new(vec![], vec![]).unwrap_err();
        assert_eq!(err, AuctionError::EmptyInstance);
    }

    #[test]
    fn covers_every_feasible_round() {
        let instance = two_seller_instance(3, 100);
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        assert_eq!(out.rounds.len(), 3);
        for r in &out.rounds {
            assert!(!r.infeasible);
            let covered: u64 = r.winners.iter().map(|w| w.contribution).sum();
            assert_eq!(covered, 3);
        }
        assert!(out.infeasible_rounds().is_empty());
    }

    #[test]
    fn psi_grows_for_winners_only() {
        let sellers = vec![
            seller(0, 100, (0, 1)),
            seller(1, 100, (0, 1)),
            seller(2, 100, (0, 1)),
        ];
        // Seller 2's bid is far too expensive to ever win.
        let rounds = (0..2)
            .map(|_| {
                RoundInput::new(
                    3,
                    3,
                    vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0), bid(2, 0, 2, 500.0)],
                )
            })
            .collect();
        let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        assert!(out.psi[0] > 0.0, "winner's ψ should grow");
        assert!(out.psi[1] > 0.0);
        assert_eq!(out.psi[2], 0.0, "loser's ψ stays zero");
        assert_eq!(out.chi[2], 0);
    }

    #[test]
    fn capacity_exhaustion_excludes_bids() {
        // Capacity 4: seller 0 can win twice (2 units each), then its
        // bids are excluded and seller 1 must carry the demand alone —
        // but seller 1 alone cannot cover 3 with a 2-unit bid, so later
        // rounds go infeasible.
        let instance = two_seller_instance(4, 4);
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        let infeasible = out.infeasible_rounds();
        assert!(!infeasible.is_empty(), "capacity should bite eventually");
        for si in 0..2 {
            assert!(out.chi[si] <= 4, "capacity violated for seller {si}");
        }
    }

    #[test]
    fn windows_exclude_absent_sellers() {
        let sellers = vec![seller(0, 100, (0, 0)), seller(1, 100, (0, 1))];
        let rounds = vec![
            RoundInput::new(2, 2, vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)]),
            RoundInput::new(2, 2, vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)]),
        ];
        let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        // Round 0: seller 0 (cheaper) wins. Round 1: seller 0 is outside
        // its window; seller 1 must win.
        assert_eq!(out.rounds[0].winners[0].seller, MicroserviceId::new(0));
        assert_eq!(out.rounds[1].winners.len(), 1);
        assert_eq!(out.rounds[1].winners[0].seller, MicroserviceId::new(1));
    }

    #[test]
    fn scaled_prices_exceed_true_prices_after_wins() {
        let instance = two_seller_instance(3, 100);
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        // Seller 0 wins round 0 at its true price (ψ=0), later rounds at
        // a scaled price strictly above.
        let w0 = &out.rounds[0].winners[0];
        assert_eq!(w0.scaled_price, w0.true_price);
        let later: Vec<&MsoaWinner> = out.rounds[1..]
            .iter()
            .flat_map(|r| &r.winners)
            .filter(|w| w.seller == MicroserviceId::new(0))
            .collect();
        assert!(!later.is_empty());
        for w in later {
            assert!(w.scaled_price > w.true_price);
        }
    }

    #[test]
    fn social_cost_accumulates_true_prices() {
        let instance = two_seller_instance(2, 100);
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        let manual: f64 = out
            .rounds
            .iter()
            .flat_map(|r| &r.winners)
            .map(|w| w.true_price.value())
            .sum();
        assert!((out.social_cost.value() - manual).abs() < 1e-9);
    }

    #[test]
    fn competitive_bound_matches_formula() {
        let instance = two_seller_instance(2, 10);
        let out = run_msoa(
            &instance,
            &MsoaConfig {
                alpha: Some(2.0),
                ..Default::default()
            },
        )
        .unwrap();
        // β = min(10/2) = 5; bound = 2·5/4 = 2.5.
        assert_eq!(out.beta, 5.0);
        assert!((out.competitive_bound - 2.5).abs() < 1e-9);
    }

    #[test]
    fn beta_at_most_one_gives_infinite_bound() {
        let sellers = vec![seller(0, 2, (0, 0)), seller(1, 2, (0, 0))];
        let rounds = vec![RoundInput::new(
            2,
            2,
            vec![bid(0, 0, 2, 4.0), bid(1, 0, 2, 6.0)],
        )];
        let instance = MultiRoundInstance::new(sellers, rounds).unwrap();
        let out = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        assert_eq!(out.beta, 1.0);
        assert!(out.competitive_bound.is_infinite());
    }

    #[test]
    fn deterministic() {
        let instance = two_seller_instance(5, 20);
        let a = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        let b = run_msoa(&instance, &MsoaConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn derive_alpha_reflects_demand_and_spread() {
        let instance = two_seller_instance(2, 100);
        // Demand 3 → H_3 ≈ 1.833; spread = 3.0/2.0 = 1.5.
        let alpha = instance.derive_alpha();
        let h3 = 1.0 + 0.5 + 1.0 / 3.0;
        assert!((alpha - h3 * 1.5).abs() < 1e-9, "alpha {alpha}");
    }
}
