//! The live coverage gauge after a plain MSOA round.
//!
//! `edge_auction_coverage_ratio` is "supplied units over estimated
//! demand", where a winner supplies what it commits toward the demand —
//! not the full amount of its bid. When the last winner overshoots, the
//! committed units still cover the demand exactly, so the gauge reads
//! 1.0, never above. The registry is process-global, so this file holds
//! a single test: no other auction can move the gauge between the run
//! and the read.

use edge_auction::bid::{Bid, Seller};
use edge_auction::msoa::{run_msoa, MsoaConfig, MultiRoundInstance, RoundInput};
use edge_common::id::{BidId, MicroserviceId};
use edge_telemetry::registry::global;

#[test]
fn coverage_gauge_counts_committed_units_not_bid_amounts() {
    let sellers = vec![
        Seller::new(MicroserviceId::new(0), 10, (0, 0)).unwrap(),
        Seller::new(MicroserviceId::new(1), 10, (0, 0)).unwrap(),
    ];
    let bids = vec![
        Bid::new(MicroserviceId::new(0), BidId::new(0), 2, 4.0).unwrap(),
        Bid::new(MicroserviceId::new(1), BidId::new(0), 2, 6.0).unwrap(),
    ];
    let instance = MultiRoundInstance::new(sellers, vec![RoundInput::new(3, 3, bids)]).unwrap();
    let out = run_msoa(&instance, &MsoaConfig::pinned(2.0)).unwrap();

    // Both 2-unit bids win; the second commits only the 1 unit left.
    let round = &out.rounds[0];
    assert_eq!(round.winners.len(), 2);
    let amounts: u64 = round.winners.iter().map(|w| w.amount).sum();
    let committed: u64 = round.winners.iter().map(|w| w.contribution).sum();
    assert_eq!((amounts, committed), (4, 3));

    let coverage = global()
        .gauge(
            "edge_auction_coverage_ratio",
            "Last round's supplied units over estimated demand",
            &[],
        )
        .get();
    assert_eq!(coverage, 1.0, "committed 3 of demand 3, not 4/3");
}
