//! The committed `BENCH_scale.json` digests, regenerated in-process: the
//! n = 1000 and n = 10000 cells' outcomes (`scale_instance` drawn from
//! `derive_rng(n, "bench-scale")`, three rounds, α pinned at 2) must
//! hash to the committed `outcome_digest` values bit for bit. Every
//! optimization of the MSOA round loop is held to these.

use edge_auction::msoa::{run_msoa, MsoaConfig};
use edge_bench::scale::SCALE_ROUNDS;
use edge_bench::scenario::scale_instance;
use edge_common::rng::{derive_rng, fnv1a64};

fn digest(n: usize) -> String {
    let mut rng = derive_rng(n as u64, "bench-scale");
    let instance = scale_instance(n, SCALE_ROUNDS, &mut rng);
    let outcome =
        run_msoa(&instance, &MsoaConfig::pinned(2.0)).expect("scale instances are feasible");
    let serialized = serde_json::to_string(&outcome).expect("outcomes are plain data");
    format!("{:016x}", fnv1a64(serialized.as_bytes()))
}

#[test]
fn committed_scale_digests_reproduce() {
    assert_eq!(digest(1_000), "bf088683df2138c2");
    assert_eq!(digest(10_000), "822f665c5d4b46fe");
}
