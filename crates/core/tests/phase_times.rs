//! Phase accounting: a join's candidate-generation and verification
//! clocks together cover its wall time — preparing a probing tree's
//! LC-RS form included — so the `candgen(s)` and `total(s)` columns of
//! `experiments -- fig10` charge PartSJ for all of its work.

use partsj::{partsj_join_detailed, partsj_join_rs, PartSjConfig};
use std::time::Instant;
use tsj_datagen::swissprot_like;
use tsj_ted::JoinStats;

/// `total_time()` of the stats `join` returns, over its wall time.
fn covered(join: impl FnOnce() -> JoinStats) -> f64 {
    let start = Instant::now();
    let stats = join();
    stats.total_time().as_secs_f64() / start.elapsed().as_secs_f64()
}

#[test]
fn phase_clocks_cover_the_whole_join() {
    let trees = swissprot_like(600, 2015);
    let config = PartSjConfig::default();
    let self_join = covered(|| partsj_join_detailed(&trees, 2, &config).0.stats);
    let rs_join = covered(|| partsj_join_rs(&trees, &trees, 2, &config).stats);
    assert!(self_join >= 0.93, "self-join clocks cover {self_join:.3}");
    assert!(rs_join >= 0.93, "R×S clocks cover {rs_join:.3}");
}
