//! Sharded bipartite (R×S) join: the offline-index regime the sharded
//! design fits best.
//!
//! The left collection becomes a [`Frozen`] side — partitioned and
//! bulk-loaded into a [`ShardedIndex`](crate::ShardedIndex), shards
//! ingesting in parallel — and [`Frozen::join`] does the rest: right
//! trees probe the frozen shards concurrently and candidate batches
//! stream to the verifier pool. Results are bit-identical to
//! [`partsj::partsj_join_rs`].

use crate::frozen::Frozen;
use crate::index::ShardConfig;
use partsj::PartSjConfig;
use std::time::Instant;
use tsj_ted::JoinOutcome;
use tsj_tree::Tree;

/// Sharded R×S similarity join: all `(i, j)` with
/// `TED(left[i], right[j]) ≤ tau`, bit-identical to
/// [`partsj::partsj_join_rs`].
pub fn sharded_rs_join(
    left: &[Tree],
    right: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    shard_cfg: &ShardConfig,
) -> JoinOutcome {
    let build_start = Instant::now();
    let frozen = Frozen::build(left, tau, config, shard_cfg);
    let build_time = build_start.elapsed();

    let mut outcome = frozen.join(
        right,
        tau,
        config,
        shard_cfg.resolved_probe_threads(),
        shard_cfg.resolved_verify_threads(),
    );
    // The index build is candidate-generation work, same attribution as
    // the pre-refactor inline implementation.
    outcome.stats.candidate_time += build_time;
    outcome
}
