//! The sharded batch self-join: Algorithm 1 with **parallel candidate
//! generation**.
//!
//! The sequential join interleaves probing and indexing — tree `T_i`
//! probes the index state left by trees processed before it — which pins
//! candidate generation to one core. This module de-interleaves the two:
//!
//! 1. **Build** (parallel): the collection becomes a [`Frozen`] side —
//!    every δ-partitionable tree partitioned, its subgraphs inserted into
//!    the [`crate::ShardedIndex`], shards ingesting concurrently since
//!    each owns disjoint size classes.
//! 2. **Probe**: each tree probes the now-frozen shards covering
//!    `[|T_i| − τ, |T_i|]`. A surfaced container tree `T_j` is admitted
//!    only if its processing **rank** (position in the ascending
//!    `(size, index)` order) precedes `T_i`'s — exactly the set of trees
//!    the sequential join had indexed when `T_i` probed, so the candidate
//!    set per tree is *identical* and every unordered pair is still
//!    considered exactly once.
//! 3. **Verify**: candidates go through one [`partsj::VerifyEngine`]
//!    filter chain per verifier in front of exact TED.
//!
//! Steps 2–3 run on the crate's one executor (`pool`): inline, or with
//! [`ShardConfig::probe_threads`] probers feeding
//! [`ShardConfig::verify_threads`] verifiers over a bounded channel.
//! Result pairs are bit-identical to [`partsj::partsj_join`] for every
//! shard count and thread count (asserted across the property suite).

use crate::frozen::{probe_step, Frozen, FrozenJoinScratch};
use crate::index::ShardConfig;
use crate::pool::{execute, JoinSide};
use partsj::join::PartSjDetail;
use partsj::probe::{classes_within, window_of, ProbeCounters};
use partsj::subgraph::{partition_tree_with, Partition, PartitionScratch};
use partsj::{MatchSemantics, PartSjConfig, ProbeVerify, VerifyEngine};
use std::time::Instant;
use tsj_ted::{JoinOutcome, TreeIdx};
use tsj_tree::{BinaryTree, Tree};

/// The self-join as the executor sees it: probe number `pos` is the tree
/// of processing rank `pos`, probing the prebuilt index under the rank
/// filter.
struct SelfJoin<'a> {
    binaries: &'a [BinaryTree],
    /// The collection as a frozen side, built in processing order.
    side: &'a Frozen,
    order: &'a [TreeIdx],
    rank: &'a [u32],
    tau: u32,
    matching: MatchSemantics,
}

impl JoinSide for SelfJoin<'_> {
    fn probes(&self) -> usize {
        self.order.len()
    }

    fn probe(
        &self,
        pos: usize,
        scratch: &mut FrozenJoinScratch,
        counters: &mut ProbeCounters,
    ) -> u64 {
        let binary = &self.binaries[self.order[pos] as usize];
        let size_i = binary.len() as u32;
        // Nothing larger precedes `T_i` in rank: the window stops at `|T_i|`.
        let (lo, _) = window_of(size_i, self.tau);
        // A container tree is admitted only if it precedes the probing
        // tree in processing rank.
        let my_rank = pos as u32;
        probe_step(
            self.side.index(),
            self.side.small_by_size(),
            self.order.len(),
            (binary, binary.general_post()),
            (lo, size_i),
            classes_within(self.side.small_by_size().keys().copied(), lo, size_i),
            None,
            self.matching,
            |j| self.rank[j as usize] < my_rank,
            &mut scratch.step,
            counters,
        )
    }

    fn verify(
        &self,
        pos: usize,
        candidates: impl Iterator<Item = TreeIdx>,
        engine: &mut VerifyEngine,
        _prep: &mut ProbeVerify,
        pairs: &mut Vec<(TreeIdx, TreeIdx)>,
    ) {
        let (i, data) = (self.order[pos], &self.side.left_data);
        for j in candidates {
            let (a, b) = (&data[i as usize], &data[j as usize]);
            if engine.check(a, b).is_some() {
                pairs.push((j, i));
            }
        }
    }
}

/// Sharded PartSJ self-join with the default shard configuration.
pub fn sharded_join(
    trees: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    shard_cfg: &ShardConfig,
) -> JoinOutcome {
    sharded_join_detailed(trees, tau, config, shard_cfg).0
}

/// Sharded PartSJ self-join, also returning the probe instrumentation
/// (the same [`PartSjDetail`] the sequential join reports).
pub fn sharded_join_detailed(
    trees: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    shard_cfg: &ShardConfig,
) -> (JoinOutcome, PartSjDetail) {
    let mut detail = PartSjDetail::default();
    let build_start = Instant::now();

    let mut order: Vec<TreeIdx> = (0..trees.len() as TreeIdx).collect();
    order.sort_by_key(|&i| (trees[i as usize].len(), i));
    let mut rank: Vec<u32> = vec![0; trees.len()];
    for (r, &i) in order.iter().enumerate() {
        rank[i as usize] = r as u32;
    }

    // Build phase: the collection as a frozen side, walked in processing
    // order so shard-local insertion order (and the small side lists)
    // match the sequential join's.
    let (frozen, binaries) = Frozen::build_in(trees, tau, config, shard_cfg, order.iter().copied());
    let index = frozen.index();
    let handles = (0..index.shard_count()).map(|s| index.shard_index(s).len() as u64);
    detail.subgraphs_built = handles.sum();
    detail.index_registrations = index.live_postings();
    let build_time = build_start.elapsed();

    let side = SelfJoin {
        binaries: &binaries,
        side: &frozen,
        order: &order,
        rank: &rank,
        tau,
        matching: config.matching,
    };
    let probe_threads = shard_cfg.resolved_probe_threads();
    let verify_threads = shard_cfg.resolved_verify_threads();
    let (pairs, mut tally) = execute(&side, tau, config, probe_threads, verify_threads);
    detail.probes = tally.counters.probes;
    detail.match_attempts = tally.counters.match_attempts;
    detail.matches = tally.counters.matches;
    detail.small_tree_candidates = tally.small_candidates;
    // The index build is candidate-generation work.
    tally.stats.candidate_time += build_time;
    (JoinOutcome::new(pairs, tally.stats), detail)
}

/// Applies the δ rule ([`partition_tree_with`]) to every tree — its
/// partition (an exact-size copy out of the worker's scratch), or `None`
/// for side-listed small trees — fanning the per-tree work out over
/// `threads` scoped workers; `binaries` must be index-aligned with
/// `trees`.
pub fn build_subgraph_lists(
    trees: &[Tree],
    binaries: &[BinaryTree],
    tau: u32,
    config: &PartSjConfig,
    threads: usize,
) -> Vec<Option<Partition>> {
    let build_one = |i: usize, scratch: &mut PartitionScratch| {
        let (binary, scheme) = (&binaries[i], config.partitioning);
        let posts = binary.general_post();
        partition_tree_with(binary, posts, tau, scheme, i as TreeIdx, scratch).cloned()
    };
    if threads <= 1 || trees.len() < 2 * threads {
        let scratch = &mut PartitionScratch::new();
        return (0..trees.len()).map(|i| build_one(i, scratch)).collect();
    }
    let mut lists: Vec<Option<Partition>> = vec![None; trees.len()];
    let chunk = trees.len().div_ceil(threads);
    crossbeam::scope(|scope| {
        for (c, slot) in lists.chunks_mut(chunk).enumerate() {
            let base = c * chunk;
            scope.spawn(move |_| {
                let scratch = &mut PartitionScratch::new();
                for (off, out) in slot.iter_mut().enumerate() {
                    *out = build_one(base + off, scratch);
                }
            });
        }
    })
    .expect("partition scope");
    lists
}
