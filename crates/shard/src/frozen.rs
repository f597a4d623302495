//! Probing a **frozen** left side: the shared probe + verify half
//! behind [`crate::sharded_rs_join`] and `tsj-catalog`'s
//! `Catalog::{join, query}`.
//!
//! Once a left collection has been partitioned and loaded into a
//! [`ShardedIndex`], the remaining work of an R×S join is independent of
//! *how* the index came to be — built moments ago or deserialized from a
//! snapshot. [`frozen_rs_join`] owns that second half: right trees probe
//! the frozen shards (inline, or pooled — the crate's one executor
//! decides), candidates are verified through one [`VerifyEngine`] filter
//! chain per verifier, and the outcome is a bipartite [`JoinOutcome`].
//! [`FrozenLeft::query_into`] is the same probe step for a single tree,
//! reporting exact distances.
//!
//! The probe threshold `tau` is a **parameter**, not a property of the
//! index: postings are registered once with the freeze-time half-width,
//! and any query threshold `τ_q ≤ τ_freeze` only narrows the probed size
//! window `[|T| − τ_q, |T| + τ_q]`, so the candidate set stays complete
//! (the freeze-time partitioning produces `2τ_f + 1 ≥ 2τ_q + 1`
//! subgraphs — more than `τ_q` edits can touch) and exact verification
//! at `τ_q` makes the result exact. `tsj-catalog` relies on this to
//! serve per-query thresholds from one snapshot.

use crate::index::{ShardConfig, ShardedIndex};
use crate::join::build_subgraph_lists;
use crate::pool::{execute, run_inline, JoinSide};
use partsj::probe::{scan_small_trees, window_of, Candidates, ProbeCounters};
use partsj::subgraph::Subgraph;
use partsj::{
    LayerId, MatchCache, MatchSemantics, PartSjConfig, ProbeScratch, ProbeVerify, VerifyConfig,
    VerifyData, VerifyEngine,
};
use tsj_ted::{JoinOutcome, JoinStats, TreeIdx};
use tsj_tree::{BinaryTree, FxHashMap, Tree};

/// The shared build phase of [`crate::sharded_rs_join`] and
/// `tsj-catalog`'s freeze: δ-partitions `left` (fanned out over the
/// configured probe workers), bulk-loads the subgraphs into a fresh
/// **static** (no-replay) [`ShardedIndex`], and returns it together
/// with the side list of trees too small to partition, grouped by
/// size. Keeping this in one place is what keeps a frozen catalog
/// bit-identical to the direct join — both sides build through it.
pub fn build_frozen_left(
    left: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    shard_cfg: &ShardConfig,
) -> (ShardedIndex, FxHashMap<u32, Vec<TreeIdx>>) {
    let probe_threads = shard_cfg.resolved_probe_threads();
    let binaries: Vec<BinaryTree> = left.iter().map(BinaryTree::from_tree).collect();
    let posts: Vec<Vec<u32>> = left.iter().map(Tree::postorder_numbers).collect();
    let mut lists = build_subgraph_lists(left, &binaries, &posts, tau, config, probe_threads);
    let mut small_by_size: FxHashMap<u32, Vec<TreeIdx>> = FxHashMap::default();
    let mut items: Vec<(TreeIdx, u32, Vec<Subgraph>)> = Vec::new();
    for (i, list) in lists.iter_mut().enumerate() {
        let size = left[i].len() as u32;
        match list.take() {
            Some(subgraphs) => items.push((i as TreeIdx, size, subgraphs)),
            None => small_by_size.entry(size).or_default().push(i as TreeIdx),
        }
    }
    let index = ShardedIndex::build_static(tau, config.window, shard_cfg, items, probe_threads > 1);
    (index, small_by_size)
}

/// A frozen left side, ready to be probed by any number of right
/// collections: the sharded index over the left trees' subgraphs, the
/// side list of left trees too small to partition, and the left trees'
/// precomputed verification inputs.
#[derive(Debug, Clone, Copy)]
pub struct FrozenLeft<'a> {
    /// The (no longer mutated) sharded subgraph index over the left
    /// collection.
    pub index: &'a ShardedIndex,
    /// Left trees below the partitioning threshold `δ`, grouped by size.
    pub small_by_size: &'a FxHashMap<u32, Vec<TreeIdx>>,
    /// Per-left-tree verification inputs, indexed by left tree id.
    pub left_data: &'a [VerifyData],
}

/// Reusable scratch for probing a [`ShardedIndex`]: the candidate
/// collection with its O(left) dedup stamps, the per-shard match caches,
/// the probe-tree preparation buffers and the probe tree's verification
/// inputs. A serving loop holding one of these (plus a [`VerifyEngine`])
/// across repeated joins ([`frozen_rs_join_seq`]) or point queries
/// ([`FrozenLeft::query_into`]; `tsj-catalog` calls the same type
/// `QueryScratch`) allocates nothing proportional to the frozen side or
/// the probe trees in steady state — only the results the caller keeps.
/// One scratch may move freely between frozen sides of different size
/// and shard count.
#[derive(Debug, Default)]
pub struct FrozenJoinScratch {
    pub(crate) candidates: Candidates,
    pub(crate) caches: Vec<MatchCache>,
    pub(crate) shard_scratch: Vec<usize>,
    pub(crate) layer_scratch: Vec<LayerId>,
    pub(crate) probe: ProbeScratch,
    pub(crate) probe_verify: ProbeVerify,
}

impl FrozenJoinScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> FrozenJoinScratch {
        FrozenJoinScratch::default()
    }

    /// Starts the next probe of `index` over container trees
    /// `0..universe`: a fresh candidate generation and one match cache
    /// per shard (component ids are per-shard).
    pub(crate) fn begin(&mut self, universe: usize, index: &ShardedIndex) {
        self.candidates.begin(universe);
        if self.caches.len() != index.shard_count() {
            self.caches = (0..index.shard_count())
                .map(|_| MatchCache::new())
                .collect();
        }
    }
}

impl FrozenLeft<'_> {
    /// Algorithm 1's probe step against the frozen side: the side-listed
    /// small trees of `tree`'s size window at `tau`, then every shard
    /// covering it. Candidates are left in `scratch`; returns how many
    /// came from the side list.
    fn probe(
        &self,
        tree: &Tree,
        tau: u32,
        matching: MatchSemantics,
        scratch: &mut FrozenJoinScratch,
        counters: &mut ProbeCounters,
    ) -> u64 {
        let size = tree.len() as u32;
        let (lo, hi) = window_of(size, tau);
        scratch.begin(self.left_data.len(), self.index);
        let mut sink = scratch.candidates.sink();
        let small = scan_small_trees(self.small_by_size, lo..=hi, &mut sink);
        let (binary, posts) = scratch.probe.prepare(tree);
        self.index.probe_tree(
            binary,
            posts,
            size,
            lo,
            hi,
            matching,
            &mut scratch.caches,
            &mut scratch.shard_scratch,
            &mut scratch.layer_scratch,
            counters,
            &mut sink,
        );
        small
    }

    /// Point query: all left trees within the engine's threshold of
    /// `probe`, written to `out` (cleared first) as ascending
    /// `(tree index, exact distance)` — the engine only short-circuits
    /// on provably tight certificates. The threshold must not exceed the
    /// one the side was frozen for (callers enforce that), and
    /// [`FrozenLeft::left_data`] must carry every stage's inputs.
    /// With a warmed engine and scratch this allocates nothing.
    pub fn query_into(
        &self,
        probe: &Tree,
        matching: MatchSemantics,
        engine: &mut VerifyEngine,
        scratch: &mut FrozenJoinScratch,
        out: &mut Vec<(TreeIdx, u32)>,
    ) {
        out.clear();
        let mut counters = ProbeCounters::default();
        self.probe(probe, engine.tau(), matching, scratch, &mut counters);
        // Full stage inputs, like the left side's — `check_exact` may
        // consult any filter.
        let data_q = scratch.probe_verify.prepare(probe, &VerifyConfig::ALL);
        out.extend(scratch.candidates.as_slice().iter().filter_map(|&i| {
            engine
                .check_exact(&self.left_data[i as usize], data_q)
                .map(|d| (i, d))
        }));
        out.sort_unstable();
    }
}

/// An R×S join as the crate's executor sees it: probe number `pos` is
/// `right[pos]`, probing the frozen side with no admission rule beyond
/// dedup (the index spans exactly the left collection).
struct RightSide<'a> {
    left: &'a FrozenLeft<'a>,
    right: &'a [Tree],
    tau: u32,
    config: &'a PartSjConfig,
}

impl JoinSide for RightSide<'_> {
    fn probes(&self) -> usize {
        self.right.len()
    }

    fn probe(
        &self,
        pos: usize,
        scratch: &mut FrozenJoinScratch,
        counters: &mut ProbeCounters,
    ) -> u64 {
        let matching = self.config.matching;
        self.left
            .probe(&self.right[pos], self.tau, matching, scratch, counters)
    }

    fn verify(
        &self,
        pos: usize,
        candidates: impl Iterator<Item = TreeIdx>,
        engine: &mut VerifyEngine,
        prep: &mut ProbeVerify,
        pairs: &mut Vec<(TreeIdx, TreeIdx)>,
    ) {
        let left_data = self.left.left_data;
        let data = prep.prepare(&self.right[pos], &self.config.verify);
        for i in candidates {
            if engine.check(&left_data[i as usize], data).is_some() {
                pairs.push((i, pos as TreeIdx));
            }
        }
    }
}

/// The inline (single-thread) half of [`frozen_rs_join`], exposed so
/// serving loops can reuse one engine and one [`FrozenJoinScratch`]
/// across repeated batch joins: result pairs are appended to `pairs`
/// (cleared first) and the returned [`JoinStats`] cover only this call
/// (the engine's counters are reset at entry).
///
/// Bit-identical (pairs *and* candidate/stage counters) to
/// [`frozen_rs_join`] over the same inputs.
pub fn frozen_rs_join_seq(
    left: &FrozenLeft<'_>,
    right: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    verify: &mut VerifyEngine,
    scratch: &mut FrozenJoinScratch,
    pairs: &mut Vec<(TreeIdx, TreeIdx)>,
) -> JoinStats {
    verify.set_tau(tau);
    verify.reset_counters();
    pairs.clear();
    let side = RightSide {
        left,
        right,
        tau,
        config,
    };
    let mut stats = run_inline(&side, verify, scratch, pairs).stats;
    // Same normalization as `JoinOutcome::new_bipartite`, so callers
    // holding the raw vector see identical results.
    pairs.sort_unstable();
    pairs.dedup();
    stats.results = pairs.len() as u64;
    stats
}

/// R×S join of `right` against a frozen left side: all `(i, j)` with
/// `TED(left[i], right[j]) ≤ tau`, where `tau` may be any threshold not
/// exceeding the one the left side was frozen for (callers enforce
/// that; see the module docs for why smaller thresholds stay complete).
///
/// When either resolved thread count exceeds one and
/// `right.len() ≥ config.parallel_fallback`, `probe_threads` probers
/// feed `verify_threads` verifiers through the bounded channel;
/// otherwise everything runs inline. Results are bit-identical either
/// way.
pub fn frozen_rs_join(
    left: &FrozenLeft<'_>,
    right: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    probe_threads: usize,
    verify_threads: usize,
) -> JoinOutcome {
    let side = RightSide {
        left,
        right,
        tau,
        config,
    };
    let (pairs, tally) = execute(&side, tau, config, probe_threads, verify_threads);
    JoinOutcome::new_bipartite(pairs, tally.stats)
}
