//! One catalog "node": the shard sections it owns, restored from a
//! snapshot, and the serve loop that answers shard requests.
//!
//! A node is the single-machine unit of the cluster: it decodes only the
//! shard sections assigned to it (plus the shared tree store, which every
//! node needs for verification), and serves `(probe, shard)` requests by
//! running exactly the inline loop of `frozen_rs_join` restricted to that
//! shard — side-listed small trees of the request's size classes first,
//! then the shard's `SubgraphIndex` probed through the shared Algorithm 1
//! node loop, then one `VerifyEngine` pass over the deduplicated
//! candidates. Because every catalog tree's postings live in exactly one
//! shard (its own size class), per-shard candidate sets are disjoint and
//! the router's union of node responses reproduces the single-node join
//! bit-for-bit: same pairs, same candidate counts, same filter-stage
//! counters.

use crate::error::ClusterError;
use partsj::probe::{scan_small_trees, Candidates, ProbeCounters};
use partsj::{
    probe_tree_nodes, resolve_layers, window_of, LayerId, MatchCache, PartSjConfig, SubgraphIndex,
    VerifyData, VerifyEngine,
};
use std::time::Instant;
use tsj_catalog::SnapshotReader;
use tsj_ted::{JoinStats, TreeIdx};
use tsj_tree::{BinaryTree, FxHashMap, Tree};

/// One scatter unit: probe `probe`'s window classes that live on `shard`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRequest {
    /// Index of the probing tree in the router's probe batch.
    pub probe: TreeIdx,
    /// The shard this request must be served from.
    pub shard: u32,
    /// The probe-window size classes `shard` owns, ascending — the unit
    /// of coverage accounting: if this request ultimately fails, exactly
    /// these classes go unserved for `probe`.
    pub classes: Vec<u32>,
}

/// A served request: the catalog trees of this shard within `τ` of the
/// probe, plus the partial stats the router folds into the join total.
#[derive(Debug, Clone)]
pub struct ShardResponse {
    /// Echo of [`ShardRequest::probe`].
    pub probe: TreeIdx,
    /// Verified catalog tree ids (left side of result pairs).
    pub matches: Vec<TreeIdx>,
    /// This request's counters: candidates, TED calls, per-stage kills.
    /// `results` is left zero — the router sets it after the union.
    pub stats: JoinStats,
}

/// The probe-side context a request is served against, computed once per
/// probing tree by the router and shared across its shard requests.
#[derive(Debug)]
pub struct ProbeCtx {
    pub(crate) binary: BinaryTree,
    pub(crate) posts: Vec<u32>,
    pub(crate) size: u32,
    pub(crate) data: VerifyData,
}

impl ProbeCtx {
    /// Precomputes the probe-side inputs for `tree` under `config`.
    pub fn new(tree: &Tree, config: &PartSjConfig) -> ProbeCtx {
        ProbeCtx {
            binary: BinaryTree::from_tree(tree),
            posts: tree.postorder_numbers(),
            size: tree.len() as u32,
            data: VerifyData::for_config(tree, &config.verify),
        }
    }

    /// Precomputes the contexts for a whole probe batch through one
    /// shared set of build temporaries (the per-context storage itself
    /// is owned — contexts outlive the scatter).
    pub fn batch(trees: &[Tree], config: &PartSjConfig) -> Vec<ProbeCtx> {
        let data = VerifyData::batch_for_config(trees, &config.verify);
        let mut walk = Vec::new();
        trees
            .iter()
            .zip(data)
            .map(|(tree, data)| {
                let mut posts = Vec::new();
                tree.postorder_numbers_into(&mut posts, &mut walk);
                ProbeCtx {
                    binary: BinaryTree::from_tree(tree),
                    posts,
                    size: tree.len() as u32,
                    data,
                }
            })
            .collect()
    }
}

/// Per-thread serve scratch: the candidate collection (generation
/// stamps, never re-cleared), the per-node match cache and the probe
/// buffers. One per scatter worker; the router keeps its own for the
/// sequential retry phase.
#[derive(Debug, Default)]
pub struct NodeScratch {
    candidates: Candidates,
    cache: MatchCache,
    layers: Vec<LayerId>,
}

/// One cluster node: the subset of shard sections it owns, the side list
/// of small trees, and the catalog trees' verification inputs.
#[derive(Debug)]
pub struct Node {
    id: usize,
    tau: u32,
    /// shard id → that shard's restored index.
    shards: FxHashMap<u32, SubgraphIndex>,
    /// size class → catalog trees too small to partition. Every node
    /// keeps the full (tiny) side list; requests select the classes the
    /// addressed shard owns, so nothing is double-served.
    smalls: FxHashMap<u32, Vec<TreeIdx>>,
    /// Verification inputs for every catalog tree (candidates can name
    /// any tree of the owned shards' size classes).
    left_data: Vec<VerifyData>,
}

impl Node {
    /// Restores node `id` from `reader`, decoding only the shard
    /// sections in `owned` (each checksum-verified — a corrupted section
    /// surfaces the typed [`tsj_catalog::CatalogError`] and the cluster
    /// marks the node down).
    pub fn restore(
        id: usize,
        reader: &SnapshotReader,
        owned: &[u32],
    ) -> Result<Node, ClusterError> {
        let trees = reader.trees()?;
        let tau = reader.tau();
        let mut shards = FxHashMap::default();
        for &s in owned {
            shards.insert(s, reader.shard(s as usize)?);
        }
        let smalls = partsj::side_list(&trees, tau);
        let left_data = VerifyData::batch(&trees);
        Ok(Node {
            id,
            tau,
            shards,
            smalls,
            left_data,
        })
    }

    /// This node's id in the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the node holds a replica of `shard`.
    pub fn owns(&self, shard: u32) -> bool {
        self.shards.contains_key(&shard)
    }

    /// The shards this node holds, ascending.
    pub fn owned_shards(&self) -> Vec<u32> {
        let mut owned: Vec<u32> = self.shards.keys().copied().collect();
        owned.sort_unstable();
        owned
    }

    /// Installs an additional shard replica (recovery path).
    pub fn add_shard(&mut self, shard: u32, index: SubgraphIndex) {
        self.shards.insert(shard, index);
    }

    /// Serves one shard request: candidates from the request's small
    /// classes and the shard's index (deduplicated per request), verified
    /// at `tau` through a fresh filter-chain engine. Mirrors the inline
    /// path of `tsj_shard::frozen_rs_join` restricted to one shard, so
    /// the union over shards is bit-identical to the single-node join.
    pub fn serve(
        &self,
        req: &ShardRequest,
        ctx: &ProbeCtx,
        tau: u32,
        config: &PartSjConfig,
        scratch: &mut NodeScratch,
    ) -> Result<ShardResponse, ClusterError> {
        debug_assert!(tau <= self.tau, "router checks tau before scattering");
        let index = self
            .shards
            .get(&req.shard)
            .ok_or(ClusterError::ShardNotOwned {
                node: self.id,
                shard: req.shard,
            })?;
        let probe_start = Instant::now();
        let mut stats = JoinStats::default();
        scratch.candidates.begin(self.left_data.len());
        let mut sink = scratch.candidates.sink();
        scan_small_trees(&self.smalls, req.classes.iter().copied(), &mut sink);
        // The shard's index only holds layers for its own size classes,
        // so resolving the full probe window surfaces exactly the owned
        // populated classes — the same layers `ShardedIndex::probe_tree`
        // would visit for this shard.
        let (lo, hi) = window_of(ctx.size, tau);
        resolve_layers(index, lo, hi, &mut scratch.layers);
        let mut counters = ProbeCounters::default();
        probe_tree_nodes(
            index,
            &scratch.layers,
            &ctx.binary,
            &ctx.posts,
            ctx.size,
            config.matching,
            &mut scratch.cache,
            &mut counters,
            &mut sink,
        );
        let found = scratch.candidates.as_slice();
        stats.candidates = found.len() as u64;
        stats.pairs_examined = stats.candidates;
        stats.candidate_time = probe_start.elapsed();

        let verify_start = Instant::now();
        let mut verify = VerifyEngine::new(tau, config);
        let mut matches = Vec::new();
        for &i in found {
            if verify
                .check(&self.left_data[i as usize], &ctx.data)
                .is_some()
            {
                matches.push(i);
            }
        }
        stats.verify_time = verify_start.elapsed();
        verify.fold_into(&mut stats);
        Ok(ShardResponse {
            probe: req.probe,
            matches,
            stats,
        })
    }
}
