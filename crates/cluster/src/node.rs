//! One catalog "node": the frozen side of the shards it owns, restored
//! from a snapshot, and the serve call that answers shard requests.
//!
//! A node is the single-machine unit of the cluster: a
//! [`tsj_shard::Frozen`] side restored through the one validating
//! restore (`SnapshotReader::restore`) with only the owned shard
//! sections decoded — the others stay empty. The tree store streams
//! through that restore: every tree is validated and tracked, the
//! node keeps verification inputs (and, in its owned shards' indexes,
//! side-list entries) only for the trees of its owned size classes, and
//! it keeps no tree. It serves `(probe, shard)` requests with
//! [`Frozen::serve_shard`]: the frozen side's own probe step restricted
//! to that shard — its side-listed small trees of the probe's size
//! window first, then its postings — then one `VerifyEngine` pass over
//! the deduplicated candidates. A request naming a class its shard does
//! not own is refused, typed.
//! Because every catalog tree's postings live in exactly one shard (its
//! own size class), per-shard candidate sets are disjoint and the
//! router's union of node responses reproduces the single-node join
//! bit-for-bit: same pairs, same candidate counts, same filter-stage
//! counters.

use crate::error::ClusterError;
use partsj::{PartSjConfig, VerifyData, VerifyEngine};
use tsj_catalog::SnapshotReader;
use tsj_shard::{Frozen, FrozenJoinScratch};
use tsj_ted::{JoinStats, TreeIdx};
use tsj_tree::{BinaryTree, Tree};

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
    /// LC-RS form; its cached general-postorder numbers are the probe
    /// positions.
    binary: BinaryTree,
    data: VerifyData,
}

impl ProbeCtx {
    /// Precomputes the contexts for a whole probe batch through one
    /// shared set of build temporaries (the per-context storage itself
    /// is owned — contexts outlive the scatter). `config` is not read:
    /// verification inputs are the same under every chain, derived
    /// lazily; the parameter stays for existing callers.
    pub fn batch(trees: &[Tree], _config: &PartSjConfig) -> Vec<ProbeCtx> {
        let data = VerifyData::batch(trees);
        let ctx = |(tree, data)| ProbeCtx {
            binary: BinaryTree::from_tree(tree),
            data,
        };
        trees.iter().zip(data).map(ctx).collect()
    }
}

/// Per-thread serve scratch — the same type as [`FrozenJoinScratch`],
/// under the name the cluster's callers know. One per scatter worker;
/// the router keeps its own for the sequential retry phase.
pub type NodeScratch = FrozenJoinScratch;

/// One cluster node: a frozen side whose index holds the shard sections
/// the node owns, and whose side list and verification inputs cover the
/// trees of the size classes those shards own — the only trees a request
/// it accepts can reach (requests select the classes the addressed shard
/// owns, so nothing is double-served).
#[derive(Debug)]
pub struct Node {
    id: usize,
    owned: Vec<u32>,
    frozen: Frozen,
}

impl Node {
    /// Restores node `id` from `reader`, decoding only the shard
    /// sections in `owned`, through the one validating restore: a
    /// corrupted section or a checksum-valid but inconsistent snapshot
    /// surfaces the typed [`tsj_catalog::CatalogError`] and the cluster
    /// marks the node down.
    pub fn restore(
        id: usize,
        reader: &SnapshotReader,
        owned: &[u32],
    ) -> Result<Node, ClusterError> {
        let frozen = reader.restore(owned.iter().copied(), drop)?;
        let owned = owned.to_vec();
        Ok(Node { id, owned, frozen })
    }

    /// This node's id in the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the node holds a replica of `shard`.
    pub fn owns(&self, shard: u32) -> bool {
        self.owned.contains(&shard)
    }

    /// The node's frozen side.
    pub fn frozen(&self) -> &Frozen {
        &self.frozen
    }

    /// Serves one shard request: [`Frozen::serve_shard`] on the
    /// addressed shard with the probe's prepared parts, verified at
    /// `tau` through a fresh filter-chain engine — the frozen side's own
    /// probe step, so the union over shards is bit-identical to the
    /// single-node join. A shard the node does not own, or a class the
    /// shard map gives another shard, is a typed error.
    pub fn serve(
        &self,
        req: &ShardRequest,
        ctx: &ProbeCtx,
        tau: u32,
        config: &PartSjConfig,
        scratch: &mut NodeScratch,
    ) -> Result<ShardResponse, ClusterError> {
        debug_assert!(
            tau <= self.frozen.index().tau(),
            "router checks tau before scattering"
        );
        if !self.owns(req.shard) {
            return Err(ClusterError::ShardNotOwned {
                node: self.id,
                shard: req.shard,
            });
        }
        let index = self.frozen.index();
        let mut classes = req.classes.iter();
        let foreign = classes.find(|&&class| index.shard_of_size(class) != req.shard as usize);
        if let Some(&class) = foreign {
            return Err(ClusterError::ClassNotOwned {
                node: self.id,
                shard: req.shard,
                class,
            });
        }
        let (matches, stats) = self.frozen.serve_shard(
            req.shard as usize,
            (&ctx.binary, ctx.binary.general_post(), &ctx.data),
            config.matching,
            &mut VerifyEngine::new(tau, config),
            scratch,
        );
        Ok(ShardResponse {
            probe: req.probe,
            matches,
            stats,
        })
    }
}
