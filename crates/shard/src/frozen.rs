//! The **frozen side**: one owned left collection, indexed once and
//! probed by any number of right trees — and the sharded probe step
//! every join in this crate runs.
//!
//! [`Frozen`] owns the two things an indexed-left join needs: the
//! [`ShardedIndex`] over the left trees — their subgraphs, and in each
//! shard the side list of its classes' trees too small to partition —
//! and the left trees' verification inputs. It comes into existence
//! exactly two ways — [`Frozen::build`] from the trees, or [`Frozen::restore`] from snapshot parts, for all
//! shards or an owned subset, one tree at a time (`tsj-catalog`'s
//! `SnapshotReader::restore` is its one caller) — and the remaining work
//! of an R×S join is independent of which: right trees probe the shards
//! (inline, or pooled — the crate's one executor decides), candidates
//! are verified through one [`VerifyEngine`] filter chain per verifier,
//! and the outcome is a bipartite [`JoinOutcome`].
//! [`crate::sharded_rs_join`] is a frozen side built and joined on the
//! spot, `tsj-catalog`'s `Catalog` is one kept with its trees and labels,
//! and a `tsj-cluster` node is one whose unowned shards are empty,
//! answering [`Frozen::serve_shard`].
//!
//! A side **holds** the trees whose size class maps to a shard it owns —
//! every tree, for a built side or a whole catalog. Every tree's postings
//! or side-list entry live in its size class's shard, so no probe of an
//! owned shard reaches any other tree: the verification inputs cover
//! the held trees alone, densely, behind one `u32` slot per tree id,
//! while tree ids, liveness and the candidate universe stay global.
//!
//! The probe threshold `tau` is a **parameter**, not a property of the
//! index: postings are registered once with the freeze-time half-width,
//! and any query threshold `τ_q ≤ τ_freeze` only narrows the probed size
//! window `[|T| − τ_q, |T| + τ_q]`, so the candidate set stays complete
//! (the freeze-time partitioning produces `2τ_f + 1 ≥ 2τ_q + 1`
//! subgraphs — more than `τ_q` edits can touch) and exact verification
//! at `τ_q` makes the result exact. `tsj-catalog` relies on this to
//! serve per-query thresholds from one snapshot.

use crate::index::{ShardConfig, ShardMap, ShardedIndex};
use crate::pool::{execute, run_inline};
use partsj::probe::{window_of, Candidates, ProbeCounters};
use partsj::subgraph::{partition_tree_with, Partition, PartitionScratch};
use partsj::{
    is_side_listed, LayerId, MatchCache, MatchSemantics, PartSjConfig, ProbeScratch, ProbeVerify,
    SubgraphIndex, VerifyData, VerifyEngine, VerifyPrep, WindowPolicy,
};
use std::mem::size_of;
use std::time::Instant;
use tsj_ted::{JoinOutcome, JoinStats, TreeIdx};
use tsj_tree::{BinaryTree, Tree};

/// The slot of a tree whose verification inputs a side does not hold.
const NOT_HELD: u32 = u32::MAX;

/// A frozen left side, ready to be probed by any number of right
/// collections. See the [module docs](self).
#[derive(Debug)]
pub struct Frozen {
    /// The (no longer mutated) sharded subgraph index over the left
    /// collection; every left tree is tracked in it, and the held ones
    /// below `δ` nodes are side-listed in their shards.
    index: ShardedIndex,
    /// Verification inputs of the held left trees, in id order.
    pub(crate) left_data: Vec<VerifyData>,
    /// Per left tree id: its slot in `left_data`, or [`NOT_HELD`].
    slots: Vec<u32>,
}

/// The heap bytes a [`Frozen`] side holds, by part
/// ([`Frozen::heap_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrozenBytes {
    /// The sharded index: postings, subgraph pool, liveness and sizes.
    pub index: usize,
    /// The shards' side lists of held small trees.
    pub side_list: usize,
    /// The held trees' verification inputs and the per-tree slot table.
    pub verify: usize,
}

impl FrozenBytes {
    /// The three parts, named as the `part` label of a gauge.
    pub fn parts(&self) -> [(&'static str, usize); 3] {
        [
            ("index", self.index),
            ("side_list", self.side_list),
            ("verify", self.verify),
        ]
    }

    /// All three parts.
    pub fn total(&self) -> usize {
        self.index + self.side_list + self.verify
    }
}

/// A frozen side being restored: the shard parts and every tree's size
/// in place, the tree store arriving one tree at a time
/// ([`Frozen::restore`]).
#[derive(Debug)]
pub struct FrozenRestore {
    tau: u32,
    window: WindowPolicy,
    map: ShardMap,
    /// One entry per shard: its restored index, side list filled in,
    /// `None` if not owned.
    shards: Vec<Option<SubgraphIndex>>,
    /// Every tree's size, in id order.
    sizes: Vec<u32>,
    /// The held trees' verification inputs and slots, as [`Frozen`]
    /// keeps them.
    data: Vec<VerifyData>,
    slots: Vec<u32>,
    /// Trees pushed so far: the id of the next one.
    next: usize,
    prep: VerifyPrep,
}

impl FrozenRestore {
    /// Takes the next tree of the store, in id order, and prepares its
    /// verification inputs if this side holds it; the tree itself is not
    /// kept. A tree beyond the store, or of another size than the one
    /// [`Frozen::restore`] was given for its id, is an error.
    pub fn push(&mut self, tree: &Tree) -> Result<(), String> {
        let (id, nodes) = (self.next, tree.len());
        let size = self.sizes.get(id).copied();
        if size != Some(nodes as u32) {
            return Err(format!(
                "tree {id} has {nodes} nodes, the store said {size:?}"
            ));
        }
        if self.slots[id] != NOT_HELD {
            self.data.push(VerifyData::build(tree, &mut self.prep));
        }
        self.next += 1;
        Ok(())
    }

    /// The restored side, once every tree is pushed. Every check of
    /// [`ShardedIndex::from_frozen_parts`] applies to the shards and the
    /// sizes — among them that every posting names a tree of its shard's
    /// size class, so a probe of an owned shard only ever surfaces held
    /// trees.
    pub fn finish(self) -> Result<Frozen, String> {
        let (pushed, count) = (self.next, self.sizes.len());
        if pushed != count {
            return Err(format!("{pushed} of {count} trees restored"));
        }
        let (tau, window) = (self.tau, self.window);
        let empty = || SubgraphIndex::new(tau, window);
        let shards = self.shards.into_iter().map(|s| s.unwrap_or_else(empty));
        let tracked = (0..).zip(self.sizes);
        let index =
            ShardedIndex::from_frozen_parts(tau, window, self.map, shards.collect(), tracked);
        Ok(Frozen {
            index: index?,
            left_data: self.data,
            slots: self.slots,
        })
    }
}

/// Reusable scratch for probing a [`ShardedIndex`]: the candidate
/// collection with its O(left) dedup stamps, the per-shard match caches,
/// the probe-tree preparation buffers and the probe tree's verification
/// inputs. A serving loop holding one of these (plus a [`VerifyEngine`])
/// across repeated joins ([`Frozen::join_seq`]), point queries
/// ([`Frozen::query_into`]) or shard requests ([`Frozen::serve_shard`];
/// `tsj-catalog` and `tsj-cluster` call the same type `QueryScratch` and
/// `NodeScratch`) allocates nothing proportional to the frozen side or
/// the probe trees in steady state — only the results the caller keeps.
/// One scratch may move freely between frozen sides of different size
/// and shard count.
#[derive(Debug, Default)]
pub struct FrozenJoinScratch {
    pub(crate) step: StepScratch,
    pub(crate) probe: ProbeScratch,
    pub(crate) probe_verify: ProbeVerify,
}

impl FrozenJoinScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> FrozenJoinScratch {
        FrozenJoinScratch::default()
    }
}

/// The part of the scratch [`probe_step`] itself writes — apart from the
/// probe-tree buffers, so a tree prepared in those can be probed.
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    candidates: Candidates,
    caches: Vec<MatchCache>,
    shard_scratch: Vec<usize>,
    layer_scratch: Vec<LayerId>,
}

impl StepScratch {
    /// The last probe's candidates, in discovery order.
    pub(crate) fn found(&self) -> &[TreeIdx] {
        self.candidates.as_slice()
    }
}

/// Algorithm 1's probe step against a sharded index, sequenced once for
/// every join of the crate: a fresh dedup generation over container
/// trees `0..universe` (one match cache per shard — component ids are
/// per-shard), then the side-listed trees and the postings of the size
/// window `[lo, hi]` from every shard covering it, or, for `Some(shard)`,
/// from `shard` alone (dead container trees never surface; liveness is
/// the index's own). Candidates are left in `scratch`.
pub(crate) fn probe_step(
    index: &ShardedIndex,
    universe: usize,
    (binary, posts): (&BinaryTree, &[u32]),
    window: (u32, u32),
    shard: Option<usize>,
    matching: MatchSemantics,
    scratch: &mut StepScratch,
) {
    scratch.candidates.begin(universe);
    scratch
        .caches
        .resize_with(index.shard_count(), MatchCache::new);
    let tree = (binary, posts, binary.len() as u32);
    let runs = (&mut scratch.shard_scratch, &mut scratch.layer_scratch);
    let (caches, work) = (&mut scratch.caches, &mut ProbeCounters::default());
    let sink = &mut scratch.candidates.sink();
    index.probe_window(shard, tree, window, matching, caches, runs, work, sink);
}

/// Applies the δ rule ([`partition_tree_with`]) to every tree — its
/// partition (an exact-size copy out of the worker's scratch), or `None`
/// for side-listed small trees — fanning the per-tree work out over
/// `threads` scoped workers, each preparing its trees' LC-RS forms
/// through one reused [`ProbeScratch`].
pub fn build_subgraph_lists(
    trees: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    threads: usize,
) -> Vec<Option<Partition>> {
    let scheme = config.partitioning;
    let build_one = |i: usize, (probe, partition): &mut (ProbeScratch, PartitionScratch)| {
        let (binary, posts) = probe.prepare(&trees[i]);
        partition_tree_with(binary, posts, tau, scheme, i as TreeIdx, partition).cloned()
    };
    if threads <= 1 || trees.len() < 2 * threads {
        let scratch = &mut Default::default();
        return (0..trees.len()).map(|i| build_one(i, scratch)).collect();
    }
    let mut lists: Vec<Option<Partition>> = vec![None; trees.len()];
    let chunk = trees.len().div_ceil(threads);
    crossbeam::scope(|scope| {
        for (c, slot) in lists.chunks_mut(chunk).enumerate() {
            let base = c * chunk;
            scope.spawn(move |_| {
                let scratch = &mut Default::default();
                for (off, out) in slot.iter_mut().enumerate() {
                    *out = build_one(base + off, scratch);
                }
            });
        }
    })
    .expect("partition scope");
    lists
}

impl Frozen {
    /// Builds the frozen side of `left` for threshold `tau` — the crate's
    /// one static build: the δ rule over every tree (fanned out over the
    /// configured probe workers), then every tree, in input order,
    /// bulk-loaded into a fresh [`ShardedIndex`] by that rule's outcome —
    /// its subgraphs or a side-list entry — tracked and held; and the
    /// verification inputs, as [`Frozen::restore`] prepares them. Both
    /// [`crate::sharded_rs_join`] and `tsj-catalog`'s freeze build through
    /// here, which is what keeps a frozen catalog bit-identical to the
    /// direct join.
    pub fn build(
        left: &[Tree],
        tau: u32,
        config: &PartSjConfig,
        shard_cfg: &ShardConfig,
    ) -> Frozen {
        let threads = shard_cfg.resolved_probe_threads();
        let lists = build_subgraph_lists(left, tau, config, threads);
        let sized = |((i, tree), list): ((TreeIdx, &Tree), _)| (i, tree.len() as u32, list);
        let items = (0..).zip(left).zip(lists).map(sized).collect();
        let parallel = threads > 1;
        Frozen {
            index: ShardedIndex::build_static(tau, config.window, shard_cfg, items, parallel),
            left_data: VerifyData::batch(left),
            slots: (0..left.len() as u32).collect(),
        }
    }

    /// Starts reassembling a frozen side from snapshot parts: the
    /// header's `(tau, window)`, the shard map, one entry per shard of
    /// the snapshot — its restored [`SubgraphIndex`], or `None` for a
    /// shard the caller does not own (it stays empty) — and every tree's
    /// size, in id order. Every tree is tracked; those whose size class
    /// maps to an owned shard are held: side-listed in that shard's index
    /// here if below `δ`, and given verification inputs as the tree store
    /// follows one tree at a time ([`FrozenRestore::push`]).
    /// [`FrozenRestore::finish`] ends the one validating restore. The map
    /// must route into the given shards.
    pub fn restore(
        tau: u32,
        window: WindowPolicy,
        map: ShardMap,
        mut shards: Vec<Option<SubgraphIndex>>,
        sizes: Vec<u32>,
    ) -> Result<FrozenRestore, String> {
        if shards.is_empty() {
            return Err("a sharded index needs at least one shard".into());
        }
        map.validate(shards.len())?;
        let n = shards.len();
        let mut slots = Vec::with_capacity(sizes.len());
        let mut count = 0;
        for (id, &size) in (0..).zip(&sizes) {
            let Some(index) = &mut shards[map.shard_of(size, n)] else {
                slots.push(NOT_HELD);
                continue;
            };
            slots.push(count);
            count += 1;
            if is_side_listed(size as usize, tau) {
                index.list_small(size, id);
            }
        }
        Ok(FrozenRestore {
            tau,
            window,
            map,
            shards,
            sizes,
            data: Vec::with_capacity(count as usize),
            slots,
            next: 0,
            prep: VerifyPrep::new(),
        })
    }

    /// The sharded index over the left collection (read-only).
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Whether this side holds left tree `tree`'s verification inputs:
    /// its size class maps to an owned shard.
    pub fn holds(&self, tree: TreeIdx) -> bool {
        self.slots
            .get(tree as usize)
            .is_some_and(|&slot| slot != NOT_HELD)
    }

    /// The verification inputs of held left tree `tree`.
    #[inline]
    pub(crate) fn data(&self, tree: TreeIdx) -> &VerifyData {
        &self.left_data[self.slots[tree as usize] as usize]
    }

    /// The heap bytes this side holds, by part.
    pub fn heap_bytes(&self) -> FrozenBytes {
        let data = self.left_data.iter().map(VerifyData::heap_bytes);
        let shards = (0..self.index.shard_count()).map(|s| self.index.shard_index(s));
        let side_list = shards.map(|index| index.side_list().heap_bytes()).sum();
        FrozenBytes {
            index: self.index.heap_bytes() - side_list,
            side_list,
            verify: self.left_data.capacity() * size_of::<VerifyData>()
                + data.sum::<usize>()
                + self.slots.capacity() * size_of::<u32>(),
        }
    }

    /// The probe step for a raw `tree` at `tau`: its size window, every
    /// shard covering it.
    pub(crate) fn probe(
        &self,
        tree: &Tree,
        tau: u32,
        matching: MatchSemantics,
        scratch: &mut FrozenJoinScratch,
    ) {
        probe_step(
            &self.index,
            self.slots.len(),
            scratch.probe.prepare(tree),
            window_of(tree.len() as u32, tau),
            None,
            matching,
            &mut scratch.step,
        );
    }

    /// R×S join of `right` against the frozen side: all `(i, j)` with
    /// `TED(left[i], right[j]) ≤ tau`, where `tau` may be any threshold
    /// not exceeding the one the side was frozen for (callers enforce
    /// that; see the [module docs](self) for why smaller thresholds stay
    /// complete).
    ///
    /// When either thread count exceeds one and
    /// `right.len() ≥ config.parallel_fallback`, `probe_threads` probers
    /// feed `verify_threads` verifiers through the bounded channel;
    /// otherwise everything runs inline. Results are bit-identical either
    /// way.
    pub fn join(
        &self,
        right: &[Tree],
        tau: u32,
        config: &PartSjConfig,
        probe_threads: usize,
        verify_threads: usize,
    ) -> JoinOutcome {
        let (pairs, stats) = execute(self, right, tau, config, probe_threads, verify_threads);
        JoinOutcome::new_bipartite(pairs, stats)
    }

    /// The inline (single-thread) half of [`Frozen::join`], exposed so
    /// serving loops can reuse one engine and one [`FrozenJoinScratch`]
    /// across repeated batch joins: result pairs are appended to `pairs`
    /// (cleared first) and the returned [`JoinStats`] cover only this
    /// call (the engine's counters are reset at entry).
    ///
    /// Bit-identical (pairs *and* candidate/stage counters) to
    /// [`Frozen::join`] over the same inputs.
    pub fn join_seq(
        &self,
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
        let mut stats = run_inline(self, right, tau, config, verify, scratch, pairs);
        // Same normalization as `JoinOutcome::new_bipartite`, so callers
        // holding the raw vector see identical results.
        pairs.sort_unstable();
        pairs.dedup();
        stats.results = pairs.len() as u64;
        stats
    }

    /// Point query: all left trees within the engine's threshold of
    /// `probe`, written to `out` (cleared first) as ascending
    /// `(tree index, exact distance)` — the engine only short-circuits
    /// on provably tight certificates. The threshold must not exceed the
    /// one the side was frozen for (callers enforce that). With a warmed
    /// engine and scratch this allocates nothing.
    pub fn query_into(
        &self,
        probe: &Tree,
        matching: MatchSemantics,
        engine: &mut VerifyEngine,
        scratch: &mut FrozenJoinScratch,
        out: &mut Vec<(TreeIdx, u32)>,
    ) {
        out.clear();
        self.probe(probe, engine.tau(), matching, scratch);
        let data_q = scratch.probe_verify.prepare(probe);
        let found = scratch.step.found().iter();
        out.extend(found.filter_map(|&i| engine.check_exact(self.data(i), data_q).map(|d| (i, d))));
        out.sort_unstable();
    }

    /// One shard's share of a probe — what a cluster node answers a
    /// `(probe, shard)` request with: `shard`'s side-listed trees and
    /// postings of the probe's size window, verified through `engine` at
    /// its threshold. `shard` must be one this side owns. The probe arrives
    /// prepared: its LC-RS form, postorder numbers and verification
    /// inputs. Returns the verified left tree ids in discovery order and
    /// this call's stats (`results` is left to the caller). Every left
    /// tree's postings live in exactly one shard, so the union over the
    /// shards of a probe's window is bit-identical — pairs, candidate
    /// counts, stage counters — to that probe's row of
    /// [`Frozen::join_seq`].
    pub fn serve_shard(
        &self,
        shard: usize,
        (binary, posts, data): (&BinaryTree, &[u32], &VerifyData),
        matching: MatchSemantics,
        engine: &mut VerifyEngine,
        scratch: &mut FrozenJoinScratch,
    ) -> (Vec<TreeIdx>, JoinStats) {
        engine.reset_counters();
        let mut stats = JoinStats::default();
        let probe_start = Instant::now();
        probe_step(
            &self.index,
            self.slots.len(),
            (binary, posts),
            window_of(binary.len() as u32, engine.tau()),
            Some(shard),
            matching,
            &mut scratch.step,
        );
        let found = scratch.step.found();
        stats.candidates = found.len() as u64;
        stats.pairs_examined = stats.candidates;
        stats.candidate_time = probe_start.elapsed();

        let verify_start = Instant::now();
        let verified = |&i: &TreeIdx| engine.check(self.data(i), data).is_some();
        let matches = found.iter().copied().filter(verified).collect();
        stats.verify_time = verify_start.elapsed();
        engine.fold_into(&mut stats);
        (matches, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partsj::Materialized;
    use tsj_tree::{parse_bracket, LabelInterner};

    /// A join derives the lazy verification inputs of the left trees its
    /// candidate pairs carry past `shape-accept`, and of no others.
    #[test]
    fn a_join_materialises_only_what_its_pairs_reach() {
        let mut labels = LabelInterner::new();
        let mut trees = |specs: &[&str]| -> Vec<Tree> {
            let parsed = specs.iter().map(|s| parse_bracket(s, &mut labels));
            parsed.collect::<Result<_, _>>().unwrap()
        };
        // τ = 2 side-lists every tree below five nodes: each left tree
        // here is a candidate of each probe.
        let config = PartSjConfig::default();
        let mut joined = |left: &[&str], right: &[&str]| {
            let frozen = Frozen::build(&trees(left), 2, &config, &ShardConfig::with_shards(2));
            let outcome = frozen.join(&trees(right), 2, &config, 1, 1);
            assert_eq!(outcome.stats.candidates, (left.len() * right.len()) as u64);
            let held = frozen.left_data.iter().map(VerifyData::materialized);
            (outcome, held.collect::<Vec<_>>())
        };

        // Renames of one shape: every pair resolves at `shape-accept`.
        let (outcome, held) = joined(&["{a{b}{c}}", "{a{b}{z}}"], &["{a{b}{c}}", "{a{q}{c}}"]);
        assert_eq!(outcome.stats.early_accepts, 4);
        assert_eq!(held, [Materialized::default(); 2]);

        // One probe against its twin (`shape-accept`), a same-shape tree
        // sharing no label (rejected by `label-hist`) and a reshaped one
        // with its labels (through `traversal-sed` to the mapping bound).
        let left = ["{a{b}{c}}", "{x{y}{z}}", "{a{b{c}}}"];
        let (outcome, held) = joined(&left, &["{a{b}{c}}"]);
        assert_eq!(outcome.pairs, [(0, 0), (2, 0)]);
        assert_eq!(outcome.stats.early_accepts, 2);
        assert_eq!(outcome.stats.ted_calls, 0);
        let held_is = |histogram, mirror| Materialized { histogram, mirror };
        let want = [
            held_is(false, false),
            held_is(true, false),
            held_is(true, true),
        ];
        assert_eq!(held, want);
    }
}
