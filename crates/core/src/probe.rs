//! Algorithm 1's probe step and δ rule, written once.
//!
//! An indexed side is a [`SubgraphIndex`]: the subgraphs of the trees
//! δ-partitioned into it, and its [`SideList`] of the trees too small to
//! be (Lemma 2 offers no filter for them, so each is a candidate of
//! every probe whose size window holds its size). A `Prober` carries
//! one tree at a time through both decisions: `Prober::prepare` builds
//! its LC-RS form; `Prober::probe` starts a fresh dedup generation
//! ([`Candidates`]), admits the side list's trees of the window
//! ([`SideList::scan`]) and walks the tree's nodes against the window's
//! populated size layers ([`resolve_layers`], [`probe_tree_nodes`]: twig
//! and position keys once per node in [`for_each_probe_node`], match
//! verdicts memoized per node across layers in [`ProbeNode::probe`]);
//! `Prober::publish` cuts the tree into δ subgraphs for the index or
//! side-lists it there. The self-join ([`crate::join`]), R×S
//! ([`crate::rs_join`]) and top-k ([`crate::topk`]) loops run on these
//! two types and differ only in which trees probe and where the
//! candidates go.
//!
//! One crate up, `tsj-shard` runs the same steps against each shard's
//! private [`SubgraphIndex`] — for each shard of a window its side list
//! first, then one node walk for all of them, each node probing every
//! shard's layers; its one extra admission rule, liveness, is a
//! [`CandidateSink`] adapter around the [`StampSink`] that
//! [`Candidates::sink`] hands out.

use crate::config::{MatchSemantics, PartitionScheme, WindowPolicy};
use crate::index::{LayerId, MatchCache, SubgraphIndex, TwigKeys};
use crate::subgraph::{partition_tree_with, PartitionScratch};
use std::mem::size_of;
use tsj_ted::TreeIdx;
use tsj_tree::{BinaryTree, FxHashMap, NodeId, Tree};

/// Reusable probe-tree preparation: one LC-RS view (the tree's label and
/// parent columns plus its subtree sizes and general postorder numbers,
/// two passes over the columns), rebuilt in place per probing tree. All
/// buffers are grow-only, so a serving or join loop that prepares a
/// stream of probes through one scratch allocates nothing once the
/// buffers fit the largest tree seen.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    binary: Option<BinaryTree>,
}

impl ProbeScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> ProbeScratch {
        ProbeScratch::default()
    }

    /// Prepares `tree` for probing, returning its LC-RS form and its
    /// 1-based general-postorder numbers (the two hoisted inputs of
    /// [`probe_tree_nodes`]). Results are valid until the next call.
    pub fn prepare(&mut self, tree: &Tree) -> (&BinaryTree, &[u32]) {
        match &mut self.binary {
            Some(binary) => binary.rebuild_from(tree),
            None => self.binary = Some(BinaryTree::from_tree(tree)),
        }
        self.prepared()
    }

    /// What the last [`ProbeScratch::prepare`] returned.
    fn prepared(&self) -> (&BinaryTree, &[u32]) {
        let binary = self.binary.as_ref().expect("a tree is prepared");
        (binary, binary.general_post())
    }
}

/// Consumer-side bookkeeping for one probing tree.
///
/// `admit` is the cheap pre-match gate (stamp/alive checks) applied to
/// every surfaced handle *before* the component walk; `accept` records
/// a successful subgraph match (stamp the pair, push the candidate).
pub trait CandidateSink {
    /// Whether `tree` is still an interesting container for the current
    /// probe — `false` skips the match attempt entirely (already a
    /// candidate, or removed from a dynamic index).
    fn admit(&mut self, tree: TreeIdx) -> bool;

    /// Called once per newly matched container tree (a subgraph of `tree`
    /// embeds at the current probe node).
    fn accept(&mut self, tree: TreeIdx);
}

/// Probe-side work counters, accumulated across calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounters {
    /// Index probes issued (node × populated size-layer combinations).
    pub probes: u64,
    /// Subgraph match attempts (admitted handles surfaced by the index).
    pub match_attempts: u64,
    /// Match attempts that succeeded.
    pub matches: u64,
}

/// The container-size window a probe of `size` nodes must visit at
/// threshold `tau`: `[max(size − τ, 1), size + τ]`. Every consumer —
/// batch joins, point queries, the frozen catalog and the cluster
/// router — derives its probed size classes from this one definition,
/// so candidate generation cannot drift between entry points. Both ends
/// saturate: a `tau` near `u32::MAX` asks for every size there is (walk
/// such a window with [`classes_within`], not by stepping through it).
#[inline]
pub fn window_of(size: u32, tau: u32) -> (u32, u32) {
    (size.saturating_sub(tau).max(1), size.saturating_add(tau))
}

/// The size classes of `[lo, hi]` worth visiting, ascending: every class
/// of the window — or, when the window is wider than `populated` is long
/// (a saturated one spans 2³² classes), only those of `populated` that
/// fall in it, each found by one scan for the smallest not yet visited.
pub fn classes_within<K>(populated: K, lo: u32, hi: u32) -> impl Iterator<Item = u32>
where
    K: ExactSizeIterator<Item = u32> + Clone,
{
    let stepping = (hi.saturating_sub(lo) as usize) < populated.len();
    let mut next = Some(lo);
    std::iter::from_fn(move || {
        let from = next.filter(|&n| n <= hi)?;
        let class = if stepping {
            from
        } else {
            populated.clone().filter(|&n| from <= n && n <= hi).min()?
        };
        next = class.checked_add(1);
        Some(class)
    })
}

/// Resolves the populated size layers of `[lo, hi]` into `out` (cleared
/// first). Resolve once per probing tree; every node then walks the same
/// slice instead of re-querying the size map.
#[inline]
pub fn resolve_layers(index: &SubgraphIndex, lo: u32, hi: u32, out: &mut Vec<LayerId>) {
    out.clear();
    let classes = classes_within(index.size_classes(), lo, hi);
    out.extend(classes.filter_map(|n| index.layer_id(n)));
}

/// One node of a probing tree as every layer of its window sees it: its
/// twig keys and its position key, computed once per node by
/// [`for_each_probe_node`].
#[derive(Debug, Clone, Copy)]
pub struct ProbeNode<'t> {
    binary: &'t BinaryTree,
    node: NodeId,
    position: u32,
    keys: TwigKeys,
}

impl ProbeNode<'_> {
    /// Probes the node against `layers` of `index`: forgets the previous
    /// node's verdicts in `cache` (one cache per index — component ids
    /// are the index's own), then offers `sink` the container tree of
    /// every surfaced handle and matches the subgraphs it admits.
    #[inline]
    pub fn probe<S: CandidateSink>(
        &self,
        index: &SubgraphIndex,
        layers: &[LayerId],
        matching: MatchSemantics,
        cache: &mut MatchCache,
        counters: &mut ProbeCounters,
        sink: &mut S,
    ) {
        cache.begin_node();
        counters.probes += layers.len() as u64;
        for &layer in layers {
            index
                .layer(layer)
                .probe(self.position, &self.keys, |handle| {
                    let tree = index.tree_of(handle);
                    if !sink.admit(tree) {
                        return;
                    }
                    counters.match_attempts += 1;
                    if index.matches_at(handle, self.binary, self.node, matching, cache) {
                        counters.matches += 1;
                        sink.accept(tree);
                    }
                });
        }
    }
}

/// Walks the nodes of `binary` once — Algorithm 1's inner loop — and
/// hands each to `visit` with its twig keys and its position key under
/// `window`. Whatever the window spans, one index or several, every
/// layer of it is probed from this one walk ([`ProbeNode::probe`]).
///
/// `posts` maps node ids to 1-based *general-tree* postorder numbers
/// ([`BinaryTree::general_post`]) and `probe_size` is the probing
/// tree's node count (both feed [`WindowPolicy::probe_position`]).
#[inline]
pub fn for_each_probe_node(
    binary: &BinaryTree,
    posts: &[u32],
    probe_size: u32,
    window: WindowPolicy,
    mut visit: impl FnMut(&ProbeNode<'_>),
) {
    for node in binary.node_ids() {
        let left = binary.slot_label(binary.left_slot(node));
        let right = binary.slot_label(binary.right_slot(node));
        visit(&ProbeNode {
            binary,
            node,
            position: window.probe_position(posts[node.index()], probe_size),
            keys: TwigKeys::new(binary.label(node), left, right),
        });
    }
}

/// Probes every node of `binary` against the resolved `layer_window` of
/// `index` — one full iteration of Algorithm 1's inner loop over one
/// index ([`for_each_probe_node`], [`ProbeNode::probe`]).
///
/// `posts` maps node ids to 1-based *general-tree* postorder numbers
/// ([`BinaryTree::general_post`]) and `probe_size` is the probing
/// tree's node count (both feed [`SubgraphIndex::probe_position`]).
/// `cache` memoizes per-node match verdicts; it is reset per node here,
/// so a caller-owned cache can be reused across trees.
#[allow(clippy::too_many_arguments)] // one hot loop, all parts hoisted by callers
pub fn probe_tree_nodes<S: CandidateSink>(
    index: &SubgraphIndex,
    layer_window: &[LayerId],
    binary: &BinaryTree,
    posts: &[u32],
    probe_size: u32,
    matching: MatchSemantics,
    cache: &mut MatchCache,
    counters: &mut ProbeCounters,
    sink: &mut S,
) {
    if layer_window.is_empty() {
        return;
    }
    for_each_probe_node(binary, posts, probe_size, index.window(), |node| {
        node.probe(index, layer_window, matching, cache, counters, sink)
    });
}

/// The ubiquitous sink: a stamp array deduplicates container trees per
/// probing tree (stamp value = probe marker) and accepted candidates are
/// pushed to a list. [`Candidates::sink`] hands one out per probe, and
/// [`SideList::scan`] and [`probe_tree_nodes`] feed the same one, so a
/// tree reached both ways is a candidate once. The one extra admission
/// rule, a sharded index's liveness check, wraps it in its own
/// [`CandidateSink`].
#[derive(Debug)]
pub struct StampSink<'a> {
    /// `stamp[j] == marker` ⇔ tree `j` is already a candidate of the
    /// current probe.
    pub stamp: &'a mut [TreeIdx],
    /// Marker of the current probing tree (any value unique to it).
    pub marker: TreeIdx,
    /// Accepted candidates, in discovery order.
    pub candidates: &'a mut Vec<TreeIdx>,
}

impl CandidateSink for StampSink<'_> {
    #[inline]
    fn admit(&mut self, tree: TreeIdx) -> bool {
        self.stamp[tree as usize] != self.marker
    }

    #[inline]
    fn accept(&mut self, tree: TreeIdx) {
        self.stamp[tree as usize] = self.marker;
        self.candidates.push(tree);
    }
}

/// The candidate collection of one prober, reused across its probes: a
/// generation-stamped dedup array over the container trees plus the
/// current probe's candidate list. Dedup is by an incrementing marker,
/// so the O(universe) array is never re-cleared between probes — a
/// serving or join loop holding one of these allocates nothing per probe
/// once the buffers have grown to their working size.
#[derive(Debug, Default)]
pub struct Candidates {
    /// `stamp[j] == marker` ⇔ tree `j` is a candidate of the current
    /// probe; `TreeIdx::MAX` is never a marker.
    stamp: Vec<TreeIdx>,
    next_marker: TreeIdx,
    marker: TreeIdx,
    list: Vec<TreeIdx>,
}

impl Candidates {
    /// An empty collection; buffers are grown on first use.
    pub fn new() -> Candidates {
        Candidates::default()
    }

    /// Starts the next probe over container trees `0..universe`: empties
    /// the candidate list and moves to a fresh marker generation. The
    /// stamp array only ever *grows* (a streaming universe gains a tree
    /// per insert; a scratch may move between indexes of different size)
    /// — markers are never reused, so stamps left by earlier probes stay
    /// harmless — and is refilled only when the markers run out.
    pub fn begin(&mut self, universe: usize) {
        if self.next_marker == TreeIdx::MAX {
            self.stamp.fill(TreeIdx::MAX);
            self.next_marker = 0;
        }
        if self.stamp.len() < universe {
            self.stamp.resize(universe, TreeIdx::MAX);
        }
        self.marker = self.next_marker;
        self.next_marker += 1;
        self.list.clear();
    }

    /// The current probe's deduplicating sink (wrap it in an adapter for
    /// extra admission rules).
    pub fn sink(&mut self) -> StampSink<'_> {
        StampSink {
            stamp: &mut self.stamp,
            marker: self.marker,
            candidates: &mut self.list,
        }
    }

    /// The current probe's candidates, in discovery order.
    pub fn as_slice(&self) -> &[TreeIdx] {
        &self.list
    }
}

/// The trees of an index too small to δ-partition, by size class
/// ([`SubgraphIndex::side_list`]). They carry no postings, so the probe
/// step hands every one in a probe's size window straight to its sink.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SideList(FxHashMap<u32, Vec<TreeIdx>>);

impl SideList {
    /// Side-lists `tree` of `size` nodes.
    pub(crate) fn push(&mut self, size: u32, tree: TreeIdx) {
        self.0.entry(size).or_default().push(tree);
    }

    /// Drops `tree` of `size` nodes (a no-op for a tree not listed).
    pub(crate) fn remove(&mut self, size: u32, tree: TreeIdx) {
        if let Some(class) = self.0.get_mut(&size) {
            class.retain(|&t| t != tree);
        }
    }

    /// The listed trees of `size` nodes, in the order they were pushed.
    pub fn class(&self, size: u32) -> &[TreeIdx] {
        self.0.get(&size).map_or(&[], Vec::as_slice)
    }

    /// Heap bytes held: the class table and every class's id list.
    pub fn heap_bytes(&self) -> usize {
        let lists = self
            .0
            .values()
            .map(|trees| trees.capacity() * size_of::<TreeIdx>());
        tsj_tree::table_bytes::<u32, Vec<TreeIdx>>(self.0.capacity()) + lists.sum::<usize>()
    }

    /// Every listed `(size, tree)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, TreeIdx)> + '_ {
        let classes = self.0.iter();
        classes.flat_map(|(&size, trees)| trees.iter().map(move |&tree| (size, tree)))
    }

    /// Offers `sink` every listed tree whose size is in `[lo, hi]`, class
    /// by ascending class; returns how many it admitted. An empty list
    /// returns at once.
    #[inline]
    pub fn scan<S: CandidateSink>(&self, lo: u32, hi: u32, sink: &mut S) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let classes = classes_within(self.0.keys().copied(), lo, hi);
        let mut admitted = 0;
        for &tree in classes.flat_map(|size| self.class(size)) {
            if sink.admit(tree) {
                sink.accept(tree);
                admitted += 1;
            }
        }
        admitted
    }
}

/// What one prober reuses from tree to tree: the prepared tree, the
/// deduplicated candidates, the resolved size layers, the per-node match
/// memo, the work counters and the partition buffers. Every buffer is
/// grow-only, so a warm loop allocates nothing per tree beyond what the
/// index keeps.
#[derive(Debug, Default)]
pub(crate) struct Prober {
    tree: ProbeScratch,
    candidates: Candidates,
    layers: Vec<LayerId>,
    cache: MatchCache,
    counters: ProbeCounters,
    partition: PartitionScratch,
}

impl Prober {
    /// Builds `tree`'s LC-RS form for the next [`Prober::probe`] and
    /// [`Prober::publish`]; returns its size.
    pub(crate) fn prepare(&mut self, tree: &Tree) -> u32 {
        self.tree.prepare(tree).0.len() as u32
    }

    /// The probe step of the prepared tree against the size classes
    /// `[lo, hi]` of `index`, whose tree ids lie in `0..universe`.
    /// Returns the candidates in discovery order (side-listed ones
    /// first), how many of them the side list gave, and how many size
    /// layers the index probed.
    pub(crate) fn probe(
        &mut self,
        index: &SubgraphIndex,
        (lo, hi): (u32, u32),
        universe: usize,
        matching: MatchSemantics,
    ) -> (&[TreeIdx], u64, usize) {
        let (binary, posts) = self.tree.prepared();
        let size = binary.len() as u32;
        self.candidates.begin(universe);
        let mut sink = self.candidates.sink();
        let side_admitted = index.side_list().scan(lo, hi, &mut sink);
        resolve_layers(index, lo, hi, &mut self.layers);
        let (layers, cache, work) = (&self.layers, &mut self.cache, &mut self.counters);
        probe_tree_nodes(
            index, layers, binary, posts, size, matching, cache, work, &mut sink,
        );
        (self.candidates.as_slice(), side_admitted, layers.len())
    }

    /// Publishes the prepared tree into `index` as tree `id`, by the δ
    /// rule at the index's threshold: its δ subgraphs under `scheme`, or,
    /// below `δ = 2τ + 1` nodes, the tree onto the index's side list.
    /// Returns how many subgraphs went into the index.
    pub(crate) fn publish(
        &mut self,
        index: &mut SubgraphIndex,
        id: TreeIdx,
        scheme: PartitionScheme,
    ) -> usize {
        let (binary, posts) = self.tree.prepared();
        let size = binary.len() as u32;
        let tau = index.tau();
        let Some(subgraphs) =
            partition_tree_with(binary, posts, tau, scheme, id, &mut self.partition)
        else {
            index.list_small(size, id);
            return 0;
        };
        index.insert_tree(size, subgraphs);
        subgraphs.len()
    }

    /// The probe work of every [`Prober::probe`] so far.
    pub(crate) fn counters(&self) -> ProbeCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartSjConfig;
    use tsj_tree::{parse_bracket, LabelInterner};

    fn probe_candidates(index: &SubgraphIndex, tree: &Tree, tau: u32) -> Vec<TreeIdx> {
        let mut prober = Prober::default();
        let window = window_of(prober.prepare(tree), tau);
        let (found, _, _) = prober.probe(index, window, 16, MatchSemantics::Exact);
        let mut found = found.to_vec();
        let counters = prober.counters();
        assert!(counters.match_attempts >= counters.matches);
        found.sort_unstable();
        found
    }

    #[test]
    fn stamp_sink_dedups_and_collects() {
        let mut labels = LabelInterner::new();
        let tau = 1;
        let scheme = PartSjConfig::default().partitioning;
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        let mut prober = Prober::default();
        for (i, src) in (0..).zip(["{a{b}{c}{d}}", "{a{b}{c}{e}}", "{z{y}{x}{w}}", "{a{b}}"]) {
            prober.prepare(&parse_bracket(src, &mut labels).unwrap());
            // δ = 3: the four-node trees are cut in three, `{a{b}}` is side-listed.
            let subgraphs = prober.publish(&mut index, i, scheme);
            assert_eq!(subgraphs, if i < 3 { 3 } else { 0 });
        }
        assert_eq!(index.side_list().class(2), [3]);
        let probe = parse_bracket("{a{b}{c}}", &mut labels).unwrap();
        let found = probe_candidates(&index, &probe, tau);
        // Trees 0 and 1 are one delete away and share subgraphs, tree 3 is
        // in the side list's window; each is a candidate once.
        assert_eq!(found, [0, 1, 3]);
    }

    #[test]
    fn empty_window_probes_nothing() {
        let mut labels = LabelInterner::new();
        let index = SubgraphIndex::new(1, WindowPolicy::Safe);
        let probe = parse_bracket("{a{b}}", &mut labels).unwrap();
        assert!(probe_candidates(&index, &probe, 1).is_empty());
    }

    #[test]
    fn classes_within_walks_the_narrower_of_window_and_population() {
        let populated = [9u32, 3, 40, 7];
        let within =
            |lo, hi| -> Vec<u32> { classes_within(populated.iter().copied(), lo, hi).collect() };
        // Narrower than the population: every class, populated or not.
        assert_eq!(within(6, 8), [6, 7, 8]);
        assert_eq!(within(u32::MAX - 1, u32::MAX), [u32::MAX - 1, u32::MAX]);
        // Wider: the populated classes in it, ascending.
        assert_eq!(within(4, 40), [7, 9, 40]);
        assert_eq!(within(1, u32::MAX), [3, 7, 9, 40]);
        assert!(within(41, u32::MAX).is_empty());
        assert_eq!(classes_within(std::iter::empty(), 1, u32::MAX).count(), 0);
        assert_eq!(window_of(5, u32::MAX - 4), (1, u32::MAX));
    }

    /// Offers every tree of `trees` twice; dedup must admit each exactly
    /// once, whatever earlier generations left in the stamps.
    fn admits_each_once(candidates: &mut Candidates, trees: std::ops::Range<u32>) {
        let mut smalls = SideList::default();
        for tree in trees.clone().chain(trees.clone()) {
            smalls.push(1, tree);
        }
        let admitted = smalls.scan(1, 2, &mut candidates.sink());
        assert_eq!(admitted, trees.len() as u64);
        assert_eq!(candidates.as_slice(), trees.collect::<Vec<_>>());
    }

    #[test]
    fn dedup_survives_marker_exhaustion_and_universe_growth() {
        let mut candidates = Candidates::new();
        candidates.begin(4);
        admits_each_once(&mut candidates, 0..4); // every stamp holds marker 0
        candidates.next_marker = TreeIdx::MAX - 2;
        // Generations MAX−2 and MAX−1 touch tree 0 only, so trees 1..4
        // still carry the stale 0 when the markers wrap to 0 and 1: no
        // tree admitted twice within a probe, none suppressed by a stamp
        // an earlier generation left behind.
        for trees in [0..1, 0..1, 0..4, 0..4] {
            candidates.begin(4);
            admits_each_once(&mut candidates, trees);
        }
        assert_eq!(candidates.next_marker, 2, "wrapped exactly once");
        // Growing the universe between probes neither refills nor loses
        // stamps: the next generation simply ignores the old ones.
        let marker = candidates.marker;
        candidates.begin(6);
        assert_eq!(candidates.marker, marker + 1);
        assert_eq!(candidates.stamp[..4], [marker; 4]);
        assert_eq!(candidates.stamp[4..], [TreeIdx::MAX; 2]);
        admits_each_once(&mut candidates, 0..6);
    }
}
