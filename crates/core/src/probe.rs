//! Algorithm 1's probe step, written once.
//!
//! Every index consumer — the batch join ([`crate::join`]), the bipartite
//! join ([`crate::rs_join`]), the top-k join ([`crate::topk`]) and, one
//! crate up, the sharded, streaming, frozen-catalog and cluster-node
//! paths — generates candidates the same way: start a fresh dedup
//! generation ([`Candidates::begin`]), admit the side-listed small trees
//! of the size window ([`scan_small_trees`]), then walk the probing
//! tree's LC-RS nodes, compute the up-to-four [`TwigKeys`] once per
//! node, probe every size layer of the resolved window and match
//! surfaced subgraphs at the node ([`probe_tree_nodes`]). What differs
//! between consumers is only the admission rule (processing rank,
//! liveness), which they express as [`CandidateSink`] adapters around
//! the [`StampSink`] that [`Candidates::sink`] hands out.
//!
//! Centralizing the step keeps the hoisting discipline of PR 2 (size
//! layers resolved once per tree, twig keys once per node, match verdicts
//! memoized per node across layers) and the dedup decision in exactly
//! one place — and lets the sharded index (`tsj-shard`) drive the
//! identical loop against each shard's private [`SubgraphIndex`].

use crate::config::MatchSemantics;
use crate::index::{LayerId, MatchCache, SubgraphIndex, TwigKeys};
use tsj_ted::TreeIdx;
use tsj_tree::{BinaryTree, FxHashMap, Label, Tree};

/// Reusable probe-tree preparation: one LC-RS representation (which
/// numbers the general postorder in the walk that fills its caches),
/// rebuilt in place per probing tree. All buffers are grow-only, so a
/// serving or join loop that prepares a stream of probes through one
/// scratch allocates nothing once the buffers fit the largest tree seen.
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
        let binary = self.binary.as_ref().expect("prepared above");
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

/// Probes every node of `binary` against the resolved `layer_window` of
/// `index` — one full iteration of Algorithm 1's inner loop.
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
    for node in binary.node_ids() {
        let label = binary.label(node);
        let left = binary
            .left(node)
            .map_or(Label::EPSILON, |c| binary.label(c));
        let right = binary
            .right(node)
            .map_or(Label::EPSILON, |c| binary.label(c));
        let keys = TwigKeys::new(label, left, right);
        cache.begin_node();
        let position = index.probe_position(posts[node.index()], probe_size);
        for &layer in layer_window {
            counters.probes += 1;
            index.layer(layer).probe(position, &keys, |handle| {
                let tree = index.tree_of(handle);
                if !sink.admit(tree) {
                    return;
                }
                counters.match_attempts += 1;
                if index.matches_at(handle, binary, node, matching, cache) {
                    counters.matches += 1;
                    sink.accept(tree);
                }
            });
        }
    }
}

/// The ubiquitous sink: a stamp array deduplicates container trees per
/// probing tree (stamp value = probe marker) and accepted candidates are
/// pushed to a list. [`Candidates::sink`] hands one out per probe;
/// consumers with extra admission rules (order filters, liveness
/// checks) wrap it in their own [`CandidateSink`].
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

/// The side-list half of the probe step: trees too small to
/// δ-partition carry no postings (Lemma 2 offers no filter for them),
/// so every one whose size class is in `classes` (a window's, through
/// [`classes_within`], or a shard request's explicit list) goes straight
/// to `sink`. Returns how many the sink admitted.
pub fn scan_small_trees<S: CandidateSink>(
    small_by_size: &FxHashMap<u32, Vec<TreeIdx>>,
    classes: impl IntoIterator<Item = u32>,
    sink: &mut S,
) -> u64 {
    let mut admitted = 0;
    for class in classes {
        for &tree in small_by_size.get(&class).into_iter().flatten() {
            if sink.admit(tree) {
                sink.accept(tree);
                admitted += 1;
            }
        }
    }
    admitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PartSjConfig, WindowPolicy};
    use crate::subgraph::partition_tree;
    use tsj_tree::{parse_bracket, LabelInterner, Tree};

    fn probe_candidates(index: &SubgraphIndex, tree: &Tree, tau: u32) -> Vec<TreeIdx> {
        let binary = BinaryTree::from_tree(tree);
        let posts = tree.postorder_numbers();
        let (lo, hi) = window_of(tree.len() as u32, tau);
        let mut layers = Vec::new();
        resolve_layers(index, lo, hi, &mut layers);
        let mut candidates = Candidates::new();
        candidates.begin(16);
        let mut counters = ProbeCounters::default();
        probe_tree_nodes(
            index,
            &layers,
            &binary,
            &posts,
            tree.len() as u32,
            MatchSemantics::Exact,
            &mut MatchCache::new(),
            &mut counters,
            &mut candidates.sink(),
        );
        assert!(counters.match_attempts >= counters.matches);
        let mut found = candidates.as_slice().to_vec();
        found.sort_unstable();
        found
    }

    #[test]
    fn stamp_sink_dedups_and_collects() {
        let mut labels = LabelInterner::new();
        let tau = 1;
        let config = PartSjConfig::default();
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        for (i, src) in ["{a{b}{c}{d}}", "{a{b}{c}{e}}", "{z{y}{x}{w}}"]
            .iter()
            .enumerate()
        {
            let tree = parse_bracket(src, &mut labels).unwrap();
            let binary = BinaryTree::from_tree(&tree);
            let posts = tree.postorder_numbers();
            let sgs = partition_tree(&binary, &posts, tau, config.partitioning, i as TreeIdx);
            index.insert_tree(tree.len() as u32, sgs.expect("4 nodes ≥ δ = 3"));
        }
        let probe = parse_bracket("{a{b}{c}{d}}", &mut labels).unwrap();
        let found = probe_candidates(&index, &probe, tau);
        // Tree 0 is identical, tree 1 one rename away: both share subgraphs.
        assert!(found.contains(&0));
        assert!(found.contains(&1));
        // Deduplicated: each candidate appears once.
        let mut dedup = found.clone();
        dedup.dedup();
        assert_eq!(found, dedup);
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
        let mut smalls: FxHashMap<u32, Vec<TreeIdx>> = FxHashMap::default();
        smalls.insert(1, trees.clone().chain(trees.clone()).collect());
        let admitted = scan_small_trees(&smalls, [1, 2], &mut candidates.sink());
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
