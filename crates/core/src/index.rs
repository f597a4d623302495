//! The on-the-fly two-layer subgraph index (§3.4), in dense,
//! cache-friendly storage.
//!
//! Subgraphs are first grouped by their container tree's size `n` (the
//! inverted size index `I_n` of Algorithm 1), then by *postorder group*
//! (layer 1) and finally by *label twig* (layer 2). The logical structure
//! is the paper's; the physical layout is flat:
//!
//! * **Size layer.** `I_n` is one [`PostorderLayer`] per distinct
//!   container size, resolved through a single small hash map — once per
//!   *probing tree* (via [`SubgraphIndex::layer_id`]), not once per
//!   node×size as a nested-map design would.
//! * **Postorder layer.** Position keys are bounded by the container tree
//!   size (plus the window half-width), so the layer is a flat `Vec` of
//!   position buckets indexed directly by key — no hashing. Subgraph `s_k`
//!   with window half-width `∆′` (policy-dependent, see `WindowPolicy`) is
//!   registered under every key in `[pos_k − ∆′, pos_k + ∆′]`, where
//!   `pos_k` is the subgraph root's *general-tree* postorder position — as
//!   a suffix (`n − p_k`, edit-stable and provably sound) or absolute
//!   (`p_k`, the paper's literal text) coordinate. A probe node with
//!   position `p` reads exactly one bucket: index `p`.
//! * **Label twig layer.** A bucket is a compact array of
//!   `(twig, handle)` postings kept sorted by packed root twig
//!   `(ℓ, ℓ_left, ℓ_right)` (`ε` for bridges and absences). A probe with
//!   twig `(ℓ, ℓ_l, ℓ_r)` matches up to four keys — `ℓℓ_lℓ_r`, `ℓℓ_lε`,
//!   `ℓεℓ_r`, `ℓεε`, the keys whose subgraphs can still embed at the node
//!   (precomputed once per node as [`TwigKeys`]). Small buckets are
//!   scanned linearly in one pass over contiguous memory; large buckets
//!   binary-search each key's posting run. All four keys share the probe
//!   node's own label, so beside the buckets each layer keeps a dense
//!   column of 128-bit *root signatures*, one per position (bit
//!   `label mod 128` of every root label filed there), and a probe
//!   whose bit is not set returns from the column alone — the common
//!   case by far (over 99 % of a join's probes surface nothing) reads
//!   16 bytes and never touches the bucket. A scanned posting compares
//!   the shared root first. The width is measured: on `serve_tcp`'s
//!   catalog a 32-bit signature (bit `label mod 32`) opens the bucket
//!   on 41 % of checks though only 19 % of them hold the probe's root;
//!   at 128 bits 19 % open. The signature is derived state:
//!   registration ors a bit in, a sweep recomputes it in the pass that
//!   retains the postings, a restore folds it from the postings, and no
//!   dump ever carries it.
//!
//! The index owns the subgraph pool in struct-of-arrays form: per-handle
//! metadata ([`SubgraphMeta`]) in one `Vec`, component shapes *interned*
//! into a deduplicated table (`Component`), and all component nodes
//! flattened into a single [`SgNode`] arena, so `probe → matches_at`
//! walks contiguous memory instead of chasing one boxed slice per
//! subgraph.
//!
//! Interning is what makes verification scale on near-duplicate
//! collections — the workload similarity joins exist for: structurally
//! identical subgraphs from different container trees share one
//! [`ComponentId`], and the probe loop memoizes match verdicts per
//! component in a [`MatchCache`], so a component surfaced by `k` trees at
//! a node is walked once, not `k` times. Every shape is stored **once**,
//! as its arena run: an arriving subgraph is looked up by hashing its
//! borrowed `(incoming, nodes)` slice and comparing it against the runs
//! of the components with that hash (a table of chain heads plus one
//! `next` id per component), and is copied into the arena only on a
//! miss — a known shape costs no allocation and no copy.

use crate::config::{MatchSemantics, WindowPolicy};
use crate::subgraph::{nodes_match_at, Partition, SgNode, Subgraph, TreeIdx};
use std::borrow::Borrow;
use std::hash::Hasher;
use tsj_tree::{pack_twig, BinaryTree, FxHashMap, FxHasher, Label, NodeId, Side};

/// Handle into the index's subgraph pool.
pub type SubgraphHandle = u32;

/// Handle to a resolved per-size [`PostorderLayer`]. Plain data (no
/// borrow), so consumers can cache the layer ids of a probe window in a
/// scratch buffer that survives index insertions.
pub type LayerId = u32;

/// Buckets at or below this size are scanned linearly (one pass matching
/// all twig keys at once); larger buckets binary-search per key.
const LINEAR_SCAN_MAX: usize = 16;

/// One registration: a subgraph handle filed under its packed root twig.
#[derive(Debug, Clone, Copy)]
struct Posting {
    twig: u64,
    handle: SubgraphHandle,
}

/// A position's root signature: one bit per root label residue mod 128,
/// set for every root label filed in the position's bucket.
type RootSig = u128;

/// The root label of a packed twig.
#[inline]
fn root_of(twig: u64) -> u64 {
    twig >> 42
}

/// The root-signature bit of a packed twig's root label.
#[inline]
fn root_bit(twig: u64) -> RootSig {
    1 << (root_of(twig) & 127)
}

/// The up-to-four packed twig keys a probe node can match (§3.4),
/// deduplicated, specific-first. Compute once per node and reuse across
/// the node's whole size window.
#[derive(Debug, Clone, Copy)]
pub struct TwigKeys {
    keys: [u64; 4],
    /// [`root_bit`] of the node's label — the one root all keys share.
    root_bit: RootSig,
    len: u8,
}

impl TwigKeys {
    /// Keys for a probe node with `label` and child labels `left`/`right`
    /// (`ε` for missing children): `ℓℓ_lℓ_r`, `ℓℓ_lε`, `ℓεℓ_r`, `ℓεε`,
    /// skipping duplicates when the node itself has `ε` children.
    #[inline]
    pub fn new(label: Label, left: Label, right: Label) -> TwigKeys {
        let mut keys = [pack_twig(label, left, right); 4];
        let mut len = 1u8;
        if right != Label::EPSILON {
            keys[len as usize] = pack_twig(label, left, Label::EPSILON);
            len += 1;
        }
        if left != Label::EPSILON {
            keys[len as usize] = pack_twig(label, Label::EPSILON, right);
            len += 1;
            if right != Label::EPSILON {
                keys[len as usize] = pack_twig(label, Label::EPSILON, Label::EPSILON);
                len += 1;
            }
        }
        TwigKeys {
            keys,
            root_bit: root_bit(keys[0]),
            len,
        }
    }

    /// The deduplicated keys, most-specific first.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        &self.keys[..self.len as usize]
    }

    /// Whether `twig` is one of the keys. Most postings a probe scans
    /// have another root, so the shared root is compared first.
    #[inline]
    fn contains(&self, twig: u64) -> bool {
        // len ≤ 4: a branch-light linear check beats anything fancier.
        root_of(twig) == root_of(self.keys[0]) && self.as_slice().contains(&twig)
    }
}

/// Unsorted postings tolerated at the end of a bucket before `register`
/// merges them into the twig-sorted prefix. Registration is an O(1)
/// amortized push instead of a per-posting memmove (which would make the
/// build quadratic in bucket size on duplicate-heavy collections), while
/// probes pay at most this many extra linearly-scanned entries (~2 cache
/// lines).
const TAIL_MAX: usize = 32;

/// One position bucket: a twig-sorted prefix plus a short unsorted tail
/// of recent registrations.
#[derive(Debug, Default)]
struct Bucket {
    postings: Vec<Posting>,
    /// Length of the twig-sorted prefix; `postings[sorted_len..]` is the
    /// tail, in insertion order.
    sorted_len: u32,
}

/// The [`root_bit`]s of `postings`, or-ed.
fn signature(postings: &[Posting]) -> RootSig {
    postings.iter().fold(0, |bits, p| bits | root_bit(p.twig))
}

/// One size class `I_n`: a flat vector of position buckets and, beside
/// it, their root signatures — a dense column a probe reads before it
/// touches a bucket.
#[derive(Debug, Default)]
pub struct PostorderLayer {
    buckets: Vec<Bucket>,
    /// `roots[p]` is the [`signature`] of `buckets[p]`: a probe whose
    /// [`root_bit`] is missing cannot match there.
    roots: Vec<RootSig>,
}

impl PostorderLayer {
    /// Registers `handle` under `twig` at every position key in
    /// `[lo, hi]`.
    fn register(&mut self, lo: u32, hi: u32, twig: u64, handle: SubgraphHandle) {
        if self.buckets.len() <= hi as usize {
            self.buckets.resize_with(hi as usize + 1, Bucket::default);
            self.roots.resize(hi as usize + 1, 0);
        }
        let (range, bit) = (lo as usize..=hi as usize, root_bit(twig));
        let buckets = self.buckets[range.clone()].iter_mut();
        for (bucket, roots) in buckets.zip(&mut self.roots[range]) {
            *roots |= bit;
            bucket.postings.push(Posting { twig, handle });
            if bucket.postings.len() - bucket.sorted_len as usize > TAIL_MAX {
                // The stable sort merges the two runs (sorted prefix +
                // tail) in ~O(len); stability keeps equal-twig postings
                // in insertion (ascending-handle) order.
                bucket.postings.sort_by_key(|p| p.twig);
                bucket.sorted_len = bucket.postings.len() as u32;
            }
        }
    }

    /// Calls `visit` for every handle filed under `position` whose twig is
    /// one of `keys`.
    #[inline]
    pub fn probe<F: FnMut(SubgraphHandle)>(&self, position: u32, keys: &TwigKeys, mut visit: F) {
        let Some(roots) = self.roots.get(position as usize) else {
            return;
        };
        if roots & keys.root_bit == 0 {
            return;
        }
        let bucket = &self.buckets[position as usize];
        let sorted = &bucket.postings[..bucket.sorted_len as usize];
        if sorted.len() <= LINEAR_SCAN_MAX {
            for posting in sorted {
                if keys.contains(posting.twig) {
                    visit(posting.handle);
                }
            }
        } else {
            for &key in keys.as_slice() {
                let start = sorted.partition_point(|p| p.twig < key);
                for posting in &sorted[start..] {
                    if posting.twig != key {
                        break;
                    }
                    visit(posting.handle);
                }
            }
        }
        for posting in &bucket.postings[bucket.sorted_len as usize..] {
            if keys.contains(posting.twig) {
                visit(posting.handle);
            }
        }
    }

    /// Total postings across all buckets (diagnostics).
    pub fn postings(&self) -> usize {
        self.buckets.iter().map(|b| b.postings.len()).sum()
    }

    /// A layer over `buckets`, its root signatures folded from them.
    fn new(buckets: Vec<Bucket>) -> PostorderLayer {
        let roots = buckets.iter().map(|b| signature(&b.postings)).collect();
        PostorderLayer { buckets, roots }
    }
}

/// Id of an interned component shape: subgraphs with identical
/// `(incoming side, preorder node slice)` share one id, whatever their
/// container tree.
pub type ComponentId = u32;

/// Plain-data image of one position bucket (see [`IndexDump`]):
/// `(twig, handle)` postings in stored order plus the sorted-prefix
/// length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketDump {
    /// Postings as `(packed twig, subgraph handle)` pairs, verbatim —
    /// probe visit order (and therefore candidate order) depends on it.
    pub postings: Vec<(u64, SubgraphHandle)>,
    /// Length of the twig-sorted prefix; the rest is the unsorted tail.
    pub sorted_len: u32,
}

/// Plain-data image of one size class's postorder layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerDump {
    /// Position buckets, indexed directly by position key.
    pub buckets: Vec<BucketDump>,
}

/// Plain-data image of one interned component shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentDump {
    /// Arena offset of the component's first node.
    pub start: u32,
    /// Number of component nodes (≥ 1).
    pub len: u32,
    /// Incoming side tag: 0 = none, 1 = left, 2 = right.
    pub incoming: u8,
}

/// A [`SubgraphIndex`] flattened into plain owned data — everything a
/// byte-level serializer ([`tsj-catalog`]'s snapshot format) needs, with
/// no private types and no behavior. Produced by
/// [`SubgraphIndex::dump`], consumed by [`SubgraphIndex::restore`];
/// `restore(dump())` reproduces the index bit-identically (probe visit
/// order included).
///
/// [`tsj-catalog`]: https://docs.rs/tsj-catalog
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDump {
    /// The threshold the index registered windows for.
    pub tau: u32,
    /// The window policy the index was built under.
    pub window: WindowPolicy,
    /// `(container size, layer id)` pairs, ascending by size.
    pub size_layers: Vec<(u32, LayerId)>,
    /// Layer images, indexed by layer id.
    pub layers: Vec<LayerDump>,
    /// Per-handle metadata, indexed by subgraph handle.
    pub metas: Vec<SubgraphMeta>,
    /// Interned component shapes, indexed by [`ComponentId`].
    pub components: Vec<ComponentDump>,
    /// The flattened component-node arena.
    pub arena: Vec<SgNode>,
    /// Total bucket registrations (cross-checked against the layers on
    /// restore).
    pub registrations: u64,
}

/// An interned component shape: an incoming side plus a contiguous run of
/// the node arena.
#[derive(Debug, Clone, Copy)]
struct Component {
    /// Arena offset of the component nodes.
    start: u32,
    /// Component size (number of nodes). A component can span a whole
    /// tree (δ = 1 at τ = 0), so this must not be narrower than a tree
    /// size.
    len: u32,
    /// Incoming side: 0 = none (tree root), 1 = left, 2 = right.
    incoming: u8,
    /// The next component whose shape has the same [`shape_hash`], or
    /// [`GONE`]: the interning chain.
    next: ComponentId,
}

impl Component {
    #[inline]
    fn run(&self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }

    #[inline]
    fn incoming_side(&self) -> Option<Side> {
        match self.incoming {
            1 => Some(Side::Left),
            2 => Some(Side::Right),
            _ => None,
        }
    }
}

/// Per-handle metadata: the stamp-dedup key (container tree) and the
/// interned component shape, in 12 contiguous bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubgraphMeta {
    /// Container tree index within the joined collection.
    pub tree: TreeIdx,
    /// Interned component shape.
    pub component: ComponentId,
    /// 1-based ordinal `k` in greedy-discovery order; the paper's `s_k`.
    pub ordinal: u16,
}

/// Caller-owned probe scratch: memoized per-node match verdicts (indexed
/// by [`ComponentId`]) plus the match walk stack. Call
/// [`MatchCache::begin_node`] when moving to the next probe node;
/// verdicts stay valid across the node's whole size window, so a
/// component surfaced by many size layers or container trees is walked
/// once.
#[derive(Debug, Default)]
pub struct MatchCache {
    /// 0 = unknown, 1 = mismatch, 2 = match.
    verdicts: Vec<u8>,
    touched: Vec<ComponentId>,
    stack: Vec<NodeId>,
}

impl MatchCache {
    /// An empty cache.
    pub fn new() -> MatchCache {
        MatchCache::default()
    }

    /// Forgets the previous probe node's verdicts (O(components actually
    /// matched there), not O(all components)).
    pub fn begin_node(&mut self) {
        for &c in &self.touched {
            self.verdicts[c as usize] = 0;
        }
        self.touched.clear();
    }
}

/// "Swept away" in the renumbering maps of [`SubgraphIndex::retain_trees`];
/// "no further component" in an interning chain.
const GONE: u32 = u32::MAX;

/// What a component shape is interned under: one hash step for the
/// incoming side and one per node.
fn shape_hash(incoming: u8, nodes: &[SgNode]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u8(incoming);
    for node in nodes {
        let kinds = (node.left as u64) << 32 | (node.right as u64) << 34;
        hasher.write_u64(u64::from(node.label.raw()) | kinds);
    }
    hasher.finish()
}

/// Dense new ids for the `true` slots, in order; [`GONE`] for the rest.
fn renumber(kept: impl Iterator<Item = bool>) -> Vec<u32> {
    let mut ids = 0u32..;
    let id = |kept: bool| kept.then(|| ids.next()).flatten().unwrap_or(GONE);
    kept.map(id).collect()
}

/// Drops every item whose slot in a [`renumber`] map is [`GONE`].
fn retain_mapped<T>(items: &mut Vec<T>, map: &[u32]) {
    let mut slots = map.iter();
    items.retain(|_| slots.next() != Some(&GONE));
}

/// Sends a table's ids through a [`renumber`] map, dropping the [`GONE`].
fn remap_ids<K>(table: &mut FxHashMap<K, u32>, map: &[u32]) {
    table.retain(|_, id| {
        *id = map[*id as usize];
        *id != GONE
    });
}

/// Two-layer inverted index over the subgraphs of already-processed trees.
#[derive(Debug)]
pub struct SubgraphIndex {
    tau: u32,
    window: WindowPolicy,
    /// `I_n`: size → slot in `layers`.
    by_size: FxHashMap<u32, LayerId>,
    layers: Vec<PostorderLayer>,
    /// Subgraph pool, struct-of-arrays: per-instance metadata, interned
    /// component shapes, and the flattened node arena.
    metas: Vec<SubgraphMeta>,
    components: Vec<Component>,
    arena: Vec<SgNode>,
    /// Interning table, ids only: [`shape_hash`] → the first component of
    /// that hash's chain ([`Component::next`]). The shapes themselves
    /// live in the arena and nowhere else.
    interned: FxHashMap<u64, ComponentId>,
    /// Total bucket registrations (a subgraph appears in `2∆′ + 1`
    /// buckets).
    registrations: u64,
}

impl SubgraphIndex {
    /// Creates an empty index for threshold `tau` under `window`.
    pub fn new(tau: u32, window: WindowPolicy) -> SubgraphIndex {
        SubgraphIndex {
            tau,
            window,
            by_size: FxHashMap::default(),
            layers: Vec::new(),
            metas: Vec::new(),
            components: Vec::new(),
            arena: Vec::new(),
            interned: FxHashMap::default(),
            registrations: 0,
        }
    }

    /// The position key of a subgraph under the active policy.
    fn subgraph_position(&self, sg: &Subgraph) -> u32 {
        match self.window {
            WindowPolicy::PaperAbsolute => sg.root_post,
            WindowPolicy::Tight | WindowPolicy::Safe => sg.suffix,
        }
    }

    /// The position key of a probe node with 1-based *general-tree*
    /// postorder `p` in a probing tree of size `probe_size`.
    pub fn probe_position(&self, p: u32, probe_size: u32) -> u32 {
        self.window.probe_position(p, probe_size)
    }

    /// Window half-width `∆′` for subgraph ordinal `k` (1-based).
    fn half_width(&self, ordinal: u16) -> u32 {
        match self.window {
            WindowPolicy::Safe => self.tau,
            WindowPolicy::Tight | WindowPolicy::PaperAbsolute => {
                self.tau - (ordinal as u32 / 2).min(self.tau)
            }
        }
    }

    /// Interns the component shape `(incoming, nodes)`: near-duplicate
    /// collections repeat the same shapes across trees, and every repeat
    /// shares one arena run and one memoizable [`ComponentId`]. A known
    /// shape is found by comparing the borrowed slice against the runs on
    /// the chain of `hash` (its [`shape_hash`]; a parameter so that a test
    /// can make two shapes collide); only a new one is copied (into the
    /// arena) and becomes the chain's head.
    fn intern(&mut self, hash: u64, incoming: u8, nodes: &[SgNode]) -> ComponentId {
        let mut known = self.interned.get(&hash).copied().unwrap_or(GONE);
        while known != GONE {
            let c = &self.components[known as usize];
            if c.incoming == incoming && self.arena[c.run()] == *nodes {
                return known;
            }
            known = c.next;
        }
        let id = self.components.len() as ComponentId;
        self.components.push(Component {
            start: self.arena.len() as u32,
            len: nodes.len() as u32,
            incoming,
            next: self.interned.insert(hash, id).unwrap_or(GONE),
        });
        self.arena.extend_from_slice(nodes);
        id
    }

    /// Rebuilds the interning chains from the arena runs: every component
    /// becomes the head of its hash's chain, in id order.
    fn relink(&mut self) {
        self.interned.clear();
        for (id, c) in (0..).zip(&mut self.components) {
            let hash = shape_hash(c.incoming, &self.arena[c.run()]);
            c.next = self.interned.insert(hash, id).unwrap_or(GONE);
        }
    }

    /// Inserts all subgraphs of a processed tree of size `tree_size`
    /// (an owned [`Partition`] or a borrowed one, e.g. a scratch's).
    pub fn insert_tree(&mut self, tree_size: u32, subgraphs: impl Borrow<Partition>) {
        let layer_id = *self.by_size.entry(tree_size).or_insert_with(|| {
            self.layers.push(PostorderLayer::default());
            (self.layers.len() - 1) as LayerId
        });
        for sg in subgraphs.borrow().iter() {
            let position = self.subgraph_position(&sg);
            let dw = self.half_width(sg.ordinal);
            let handle = self.metas.len() as SubgraphHandle;
            let incoming = match sg.incoming {
                None => 0u8,
                Some(Side::Left) => 1,
                Some(Side::Right) => 2,
            };
            let component = self.intern(shape_hash(incoming, sg.nodes), incoming, sg.nodes);
            self.metas.push(SubgraphMeta {
                tree: sg.tree,
                component,
                ordinal: sg.ordinal,
            });
            let lo = position.saturating_sub(dw);
            let hi = position + dw;
            self.layers[layer_id as usize].register(lo, hi, sg.twig, handle);
            self.registrations += u64::from(hi - lo + 1);
        }
    }

    /// Forgets every tree `keep` rejects, in place, and returns the
    /// bucket registrations removed. Their postings are `retain`ed out of
    /// the buckets (survivors keep their order, so every twig-sorted
    /// prefix stays sorted); handles, component ids and layers are
    /// renumbered densely in their old order; the arena shrinks to the
    /// shapes still referenced and the interning chains are re-linked
    /// over the runs that moved; a size class left
    /// without a tree is forgotten. Probes then surface the *set* a fresh
    /// index over the survivors would (visit order may differ: the
    /// prefix/tail split is history). [`LayerId`]s and handles resolved
    /// earlier are stale; a [`MatchCache`] is not — verdicts are per node.
    pub fn retain_trees(&mut self, keep: impl Fn(TreeIdx) -> bool) -> u64 {
        let handle_map = renumber(self.metas.iter().map(|m| keep(m.tree)));
        let mut referenced = vec![false; self.components.len()];
        for (meta, &handle) in self.metas.iter().zip(&handle_map) {
            referenced[meta.component as usize] |= handle != GONE;
        }
        let component_map = renumber(referenced.into_iter());
        retain_mapped(&mut self.metas, &handle_map);
        for meta in &mut self.metas {
            meta.component = component_map[meta.component as usize];
        }
        // Runs tile the arena in id order (insertion appends them,
        // `restore` checks it), so survivors only ever move down.
        retain_mapped(&mut self.components, &component_map);
        let mut end = 0;
        for c in &mut self.components {
            let run = c.start as usize..c.start as usize + c.len as usize;
            self.arena.copy_within(run, end);
            c.start = end as u32;
            end += c.len as usize;
        }
        self.arena.truncate(end);
        self.relink();

        let mut removed = 0u64;
        let positions = self
            .layers
            .iter_mut()
            .flat_map(|l| l.buckets.iter_mut().zip(&mut l.roots));
        for (bucket, roots) in positions {
            let (before, sorted) = (bucket.postings.len(), bucket.sorted_len as usize);
            let (mut at, mut sorted_kept) = (0, 0);
            *roots = 0;
            bucket.postings.retain_mut(|posting| {
                posting.handle = handle_map[posting.handle as usize];
                let kept = posting.handle != GONE;
                sorted_kept += u32::from(kept && at < sorted);
                if kept {
                    *roots |= root_bit(posting.twig);
                }
                at += 1;
                kept
            });
            bucket.sorted_len = sorted_kept;
            removed += (before - bucket.postings.len()) as u64;
        }
        self.registrations -= removed;
        // Every stored subgraph holds at least one posting, so a layer
        // without postings is a size class without trees.
        let occupied = |l: &PostorderLayer| l.buckets.iter().any(|b| !b.postings.is_empty());
        let layer_map = renumber(self.layers.iter().map(occupied));
        retain_mapped(&mut self.layers, &layer_map);
        remap_ids(&mut self.by_size, &layer_map);
        removed
    }

    /// Resolves the layer of size class `tree_size`, if any trees of that
    /// size have been indexed. Resolve once per probing tree and probe the
    /// returned id for every node — this hoists the size-map lookup out of
    /// the node loop.
    #[inline]
    pub fn layer_id(&self, tree_size: u32) -> Option<LayerId> {
        self.by_size.get(&tree_size).copied()
    }

    /// The layer behind a [`LayerId`] returned by
    /// [`SubgraphIndex::layer_id`].
    #[inline]
    pub fn layer(&self, id: LayerId) -> &PostorderLayer {
        &self.layers[id as usize]
    }

    /// Container tree of a surfaced handle — the stamp-dedup key, readable
    /// without touching the component arena.
    #[inline]
    pub fn tree_of(&self, handle: SubgraphHandle) -> TreeIdx {
        self.metas[handle as usize].tree
    }

    /// Matches a surfaced handle at `node` of the probing tree.
    ///
    /// The first attempt for a component walks its contiguous arena slice;
    /// the verdict is memoized in `cache` and replayed for every further
    /// handle sharing the shape until [`MatchCache::begin_node`] — crucial
    /// on near-duplicate collections where one shape recurs across many
    /// container trees.
    #[inline]
    pub fn matches_at(
        &self,
        handle: SubgraphHandle,
        binary: &BinaryTree,
        node: NodeId,
        semantics: MatchSemantics,
        cache: &mut MatchCache,
    ) -> bool {
        let component = self.metas[handle as usize].component;
        if cache.verdicts.len() < self.components.len() {
            cache.verdicts.resize(self.components.len(), 0);
        }
        match cache.verdicts[component as usize] {
            2 => true,
            1 => false,
            _ => {
                let c = &self.components[component as usize];
                let nodes = &self.arena[c.run()];
                let matched = nodes_match_at(
                    nodes,
                    c.incoming_side(),
                    binary,
                    node,
                    semantics,
                    &mut cache.stack,
                );
                cache.verdicts[component as usize] = if matched { 2 } else { 1 };
                cache.touched.push(component);
                matched
            }
        }
    }

    /// Number of distinct interned component shapes (≤ [`len`]).
    ///
    /// [`len`]: SubgraphIndex::len
    pub fn distinct_components(&self) -> usize {
        self.components.len()
    }

    /// Component size (node count) of a surfaced handle.
    pub fn component_size(&self, handle: SubgraphHandle) -> usize {
        self.components[self.metas[handle as usize].component as usize].len as usize
    }

    /// Probes for subgraphs of trees with exactly `tree_size` nodes that
    /// may embed at a node with postorder position key `position` (already
    /// converted via [`SubgraphIndex::probe_position`]) and twig labels
    /// `(label, left, right)` (`ε` for missing children).
    ///
    /// Calls `visit` for every handle in the up-to-four twig groups. This
    /// is the convenience form; hot loops should resolve
    /// [`SubgraphIndex::layer_id`] once per tree and [`TwigKeys::new`]
    /// once per node, then call [`PostorderLayer::probe`].
    pub fn probe<F: FnMut(SubgraphHandle)>(
        &self,
        tree_size: u32,
        position: u32,
        label: Label,
        left: Label,
        right: Label,
        visit: F,
    ) {
        if let Some(id) = self.layer_id(tree_size) {
            self.layer(id)
                .probe(position, &TwigKeys::new(label, left, right), visit);
        }
    }

    /// Resolves a handle to its metadata.
    #[inline]
    pub fn subgraph_meta(&self, handle: SubgraphHandle) -> &SubgraphMeta {
        &self.metas[handle as usize]
    }

    /// Number of subgraphs stored.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Total `(position, twig)` bucket registrations.
    pub fn registrations(&self) -> u64 {
        self.registrations
    }

    /// Heap bytes held: the size map, every layer's buckets, root
    /// signatures and postings, the subgraph pool and the interning
    /// table, by capacity.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let postings = |layer: &PostorderLayer| -> usize {
            let buckets = layer.buckets.iter();
            buckets
                .map(|b| b.postings.capacity() * size_of::<Posting>())
                .sum()
        };
        let layers = self.layers.iter().map(|layer| {
            layer.buckets.capacity() * size_of::<Bucket>()
                + layer.roots.capacity() * size_of::<RootSig>()
                + postings(layer)
        });
        tsj_tree::table_bytes::<u32, LayerId>(self.by_size.capacity())
            + self.layers.capacity() * size_of::<PostorderLayer>()
            + layers.sum::<usize>()
            + self.metas.capacity() * size_of::<SubgraphMeta>()
            + self.components.capacity() * size_of::<Component>()
            + self.arena.capacity() * size_of::<SgNode>()
            + tsj_tree::table_bytes::<u64, ComponentId>(self.interned.capacity())
    }

    /// The configured window policy.
    pub fn window(&self) -> WindowPolicy {
        self.window
    }

    /// The threshold the index registers windows for.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Number of distinct container-size classes currently indexed.
    pub fn distinct_sizes(&self) -> usize {
        self.by_size.len()
    }

    /// The distinct container-size classes currently indexed, in
    /// arbitrary order. Shard wrappers use this to validate that a
    /// restored shard only holds size classes it actually owns.
    pub fn size_classes(&self) -> impl ExactSizeIterator<Item = u32> + Clone + '_ {
        self.by_size.keys().copied()
    }

    /// `∆′` as exposed for diagnostics and tests.
    pub fn window_half_width(&self, ordinal: u16) -> u32 {
        self.half_width(ordinal)
    }

    /// Extracts the index's dense storage as plain data — the snapshot
    /// form `tsj-catalog` serializes. Size classes are emitted in
    /// ascending size order so the dump (and therefore the snapshot
    /// bytes) is deterministic; layer ids are preserved verbatim, so
    /// [`SubgraphIndex::restore`] reproduces the exact probe behavior,
    /// posting order included.
    pub fn dump(&self) -> IndexDump {
        let mut size_layers: Vec<(u32, LayerId)> =
            self.by_size.iter().map(|(&n, &l)| (n, l)).collect();
        size_layers.sort_unstable();
        IndexDump {
            tau: self.tau,
            window: self.window,
            size_layers,
            layers: self
                .layers
                .iter()
                .map(|layer| LayerDump {
                    buckets: layer
                        .buckets
                        .iter()
                        .map(|bucket| BucketDump {
                            postings: bucket.postings.iter().map(|p| (p.twig, p.handle)).collect(),
                            sorted_len: bucket.sorted_len,
                        })
                        .collect(),
                })
                .collect(),
            metas: self.metas.clone(),
            components: self
                .components
                .iter()
                .map(|c| ComponentDump {
                    start: c.start,
                    len: c.len,
                    incoming: c.incoming,
                })
                .collect(),
            arena: self.arena.clone(),
            registrations: self.registrations,
        }
    }

    /// Rebuilds an index from a [`SubgraphIndex::dump`] image, validating
    /// every cross-reference (layer ids, handles, component arena runs,
    /// sorted-prefix order, registration count) so corrupted snapshot
    /// data surfaces as an error instead of an out-of-bounds panic later.
    /// The interning chains are re-linked over the restored arena runs (no
    /// shape is copied), so the restored index accepts further
    /// [`SubgraphIndex::insert_tree`] calls.
    pub fn restore(dump: IndexDump) -> Result<SubgraphIndex, String> {
        let IndexDump {
            tau,
            window,
            size_layers,
            layers,
            metas,
            components,
            arena,
            registrations,
        } = dump;
        if size_layers.len() != layers.len() {
            return Err(format!(
                "{} size classes but {} layers",
                size_layers.len(),
                layers.len()
            ));
        }
        let mut by_size = FxHashMap::default();
        let mut layer_seen = vec![false; layers.len()];
        for &(size, layer) in &size_layers {
            let slot = layer_seen
                .get_mut(layer as usize)
                .ok_or_else(|| format!("size {size} maps to out-of-range layer {layer}"))?;
            if *slot {
                return Err(format!("layer {layer} referenced by two size classes"));
            }
            *slot = true;
            if by_size.insert(size, layer).is_some() {
                return Err(format!("size class {size} appears twice"));
            }
        }
        // Runs must tile the arena in id order, as insertion lays them.
        let mut next = 0usize;
        for (id, c) in components.iter().enumerate() {
            let end = next
                .checked_add(c.len as usize)
                .filter(|&end| end <= arena.len() && c.len > 0 && c.start as usize == next);
            let Some(end) = end else {
                return Err(format!(
                    "component {id} spans arena [{}, {}+{}) of {}, after {next}",
                    c.start,
                    c.start,
                    c.len,
                    arena.len()
                ));
            };
            next = end;
            if c.incoming > 2 {
                return Err(format!("component {id} has incoming tag {}", c.incoming));
            }
        }
        for (handle, meta) in metas.iter().enumerate() {
            if meta.component as usize >= components.len() {
                return Err(format!(
                    "handle {handle} references component {} of {}",
                    meta.component,
                    components.len()
                ));
            }
        }
        let mut total_postings = 0u64;
        for (layer_id, layer) in layers.iter().enumerate() {
            for (pos, bucket) in layer.buckets.iter().enumerate() {
                if bucket.sorted_len as usize > bucket.postings.len() {
                    return Err(format!(
                        "layer {layer_id} bucket {pos}: sorted prefix {} exceeds {} postings",
                        bucket.sorted_len,
                        bucket.postings.len()
                    ));
                }
                let prefix = &bucket.postings[..bucket.sorted_len as usize];
                if prefix.windows(2).any(|w| w[0].0 > w[1].0) {
                    return Err(format!(
                        "layer {layer_id} bucket {pos}: sorted prefix out of twig order"
                    ));
                }
                let stray = bucket
                    .postings
                    .iter()
                    .find(|&&(_, h)| h as usize >= metas.len());
                if let Some(&(_, handle)) = stray {
                    return Err(format!(
                        "layer {layer_id} bucket {pos}: posting handle {handle} of {}",
                        metas.len()
                    ));
                }
                total_postings += bucket.postings.len() as u64;
            }
        }
        // Validated: every image converts where it lies. The element
        // types have the same size and alignment, so std's in-place
        // `collect` reuses each source allocation — an optimization, not
        // a guarantee; `restore_converts_the_dump_in_place` pins it.
        let bucket = |b: BucketDump| {
            let postings = b.postings.into_iter();
            let postings = postings.map(|(twig, handle)| Posting { twig, handle });
            Bucket {
                postings: postings.collect(),
                sorted_len: b.sorted_len,
            }
        };
        let layer = |l: LayerDump| PostorderLayer::new(l.buckets.into_iter().map(bucket).collect());
        let restored_layers: Vec<PostorderLayer> = layers.into_iter().map(layer).collect();
        if total_postings != registrations {
            return Err(format!(
                "registration count {registrations} disagrees with {total_postings} stored postings"
            ));
        }
        let restored_components: Vec<Component> = components
            .iter()
            .map(|c| Component {
                start: c.start,
                len: c.len,
                incoming: c.incoming,
                next: GONE,
            })
            .collect();
        let mut index = SubgraphIndex {
            tau,
            window,
            by_size,
            layers: restored_layers,
            metas,
            components: restored_components,
            arena,
            interned: FxHashMap::default(),
            registrations,
        };
        index.relink();
        Ok(index)
    }

    /// Whether every layer's root-signature column has one entry per
    /// bucket, each exactly the fold of the postings that bucket stores
    /// (diagnostics and tests: a missing bit would lose candidates, a
    /// stale one only costs the probes it lets in).
    pub fn signatures_exact(&self) -> bool {
        self.layers.iter().all(|l| {
            let mut exact = l.buckets.iter().zip(&l.roots);
            l.roots.len() == l.buckets.len() && exact.all(|(b, &r)| r == signature(&b.postings))
        })
    }

    /// Position key a subgraph is centered on (diagnostics and tests).
    pub fn position_of(&self, sg: &Subgraph) -> u32 {
        self.subgraph_position(sg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{max_min_size, select_cuts};
    use crate::subgraph::build_subgraphs;
    use tsj_tree::{parse_bracket, BinaryTree, LabelInterner};

    fn subgraphs_of(
        input: &str,
        tau: u32,
    ) -> (tsj_tree::Tree, BinaryTree, Partition, LabelInterner) {
        let mut labels = LabelInterner::new();
        let tree = parse_bracket(input, &mut labels).unwrap();
        let binary = BinaryTree::from_tree(&tree);
        let delta = 2 * tau as usize + 1;
        let gamma = max_min_size(&binary, delta);
        let cuts = select_cuts(&binary, delta, gamma);
        let sgs = build_subgraphs(&binary, binary.general_post(), &cuts, 0);
        (tree, binary, sgs, labels)
    }

    #[test]
    fn window_half_widths() {
        let index = SubgraphIndex::new(2, WindowPolicy::Tight);
        // ∆′ = τ − ⌊k/2⌋ with τ = 2: k=1 → 2, k=2 → 1, k=3 → 1, k=4 → 0, k=5 → 0.
        assert_eq!(index.window_half_width(1), 2);
        assert_eq!(index.window_half_width(2), 1);
        assert_eq!(index.window_half_width(3), 1);
        assert_eq!(index.window_half_width(4), 0);
        assert_eq!(index.window_half_width(5), 0);
        let safe = SubgraphIndex::new(2, WindowPolicy::Safe);
        for k in 1..=5 {
            assert_eq!(safe.window_half_width(k), 2);
        }
    }

    #[test]
    fn twig_keys_dedup() {
        let (l, a, b) = (Label::from_raw(1), Label::from_raw(2), Label::from_raw(3));
        let e = Label::EPSILON;
        assert_eq!(TwigKeys::new(l, a, b).as_slice().len(), 4);
        assert_eq!(
            TwigKeys::new(l, a, e).as_slice(),
            &[pack_twig(l, a, e), pack_twig(l, e, e)]
        );
        assert_eq!(
            TwigKeys::new(l, e, b).as_slice(),
            &[pack_twig(l, e, b), pack_twig(l, e, e)]
        );
        assert_eq!(TwigKeys::new(l, e, e).as_slice(), &[pack_twig(l, e, e)]);
    }

    #[test]
    fn root_signature_separates_labels_32_and_64_apart() {
        let twig = |l| pack_twig(Label::from_raw(l), Label::EPSILON, Label::EPSILON);
        for (a, b) in [(1, 33), (1, 65), (1, 97), (33, 65), (40, 104)] {
            assert_eq!(root_bit(twig(a)) & root_bit(twig(b)), 0, "{a} and {b}");
        }
        assert_eq!(root_bit(twig(1)), root_bit(twig(129)), "128 apart share");
        // A bucket holding root 1 alone is closed to probes rooted at 33
        // and 65 by its column entry, and open to root 1.
        let mut layer = PostorderLayer::default();
        layer.register(0, 0, twig(1), 0);
        let keys = |l| TwigKeys::new(Label::from_raw(l), Label::EPSILON, Label::EPSILON);
        assert_eq!(layer.roots[0] & keys(33).root_bit, 0);
        assert_eq!(layer.roots[0] & keys(65).root_bit, 0);
        assert_ne!(layer.roots[0] & keys(1).root_bit, 0);
    }

    #[test]
    fn insert_and_probe_own_tree() {
        let tau = 1;
        let (tree, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let general_post = tree.postorder_numbers();
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Tight);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs.clone());
        assert_eq!(index.len(), 3);

        // Probing each subgraph root with its own twig must surface it.
        for sg in sgs.iter() {
            let root = sg.root;
            let left = binary
                .left(root)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let right = binary
                .right(root)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let position = index.probe_position(general_post[root.index()], n);
            let mut found = false;
            index.probe(n, position, binary.label(root), left, right, |h| {
                if index.subgraph_meta(h).ordinal == sg.ordinal {
                    found = true;
                }
            });
            assert!(found, "subgraph {} not found by self-probe", sg.ordinal);
        }
    }

    #[test]
    fn fast_path_agrees_with_probe_wrapper() {
        let tau = 2;
        let (tree, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let general_post = tree.postorder_numbers();
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs);
        let layer = index.layer(index.layer_id(n).unwrap());
        for node in binary.node_ids() {
            let label = binary.label(node);
            let left = binary
                .left(node)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let right = binary
                .right(node)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let position = index.probe_position(general_post[node.index()], n);
            let mut wrapper = Vec::new();
            index.probe(n, position, label, left, right, |h| wrapper.push(h));
            let mut fast = Vec::new();
            let keys = TwigKeys::new(label, left, right);
            layer.probe(position, &keys, |h| fast.push(h));
            wrapper.sort_unstable();
            fast.sort_unstable();
            assert_eq!(wrapper, fast);
        }
    }

    #[test]
    fn matches_at_agrees_with_subgraph_matches() {
        use crate::subgraph::subgraph_matches;
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        index.insert_tree(binary.len() as u32, sgs.clone());
        let mut cache = MatchCache::new();
        for node in binary.node_ids() {
            cache.begin_node();
            for (h, sg) in sgs.iter().enumerate() {
                assert_eq!(
                    index.matches_at(
                        h as SubgraphHandle,
                        &binary,
                        node,
                        MatchSemantics::Exact,
                        &mut cache
                    ),
                    subgraph_matches(&sg, &binary, node),
                    "handle {h} at node {node}"
                );
            }
        }
    }

    #[test]
    fn interning_shares_components_across_trees() {
        // Inserting the same tree's subgraphs twice (as two container
        // trees) must not grow the distinct component table.
        let tau = 1;
        let (tree, binary, _, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let delta = 2 * tau as usize + 1;
        let gamma = max_min_size(&binary, delta);
        let cuts = select_cuts(&binary, delta, gamma);
        let posts = tree.postorder_numbers();
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        index.insert_tree(
            binary.len() as u32,
            build_subgraphs(&binary, &posts, &cuts, 0),
        );
        let (pool, distinct) = (index.len(), index.distinct_components());
        index.insert_tree(
            binary.len() as u32,
            build_subgraphs(&binary, &posts, &cuts, 1),
        );
        assert_eq!(index.len(), 2 * pool);
        assert_eq!(index.distinct_components(), distinct);
        // A memoized verdict must agree with a fresh one.
        let mut cache = MatchCache::new();
        cache.begin_node();
        let node = binary.root();
        for h in 0..index.len() as u32 {
            let first = index.matches_at(h, &binary, node, MatchSemantics::Exact, &mut cache);
            let again = index.matches_at(h, &binary, node, MatchSemantics::Exact, &mut cache);
            assert_eq!(first, again);
        }
    }

    #[test]
    fn shapes_are_interned_by_slice_and_stored_once() {
        use crate::config::PartitionScheme;
        use crate::subgraph::partition_tree;
        // One renamed leaf: of the δ = 3 subgraphs, the two it is not in
        // are the same shapes in both trees.
        let mut labels = LabelInterner::new();
        let mut partition = |input: &str, id| {
            let tree = parse_bracket(input, &mut labels).unwrap();
            let binary = BinaryTree::from_tree(&tree);
            let posts = binary.general_post();
            partition_tree(&binary, posts, 1, PartitionScheme::MaxMin, id).expect("10 ≥ δ")
        };
        let a = partition("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", 0);
        let b = partition("{a{b{c}{d}}{e{f}{g}}{h{i}{z}}}", 1);
        let differ = |k: &usize| a.get(*k).nodes != b.get(*k).nodes;
        let changed: Vec<usize> = (0..3).filter(differ).collect();
        assert_eq!(changed.len(), 1);

        let mut index = SubgraphIndex::new(1, WindowPolicy::Safe);
        index.insert_tree(10, &a);
        index.insert_tree(10, &b);
        assert_eq!((index.len(), index.distinct_components()), (6, 4));
        // One id and one arena run per shared shape: the arena grew by
        // the renamed component alone.
        for k in 0..3 {
            let (first, second) = (index.metas[k].component, index.metas[k + 3].component);
            assert_eq!(first != second, changed.contains(&k), "subgraph {k}");
        }
        assert_eq!(index.arena.len(), 10 + a.get(changed[0]).nodes.len());

        // Two shapes under one 64-bit hash are still two components, each
        // found again by its slice; the incoming side is part of the shape.
        let (x, y) = (a.get(0).nodes, a.get(1).nodes);
        let mut collided = SubgraphIndex::new(1, WindowPolicy::Safe);
        let ids = [
            collided.intern(7, 1, x),
            collided.intern(7, 1, y),
            collided.intern(7, 2, x),
        ];
        assert_eq!(ids, [0, 1, 2]);
        let again = [
            collided.intern(7, 1, x),
            collided.intern(7, 1, y),
            collided.intern(7, 2, x),
        ];
        assert_eq!(again, ids);
        assert_eq!(collided.interned.len(), 1, "one chain");
        assert_eq!(collided.arena.len(), 2 * x.len() + y.len());

        // A restored index re-links its runs: a known shape is found, not
        // stored again.
        let mut restored = SubgraphIndex::restore(index.dump()).unwrap();
        restored.insert_tree(10, &b);
        assert_eq!((restored.len(), restored.distinct_components()), (9, 4));
        assert_eq!(restored.arena.len(), index.arena.len());
    }

    #[test]
    fn probe_wrong_size_is_empty() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Tight);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs);
        assert!(index.layer_id(n + 5).is_none());
        let mut count = 0;
        index.probe(
            n + 5,
            0,
            Label::from_raw(1),
            Label::EPSILON,
            Label::EPSILON,
            |_| count += 1,
        );
        assert_eq!(count, 0);
    }

    #[test]
    fn probe_past_bucket_range_is_empty() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs);
        let layer = index.layer(index.layer_id(n).unwrap());
        let mut count = 0;
        // A position far beyond any registered key indexes past the bucket
        // vector; must be silently empty, not panic.
        layer.probe(
            10_000,
            &TwigKeys::new(Label::from_raw(1), Label::EPSILON, Label::EPSILON),
            |_| count += 1,
        );
        assert_eq!(count, 0);
    }

    /// `restore` turns the decoded postings and buckets into the index's
    /// own in their allocations: a toolchain whose `collect` stopped
    /// reusing them would copy every bucket once more on each restore —
    /// still correct, but the snapshot-sized churn a node's resident peak
    /// is sensitive to would be back. The layer vector itself (one entry
    /// per size class) is not pinned: a layer carries its root-signature
    /// column beside the buckets, so it is larger than its image.
    #[test]
    fn restore_converts_the_dump_in_place() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        index.insert_tree(binary.len() as u32, sgs);
        let dump = index.dump();
        let addr = |p: *const u8| p as usize;
        let image = |layers: &[LayerDump]| {
            let buckets = layers.iter().flat_map(|l| &l.buckets);
            let postings = buckets.map(|b| addr(b.postings.as_ptr().cast()));
            let buckets = layers.iter().map(|l| addr(l.buckets.as_ptr().cast()));
            (buckets.collect::<Vec<_>>(), postings.collect::<Vec<_>>())
        };
        let before = image(&dump.layers);
        assert!(dump
            .layers
            .iter()
            .flat_map(|l| &l.buckets)
            .any(|b| !b.postings.is_empty()));

        let restored = SubgraphIndex::restore(dump).unwrap();
        let layers = &restored.layers;
        let buckets = layers.iter().map(|l| addr(l.buckets.as_ptr().cast()));
        let postings = layers.iter().flat_map(|l| &l.buckets);
        let postings = postings.map(|b| addr(b.postings.as_ptr().cast()));
        let after = (buckets.collect::<Vec<_>>(), postings.collect::<Vec<_>>());
        assert_eq!(after, before);
    }

    #[test]
    fn registrations_count_window_entries() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        // k=1: ∆′=1 → 3 entries; k=2: ∆′=0 → 1; k=3: ∆′=0 → 1. Total 5.
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Tight);
        index.insert_tree(binary.len() as u32, sgs.clone());
        assert_eq!(index.registrations(), 5);
        let layer = index.layer(index.layer_id(binary.len() as u32).unwrap());
        assert_eq!(layer.postings(), 5);

        let mut safe = SubgraphIndex::new(tau, WindowPolicy::Safe);
        safe.insert_tree(binary.len() as u32, sgs);
        // Safe: every subgraph gets 2τ+1 = 3 entries (minus clamping at 0).
        assert!(safe.registrations() >= 7, "{}", safe.registrations());
    }

    #[test]
    fn twig_key_dedup_probes_each_group_once() {
        // A probe with ε children must not visit the same group twice.
        let tau = 0;
        let (_, binary, sgs, _) = subgraphs_of("{a}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Tight);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs);
        let mut visits = 0;
        let root_label = binary.label(binary.root());
        index.probe(n, 0, root_label, Label::EPSILON, Label::EPSILON, |_| {
            visits += 1
        });
        assert_eq!(visits, 1);
    }

    #[test]
    fn large_buckets_binary_search_path() {
        // Push one bucket past LINEAR_SCAN_MAX and check both lookup paths
        // surface the same postings.
        let tau = 0;
        let (_, binary, sgs, _) = subgraphs_of("{a{b}{c}}", tau);
        let n = binary.len() as u32;
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        let copies = LINEAR_SCAN_MAX + TAIL_MAX + 16;
        for _ in 0..copies {
            index.insert_tree(n, sgs.clone());
        }
        let layer = index.layer(index.layer_id(n).unwrap());
        let position = index.position_of(&sgs.get(0));
        let bucket = &layer.buckets[position as usize];
        assert!(
            bucket.sorted_len as usize > LINEAR_SCAN_MAX,
            "sorted prefix {} must exceed the linear-scan cutoff",
            bucket.sorted_len
        );
        assert!(
            bucket.postings.len() > bucket.sorted_len as usize,
            "an unsorted tail must be present to exercise the tail scan"
        );
        let root = binary.root();
        let left = binary
            .left(root)
            .map_or(Label::EPSILON, |c| binary.label(c));
        let right = binary
            .right(root)
            .map_or(Label::EPSILON, |c| binary.label(c));
        let keys = TwigKeys::new(binary.label(root), left, right);
        let mut hits = 0;
        layer.probe(position, &keys, |_| hits += 1);
        assert_eq!(hits, copies);
    }

    #[test]
    fn dump_restore_round_trips_bit_identically() {
        let tau = 1;
        let (tree, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs.clone());
        // A second size class plus enough duplicates to build a sorted
        // prefix and a tail in at least one bucket.
        for _ in 0..(TAIL_MAX + 8) {
            index.insert_tree(n, sgs.clone());
        }
        let dump = index.dump();
        let restored = SubgraphIndex::restore(dump.clone()).expect("valid dump restores");
        assert_eq!(restored.dump(), dump, "dump→restore→dump is a fixpoint");
        assert_eq!(restored.len(), index.len());
        assert_eq!(restored.registrations(), index.registrations());
        assert_eq!(restored.distinct_components(), index.distinct_components());
        // Every probe surfaces the same handles in the same order.
        let posts = tree.postorder_numbers();
        let layer_a = index.layer(index.layer_id(n).unwrap());
        let layer_b = restored.layer(restored.layer_id(n).unwrap());
        for node in binary.node_ids() {
            let left = binary
                .left(node)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let right = binary
                .right(node)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let keys = TwigKeys::new(binary.label(node), left, right);
            let position = index.probe_position(posts[node.index()], n);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            layer_a.probe(position, &keys, |h| a.push(h));
            layer_b.probe(position, &keys, |h| b.push(h));
            assert_eq!(a, b, "probe order must survive the round trip");
        }
        // The restored interning table still dedups further inserts.
        let mut grown = SubgraphIndex::restore(index.dump()).unwrap();
        let distinct = grown.distinct_components();
        grown.insert_tree(n, sgs);
        assert_eq!(grown.distinct_components(), distinct);
    }

    #[test]
    fn restore_rejects_corrupt_dumps() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        index.insert_tree(binary.len() as u32, sgs);
        let good = index.dump();
        assert!(SubgraphIndex::restore(good.clone()).is_ok());

        let mut bad = good.clone();
        bad.size_layers[0].1 = 99;
        assert!(SubgraphIndex::restore(bad).is_err(), "layer out of range");

        let mut bad = good.clone();
        bad.metas[0].component = 99;
        assert!(
            SubgraphIndex::restore(bad).is_err(),
            "component out of range"
        );

        let mut bad = good.clone();
        bad.components[0].len = bad.arena.len() as u32 + 1;
        assert!(SubgraphIndex::restore(bad).is_err(), "arena overrun");

        let mut bad = good.clone();
        bad.components.swap(0, 1);
        assert!(SubgraphIndex::restore(bad).is_err(), "runs out of order");

        let mut bad = good.clone();
        for layer in &mut bad.layers {
            for bucket in &mut layer.buckets {
                for posting in &mut bucket.postings {
                    posting.1 = 1_000;
                }
            }
        }
        assert!(SubgraphIndex::restore(bad).is_err(), "handle out of range");

        let mut bad = good.clone();
        bad.registrations += 1;
        assert!(
            SubgraphIndex::restore(bad).is_err(),
            "registration mismatch"
        );

        let mut bad = good;
        bad.layers.push(LayerDump {
            buckets: Vec::new(),
        });
        assert!(SubgraphIndex::restore(bad).is_err(), "orphan layer");
    }

    #[test]
    fn paper_absolute_uses_raw_postorder() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let index = SubgraphIndex::new(tau, WindowPolicy::PaperAbsolute);
        for sg in sgs.iter() {
            assert_eq!(index.position_of(&sg), sg.root_post);
        }
        assert_eq!(index.probe_position(7, binary.len() as u32), 7);
        let tight = SubgraphIndex::new(tau, WindowPolicy::Tight);
        for sg in sgs.iter() {
            assert_eq!(tight.position_of(&sg), sg.suffix);
        }
    }
}
