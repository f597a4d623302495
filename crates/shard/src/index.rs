//! The sharded dynamic subgraph index.
//!
//! [`ShardedIndex`] partitions subgraph postings across `N` shards by
//! the **container size class** through a pluggable [`ShardMap`]: every
//! size list `I_n` lives in exactly one shard, each shard owns an
//! independent [`partsj::SubgraphIndex`], and a probe window `[lo, hi]`
//! touches at most `min(hi − lo + 1, N)` shards. Shards therefore
//! build, probe and compact independently — the parallelism unit of a
//! batch build and the isolation unit of delete/evict. The default
//! map is a fixed multiplicative hash; batch builds can derive a
//! [`ShardMap::balanced`] assignment from the observed size histogram
//! instead (see [`ShardConfig::balanced_shards`]).
//!
//! ## Dynamics
//!
//! * Each shard's index also holds the side-listed trees (below
//!   `δ = 2τ + 1` nodes) of the size classes the shard owns, so one
//!   insert ([`ShardedIndex::insert`], [`ShardedIndex::insert_all`])
//!   takes the δ rule's outcome either way, and a probe admits a shard's
//!   side-listed trees of its window before the node walk.
//! * [`ShardedIndex::remove_tree`] clears the tree's **liveness flag** —
//!   probe sinks filter dead container trees in O(1) per surfaced handle
//!   — and unlists a side-listed tree at once, or tombstones the tree's
//!   postings in its shard: one registration count per stored tree is
//!   all a shard keeps beside its index.
//! * Each shard tracks its live/dead posting counts. Once the dead
//!   fraction exceeds [`ShardConfig::max_dead_fraction`] (and at least
//!   [`ShardConfig::min_dead_postings`] postings are dead, so tiny shards
//!   don't thrash), the shard **compacts**: one
//!   [`SubgraphIndex::retain_trees`] sweeps the dead trees out of its
//!   index in place. Amortized, a surviving posting is walked at most
//!   `1/max_dead_fraction` times per eviction epoch.

use partsj::probe::{for_each_probe_node, CandidateSink, ProbeCounters};
use partsj::{
    classes_within, is_side_listed, LayerId, MatchCache, Partition, SubgraphIndex, WindowPolicy,
};
use std::borrow::Borrow;
use tsj_obs::{Counter, Gauge};
use tsj_ted::TreeIdx;
use tsj_tree::{BinaryTree, FxHashMap};

/// Hoisted observability handles (global registry, sampled once at index
/// construction). Recording is a relaxed atomic op; with observability
/// disabled nothing is recorded at all.
#[derive(Debug)]
struct ObsCells {
    enabled: bool,
    inserts: Counter,
    removals: Counter,
    compactions: Counter,
    live_trees: Gauge,
    live_postings: Gauge,
}

impl ObsCells {
    fn new() -> ObsCells {
        let obs = tsj_obs::global();
        ObsCells {
            enabled: obs.is_enabled(),
            inserts: obs.counter("tsj_shard_trees_inserted_total"),
            removals: obs.counter("tsj_shard_trees_removed_total"),
            compactions: obs.counter("tsj_shard_compactions_total"),
            live_trees: obs.gauge("tsj_shard_live_trees"),
            live_postings: obs.gauge("tsj_shard_live_postings"),
        }
    }
}

/// Configuration of the shard layer (the join-level knobs — window,
/// partitioning, matching — stay in [`partsj::PartSjConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of shards (≥ 1). More shards mean more build parallelism
    /// and smaller compaction units; probe cost is unchanged
    /// (each size class still lives in exactly one shard).
    pub shards: usize,
    /// Probe threads of a frozen side's R×S join
    /// ([`crate::sharded_rs_join`], `tsj-catalog`'s `Catalog::join`), and
    /// the workers that partition and ingest a [`crate::Frozen::build`];
    /// `0` sizes them from `std::thread::available_parallelism`.
    pub probe_threads: usize,
    /// Verifier threads of a frozen side's R×S join; `0` = auto.
    pub verify_threads: usize,
    /// A shard compacts once `dead / (dead + live)` postings exceed this
    /// fraction.
    pub max_dead_fraction: f64,
    /// …and at least this many postings are dead (hysteresis so small
    /// shards don't sweep on every removal).
    pub min_dead_postings: u64,
    /// Route size classes with a [`ShardMap::balanced`] map derived from
    /// the size histogram a batch build observes (a frozen side's build
    /// and so the catalog freeze, via [`ShardedIndex::build_static`])
    /// instead of the fixed hash. Results are bit-identical either way;
    /// the load-evening win needs more than one core to show and is
    /// unverified on the single-CPU benchmark host. The streaming index
    /// keeps the hash map — it never sees the histogram up front.
    pub balanced_shards: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 4,
            probe_threads: 0,
            verify_threads: 0,
            max_dead_fraction: 0.25,
            min_dead_postings: 256,
            balanced_shards: false,
        }
    }
}

impl ShardConfig {
    /// Default configuration with an explicit shard count.
    pub fn with_shards(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            ..Default::default()
        }
    }

    /// Resolved probe-worker count (`0` → machine parallelism).
    pub fn resolved_probe_threads(&self) -> usize {
        resolve_threads(self.probe_threads)
    }

    /// Resolved verifier count (`0` → machine parallelism).
    pub fn resolved_verify_threads(&self) -> usize {
        resolve_threads(self.verify_threads)
    }
}

fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// The fixed multiplicative hash: the [`ShardMap::Hash`] routing and the
/// fallback for size classes a balanced map never observed.
#[inline]
fn hash_shard(size: u32, shards: usize) -> usize {
    let h = (u64::from(size).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 32;
    (h % shards.max(1) as u64) as usize
}

/// How container size classes are routed to shards.
///
/// Routing decides *where* a size class's postings live, never *whether*
/// they exist, so any valid map yields bit-identical join results — the
/// choice only moves per-shard load around. The default [`Hash`] spreads
/// adjacent size classes with a fixed multiplicative hash; under a
/// skewed size distribution that can pile the heavy classes onto few
/// shards, which [`Balanced`] corrects by bin-packing the *observed*
/// posting masses (enabled via [`ShardConfig::balanced_shards`]).
///
/// The map is part of a frozen catalog's identity: snapshots carry it in
/// an explicit, checksummed section, and loading validates every shard's
/// size classes against it.
///
/// [`Hash`]: ShardMap::Hash
/// [`Balanced`]: ShardMap::Balanced
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ShardMap {
    /// Fixed multiplicative hash of the size class (the static default).
    #[default]
    Hash,
    /// Explicit `size class → shard` assignments, sorted by size class.
    /// Sizes absent from the list (never observed when the map was
    /// derived) fall back to the hash — both insert and probe consult
    /// the same map, so routing stays consistent.
    Balanced(Vec<(u32, u32)>),
}

impl ShardMap {
    /// Derives a balanced map from an observed `(size class, posting
    /// mass)` histogram by greedy bin-packing: classes are placed
    /// heaviest-first onto the currently least-loaded shard (ties break
    /// toward the smaller size class and the lower shard id, keeping the
    /// derivation fully deterministic). Duplicate size entries are
    /// aggregated first.
    pub fn balanced(histogram: &[(u32, u64)], shards: usize) -> ShardMap {
        let shards = shards.max(1);
        let mut classes: Vec<(u32, u64)> = histogram.to_vec();
        classes.sort_unstable_by_key(|&(size, _)| size);
        classes.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        // Heaviest first; among equals, smaller size class first.
        classes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut load = vec![0u64; shards];
        let mut assignment: Vec<(u32, u32)> = Vec::with_capacity(classes.len());
        for (size, mass) in classes {
            let target = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .expect("at least one shard");
            // Even zero-mass classes count one unit, so they spread
            // instead of all landing on shard 0.
            load[target] += mass.max(1);
            assignment.push((size, target as u32));
        }
        assignment.sort_unstable_by_key(|&(size, _)| size);
        ShardMap::Balanced(assignment)
    }

    /// The shard owning `size` under this map, for a `shards`-shard
    /// index.
    #[inline]
    pub fn shard_of(&self, size: u32, shards: usize) -> usize {
        match self {
            ShardMap::Hash => hash_shard(size, shards),
            ShardMap::Balanced(pairs) => match pairs.binary_search_by_key(&size, |&(s, _)| s) {
                Ok(i) => pairs[i].1 as usize,
                Err(_) => hash_shard(size, shards),
            },
        }
    }

    /// Checks the map is usable with a `shards`-shard index: assignments
    /// sorted by strictly ascending size class, every target shard in
    /// range. A snapshot with an out-of-range or unsorted assignment
    /// fails here instead of panicking later.
    pub fn validate(&self, shards: usize) -> Result<(), String> {
        let ShardMap::Balanced(pairs) = self else {
            return Ok(());
        };
        for window in pairs.windows(2) {
            if window[0].0 >= window[1].0 {
                return Err(format!(
                    "shard map entries out of order: size {} then {}",
                    window[0].0, window[1].0
                ));
            }
        }
        for &(size, shard) in pairs {
            if shard as usize >= shards {
                return Err(format!(
                    "shard map routes size class {size} to shard {shard}, but only {shards} shards exist"
                ));
            }
        }
        Ok(())
    }
}

/// Derives a [`ShardMap::balanced`] assignment from build items — the
/// `(tree, size, subgraphs)` triples headed for
/// [`ShardedIndex::insert_all`] — using each size class's subgraph
/// count as its posting-mass proxy (bucket registrations are not known
/// until insertion and track subgraph counts closely). Side-listed trees
/// carry no postings and are not observed. This is the histogram
/// [`ShardedIndex::build_static`] observes when
/// [`ShardConfig::balanced_shards`] is on.
fn balanced_map_for(items: &[(TreeIdx, u32, Option<Partition>)], shards: usize) -> ShardMap {
    let mut hist: FxHashMap<u32, u64> = FxHashMap::default();
    for (_, size, subgraphs) in items {
        if let Some(subgraphs) = subgraphs {
            *hist.entry(*size).or_insert(0) += subgraphs.len() as u64;
        }
    }
    let mut hist: Vec<(u32, u64)> = hist.into_iter().collect();
    hist.sort_unstable();
    ShardMap::balanced(&hist, shards)
}

/// One shard: a private [`SubgraphIndex`] (side list included) plus its
/// tombstone accounting.
#[derive(Debug)]
struct Shard {
    index: SubgraphIndex,
    /// Bucket registrations of each live tree inserted here. A restored
    /// index arrives without them, so its trees are never tombstoned.
    regs_of: FxHashMap<TreeIdx, u64>,
    /// Postings of tombstoned trees the index still stores.
    dead_postings: u64,
}

impl Shard {
    fn new(tau: u32, window: WindowPolicy) -> Shard {
        Shard {
            index: SubgraphIndex::new(tau, window),
            regs_of: FxHashMap::default(),
            dead_postings: 0,
        }
    }

    fn live_postings(&self) -> u64 {
        self.index.registrations() - self.dead_postings
    }

    /// Registers `tree`'s subgraphs, or side-lists it (`None`).
    fn insert(&mut self, tree: TreeIdx, size: u32, subgraphs: Option<&Partition>) {
        let Some(subgraphs) = subgraphs else {
            self.index.list_small(size, tree);
            return;
        };
        let before = self.index.registrations();
        self.index.insert_tree(size, subgraphs);
        self.regs_of
            .insert(tree, self.index.registrations() - before);
    }

    /// Tombstones `tree`'s postings; returns whether the shard counted it.
    fn tombstone(&mut self, tree: TreeIdx) -> bool {
        let regs = self.regs_of.remove(&tree);
        self.dead_postings += regs.unwrap_or(0);
        regs.is_some()
    }

    fn should_compact(&self, max_dead_fraction: f64, min_dead_postings: u64) -> bool {
        self.dead_postings >= min_dead_postings.max(1)
            && (self.dead_postings as f64) > max_dead_fraction * self.index.registrations() as f64
    }

    /// Sweeps every tree that `alive` no longer lists out of the shard's
    /// index, in place, dropping every tombstone.
    fn compact(&mut self, alive: &[bool]) {
        self.index.retain_trees(|tree| alive[tree as usize]);
        self.dead_postings = 0;
    }
}

/// A dynamic subgraph index partitioned across shards by container size
/// class. See the [module docs](crate::index) for the design.
#[derive(Debug)]
pub struct ShardedIndex {
    tau: u32,
    window: WindowPolicy,
    max_dead_fraction: f64,
    min_dead_postings: u64,
    /// Size-class→shard routing (hash by default; a balanced map must be
    /// installed before the first insertion).
    map: ShardMap,
    shards: Vec<Shard>,
    /// Liveness flags (a byte a tree) over all tracked tree ids (small
    /// trees included).
    alive: Vec<bool>,
    /// Size of each tracked tree (`u32::MAX` = never tracked).
    sizes: Vec<u32>,
    live_trees: usize,
    removed_trees: u64,
    compactions: u64,
    obs: ObsCells,
}

impl ShardedIndex {
    /// Creates an empty sharded index for threshold `tau` under `window`.
    pub fn new(tau: u32, window: WindowPolicy, config: &ShardConfig) -> ShardedIndex {
        let shards = config.shards.max(1);
        ShardedIndex {
            tau,
            window,
            max_dead_fraction: config.max_dead_fraction,
            min_dead_postings: config.min_dead_postings,
            map: ShardMap::Hash,
            shards: (0..shards).map(|_| Shard::new(tau, window)).collect(),
            alive: Vec::new(),
            sizes: Vec::new(),
            live_trees: 0,
            removed_trees: 0,
            compactions: 0,
            obs: ObsCells::new(),
        }
    }

    /// The build-once index of the batch joins and the catalog freeze:
    /// a fresh index bulk-loaded with `items` (`(tree, size,
    /// subgraphs)`, `None` for a side-listed tree; over scoped threads
    /// when `parallel`).
    /// With [`ShardConfig::balanced_shards`] the routing is derived from
    /// the items' size histogram before any posting lands; it moves
    /// postings between shards, never changes which exist, so results
    /// stay bit-identical to the hash map, and it travels with a
    /// snapshot (`tsj-catalog` round-trips it).
    pub fn build_static(
        tau: u32,
        window: WindowPolicy,
        config: &ShardConfig,
        items: Vec<(TreeIdx, u32, Option<Partition>)>,
        parallel: bool,
    ) -> ShardedIndex {
        let mut index = ShardedIndex::new(tau, window, config);
        if config.balanced_shards {
            index.map = balanced_map_for(&items, index.shard_count());
        }
        index.insert_all(items, parallel);
        index
    }

    /// Reassembles a sharded index from per-shard [`SubgraphIndex`]es
    /// restored out of a snapshot (`tsj-catalog`, which side-lists their
    /// small trees), plus the `(tree id, size)` pairs of every tracked
    /// tree — all of which are alive: a freeze compacts liveness away, so
    /// a frozen snapshot has no dead entries to restore.
    ///
    /// The result probes bit-identically to the index the shards were
    /// dumped from. A snapshot carries no per-tree registration counts,
    /// so [`ShardedIndex::remove_tree`] on it is liveness-only: the tree
    /// stops surfacing, its postings stay. Validates that every shard
    /// matches `(tau, window)`, that each shard only holds size classes
    /// it owns under `map`, and that every posting's container tree is
    /// tracked with a size class of that shard — a shard-section mix-up,
    /// a snapshot whose shard-map section disagrees with its shard
    /// sections, a tree store short of a referenced tree, or a posting
    /// naming a tree of another shard's class surfaces here as an error,
    /// not as silently empty probe results or an out-of-bounds lookup in
    /// a later probe.
    pub fn from_frozen_parts(
        tau: u32,
        window: WindowPolicy,
        map: ShardMap,
        shard_indexes: Vec<SubgraphIndex>,
        tracked: impl IntoIterator<Item = (TreeIdx, u32)>,
    ) -> Result<ShardedIndex, String> {
        if shard_indexes.is_empty() {
            return Err("a sharded index needs at least one shard".into());
        }
        let mut index = ShardedIndex::new(
            tau,
            window,
            &ShardConfig {
                shards: shard_indexes.len(),
                ..Default::default()
            },
        );
        index.set_shard_map(map)?;
        for (s, shard_index) in shard_indexes.into_iter().enumerate() {
            if shard_index.tau() != tau || shard_index.window() != window {
                return Err(format!(
                    "shard {s} was frozen for (tau {}, {:?}), expected (tau {tau}, {window:?})",
                    shard_index.tau(),
                    shard_index.window()
                ));
            }
            for size in shard_index.size_classes() {
                let owner = index.shard_of_size(size);
                if owner != s {
                    return Err(format!(
                        "shard {s} holds size class {size}, which shard {owner} owns"
                    ));
                }
            }
            index.shards[s].index = shard_index;
        }
        for (tree, size) in tracked {
            let idx = tree as usize;
            if index.alive.get(idx).copied().unwrap_or(false) {
                return Err(format!("tree {tree} tracked twice"));
            }
            index.track(tree, size);
        }
        for (s, shard) in index.shards.iter().enumerate() {
            for tree in (0..shard.index.len() as u32).map(|h| shard.index.tree_of(h)) {
                let Some(size) = index.size_of(tree) else {
                    return Err(format!(
                        "shard {s} references tree {tree}, which the tree store lacks"
                    ));
                };
                let owner = index.shard_of_size(size);
                if owner != s {
                    return Err(format!(
                        "shard {s} references tree {tree} of size class {size}, which shard {owner} owns"
                    ));
                }
            }
        }
        Ok(index)
    }

    /// Installs a size-class→shard routing map. Must happen before the
    /// first insertion — rerouting a populated index would strand
    /// postings in shards the probes no longer visit.
    pub fn set_shard_map(&mut self, map: ShardMap) -> Result<(), String> {
        if self.live_trees != 0 || self.live_postings() != 0 {
            return Err("install the shard map before inserting".into());
        }
        map.validate(self.shards.len())?;
        self.map = map;
        Ok(())
    }

    /// The active size-class→shard routing map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard owning size class `size` under the active [`ShardMap`]
    /// (by default a multiplicative hash, so adjacent size classes spread
    /// across shards — a probe window `[|T| − τ, |T| + τ]` is a run of
    /// adjacent sizes).
    #[inline]
    pub fn shard_of_size(&self, size: u32) -> usize {
        self.map.shard_of(size, self.shards.len())
    }

    /// Heap bytes held: every shard's [`SubgraphIndex`] and registration
    /// table, and the per-tree liveness and size columns.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let shard = |s: &Shard| {
            s.index.heap_bytes() + tsj_tree::table_bytes::<TreeIdx, u64>(s.regs_of.capacity())
        };
        self.shards.capacity() * size_of::<Shard>()
            + self.shards.iter().map(shard).sum::<usize>()
            + self.alive.capacity() * size_of::<bool>()
            + self.sizes.capacity() * size_of::<u32>()
    }

    /// Live postings per shard — the load-imbalance diagnostic the
    /// balanced map is judged by (`max/mean` over this vector).
    pub fn shard_posting_loads(&self) -> Vec<u64> {
        self.shards.iter().map(Shard::live_postings).collect()
    }

    /// The deduplicated shard ids covering size window `[lo, hi]`, in
    /// ascending shard order (deterministic). At most `min(hi − lo + 1,
    /// shards)` entries — and the window is stepped through only until
    /// every shard is in the set, which a saturated one (2³² classes
    /// wide) reaches within a few classes per shard.
    pub fn shard_set(&self, lo: u32, hi: u32, out: &mut Vec<usize>) {
        out.clear();
        for n in lo..=hi {
            let shard = self.shard_of_size(n);
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == self.shards.len() {
                    break;
                }
            }
        }
        out.sort_unstable();
    }

    /// Registers `tree` (of `size` nodes) as tracked and alive *without*
    /// postings or a side-list entry — liveness only, for an owner that
    /// keeps its small trees' side list itself.
    pub fn track(&mut self, tree: TreeIdx, size: u32) {
        let idx = tree as usize;
        if self.alive.len() <= idx {
            self.alive.resize(idx + 1, false);
            self.sizes.resize(idx + 1, u32::MAX);
        }
        debug_assert!(!self.alive[idx], "tree {tree} tracked twice");
        self.alive[idx] = true;
        self.sizes[idx] = size;
        self.live_trees += 1;
        if self.obs.enabled {
            self.obs.inserts.inc();
            self.obs.live_trees.set(self.live_trees as i64);
        }
    }

    /// Inserts a tree by the δ rule's outcome: tracks it and, in the
    /// shard owning size class `size`, registers its subgraphs or, for
    /// `None`, side-lists it.
    pub fn insert(&mut self, tree: TreeIdx, size: u32, subgraphs: Option<&Partition>) {
        self.track(tree, size);
        let shard = self.shard_of_size(size);
        self.shards[shard].insert(tree, size, subgraphs);
        if self.obs.enabled {
            self.obs.live_postings.set(self.live_postings() as i64);
        }
    }

    /// Inserts a partitioned tree (an owned [`Partition`] or a borrowed
    /// one): [`ShardedIndex::insert`] with its subgraphs.
    pub fn insert_tree(&mut self, tree: TreeIdx, size: u32, subgraphs: impl Borrow<Partition>) {
        self.insert(tree, size, Some(subgraphs.borrow()));
    }

    /// Bulk-inserts `(tree, size, subgraphs)` triples
    /// ([`ShardedIndex::insert`] each), preserving the given order within
    /// every shard. With `parallel`, shards ingest concurrently over
    /// scoped threads (they own disjoint size classes, so no
    /// synchronization is needed); the resulting index is *identical* to
    /// sequential insertion either way.
    pub fn insert_all(&mut self, items: Vec<(TreeIdx, u32, Option<Partition>)>, parallel: bool) {
        let build_span = tsj_obs::span("shard.build", "shard");
        let mut per_shard: Vec<Vec<(TreeIdx, u32, Option<Partition>)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (tree, size, subgraphs) in items {
            self.track(tree, size);
            per_shard[self.shard_of_size(size)].push((tree, size, subgraphs));
        }
        if parallel && self.shards.len() > 1 {
            crossbeam::scope(|scope| {
                for (shard, items) in self.shards.iter_mut().zip(per_shard) {
                    if items.is_empty() {
                        continue;
                    }
                    scope.spawn(move |_| {
                        for (tree, size, subgraphs) in items {
                            shard.insert(tree, size, subgraphs.as_ref());
                        }
                    });
                }
            })
            .expect("shard build scope");
        } else {
            for (shard, items) in self.shards.iter_mut().zip(per_shard) {
                for (tree, size, subgraphs) in items {
                    shard.insert(tree, size, subgraphs.as_ref());
                }
            }
        }
        if self.obs.enabled {
            self.obs.live_postings.set(self.live_postings() as i64);
        }
        build_span.end();
    }

    /// Removes a tracked tree: clears its liveness flag (probes stop
    /// surfacing it immediately), unlists it at once if it is below `δ`
    /// nodes, or else tombstones its postings and compacts the owning
    /// shard if its dead fraction crossed the threshold. Returns `false`
    /// if the tree was unknown or already removed.
    pub fn remove_tree(&mut self, tree: TreeIdx) -> bool {
        let idx = tree as usize;
        if idx >= self.alive.len() || !self.alive[idx] {
            return false;
        }
        self.alive[idx] = false;
        self.live_trees -= 1;
        self.removed_trees += 1;
        let size = self.sizes[idx];
        let shard_id = self.shard_of_size(size);
        let shard = &mut self.shards[shard_id];
        if is_side_listed(size as usize, self.tau) {
            shard.index.unlist_small(size, tree);
        } else if shard.tombstone(tree)
            && shard.should_compact(self.max_dead_fraction, self.min_dead_postings)
        {
            shard.compact(&self.alive);
            self.compactions += 1;
            if self.obs.enabled {
                self.obs.compactions.inc();
            }
        }
        if self.obs.enabled {
            self.obs.removals.inc();
            self.obs.live_trees.set(self.live_trees as i64);
            self.obs.live_postings.set(self.live_postings() as i64);
        }
        true
    }

    /// Whether `tree` is tracked and not removed.
    #[inline]
    pub fn is_alive(&self, tree: TreeIdx) -> bool {
        self.alive.get(tree as usize).copied().unwrap_or(false)
    }

    /// The liveness flags, indexed by tree id — probe sinks capture this
    /// slice instead of borrowing the whole index.
    #[inline]
    pub fn alive_bitmap(&self) -> &[bool] {
        &self.alive
    }

    /// Size of a tracked tree (`None` if never tracked).
    pub fn size_of(&self, tree: TreeIdx) -> Option<u32> {
        match self.sizes.get(tree as usize) {
            Some(&s) if s != u32::MAX => Some(s),
            _ => None,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The private index of shard `s`, side list included (a snapshot
    /// dumps it; probe it through [`ShardedIndex::probe_shard`]).
    #[inline]
    pub fn shard_index(&self, s: usize) -> &SubgraphIndex {
        &self.shards[s].index
    }

    /// Currently alive tracked trees (side-listed small trees included).
    pub fn live_trees(&self) -> usize {
        self.live_trees
    }

    /// Trees removed over the index's lifetime.
    pub fn removed_trees(&self) -> u64 {
        self.removed_trees
    }

    /// Shard compactions performed over the index's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Live postings across all shards.
    pub fn live_postings(&self) -> u64 {
        self.shards.iter().map(Shard::live_postings).sum()
    }

    /// Tombstoned (not yet swept) postings across all shards.
    pub fn dead_postings(&self) -> u64 {
        self.shards.iter().map(|s| s.dead_postings).sum()
    }

    /// The configured threshold.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// The configured window policy.
    pub fn window(&self) -> WindowPolicy {
        self.window
    }

    /// Probes `binary` against every shard covering size window
    /// `[lo, hi]`, shard by shard in [`ShardedIndex::shard_set`] order:
    /// each shard's side-listed trees of the window first, then one walk
    /// of the tree for all of them — each node computes its twig and
    /// position keys once ([`for_each_probe_node`]) and probes the
    /// populated layers of every shard in turn. Each window class is
    /// resolved once per probe, in the one shard that owns it.
    /// Candidates and counters equal the union of
    /// [`ShardedIndex::probe_shard`] over the shard set (a tree lives in
    /// one shard, and in one layer or on its side list); only the
    /// discovery order interleaves across shards. Dead container trees
    /// never reach `sink`.
    ///
    /// `caches` must hold one [`MatchCache`] per shard (component ids are
    /// per-shard). `shard_scratch` is left holding the window's shard
    /// set; `layer_scratch` holds, shard by shard in that order, a count
    /// followed by that many of the shard's layer ids.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_tree<S: CandidateSink>(
        &self,
        binary: &BinaryTree,
        posts: &[u32],
        probe_size: u32,
        lo: u32,
        hi: u32,
        matching: partsj::MatchSemantics,
        caches: &mut [MatchCache],
        shard_scratch: &mut Vec<usize>,
        layer_scratch: &mut Vec<LayerId>,
        work: &mut ProbeCounters,
        sink: &mut S,
    ) {
        let (tree, runs) = ((binary, posts, probe_size), (shard_scratch, layer_scratch));
        self.probe_window(None, tree, (lo, hi), matching, caches, runs, work, sink);
    }

    /// [`ShardedIndex::probe_tree`] against shard `s` alone (`s` must be
    /// below [`ShardedIndex::shard_count`]): the shard's side-listed trees
    /// and populated layers of size window `[lo, hi]` — it only holds
    /// size classes it owns.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_shard<S: CandidateSink>(
        &self,
        s: usize,
        binary: &BinaryTree,
        posts: &[u32],
        probe_size: u32,
        lo: u32,
        hi: u32,
        matching: partsj::MatchSemantics,
        caches: &mut [MatchCache],
        shard_scratch: &mut Vec<usize>,
        layer_scratch: &mut Vec<LayerId>,
        work: &mut ProbeCounters,
        sink: &mut S,
    ) {
        let (tree, runs) = ((binary, posts, probe_size), (shard_scratch, layer_scratch));
        self.probe_window(Some(s), tree, (lo, hi), matching, caches, runs, work, sink);
    }

    /// The one probe body: [`ShardedIndex::probe_tree`] over the window's
    /// shard set, or over shard `only`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_window<S: CandidateSink>(
        &self,
        only: Option<usize>,
        (binary, posts, probe_size): (&BinaryTree, &[u32], u32),
        (lo, hi): (u32, u32),
        matching: partsj::MatchSemantics,
        caches: &mut [MatchCache],
        (shards, runs): (&mut Vec<usize>, &mut Vec<LayerId>),
        counters: &mut ProbeCounters,
        sink: &mut S,
    ) {
        match only {
            Some(s) => {
                shards.clear();
                shards.push(s);
            }
            None => self.shard_set(lo, hi, shards),
        }
        let mut live_sink = self.live(sink);
        runs.clear();
        for &s in shards.iter() {
            let index = &self.shards[s].index;
            index.side_list().scan(lo, hi, &mut live_sink);
            let at = runs.len();
            runs.push(0);
            let classes = classes_within(index.size_classes(), lo, hi);
            let owned = classes.filter(|&n| self.shard_of_size(n) == s);
            runs.extend(owned.filter_map(|n| index.layer_id(n)));
            runs[at] = (runs.len() - at - 1) as LayerId;
        }
        if runs.len() == shards.len() {
            return; // every run is empty
        }
        let (shards, runs) = (shards.as_slice(), runs.as_slice());
        for_each_probe_node(binary, posts, probe_size, self.window, |node| {
            let mut rest = runs;
            for &s in shards {
                let (&len, tail) = rest.split_first().expect("one run per shard");
                let (layers, tail) = tail.split_at(len as usize);
                rest = tail;
                if !layers.is_empty() {
                    let index = &self.shards[s].index;
                    node.probe(
                        index,
                        layers,
                        matching,
                        &mut caches[s],
                        counters,
                        &mut live_sink,
                    );
                }
            }
        });
    }

    /// `sink` behind the liveness rule: dead container trees never reach
    /// it.
    fn live<'a, S>(&'a self, sink: &'a mut S) -> Live<'a, S> {
        Live {
            alive: &self.alive,
            inner: sink,
        }
    }
}

/// Sink adapter: the liveness rule in front of another sink.
struct Live<'a, S> {
    alive: &'a [bool],
    inner: &'a mut S,
}

impl<S: CandidateSink> CandidateSink for Live<'_, S> {
    #[inline]
    fn admit(&mut self, tree: TreeIdx) -> bool {
        self.alive.get(tree as usize).copied().unwrap_or(false) && self.inner.admit(tree)
    }

    #[inline]
    fn accept(&mut self, tree: TreeIdx) {
        self.inner.accept(tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partsj::{partition_tree, window_of, Candidates, PartSjConfig};
    use tsj_tree::{parse_bracket, LabelInterner, Tree};

    fn subgraphs_for(tree: &Tree, tau: u32, id: TreeIdx) -> (u32, Partition) {
        let binary = BinaryTree::from_tree(tree);
        let scheme = PartSjConfig::default().partitioning;
        let sgs = partition_tree(&binary, &tree.postorder_numbers(), tau, scheme, id);
        (tree.len() as u32, sgs.expect("test trees have ≥ δ nodes"))
    }

    fn probe_live(index: &ShardedIndex, tree: &Tree, tau: u32, tracked: usize) -> Vec<TreeIdx> {
        let binary = BinaryTree::from_tree(tree);
        let posts = tree.postorder_numbers();
        let size = tree.len() as u32;
        let mut caches: Vec<MatchCache> = (0..index.shard_count())
            .map(|_| MatchCache::new())
            .collect();
        let mut candidates = Candidates::new();
        candidates.begin(tracked);
        let (lo, hi) = window_of(size, tau);
        let (mut shards, mut layers) = (Vec::new(), Vec::new());
        let mut counters = ProbeCounters::default();
        index.probe_tree(
            &binary,
            &posts,
            size,
            lo,
            hi,
            partsj::MatchSemantics::Exact,
            &mut caches,
            &mut shards,
            &mut layers,
            &mut counters,
            &mut candidates.sink(),
        );
        let mut found = candidates.as_slice().to_vec();
        found.sort_unstable();
        found
    }

    #[test]
    fn window_covers_bounded_shard_set() {
        let index = ShardedIndex::new(3, WindowPolicy::Safe, &ShardConfig::with_shards(8));
        let mut set = Vec::new();
        index.shard_set(10, 16, &mut set); // 2τ + 1 = 7 sizes
        assert!(!set.is_empty() && set.len() <= 7);
        assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        // Every size in the window is owned by a shard in the set.
        for n in 10..=16 {
            assert!(set.contains(&index.shard_of_size(n)));
        }
    }

    #[test]
    fn insert_remove_and_liveness() {
        let mut labels = LabelInterner::new();
        let tau = 1;
        let specs = ["{a{b}{c}{d}}", "{a{b}{c}{e}}", "{a{b}{c}{f}}"];
        let trees: Vec<Tree> = specs
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect();
        let mut index = ShardedIndex::new(tau, WindowPolicy::Safe, &ShardConfig::with_shards(4));
        for (i, tree) in trees.iter().enumerate() {
            let (size, sgs) = subgraphs_for(tree, tau, i as TreeIdx);
            index.insert_tree(i as TreeIdx, size, sgs);
        }
        assert_eq!(index.live_trees(), 3);

        let probe = parse_bracket("{a{b}{c}{d}}", &mut labels).unwrap();
        let found = probe_live(&index, &probe, tau, 3);
        assert_eq!(found, vec![0, 1, 2]);

        assert!(index.remove_tree(1));
        assert!(!index.remove_tree(1), "double remove is a no-op");
        assert!(!index.is_alive(1));
        assert_eq!(index.live_trees(), 2);
        let found = probe_live(&index, &probe, tau, 3);
        assert_eq!(found, vec![0, 2], "removed tree no longer surfaces");
    }

    #[test]
    fn compaction_triggers_and_preserves_results() {
        let mut labels = LabelInterner::new();
        let tau = 1;
        let mut index = ShardedIndex::new(
            tau,
            WindowPolicy::Safe,
            &ShardConfig {
                shards: 2,
                max_dead_fraction: 0.2,
                min_dead_postings: 1,
                ..Default::default()
            },
        );
        let mut trees = Vec::new();
        for i in 0..20u32 {
            // Same shape, distinct leaf labels: all within TED 2 of each
            // other but distinct trees.
            let src = format!("{{a{{b}}{{c}}{{l{i}}}}}");
            let tree = parse_bracket(&src, &mut labels).unwrap();
            let (size, sgs) = subgraphs_for(&tree, tau, i);
            index.insert_tree(i, size, sgs);
            trees.push(tree);
        }
        for i in 0..10u32 {
            index.remove_tree(i);
        }
        assert!(
            index.compactions() > 0,
            "dead fraction must trigger compaction"
        );
        assert_eq!(index.live_trees(), 10);
        // After compaction the survivors still probe correctly.
        let found = probe_live(&index, &trees[10], tau, 20);
        assert_eq!(found, (10..20).collect::<Vec<_>>());
        // And the dead postings were actually dropped somewhere.
        assert!(index.dead_postings() < index.live_postings());
    }

    #[test]
    fn balanced_map_evens_a_skewed_histogram() {
        // One giant class plus many small ones: the hash may stack them;
        // greedy bin-packing must keep the max shard load near the mean.
        let histogram: Vec<(u32, u64)> = std::iter::once((10u32, 1000u64))
            .chain((11..27).map(|s| (s, 50)))
            .collect();
        let total: u64 = histogram.iter().map(|&(_, m)| m).sum();
        let shards = 4;
        let map = ShardMap::balanced(&histogram, shards);
        map.validate(shards).unwrap();
        let mut load = vec![0u64; shards];
        for &(size, mass) in &histogram {
            load[map.shard_of(size, shards)] += mass;
        }
        let max = *load.iter().max().unwrap();
        // The giant class dominates: optimal max load is 1000, and
        // greedy placement must not co-locate anything heavy with it.
        assert_eq!(max, 1000, "{load:?}");
        assert_eq!(load.iter().sum::<u64>(), total);
    }

    #[test]
    fn balanced_map_is_deterministic_and_falls_back_on_unseen_sizes() {
        let histogram = [(5u32, 7u64), (9, 7), (3, 2), (12, 0)];
        let a = ShardMap::balanced(&histogram, 3);
        let b = ShardMap::balanced(&histogram, 3);
        assert_eq!(a, b);
        // A size the histogram never saw routes through the hash, same
        // as the Hash map itself.
        assert_eq!(a.shard_of(999, 3), ShardMap::Hash.shard_of(999, 3));
        // Zero-mass classes still get a (validated) home.
        let ShardMap::Balanced(pairs) = &a else {
            panic!("balanced constructor must not return Hash")
        };
        assert!(pairs.iter().any(|&(size, _)| size == 12));
    }

    #[test]
    fn shard_map_validation_rejects_bad_assignments() {
        assert!(
            ShardMap::Balanced(vec![(4, 9)]).validate(4).is_err(),
            "out of range"
        );
        assert!(
            ShardMap::Balanced(vec![(7, 0), (5, 1)])
                .validate(4)
                .is_err(),
            "unsorted"
        );
        assert!(ShardMap::Balanced(vec![(5, 1), (7, 0)]).validate(4).is_ok());
        assert!(ShardMap::Hash.validate(1).is_ok());
    }

    #[test]
    fn shard_map_installs_only_on_an_empty_index() {
        let mut labels = LabelInterner::new();
        let tau = 1;
        let mut index = ShardedIndex::new(tau, WindowPolicy::Safe, &ShardConfig::with_shards(2));
        index
            .set_shard_map(ShardMap::Balanced(vec![(4, 1)]))
            .unwrap();
        assert_eq!(index.shard_of_size(4), 1);
        let tree = parse_bracket("{a{b}{c}{d}}", &mut labels).unwrap();
        let (size, sgs) = subgraphs_for(&tree, tau, 0);
        index.insert_tree(0, size, sgs);
        assert!(
            index.set_shard_map(ShardMap::Hash).is_err(),
            "rerouting a populated index must fail"
        );
        assert_eq!(index.shard_posting_loads().len(), 2);
        assert!(index.shard_posting_loads()[1] > 0, "routed to shard 1");
    }

    #[test]
    fn frozen_parts_validate_against_the_map() {
        let tau = 1;
        let window = WindowPolicy::Safe;
        let mut labels = LabelInterner::new();
        let tree = parse_bracket("{a{b}{c}{d}}", &mut labels).unwrap();
        let (size, sgs) = subgraphs_for(&tree, tau, 0);
        // Size 4 belongs to shard 1, size 9 to shard 0.
        let map = ShardMap::Balanced(vec![(size, 1), (9, 0)]);
        // Tree 0's postings in shard `at`, the tree tracked at `tracked`
        // nodes.
        let parts = |at: usize, tracked| {
            let mut shards = vec![
                SubgraphIndex::new(tau, window),
                SubgraphIndex::new(tau, window),
            ];
            shards[at].insert_tree(size, sgs.clone());
            ShardedIndex::from_frozen_parts(tau, window, map.clone(), shards, [(0, tracked)])
        };
        assert!(parts(1, size).is_ok());
        // The donor shard sits at position 0, but the map says size 4
        // belongs to shard 1: loading must fail loudly.
        assert!(parts(0, size).is_err());
        // Shard 1 holds size class 4 as the map says, but its posting
        // names tree 0, whose size 9 shard 0 owns.
        let err = parts(1, 9).unwrap_err();
        assert!(err.contains("which shard 0 owns"), "{err}");
    }

    #[test]
    fn small_trees_track_without_postings() {
        let mut index = ShardedIndex::new(2, WindowPolicy::Safe, &ShardConfig::default());
        index.track(0, 2);
        assert!(index.is_alive(0));
        assert_eq!(index.size_of(0), Some(2));
        assert_eq!(index.live_postings(), 0);
        assert!(index.remove_tree(0));
        assert_eq!(index.live_trees(), 0);
    }
}
