//! Equivalence guarantees of the sharded subsystem:
//!
//! * the sharded R×S join is **bit-identical** — pairs and
//!   `JoinStats::work()` — to sequential `partsj_join_rs` for every
//!   shard count × τ × thread mix, and under either shard map;
//! * the sharded streaming join without eviction reproduces the batch
//!   join over any insertion order;
//! * insert-then-remove is indistinguishable from never-inserted;
//! * sliding windows (by count and by logical time) report exactly the
//!   brute-force partners of the live window, while the in-place sweep
//!   reclaims tombstoned postings — under the default trigger and when
//!   every removal sweeps — and leaks nothing over many window turns;
//! * with most trees below `δ`, the shards' side lists hold exactly the
//!   live side-listed trees after every insert;
//! * a refused timestamp changes nothing;
//! * a threshold near `u32::MAX` saturates the size window instead of
//!   wrapping it: every join still equals brute force;
//! * a built index reclaims on removal, a restored one only hides the
//!   tree, and parallel bulk ingest reaches the sequential state.

use partsj::{
    partsj_join, partsj_join_rs, window_of, Candidates, MatchCache, MatchSemantics, PartSjConfig,
    ProbeCounters, ProbeIndex, Prober, SubgraphIndex, VerifyEngine, WindowPolicy,
};
use tsj_datagen::{synthetic, synthetic_sized, SyntheticParams};
use tsj_shard::{
    build_subgraph_lists, sharded_rs_join, EvictionPolicy, Frozen, ShardConfig, ShardedIndex,
    ShardedStreamingJoin, StaleTimestamp,
};
use tsj_ted::{ted, TreeIdx};
use tsj_tree::{apply_edit, BinaryTree, EditOp, Label, Tree};

/// The shard config of a 4-shard stream that sweeps under `(fraction,
/// floor)`; `SWEEP_ALWAYS` makes every removal that kills a posting sweep.
fn sweeping(max_dead_fraction: f64, min_dead_postings: u64) -> ShardConfig {
    ShardConfig {
        shards: 4,
        max_dead_fraction,
        min_dead_postings,
        ..Default::default()
    }
}
const SWEEP_ALWAYS: (f64, u64) = (0.0, 1);

/// The balanced shard map changes *placement only*: for every shard
/// count × τ × window policy, results and candidate semantics are
/// bit-identical to hash routing. The collection is joined with itself,
/// so every row routes probes that find partners.
#[test]
fn balanced_shard_map_is_result_invariant() {
    let trees = synthetic_sized(100, 28, 31);
    for window in [
        WindowPolicy::Safe,
        WindowPolicy::Tight,
        WindowPolicy::PaperAbsolute,
    ] {
        let config = PartSjConfig::with_window(window);
        for tau in [0u32, 1, 3] {
            for shards in [1usize, 2, 4, 8] {
                let hash_cfg = ShardConfig {
                    shards,
                    probe_threads: 1,
                    verify_threads: 1,
                    ..Default::default()
                };
                let balanced_cfg = ShardConfig {
                    balanced_shards: true,
                    ..hash_cfg
                };
                let hash = sharded_rs_join(&trees, &trees, tau, &config, &hash_cfg);
                let balanced = sharded_rs_join(&trees, &trees, tau, &config, &balanced_cfg);
                let ctx = format!("window {window:?}, tau {tau}, shards {shards}");
                if tau == 3 {
                    assert!(hash.pairs.iter().any(|(i, j)| i != j), "{ctx}");
                }
                assert_eq!(balanced.pairs, hash.pairs, "{ctx}");
                assert_eq!(balanced.stats.work(), hash.stats.work(), "{ctx}");
            }
        }
    }
}

/// The pooled executor against the sequential R×S join, row by row of
/// the thread mixes: every collection joined with itself, so each left
/// tree is also a probe and the verify workers race on the same lazy
/// left inputs.
#[test]
fn sharded_rs_join_parallel_pipeline_matches_sequential() {
    let all = synthetic_sized(150, 25, 7);
    // The full input, a two-tree one the pool is forced onto, and a hub:
    // one tree and every single-node deletion of it, so every pair is a
    // candidate no cheap bound decides and the verify workers derive the
    // same trees' histograms and mirrored decompositions at the same time.
    let twins = [all[0].clone(), all[0].clone()];
    let base = all.iter().find(|t| t.len() >= 20).unwrap();
    let mut hub = vec![base.clone()];
    for node in base.node_ids().filter(|&n| n != base.root()) {
        hub.push(apply_edit(base, &EditOp::Delete { node }).unwrap());
    }
    let (all, twins, hub) = (&all[..], &twins[..], &hub[..]);
    for (trees, tau) in [(all, 0u32), (all, 1), (all, 3), (twins, 1), (hub, 2)] {
        let reference = partsj_join_rs(trees, trees, tau, &PartSjConfig::default());
        // (shards, probe threads, verify threads, verify batch): probe-
        // heavy, verify-heavy, one prober feeding a verifier pool,
        // per-pair sends, four verifiers on per-pair sends, and the
        // machine-sized pool (0 = auto).
        for (shards, probe_threads, verify_threads, verify_batch) in [
            (1, 2, 2, 8),
            (4, 2, 2, 8),
            (4, 3, 1, 8),
            (8, 2, 3, 8),
            (4, 1, 3, 8),
            (4, 1, 3, 1),
            (2, 1, 4, 1),
            (4, 0, 0, 64),
        ] {
            // parallel_fallback 0 forces the probe/verify pools whatever
            // the input size.
            let config = PartSjConfig {
                parallel_fallback: 0,
                verify_batch,
                ..Default::default()
            };
            let outcome = sharded_rs_join(
                trees,
                trees,
                tau,
                &config,
                &ShardConfig {
                    shards,
                    probe_threads,
                    verify_threads,
                    ..Default::default()
                },
            );
            let row = format!(
                "shards = {shards}, probe = {probe_threads}, verify = {verify_threads}, \
                 batch = {verify_batch}, tau = {tau}, trees = {}",
                trees.len()
            );
            assert_eq!(outcome.pairs, reference.pairs, "{row}");
            assert_eq!(outcome.stats.work(), reference.stats.work(), "{row}");
        }
    }
}

#[test]
fn sharded_rs_join_matches_sequential_rs() {
    // Two halves of one near-duplicate collection: the clusters straddle
    // them, so every τ has pairs and candidates for the chain to resolve.
    let trees = synthetic_sized(140, 22, 11);
    let (left, right) = trees.split_at(60);
    for tau in [0u32, 1, 3] {
        let reference = partsj_join_rs(left, right, tau, &PartSjConfig::default());
        assert!(!reference.pairs.is_empty(), "tau = {tau}");
        assert!(!reference.stats.work().stages.is_empty(), "tau = {tau}");
        for shards in [1usize, 2, 4, 8] {
            let inline = sharded_rs_join(
                left,
                right,
                tau,
                &PartSjConfig::default(),
                &ShardConfig {
                    shards,
                    probe_threads: 1,
                    verify_threads: 1,
                    ..Default::default()
                },
            );
            assert_eq!(inline.pairs, reference.pairs, "inline, shards = {shards}");
            // Same candidate semantics, not just same results.
            let work = reference.stats.work();
            assert_eq!(inline.stats.work(), work, "inline, shards = {shards}");
            let pooled = sharded_rs_join(
                left,
                right,
                tau,
                &PartSjConfig {
                    parallel_fallback: 0,
                    ..Default::default()
                },
                &ShardConfig {
                    shards,
                    probe_threads: 2,
                    verify_threads: 2,
                    ..Default::default()
                },
            );
            assert_eq!(pooled.pairs, reference.pairs, "pooled, shards = {shards}");
            assert_eq!(pooled.stats.work(), work, "pooled, shards = {shards}");
        }
    }
}

/// Streaming (no eviction) must reproduce the batch join over any
/// insertion order — including descending size, the hard case for the
/// symmetric probe window.
#[test]
fn streaming_without_eviction_matches_batch() {
    let mut trees = synthetic_sized(80, 25, 13);
    for pass in 0..2 {
        if pass == 1 {
            trees.reverse();
        }
        for tau in [0u32, 1, 3] {
            let batch = partsj_join(&trees, tau);
            for shards in [1usize, 4] {
                let mut stream = ShardedStreamingJoin::new(
                    tau,
                    PartSjConfig::default(),
                    ShardConfig::with_shards(shards),
                    EvictionPolicy::Retain,
                );
                let mut pairs: Vec<(TreeIdx, TreeIdx)> = Vec::new();
                for (i, tree) in trees.iter().enumerate() {
                    for j in stream.insert(tree) {
                        pairs.push((j.min(i as TreeIdx), j.max(i as TreeIdx)));
                    }
                }
                pairs.sort_unstable();
                assert_eq!(pairs, batch.pairs, "shards = {shards}, tau = {tau}");
                assert_eq!(stream.live(), trees.len());
                assert_eq!(stream.evictions(), 0);
            }
        }
    }
}

/// Inserting trees and removing them again must leave the stream
/// indistinguishable from one where they never existed.
#[test]
fn insert_then_remove_equals_never_inserted() {
    let trees = synthetic_sized(50, 24, 17);
    let victims = synthetic_sized(12, 24, 99);
    let split = 25usize;
    let tau = 2u32;

    // Run B: victims never exist.
    let mut clean = ShardedStreamingJoin::new(
        tau,
        PartSjConfig::default(),
        ShardConfig::with_shards(4),
        EvictionPolicy::Retain,
    );
    let mut clean_partners: Vec<Vec<TreeIdx>> = Vec::new();
    for tree in &trees {
        clean_partners.push(clean.insert(tree));
    }

    // Run A: victims are inserted mid-stream, then removed (with an
    // aggressive trigger, then the most aggressive one, so removal also
    // exercises sweeps).
    for (fraction, floor) in [(0.05, 1), SWEEP_ALWAYS] {
        let config = sweeping(fraction, floor);
        let dirty =
            ShardedStreamingJoin::new(tau, PartSjConfig::default(), config, EvictionPolicy::Retain);
        removed_victims_leave_no_trace(dirty, &trees, &victims, split, &clean_partners);
    }
}

fn removed_victims_leave_no_trace(
    mut dirty: ShardedStreamingJoin,
    trees: &[Tree],
    victims: &[Tree],
    split: usize,
    clean_partners: &[Vec<TreeIdx>],
) {
    for tree in &trees[..split] {
        let id = dirty.len() as TreeIdx;
        assert_eq!(dirty.insert(tree), clean_partners[id as usize]);
    }
    let victim_base = dirty.len() as TreeIdx;
    for tree in victims {
        dirty.insert(tree);
    }
    for v in 0..victims.len() as TreeIdx {
        assert!(dirty.remove(victim_base + v));
        assert!(!dirty.remove(victim_base + v), "double remove");
    }
    // Later inserts: partners must match run B after translating ids
    // (everything after the victim block is shifted by the block size).
    let shift = victims.len() as TreeIdx;
    for (m, tree) in trees.iter().enumerate().skip(split) {
        let partners = dirty.insert(tree);
        let mapped: Vec<TreeIdx> = partners
            .iter()
            .map(|&p| {
                assert!(
                    !(victim_base..victim_base + shift).contains(&p),
                    "removed tree {p} reported as partner"
                );
                if p >= victim_base {
                    p - shift
                } else {
                    p
                }
            })
            .collect();
        assert_eq!(mapped, clean_partners[m], "insert #{m}");
    }
    assert_eq!(dirty.evictions(), shift as u64);
    assert!(dirty.compactions() > 0, "removals must sweep");
}

/// Mirror of the implementation's eviction bookkeeping, used to compute
/// brute-force expectations.
struct WindowMirror {
    live: Vec<(TreeIdx, u64, Tree)>,
}

impl WindowMirror {
    fn evict_for(&mut self, policy: EvictionPolicy, now: u64) {
        match policy {
            EvictionPolicy::Retain => {}
            EvictionPolicy::SlidingCount(k) => {
                let keep = k.saturating_sub(1);
                while self.live.len() > keep {
                    self.live.remove(0);
                }
            }
            EvictionPolicy::SlidingTime(h) => {
                self.live.retain(|&(_, ts, _)| now < ts.saturating_add(h));
            }
        }
    }

    fn expected_partners(&self, tree: &Tree, tau: u32) -> Vec<TreeIdx> {
        let mut out: Vec<TreeIdx> = self
            .live
            .iter()
            .filter(|(_, _, t)| ted(t, tree) <= tau)
            .map(|&(id, _, _)| id)
            .collect();
        out.sort_unstable();
        out
    }
}

#[test]
fn sliding_count_window_matches_brute_force() {
    for (fraction, floor) in [(0.2, 8), SWEEP_ALWAYS] {
        sliding_count_window_under(sweeping(fraction, floor));
    }
}

fn sliding_count_window_under(config: ShardConfig) {
    let trees = synthetic_sized(70, 18, 23);
    let tau = 2u32;
    let policy = EvictionPolicy::SlidingCount(9);
    let mut stream = ShardedStreamingJoin::new(tau, PartSjConfig::default(), config, policy);
    let mut mirror = WindowMirror { live: Vec::new() };
    for (i, tree) in trees.iter().enumerate() {
        let ts = i as u64;
        mirror.evict_for(policy, ts);
        let partners = stream.insert(tree);
        assert_eq!(partners, mirror.expected_partners(tree, tau), "insert #{i}");
        mirror.live.push((i as TreeIdx, ts, tree.clone()));
        assert!(stream.live() <= 9, "window bound violated");
        assert_eq!(stream.live(), mirror.live.len());
    }
    assert_eq!(stream.evictions(), (trees.len() - 9) as u64);
    assert!(
        stream.compactions() > 0,
        "heavy eviction must trigger compaction"
    );
    // Tombstones actually get reclaimed.
    assert!(stream.index().dead_postings() <= stream.index().live_postings() + 64);
}

#[test]
fn sliding_time_window_matches_brute_force() {
    let trees = synthetic_sized(60, 18, 29);
    let tau = 1u32;
    let policy = EvictionPolicy::SlidingTime(5);
    let mut stream = ShardedStreamingJoin::new(
        tau,
        PartSjConfig::default(),
        ShardConfig::with_shards(2),
        policy,
    );
    let mut mirror = WindowMirror { live: Vec::new() };
    for (i, tree) in trees.iter().enumerate() {
        // Two inserts per tick: same-timestamp arrivals must both work.
        let ts = (i / 2) as u64;
        mirror.evict_for(policy, ts);
        let partners = stream.insert_at(tree, ts).expect("timestamps ascend");
        assert_eq!(
            partners,
            mirror.expected_partners(tree, tau),
            "insert #{i} at ts {ts}"
        );
        mirror.live.push((i as TreeIdx, ts, tree.clone()));
        assert_eq!(stream.live(), mirror.live.len());
    }
    assert!(stream.evictions() > 0);
}

/// Side lists under eviction. With most trees below `δ` (τ = 3, so
/// δ = 7), sliding windows by count and by time over 1 and 4 shards
/// report the brute-force partners after every insert, and the shards'
/// side lists hold exactly the live trees below `δ`, each in the shard
/// owning its size: an evicted small tree leaves its list at once.
#[test]
fn side_lists_follow_the_window() {
    let trees = synthetic_sized(80, 6, 53);
    let tau = 3u32;
    let delta = 2 * tau as usize + 1;
    let small = trees.iter().filter(|t| t.len() < delta).count();
    assert!(
        2 * small > trees.len(),
        "{small} of {} side-listed",
        trees.len()
    );
    for policy in [
        EvictionPolicy::SlidingCount(12),
        EvictionPolicy::SlidingTime(6),
    ] {
        for shards in [1usize, 4] {
            let config = ShardConfig::with_shards(shards);
            let mut stream =
                ShardedStreamingJoin::new(tau, PartSjConfig::default(), config, policy);
            let mut mirror = WindowMirror { live: Vec::new() };
            for (i, tree) in trees.iter().enumerate() {
                let ts = (i / 2) as u64;
                mirror.evict_for(policy, ts);
                let partners = stream.insert_at(tree, ts).expect("timestamps ascend");
                let ctx = format!("{policy:?}, {shards} shards, insert #{i}");
                assert_eq!(partners, mirror.expected_partners(tree, tau), "{ctx}");
                mirror.live.push((i as TreeIdx, ts, tree.clone()));

                let index = stream.index();
                let mut listed = Vec::new();
                for s in 0..index.shard_count() {
                    for (size, id) in index.shard_index(s).side_list().iter() {
                        assert_eq!(index.shard_of_size(size), s, "{ctx}: tree {id}");
                        listed.push(id);
                    }
                }
                listed.sort_unstable();
                let live = mirror.live.iter().filter(|(_, _, t)| t.len() < delta);
                let live_small: Vec<TreeIdx> = live.map(|&(id, _, _)| id).collect();
                assert_eq!(listed, live_small, "{ctx}");
            }
            assert!(stream.evictions() > 0, "{policy:?}");
        }
    }
}

/// A timestamp behind the stream's newest is refused with a typed error
/// — not a panic — and the refusal touches nothing: no eviction ran, no
/// id was spent, the next valid arrival sees the window it would have.
#[test]
fn stale_timestamp_is_refused_and_changes_nothing() {
    let trees = synthetic_sized(12, 18, 31);
    let tau = 2u32;
    let mut stream = ShardedStreamingJoin::new(
        tau,
        PartSjConfig::default(),
        ShardConfig::with_shards(2),
        EvictionPolicy::SlidingTime(3),
    );
    let mut twin = ShardedStreamingJoin::new(
        tau,
        PartSjConfig::default(),
        ShardConfig::with_shards(2),
        EvictionPolicy::SlidingTime(3),
    );
    for (i, tree) in trees[..8].iter().enumerate() {
        stream.insert_at(tree, 10 + i as u64).unwrap();
        twin.insert_at(tree, 10 + i as u64).unwrap();
    }
    let before = (stream.len(), stream.live(), stream.evictions());
    let (dead, postings) = (
        stream.index().dead_postings(),
        stream.index().live_postings(),
    );
    for ts in [0, 16] {
        let refused = stream.insert_at(&trees[8], ts);
        assert_eq!(refused, Err(StaleTimestamp { ts, latest: 17 }));
        assert!(refused.unwrap_err().to_string().contains("17"));
    }
    assert_eq!((stream.len(), stream.live(), stream.evictions()), before);
    assert_eq!(stream.index().dead_postings(), dead);
    assert_eq!(stream.index().live_postings(), postings);
    // Equal timestamps stay fine, and the stream goes on as its twin,
    // which never saw the stale arrivals, does.
    for (i, tree) in trees[8..].iter().enumerate() {
        let ts = 17 + i as u64 / 2;
        assert_eq!(stream.insert_at(tree, ts), twin.insert_at(tree, ts));
    }
    assert_eq!(stream.evictions(), twin.evictions());
    // `insert` stamps its own ordinal, never behind the newest.
    assert_eq!(stream.insert(&trees[0]), twin.insert(&trees[0]));
}

/// `tree` with every label moved into alphabet number `turn`.
fn relabelled(tree: &Tree, turn: u32) -> Tree {
    let mut nodes = tree.flatten();
    for (label, _) in &mut nodes {
        *label = Label::from_raw(label.raw() + turn * 1_000);
    }
    Tree::from_flattened(&nodes).unwrap()
}

/// Over many full turns of a window whose trees bring fresh labels — so
/// fresh component shapes — every turn, the index holds what the live
/// window needs and nothing of the turns before: when every removal
/// sweeps, each shard equals (handles, shapes, postings) one that only
/// ever saw the live window; under the default trigger the live counts
/// still do and the dead ones stay under the trigger.
#[test]
fn window_turns_leave_nothing_behind() {
    let base = synthetic_sized(40, 18, 37);
    let (tau, window, turns) = (2u32, 40usize, 6u32);
    let arrivals: Vec<Tree> = (0..turns)
        .flat_map(|turn| base.iter().map(move |tree| relabelled(tree, turn)))
        .collect();
    for (fraction, floor) in [SWEEP_ALWAYS, (0.25, 64)] {
        let stream_of = |policy, trees: &[Tree]| {
            let config = sweeping(fraction, floor);
            let mut stream =
                ShardedStreamingJoin::new(tau, PartSjConfig::default(), config, policy);
            for tree in trees {
                stream.insert(tree);
            }
            stream
        };
        let turned = stream_of(EvictionPolicy::SlidingCount(window), &arrivals);
        let live_only = stream_of(EvictionPolicy::Retain, &arrivals[arrivals.len() - window..]);
        assert_eq!(turned.live(), window);
        let (index, want) = (turned.index(), live_only.index());
        assert_eq!(index.shard_posting_loads(), want.shard_posting_loads());
        let (dead, live) = (index.dead_postings(), index.live_postings());
        // Six turns of fresh labels: a signature that only ever gained
        // bits would by now admit every probe.
        assert!((0..index.shard_count()).all(|s| index.shard_index(s).signatures_exact()));
        if (fraction, floor) == SWEEP_ALWAYS {
            assert_eq!(dead, 0);
            for s in 0..index.shard_count() {
                let (shard, want) = (index.shard_index(s), want.shard_index(s));
                assert_eq!(shard.len(), want.len(), "shard {s}");
                assert_eq!(shard.distinct_components(), want.distinct_components());
                assert_eq!(shard.distinct_sizes(), want.distinct_sizes());
                assert_eq!(shard.registrations(), want.registrations());
            }
        } else {
            assert!(turned.compactions() > 0);
            // Per shard: fewer dead than the floor, or no more than the
            // fraction of the shard's postings.
            let bound = 4 * floor + (fraction * (dead + live) as f64) as u64;
            assert!(dead <= bound, "{dead} dead postings against {live} live");
            let handles: usize = (0..4).map(|s| index.shard_index(s).len()).sum();
            let needed: usize = (0..4).map(|s| want.shard_index(s).len()).sum();
            assert!(handles <= 2 * needed, "{handles} handles for {needed}");
        }
    }
}

/// `window_of` used to add `size + tau` in `u32`: a debug build panicked,
/// a release build wrapped the window shut (a 5-node probe found nothing
/// from `u32::MAX − 4` up). The saturated window spans every size class
/// and is walked by populated class, not stepped through.
#[test]
fn thresholds_near_u32_max_keep_the_whole_window() {
    let left = synthetic_sized(7, 6, 5);
    let right = synthetic_sized(5, 5, 6);
    assert!(left.iter().any(|t| t.len() == 6) && right.iter().any(|t| t.len() == 5));
    let config = PartSjConfig::default();
    for tau in [u32::MAX - 5, u32::MAX - 4, u32::MAX] {
        let within = |a: &Tree, b: &Tree| ted(a, b) <= tau;
        let mut expected = Vec::new();
        for (i, a) in (0..).zip(&left) {
            expected.extend(
                (0..)
                    .zip(&right)
                    .filter(|(_, b)| within(a, b))
                    .map(|(j, _)| (i, j)),
            );
        }
        assert_eq!(expected.len(), left.len() * right.len(), "tau = {tau}");
        assert_eq!(partsj_join_rs(&left, &right, tau, &config).pairs, expected);

        let frozen = Frozen::build(&left, tau, &config, &ShardConfig::with_shards(3));
        let mut pairs = Vec::new();
        let (engine, scratch) = (
            &mut VerifyEngine::new(tau, &config),
            &mut Default::default(),
        );
        frozen.join_seq(&right, tau, &config, engine, scratch, &mut pairs);
        assert_eq!(pairs, expected, "tau = {tau}");

        let shards = ShardConfig::with_shards(3);
        let mut stream = ShardedStreamingJoin::new(tau, config, shards, EvictionPolicy::Retain);
        for (id, tree) in (0..).zip(left.iter().chain(&right)) {
            let earlier: Vec<TreeIdx> = (0..id).collect();
            assert_eq!(stream.insert(tree), earlier, "tau = {tau}, arrival {id}");
        }
    }
}

/// The candidates `tree` surfaces from `index`, ascending.
fn probe(index: &ShardedIndex, tree: &Tree, tau: u32, universe: usize) -> Vec<TreeIdx> {
    let size = tree.len() as u32;
    let (lo, hi) = window_of(size, tau);
    let mut caches = Vec::new();
    caches.resize_with(index.shard_count(), MatchCache::new);
    let mut candidates = Candidates::new();
    candidates.begin(universe);
    index.probe_tree(
        &BinaryTree::from_tree(tree),
        &tree.postorder_numbers(),
        size,
        lo,
        hi,
        MatchSemantics::Exact,
        &mut caches,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut ProbeCounters::default(),
        &mut candidates.sink(),
    );
    let mut found = candidates.as_slice().to_vec();
    found.sort_unstable();
    found
}

/// Static and dynamic are one index. What `Frozen::build` builds
/// (`ShardedIndex::build_static`) tombstones and reclaims on
/// `remove_tree` like a streaming index; the same index restored from
/// its shards' dumps never knew per-tree registration counts, so there
/// removal only hides the tree; and `insert_all` over scoped threads
/// followed by removals lands in the state sequential ingest reaches.
#[test]
fn built_sides_reclaim_and_restored_sides_hide() {
    let trees = synthetic_sized(60, 18, 41);
    let (tau, config) = (2u32, PartSjConfig::default());
    let shard_cfg = sweeping(0.1, 1);
    let lists = build_subgraph_lists(&trees, tau, &config, 1);
    let size_of = |i: usize| trees[i].len() as u32;
    let items: Vec<_> = (lists.into_iter().enumerate())
        .filter_map(|(i, list)| Some((i as TreeIdx, size_of(i), Some(list?))))
        .collect();
    let victims: Vec<TreeIdx> = items.iter().map(|item| item.0).step_by(2).collect();
    let survivors: Vec<TreeIdx> = items.iter().map(|item| item.0).skip(1).step_by(2).collect();

    let mut built =
        ShardedIndex::build_static(tau, config.window, &shard_cfg, items.clone(), false);
    let shards = (0..built.shard_count())
        .map(|s| SubgraphIndex::restore(built.shard_index(s).dump()).unwrap())
        .collect();
    let tracked = items.iter().map(|item| (item.0, item.1));
    let map = built.shard_map().clone();
    let mut restored =
        ShardedIndex::from_frozen_parts(tau, config.window, map, shards, tracked).unwrap();
    let mut threaded = ShardedIndex::new(tau, config.window, &shard_cfg);
    threaded.insert_all(items.clone(), true);

    let full = built.live_postings();
    let everyone: Vec<Vec<TreeIdx>> = (trees.iter())
        .map(|tree| probe(&built, tree, tau, trees.len()))
        .collect();
    for &victim in &victims {
        for index in [&mut built, &mut restored, &mut threaded] {
            assert!(index.remove_tree(victim));
            assert!(!index.remove_tree(victim), "double remove");
            assert!(!index.is_alive(victim));
        }
    }
    // Built: tombstoned, swept, gone from the shards' own indexes.
    assert!(built.compactions() > 0);
    assert!(built.live_postings() < full);
    let stored: u64 = (0..4).map(|s| built.shard_index(s).registrations()).sum();
    assert_eq!(stored, built.live_postings() + built.dead_postings());
    // Restored: hidden, nothing counted dead, nothing reclaimed.
    assert_eq!(restored.dead_postings(), 0);
    assert_eq!(restored.compactions(), 0);
    assert_eq!(restored.live_postings(), full);
    // Threaded ingest: the sequential state, shard for shard.
    assert_eq!(threaded.compactions(), built.compactions());
    assert_eq!(threaded.dead_postings(), built.dead_postings());
    for s in 0..built.shard_count() {
        assert_eq!(threaded.shard_index(s).dump(), built.shard_index(s).dump());
    }
    // All three answer alike: the survivors, as before the removals.
    for (tree, before) in trees.iter().zip(&everyone) {
        let mut want = before.clone();
        want.retain(|j| survivors.contains(j));
        for index in [&built, &restored, &threaded] {
            assert_eq!(probe(index, tree, tau, trees.len()), want);
        }
    }
}

/// `tree`'s candidates, in discovery order, and the probe work it adds
/// to `prober`, probing the whole size window of `index` (`None`) or
/// shard `Some(s)` alone — the one-shard form `Frozen::serve_shard` runs.
fn probe_with<I: ProbeIndex>(
    prober: &mut Prober,
    index: &I,
    shard: Option<usize>,
    tree: &Tree,
    tau: u32,
    universe: usize,
) -> (Vec<TreeIdx>, ProbeCounters) {
    let before = prober.counters();
    let window = window_of(tree.len() as u32, tau);
    let found = match shard {
        None => {
            prober.prepare(tree);
            prober
                .probe(index, window, universe, MatchSemantics::Exact)
                .0
        }
        Some(s) => {
            let (binary, posts) = (BinaryTree::from_tree(tree), tree.postorder_numbers());
            let tree = (&binary, posts.as_slice());
            prober.probe_part(index, s, tree, window, universe, MatchSemantics::Exact)
        }
    };
    let found = found.to_vec();
    let after = prober.counters();
    let work = ProbeCounters {
        probes: after.probes - before.probes,
        match_attempts: after.match_attempts - before.match_attempts,
        matches: after.matches - before.matches,
    };
    (found, work)
}

/// `tree`'s candidates (ascending) and probe work against `index`, from
/// one walk over the window's shards, and from the prober's one-shard
/// form over every shard of that shard set. `ShardedIndex::probe_tree`
/// must find what the walk finds, in the same order and with the same
/// work, and leave the shard set in its scratch.
fn one_walk_and_union(
    index: &ShardedIndex,
    tree: &Tree,
    tau: u32,
    universe: usize,
) -> [(Vec<TreeIdx>, ProbeCounters); 2] {
    let prober = &mut Prober::default();
    let mut one_walk = probe_with(prober, index, None, tree, tau, universe);

    let size = tree.len() as u32;
    let (lo, hi) = window_of(size, tau);
    let (binary, posts) = (BinaryTree::from_tree(tree), tree.postorder_numbers());
    let mut caches = Vec::new();
    caches.resize_with(index.shard_count(), MatchCache::new);
    let (mut walked, mut layers) = (Vec::new(), Vec::new());
    let (mut candidates, mut counters) = (Candidates::new(), ProbeCounters::default());
    candidates.begin(universe);
    index.probe_tree(
        &binary,
        &posts,
        size,
        lo,
        hi,
        MatchSemantics::Exact,
        &mut caches,
        &mut walked,
        &mut layers,
        &mut counters,
        &mut candidates.sink(),
    );
    let walk = (candidates.as_slice(), counters);
    assert_eq!(
        walk,
        (one_walk.0.as_slice(), one_walk.1),
        "probe_tree is the walk"
    );
    let mut shard_set = Vec::new();
    index.shard_set(lo, hi, &mut shard_set);
    assert_eq!(walked, shard_set, "the walk leaves the window's shard set");

    let mut union = (Vec::new(), ProbeCounters::default());
    for &s in &shard_set {
        let (found, work) = probe_with(prober, index, Some(s), tree, tau, universe);
        union.0.extend(found);
        union.1.probes += work.probes;
        union.1.match_attempts += work.match_attempts;
        union.1.matches += work.matches;
    }
    one_walk.0.sort_unstable();
    union.0.sort_unstable();
    [one_walk, union]
}

/// One walk over a window's shards is the union of one walk per shard:
/// for every shard count × τ × window policy, with tombstoned trees
/// whose postings are still stored, a prober's whole-window probe
/// surfaces the candidate set and does the probe work (`probes`,
/// `match_attempts`, `matches`) that its one-shard form over the
/// window's shard set does. Three labels make consecutive nodes surface
/// the same component shapes, so a verdict memoized for one node and
/// not forgotten at the next shows. Small trees (down to 2 nodes) are
/// side-listed at every τ. And one `SubgraphIndex` is the one-shard
/// case of the same body: the trees published into it through a
/// `Prober` probe exactly as the 1-shard `ShardedIndex` does — the same
/// candidates in the same order, the same probe work.
#[test]
fn one_walk_probe_equals_the_union_of_shard_probes() {
    for labels in [3, 20] {
        let params = |avg_size| SyntheticParams {
            labels,
            avg_size,
            ..Default::default()
        };
        let mut trees = synthetic(90, &params(24), 43);
        trees.extend(synthetic(20, &params(4), 44));
        assert!(trees.iter().any(|tree| tree.len() == 2));
        one_walk_probes_equal_shard_probes(&trees, 90);
    }
}

/// The checks above over `trees`; the first `probes` of them, together,
/// must find more candidates than there are of them, so the equalities
/// are not met by probes that find nothing but themselves.
fn one_walk_probes_equal_shard_probes(trees: &[Tree], probes: usize) {
    for window in [
        WindowPolicy::Safe,
        WindowPolicy::Tight,
        WindowPolicy::PaperAbsolute,
    ] {
        let config = PartSjConfig::with_window(window);
        for tau in [0u32, 1, 3] {
            let lists = build_subgraph_lists(trees, tau, &config, 1);
            let mut plain = SubgraphIndex::new(tau, window);
            let prober = &mut Prober::default();
            for (i, tree) in (0..).zip(trees) {
                prober.prepare(tree);
                prober.publish(&mut plain, i, config.partitioning);
            }
            for shards in [1usize, 2, 4, 8] {
                // The default trigger sweeps no shard of this index: every
                // tombstoned posting stays for the liveness gate to hide.
                let mut index = ShardedIndex::new(tau, window, &ShardConfig::with_shards(shards));
                for (i, list) in lists.iter().enumerate() {
                    index.insert(i as TreeIdx, trees[i].len() as u32, list.as_ref());
                }
                if shards == 1 {
                    for tree in trees {
                        let one = probe_with(prober, &plain, None, tree, tau, trees.len());
                        let sharded = probe_with(prober, &index, None, tree, tau, trees.len());
                        assert_eq!(one, sharded, "{window:?}, tau {tau}");
                    }
                }
                for victim in (0..trees.len() as TreeIdx).step_by(3) {
                    assert!(index.remove_tree(victim));
                }
                let ctx = format!("{window:?}, tau {tau}, {shards} shards");
                assert!(index.dead_postings() > 0, "{ctx}");
                let (mut surfaced, mut dead) = (0, 0);
                for (i, tree) in trees.iter().enumerate() {
                    let [walk, union] = one_walk_and_union(&index, tree, tau, trees.len());
                    assert_eq!(walk, union, "{ctx}, probe {i}");
                    if i < probes {
                        surfaced += walk.0.len();
                    }
                    dead += walk.0.iter().filter(|&&j| !index.is_alive(j)).count();
                }
                assert!(
                    surfaced > probes,
                    "{ctx}: the first {probes} probes find more than themselves"
                );
                assert_eq!(dead, 0, "{ctx}");
            }
        }
    }
}
