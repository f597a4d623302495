//! Equivalence guarantees of the sharded subsystem:
//!
//! * the sharded batch join is **bit-identical** to sequential
//!   `partsj_join` for every shard count × τ × thread mix;
//! * the sharded R×S join is bit-identical to `partsj_join_rs`;
//! * the sharded streaming join without eviction reproduces the batch
//!   join over any insertion order;
//! * insert-then-remove is indistinguishable from never-inserted;
//! * sliding windows (by count and by logical time) report exactly the
//!   brute-force partners of the live window, while compaction reclaims
//!   tombstoned postings.

use partsj::{partsj_join, partsj_join_rs, PartSjConfig, WindowPolicy};
use tsj_datagen::synthetic_sized;
use tsj_shard::{sharded_join, sharded_rs_join, EvictionPolicy, ShardConfig, ShardedStreamingJoin};
use tsj_ted::{ted, TreeIdx};
use tsj_tree::{apply_edit, EditOp, Tree};

#[test]
fn sharded_join_bit_identical_across_shard_counts() {
    let trees = synthetic_sized(120, 30, 42);
    for tau in [0u32, 1, 3] {
        let reference = partsj_join(&trees, tau);
        for shards in [1usize, 2, 4, 8] {
            let outcome = sharded_join(
                &trees,
                tau,
                &PartSjConfig::default(),
                &ShardConfig {
                    shards,
                    probe_threads: 1,
                    verify_threads: 1,
                    ..Default::default()
                },
            );
            assert_eq!(
                outcome.pairs, reference.pairs,
                "shards = {shards}, tau = {tau}"
            );
            // Same candidate semantics, not just same results.
            assert_eq!(
                outcome.stats.work(),
                reference.stats.work(),
                "shards = {shards}, tau = {tau}"
            );
        }
    }
}

/// The balanced shard map changes *placement only*: for every shard
/// count × τ × window policy, results and candidate semantics are
/// bit-identical to hash routing.
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
                let hash = sharded_join(&trees, tau, &config, &hash_cfg);
                let balanced = sharded_join(&trees, tau, &config, &balanced_cfg);
                let ctx = format!("window {window:?}, tau {tau}, shards {shards}");
                assert_eq!(balanced.pairs, hash.pairs, "{ctx}");
                assert_eq!(balanced.stats.work(), hash.stats.work(), "{ctx}");
            }
        }
    }
}

#[test]
fn sharded_join_parallel_pipeline_matches_sequential() {
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
        let reference = partsj_join(trees, tau);
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
            let outcome = sharded_join(
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
    let left = synthetic_sized(60, 22, 11);
    let right = synthetic_sized(80, 22, 12);
    for tau in [0u32, 1, 3] {
        let reference = partsj_join_rs(&left, &right, tau, &PartSjConfig::default());
        for shards in [1usize, 4] {
            let inline = sharded_rs_join(
                &left,
                &right,
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
            let pooled = sharded_rs_join(
                &left,
                &right,
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
    // aggressive compaction config so removal also exercises rebuilds).
    let mut dirty = ShardedStreamingJoin::new(
        tau,
        PartSjConfig::default(),
        ShardConfig {
            shards: 4,
            max_dead_fraction: 0.05,
            min_dead_postings: 1,
            ..Default::default()
        },
        EvictionPolicy::Retain,
    );
    for tree in &trees[..split] {
        let id = dirty.len() as TreeIdx;
        assert_eq!(dirty.insert(tree), clean_partners[id as usize]);
    }
    let victim_base = dirty.len() as TreeIdx;
    for tree in &victims {
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
    let trees = synthetic_sized(70, 18, 23);
    let tau = 2u32;
    let policy = EvictionPolicy::SlidingCount(9);
    let mut stream = ShardedStreamingJoin::new(
        tau,
        PartSjConfig::default(),
        ShardConfig {
            shards: 4,
            max_dead_fraction: 0.2,
            min_dead_postings: 8,
            ..Default::default()
        },
        policy,
    );
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
        let partners = stream.insert_at(tree, ts);
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
