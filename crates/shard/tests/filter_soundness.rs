//! Filter-chain soundness over the sharded entry points: every
//! verification-chain configuration must reproduce the filter-free
//! exact-TED results for the sharded R×S join, inline and pooled, and
//! the sliding-window streaming join — across shard counts, window
//! policies and thread mixes.

use partsj::{partsj_join_rs, partsj_join_with, PartSjConfig, VerifyConfig, WindowPolicy};
use tsj_datagen::swissprot_like;
use tsj_shard::{sharded_rs_join, EvictionPolicy, ShardConfig, ShardedStreamingJoin};
use tsj_ted::TreeIdx;

fn all_verify_configs() -> Vec<VerifyConfig> {
    (0u32..16)
        .map(|mask| VerifyConfig {
            size: mask & 1 != 0,
            shape_accept: mask & 2 != 0,
            histogram: mask & 4 != 0,
            traversal: mask & 8 != 0,
        })
        .collect()
}

#[test]
fn sharded_parallel_pipeline_is_sound_for_every_chain_config() {
    // Near-duplicate clusters joined with themselves: every row has pairs
    // beyond the identities to find and candidates for the chain to resolve.
    let trees = swissprot_like(80, 17);
    let tau = 1;
    let reference = partsj_join_rs(
        &trees,
        &trees,
        tau,
        &PartSjConfig {
            verify: VerifyConfig::NONE,
            ..Default::default()
        },
    );
    assert!(reference.pairs.iter().any(|(i, j)| i != j));
    for verify in all_verify_configs() {
        // The chain resolves each pair identically regardless of which
        // worker verified it: per-stage counters match the sequential
        // join's under the same configuration.
        let sequential = partsj_join_rs(
            &trees,
            &trees,
            tau,
            &PartSjConfig {
                verify,
                ..Default::default()
            },
        );
        if verify == VerifyConfig::ALL {
            assert!(!sequential.stats.work().stages.is_empty());
        }
        // Two probers × two verifiers in batches of 8, one prober
        // feeding three verifiers pair by pair, and the machine-sized
        // pool (0 = auto).
        for (probe_threads, verify_threads, verify_batch) in [(2, 2, 8), (1, 3, 1), (0, 0, 64)] {
            let config = PartSjConfig {
                verify,
                parallel_fallback: 0,
                verify_batch,
                ..Default::default()
            };
            let outcome = sharded_rs_join(
                &trees,
                &trees,
                tau,
                &config,
                &ShardConfig {
                    shards: 4,
                    probe_threads,
                    verify_threads,
                    ..Default::default()
                },
            );
            let row = format!("verify = {verify:?}, pool = {probe_threads}x{verify_threads}");
            assert_eq!(outcome.pairs, reference.pairs, "{row}");
            assert_eq!(outcome.stats.work(), sequential.stats.work(), "{row}");
        }
    }
}

#[test]
fn sharded_join_is_sound_for_every_chain_config() {
    // Near-duplicates joined with themselves over 4 shards, under every
    // window policy: the full R×S result matches the filter-free R×S
    // join, and its `i < j` half matches the filter-free self-join.
    let trees = swissprot_like(70, 5);
    for (window, tau) in [
        (WindowPolicy::Safe, 0u32),
        (WindowPolicy::Safe, 1),
        (WindowPolicy::Safe, 3),
        (WindowPolicy::Tight, 1),
        (WindowPolicy::PaperAbsolute, 1),
    ] {
        let filter_free = PartSjConfig {
            window,
            verify: VerifyConfig::NONE,
            ..Default::default()
        };
        let reference = partsj_join_rs(&trees, &trees, tau, &filter_free);
        let self_reference = partsj_join_with(&trees, tau, &filter_free);
        for verify in all_verify_configs() {
            let config = PartSjConfig {
                window,
                verify,
                ..Default::default()
            };
            let outcome = sharded_rs_join(
                &trees,
                &trees,
                tau,
                &config,
                &ShardConfig {
                    shards: 4,
                    probe_threads: 1,
                    verify_threads: 1,
                    ..Default::default()
                },
            );
            let row = format!("window = {window:?}, tau = {tau}, verify = {verify:?}");
            assert_eq!(outcome.pairs, reference.pairs, "{row}");
            let self_pairs: Vec<_> = outcome
                .pairs
                .iter()
                .copied()
                .filter(|(i, j)| i < j)
                .collect();
            assert_eq!(self_pairs, self_reference.pairs, "{row}");
        }
    }
}

#[test]
fn sharded_rs_join_is_sound_for_every_chain_config() {
    // Two halves of one near-duplicate collection: the clusters straddle
    // them, so every row has pairs to find.
    let trees = swissprot_like(80, 24);
    let (left, right) = trees.split_at(40);
    let tau = 2;
    let reference = partsj_join_rs(
        left,
        right,
        tau,
        &PartSjConfig {
            verify: VerifyConfig::NONE,
            ..Default::default()
        },
    );
    for verify in all_verify_configs() {
        let config = PartSjConfig {
            verify,
            ..Default::default()
        };
        let outcome = sharded_rs_join(
            left,
            right,
            tau,
            &config,
            &ShardConfig {
                shards: 2,
                probe_threads: 1,
                verify_threads: 1,
                ..Default::default()
            },
        );
        assert!(!outcome.pairs.is_empty(), "verify = {verify:?}");
        assert_eq!(outcome.pairs, reference.pairs, "verify = {verify:?}");
        if verify == VerifyConfig::ALL {
            assert!(!outcome.stats.work().stages.is_empty());
        }
    }
}

#[test]
fn sharded_streaming_window_is_sound_for_every_chain_config() {
    let trees = swissprot_like(40, 31);
    let tau = 1;
    let run = |verify: VerifyConfig| -> Vec<(TreeIdx, TreeIdx)> {
        let config = PartSjConfig {
            verify,
            ..Default::default()
        };
        let mut join = ShardedStreamingJoin::new(
            tau,
            config,
            ShardConfig {
                shards: 2,
                probe_threads: 1,
                verify_threads: 1,
                ..Default::default()
            },
            EvictionPolicy::SlidingCount(12),
        );
        let mut pairs = Vec::new();
        for (i, tree) in trees.iter().enumerate() {
            for j in join.insert(tree) {
                pairs.push((j, i as TreeIdx));
            }
        }
        // The join's own counters agree with what it reported: a
        // filter-free chain pays exact TED for every partner, the full
        // chain certifies the rename-only near-duplicates without it.
        assert_eq!(join.pairs_found(), pairs.len() as u64);
        let early_accepts = join.verify_engine().early_accepts();
        if verify == VerifyConfig::NONE {
            assert!(join.ted_calls() >= join.pairs_found());
            assert_eq!(early_accepts, 0);
        } else if verify == VerifyConfig::ALL {
            assert!(early_accepts > 0 && join.ted_calls() < join.pairs_found());
        }
        pairs
    };
    let reference = run(VerifyConfig::NONE);
    for verify in all_verify_configs() {
        assert_eq!(run(verify), reference, "verify = {verify:?}");
    }
}
