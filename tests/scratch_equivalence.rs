//! The scratch-reuse refactor must be invisible: every join path now
//! runs through grow-only probe/verify scratch (rebuilt in place per
//! tree), and this suite pins that the results are **bit-identical** —
//! pairs, candidate counts *and* per-stage verification counters — to
//! the sequential reference across the full τ × window-policy ×
//! execution-mode matrix, including dirty-scratch reuse across calls.

use tree_similarity_join::prelude::*;
use tree_similarity_join::shard::{Frozen, FrozenJoinScratch};

fn dataset(n: usize, seed: u64) -> Vec<Tree> {
    synthetic_sized(n, 30, seed)
}

/// Everything two outcomes must share to count as bit-identical.
fn assert_same(reference: &JoinOutcome, other: &JoinOutcome, what: &str) {
    assert_eq!(other.pairs, reference.pairs, "{what}: pairs diverged");
    assert_eq!(other.stats.work(), reference.stats.work(), "{what}");
}

#[test]
fn rs_join_paths_agree_across_tau_and_window_policies() {
    // The collection joined with itself, so every row has pairs to find.
    let trees = dataset(110, 48);
    for tau in [0u32, 1, 3] {
        for window in [
            WindowPolicy::Safe,
            WindowPolicy::Tight,
            WindowPolicy::PaperAbsolute,
        ] {
            // The incomplete window policies may legitimately differ
            // from `Safe` — the contract here is that all execution
            // modes agree with the sequential run of the *same* config.
            let config = PartSjConfig {
                window,
                ..PartSjConfig::default()
            };
            let reference = partsj_join_rs(&trees, &trees, tau, &config);
            if tau == 3 {
                assert!(reference.pairs.iter().any(|(i, j)| i != j));
            }
            // One prober feeding four verifiers over the bounded channel.
            let pool = ShardConfig {
                probe_threads: 1,
                verify_threads: 4,
                ..ShardConfig::default()
            };
            let parallel = sharded_rs_join(&trees, &trees, tau, &config, &pool);
            assert_same(
                &reference,
                &parallel,
                &format!("parallel tau={tau} window={window:?}"),
            );
            let shards = ShardConfig::with_shards(3);
            let sharded = sharded_rs_join(&trees, &trees, tau, &config, &shards);
            assert_same(
                &reference,
                &sharded,
                &format!("sharded tau={tau} window={window:?}"),
            );
        }
    }
}

#[test]
fn frozen_join_scratch_reuse_is_bit_identical() {
    let left = dataset(80, 49);
    let right = dataset(40, 50);
    let config = PartSjConfig::default();
    // One engine + scratch survive the whole τ sweep: every later call
    // runs on buffers dirtied by a *different* threshold.
    let mut engine = VerifyEngine::new(3, &config);
    let mut scratch = FrozenJoinScratch::new();
    let mut pairs = Vec::new();
    let frozen = Frozen::build(&left, 3, &config, &ShardConfig::with_shards(2));
    for tau in [0u32, 1, 3, 1] {
        let reference = frozen.join(&right, tau, &config, 1, 1);
        let stats = frozen.join_seq(&right, tau, &config, &mut engine, &mut scratch, &mut pairs);
        assert_eq!(pairs, reference.pairs, "tau={tau}: pairs diverged");
        let reused = JoinOutcome::new_bipartite(pairs.clone(), stats);
        assert_same(&reference, &reused, &format!("frozen seq tau={tau}"));
    }
}

#[test]
fn query_scratch_reuse_across_catalogs_matches_fresh_queries() {
    use tree_similarity_join::catalog::QueryScratch;
    let probes = dataset(25, 52);
    let config = PartSjConfig::default();
    // One engine + scratch serve two catalogs of different size and
    // shard count, alternating: every query starts on stamps and match
    // caches the *other* catalog dirtied.
    let freeze = |n, seed, shards| {
        let shard_cfg = ShardConfig::with_shards(shards);
        Catalog::freeze(
            dataset(n, seed),
            LabelInterner::new(),
            2,
            &config,
            &shard_cfg,
        )
    };
    let catalogs = [freeze(90, 51, 3), freeze(40, 53, 5)];
    let mut engine = VerifyEngine::new(2, &config);
    let mut scratch = QueryScratch::default();
    let mut hits = Vec::new();
    for (p, probe) in probes.iter().enumerate() {
        let catalog = &catalogs[p % 2];
        let fresh = catalog.query(probe, 2, &config).unwrap();
        catalog
            .query_into(probe, &config, &mut engine, &mut scratch, &mut hits)
            .unwrap();
        assert_eq!(hits, fresh, "recycled point query diverged");
    }
}
