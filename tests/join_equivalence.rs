//! Cross-crate integration: all four join implementations agree on every
//! dataset simulator, at every threshold, through the facade API.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tree_similarity_join::prelude::*;

fn check_dataset(name: &str, trees: &[Tree]) {
    for tau in 1..=4u32 {
        let oracle = brute_force_join(trees, tau);
        let prt = partsj_join(trees, tau);
        let str_out = str_join(trees, tau);
        let set_out = set_join(trees, tau);
        assert_eq!(prt.pairs, oracle.pairs, "{name}: PRT diverged at tau {tau}");
        assert_eq!(
            str_out.pairs, oracle.pairs,
            "{name}: STR diverged at tau {tau}"
        );
        assert_eq!(
            set_out.pairs, oracle.pairs,
            "{name}: SET diverged at tau {tau}"
        );
        // The filters must not do more verification work than brute force.
        assert!(prt.stats.ted_calls <= oracle.stats.ted_calls);
        assert!(str_out.stats.ted_calls <= oracle.stats.ted_calls);
        assert!(set_out.stats.ted_calls <= oracle.stats.ted_calls);
    }
}

#[test]
fn all_methods_agree_on_swissprot_like() {
    check_dataset("swissprot", &swissprot_like(120, 42));
}

#[test]
fn all_methods_agree_on_treebank_like() {
    check_dataset("treebank", &treebank_like(120, 43));
}

#[test]
fn all_methods_agree_on_sentiment_like() {
    check_dataset("sentiment", &sentiment_like(120, 44));
}

#[test]
fn all_methods_agree_on_synthetic() {
    // Average size 40 keeps the oracle cheap.
    check_dataset("synthetic", &synthetic_sized(120, 40, 45));
}

#[test]
fn parallel_variants_agree_with_sequential() {
    let trees = synthetic_sized(150, 30, 46);
    // One prober feeding four verifiers.
    let pool = ShardConfig {
        probe_threads: 1,
        verify_threads: 4,
        ..ShardConfig::default()
    };
    let config = PartSjConfig::default();
    for tau in [1u32, 3] {
        let seq = partsj_join_rs(&trees, &trees, tau, &config);
        let par = sharded_rs_join(&trees, &trees, tau, &config, &pool);
        assert_eq!(
            seq.pairs, par.pairs,
            "parallel PartSJ diverged at tau {tau}"
        );
        assert_eq!(seq.stats.work(), par.stats.work(), "tau {tau}");
        // The collection joined with itself holds the self-join's pairs.
        let self_join = partsj_join(&trees, tau);
        let above: Vec<_> = par.pairs.iter().filter(|(i, j)| i < j).copied().collect();
        assert_eq!(above, self_join.pairs, "tau {tau}");
        let oracle_par = tree_similarity_join::baselines::brute_force_join_parallel(&trees, tau, 4);
        assert_eq!(self_join.pairs, oracle_par.pairs);
    }
}

/// Label-permutation chains: every tree carries the *same label
/// multiset* (the histogram bound is always 0 and never kills) in a
/// divergent vertical order (the traversal bound kills nearly
/// everything) — the input on which a different stage order would move
/// the most per-stage credit.
fn permutation_chains(n: usize, depth: usize, seed: u64) -> Vec<Tree> {
    let mut labels = LabelInterner::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..depth).map(|i| format!("l{i}")).collect();
    (0..n)
        .map(|_| {
            let mut order = names.clone();
            order.shuffle(&mut rng);
            let spec = format!("{{{}{}", order.join("{"), "}".repeat(depth));
            parse_bracket(&spec, &mut labels).unwrap()
        })
        .collect()
}

/// The stage order is fixed, so the multi-worker verify pool — whose
/// per-worker engines fold into one `JoinStats` — credits every stage
/// exactly as the sequential R×S join does, not merely the same totals.
#[test]
fn pooled_stage_counters_equal_the_sequential_join() {
    let trees = permutation_chains(140, 12, 2015);
    let config = PartSjConfig {
        parallel_fallback: 0, // force the worker pools
        ..Default::default()
    };
    let shard_cfg = ShardConfig {
        shards: 4,
        probe_threads: 2,
        verify_threads: 2,
        ..Default::default()
    };
    for tau in [1u32, 2] {
        let reference = partsj_join_rs(&trees, &trees, tau, &config);
        assert!(
            reference.stats.work().stages["traversal-sed"] > 0,
            "the decisive stage must see kills at tau {tau}"
        );
        let pooled = sharded_rs_join(&trees, &trees, tau, &config, &shard_cfg);
        assert_eq!(pooled.pairs, reference.pairs, "tau {tau}");
        assert_eq!(pooled.stats.work(), reference.stats.work(), "tau {tau}");
        assert_eq!(
            pooled.stats.stage_counts, reference.stats.stage_counts,
            "one row per stage, in chain order, tau {tau}"
        );
    }
}

#[test]
fn configuration_matrix_is_complete() {
    // Every *complete* configuration must agree with the default.
    let trees = synthetic_sized(90, 35, 47);
    let tau = 2;
    let reference = partsj_join(&trees, tau);
    for partitioning in [
        PartitionScheme::MaxMin,
        PartitionScheme::Random { seed: 1 },
        PartitionScheme::Random { seed: 99 },
    ] {
        for matching in [
            partsj::MatchSemantics::Exact,
            partsj::MatchSemantics::Embedding,
        ] {
            let config = PartSjConfig {
                window: WindowPolicy::Safe,
                partitioning,
                matching,
                ..Default::default()
            };
            let outcome = partsj_join_with(&trees, tau, &config);
            assert_eq!(
                outcome.pairs, reference.pairs,
                "complete config {config:?} diverged"
            );
        }
    }
}
