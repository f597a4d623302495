//! Cross-crate integration: all four join implementations agree on every
//! dataset simulator, at every threshold, through the facade API.

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
    let params = SyntheticParams {
        avg_size: 40, // keep the oracle cheap
        ..SyntheticParams::default()
    };
    check_dataset("synthetic", &synthetic(120, &params, 45));
}

#[test]
fn parallel_variants_agree_with_sequential() {
    let trees = synthetic(
        150,
        &SyntheticParams {
            avg_size: 30,
            ..SyntheticParams::default()
        },
        46,
    );
    // One prober feeding four verifiers.
    let pool = ShardConfig {
        probe_threads: 1,
        verify_threads: 4,
        ..ShardConfig::default()
    };
    for tau in [1u32, 3] {
        let seq = partsj_join(&trees, tau);
        let par = sharded_join(&trees, tau, &PartSjConfig::default(), &pool);
        assert_eq!(
            seq.pairs, par.pairs,
            "parallel PartSJ diverged at tau {tau}"
        );
        let oracle_par = tree_similarity_join::baselines::brute_force_join_parallel(&trees, tau, 4);
        assert_eq!(seq.pairs, oracle_par.pairs);
    }
}

#[test]
fn configuration_matrix_is_complete() {
    // Every *complete* configuration must agree with the default.
    let trees = synthetic(
        90,
        &SyntheticParams {
            avg_size: 35,
            ..SyntheticParams::default()
        },
        47,
    );
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
