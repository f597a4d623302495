//! Non-self (R×S) similarity join — the paper notes in §1 that the
//! framework "is directly applicable for non-self joins"; this module
//! makes that concrete.
//!
//! Unlike the self-join, the index can be built offline: every tree of the
//! *left* collection is δ-partitioned and inserted first, then each
//! *right* tree probes all size lists within `[|s| − τ, |s| + τ]` (both
//! directions, since left trees may be larger or smaller). Lemma 2 applies
//! with `T1` the indexed left tree: if `TED(r, s) ≤ τ`, some subgraph of
//! `r` appears in `s`, so probing `s`'s nodes finds the pair.

use crate::config::PartSjConfig;
use crate::index::{LayerId, MatchCache, SubgraphIndex};
use crate::probe::{
    classes_within, probe_tree_nodes, resolve_layers, scan_small_trees, window_of, Candidates,
    ProbeCounters, ProbeScratch,
};
use crate::subgraph::{partition_tree_with, PartitionScratch};
use crate::verify::{ProbeVerify, VerifyData, VerifyEngine};
use std::time::Instant;
use tsj_ted::{JoinOutcome, JoinStats, TreeIdx};
use tsj_tree::{FxHashMap, Tree};

/// R×S similarity join: all pairs `(i, j)` with `TED(left[i], right[j]) ≤
/// tau`. Pair indices refer to the respective input collections.
pub fn partsj_join_rs(
    left: &[Tree],
    right: &[Tree],
    tau: u32,
    config: &PartSjConfig,
) -> JoinOutcome {
    let mut stats = JoinStats::default();

    // Build phase: partition and index every left tree.
    let build_start = Instant::now();
    let mut index = SubgraphIndex::new(tau, config.window);
    let mut small_by_size: FxHashMap<u32, Vec<TreeIdx>> = FxHashMap::default();
    let left_data: Vec<VerifyData> = VerifyData::batch_for_config(left, &config.verify);
    let mut probe_scratch = ProbeScratch::new();
    let mut partition_scratch = PartitionScratch::new();
    for (i, tree) in (0..).zip(left) {
        let size = tree.len() as u32;
        let (binary, posts) = probe_scratch.prepare(tree);
        let scheme = config.partitioning;
        match partition_tree_with(binary, posts, tau, scheme, i, &mut partition_scratch) {
            Some(subgraphs) => index.insert_tree(size, subgraphs),
            None => small_by_size.entry(size).or_default().push(i),
        }
    }
    stats.candidate_time += build_start.elapsed();

    // Probe phase: each right tree searches the left index.
    let mut verify = VerifyEngine::new(tau, config);
    let mut pairs: Vec<(TreeIdx, TreeIdx)> = Vec::new();
    // Scratch reused across right trees.
    let mut candidates = Candidates::new();
    let mut layer_window: Vec<LayerId> = Vec::new();
    let mut match_cache = MatchCache::new();
    let mut counters = ProbeCounters::default();
    let mut probe_verify = ProbeVerify::new();

    for (j, tree) in right.iter().enumerate() {
        let probe_start = Instant::now();
        let size_j = tree.len() as u32;
        let (lo, hi) = window_of(size_j, tau);
        candidates.begin(left.len());
        let mut sink = candidates.sink();
        let classes = classes_within(small_by_size.keys().copied(), lo, hi);
        scan_small_trees(&small_by_size, classes, &mut sink);

        // The offline index is frozen now: resolve the `2τ + 1` size
        // layers once per right tree.
        resolve_layers(&index, lo, hi, &mut layer_window);

        let (binary, posts) = probe_scratch.prepare(tree);
        probe_tree_nodes(
            &index,
            &layer_window,
            binary,
            posts,
            size_j,
            config.matching,
            &mut match_cache,
            &mut counters,
            &mut sink,
        );
        let found = candidates.as_slice();
        stats.candidates += found.len() as u64;
        stats.pairs_examined += found.len() as u64;
        stats.candidate_time += probe_start.elapsed();

        let verify_start = Instant::now();
        let data_j = probe_verify.prepare(tree);
        for &i in found {
            if verify.check(&left_data[i as usize], data_j).is_some() {
                pairs.push((i, j as TreeIdx));
            }
        }
        stats.verify_time += verify_start.elapsed();
    }

    verify.fold_into(&mut stats);
    JoinOutcome::new_bipartite(pairs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_ted::TedEngine;
    use tsj_tree::{parse_bracket, LabelInterner};

    fn collection(labels: &mut LabelInterner, specs: &[&str]) -> Vec<Tree> {
        specs
            .iter()
            .map(|s| parse_bracket(s, labels).unwrap())
            .collect()
    }

    fn brute_force_rs(left: &[Tree], right: &[Tree], tau: u32) -> Vec<(TreeIdx, TreeIdx)> {
        let mut engine = TedEngine::unit();
        let mut pairs = Vec::new();
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                if l.len().abs_diff(r.len()) as u32 <= tau && engine.distance_trees(l, r) <= tau {
                    pairs.push((i as TreeIdx, j as TreeIdx));
                }
            }
        }
        pairs
    }

    #[test]
    fn rs_join_matches_brute_force() {
        let mut labels = LabelInterner::new();
        let left = collection(
            &mut labels,
            &["{a{b}{c}}", "{a{b}{c}{d}}", "{q{w{e}{r}}}", "{z}"],
        );
        let right = collection(
            &mut labels,
            &[
                "{a{b}{c}}",
                "{a{b}{x}}",
                "{q{w{e}{r}{t}}}",
                "{z{y}}",
                "{m{n{o{p}}}}",
            ],
        );
        for tau in 0..=3u32 {
            let expected = brute_force_rs(&left, &right, tau);
            let outcome = partsj_join_rs(&left, &right, tau, &PartSjConfig::default());
            assert_eq!(outcome.pairs, expected, "tau = {tau}");
        }
    }

    #[test]
    fn rs_join_handles_asymmetric_sizes() {
        // Right trees larger than every left tree and vice versa.
        let mut labels = LabelInterner::new();
        let left = collection(&mut labels, &["{a{b}}", "{a{b}{c}{d}{e}{f}{g}}"]);
        let right = collection(&mut labels, &["{a{b}{c}}", "{a{b}{c}{d}{e}{f}}"]);
        for tau in 1..=2u32 {
            let expected = brute_force_rs(&left, &right, tau);
            let outcome = partsj_join_rs(&left, &right, tau, &PartSjConfig::default());
            assert_eq!(outcome.pairs, expected, "tau = {tau}");
        }
    }

    #[test]
    fn rs_join_with_empty_side() {
        let mut labels = LabelInterner::new();
        let trees = collection(&mut labels, &["{a}"]);
        let outcome = partsj_join_rs(&trees, &[], 2, &PartSjConfig::default());
        assert!(outcome.pairs.is_empty());
        let outcome = partsj_join_rs(&[], &trees, 2, &PartSjConfig::default());
        assert!(outcome.pairs.is_empty());
    }

    #[test]
    fn rs_join_is_bipartite_not_symmetric_normalized() {
        // Pair (3, 0) must stay (3, 0) — left index 3, right index 0.
        let mut labels = LabelInterner::new();
        let left = collection(&mut labels, &["{x}", "{y}", "{z}", "{a{b}}"]);
        let right = collection(&mut labels, &["{a{b}}"]);
        let outcome = partsj_join_rs(&left, &right, 0, &PartSjConfig::default());
        assert_eq!(outcome.pairs, vec![(3, 0)]);
    }
}
