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
//!
//! That probe phase is [`probe_right`], generic over the index a
//! [`Prober`] walks: [`partsj_join_rs`] runs it over one
//! [`SubgraphIndex`], and `tsj-shard`'s frozen side runs it over its
//! sharded index on the inline path of every R×S join it serves.

use crate::config::{MatchSemantics, PartSjConfig};
use crate::index::SubgraphIndex;
use crate::probe::{window_of, ProbeIndex, Prober};
use crate::verify::{ProbeVerify, VerifyData, VerifyEngine};
use std::time::Instant;
use tsj_ted::{JoinOutcome, JoinStats, TreeIdx};
use tsj_tree::Tree;

/// R×S similarity join: all pairs `(i, j)` with `TED(left[i], right[j]) ≤
/// tau`. Pair indices refer to the respective input collections.
pub fn partsj_join_rs(
    left: &[Tree],
    right: &[Tree],
    tau: u32,
    config: &PartSjConfig,
) -> JoinOutcome {
    // Build phase: publish every left tree.
    let build_start = Instant::now();
    let mut index = SubgraphIndex::new(tau, config.window);
    let mut prober = Prober::default();
    for (i, tree) in (0..).zip(left) {
        prober.prepare(tree);
        prober.publish(&mut index, i, config.partitioning);
    }
    let left_data: Vec<VerifyData> = VerifyData::batch(left);
    let build_time = build_start.elapsed();

    let mut engine = VerifyEngine::new(tau, config);
    let mut pairs = Vec::new();
    let mut stats = probe_right(
        &index,
        left.len(),
        |i| &left_data[i as usize],
        right,
        config.matching,
        &mut engine,
        &mut prober,
        &mut ProbeVerify::new(),
        &mut pairs,
    );
    stats.candidate_time += build_time;
    JoinOutcome::new_bipartite(pairs, stats)
}

/// The probe phase of an R×S join, written once: each right tree
/// `right[j]` probes the window `[|s| − τ, |s| + τ]` of `index` at the
/// engine's threshold (container ids in `0..universe`), and each
/// candidate `i` is verified against `left(i)`; pairs `(i, j)` within `τ`
/// are appended to `pairs`. Returns the candidate counts, phase times
/// and the engine's counters (`results` is the caller's to set).
#[allow(clippy::too_many_arguments)]
pub fn probe_right<'d, I: ProbeIndex>(
    index: &I,
    universe: usize,
    left: impl Fn(TreeIdx) -> &'d VerifyData,
    right: &[Tree],
    matching: MatchSemantics,
    engine: &mut VerifyEngine,
    prober: &mut Prober,
    prep: &mut ProbeVerify,
    pairs: &mut Vec<(TreeIdx, TreeIdx)>,
) -> JoinStats {
    let mut stats = JoinStats::default();
    for (j, tree) in (0..).zip(right) {
        let probe_start = Instant::now();
        let window = window_of(prober.prepare(tree), engine.tau());
        let (found, _, _) = prober.probe(index, window, universe, matching);
        stats.candidates += found.len() as u64;
        stats.candidate_time += probe_start.elapsed();

        let verify_start = Instant::now();
        let data_j = prep.prepare(tree);
        for &i in found {
            if engine.check(left(i), data_j).is_some() {
                pairs.push((i, j));
            }
        }
        stats.verify_time += verify_start.elapsed();
    }
    stats.pairs_examined = stats.candidates;
    engine.fold_into(&mut stats);
    stats
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
