//! Independent references the workloads' outputs are held against.
//!
//! Nothing here goes through PartSJ's index or verify chain: the join
//! workloads compare with `tsj_baselines::str_join`, the serving workload
//! with single-node `Catalog::join`, and the streaming workload with plain
//! exact TED (`tsj_ted::TedEngine`, no bound, no filter) over the live
//! window.

use tsj_ted::{JoinStats, PreparedTree, StageCount, TedEngine, TreeIdx};
use tsj_tree::Tree;

/// Order-sensitive FNV-1a fingerprint of a result-pair list (joins return
/// pairs sorted, so equal fingerprints mean equal results).
pub fn pair_fingerprint(pairs: &[(TreeIdx, TreeIdx)]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(pairs.len() as u64);
    for &(i, j) in pairs {
        eat(u64::from(i) << 32 | u64::from(j));
    }
    h
}

/// Whether two runs of the same join did the same work: candidates, exact
/// TED calls, filter skips and accepts, and the per-stage counters (by
/// name — partial stats merge in arrival order). Wall times are not work.
pub fn same_counters(a: &JoinStats, b: &JoinStats) -> bool {
    let stages = |stats: &JoinStats| -> Vec<StageCount> {
        let mut stages = stats.stage_counts.clone();
        stages.sort_by_key(|s| s.stage);
        stages
    };
    (
        a.candidates,
        a.ted_calls,
        a.prefilter_skips,
        a.early_accepts,
    ) == (
        b.candidates,
        b.ted_calls,
        b.prefilter_skips,
        b.early_accepts,
    ) && stages(a) == stages(b)
}

/// The partners a sliding-count window must report for arrival `id`:
/// every live arrival `j ∈ [id − window + 1, id)` within `tau` of it,
/// ascending — size-filtered brute force with exact TED. `tree_of` maps an
/// arrival ordinal to its tree.
pub fn window_partners<'a>(
    id: usize,
    window: usize,
    tau: u32,
    tree_of: impl Fn(usize) -> &'a Tree,
    ted: &mut TedEngine,
) -> Vec<TreeIdx> {
    let probe = tree_of(id);
    let prepared = PreparedTree::new(probe);
    (id.saturating_sub(window - 1)..id)
        .filter(|&j| {
            let other = tree_of(j);
            probe.len().abs_diff(other.len()) <= tau as usize
                && ted.distance(&prepared, &PreparedTree::new(other)) <= tau
        })
        .map(|j| j as TreeIdx)
        .collect()
}

/// Whether every reported partner of arrival `id` is live in the window
/// and really within `tau` (exact TED, no filter).
pub fn partners_are_sound<'a>(
    id: usize,
    partners: &[TreeIdx],
    window: usize,
    tau: u32,
    tree_of: impl Fn(usize) -> &'a Tree,
    ted: &mut TedEngine,
) -> bool {
    partners.iter().all(|&j| {
        let j = j as usize;
        j < id && id - j < window && ted.distance_trees(tree_of(id), tree_of(j)) <= tau
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::{parse_bracket, LabelInterner};

    #[test]
    fn fingerprint_sees_order_length_and_content() {
        let a = pair_fingerprint(&[(0, 1), (2, 3)]);
        assert_eq!(a, pair_fingerprint(&[(0, 1), (2, 3)]));
        assert_ne!(a, pair_fingerprint(&[(2, 3), (0, 1)]));
        assert_ne!(a, pair_fingerprint(&[(0, 1)]));
        assert_ne!(a, pair_fingerprint(&[(0, 1), (2, 4)]));
        assert_ne!(pair_fingerprint(&[]), pair_fingerprint(&[(0, 0)]));
    }

    #[test]
    fn counters_compare_by_stage_name_and_ignore_wall_time() {
        let stage = |stage, count| StageCount { stage, count };
        let a = JoinStats {
            candidates: 5,
            ted_calls: 2,
            stage_counts: vec![stage("size", 1), stage("label-hist", 2)],
            verify_time: std::time::Duration::from_millis(3),
            ..JoinStats::default()
        };
        let mut b = JoinStats {
            stage_counts: vec![stage("label-hist", 2), stage("size", 1)],
            verify_time: std::time::Duration::ZERO,
            ..a.clone()
        };
        assert!(same_counters(&a, &b));
        b.ted_calls += 1;
        assert!(!same_counters(&a, &b));
    }

    #[test]
    fn window_oracle_respects_the_window_and_tau() {
        let mut labels = LabelInterner::new();
        let trees: Vec<Tree> = ["{a{b}{c}}", "{a{b}{z}}", "{x{y}}", "{a{b}{c}}"]
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect();
        let tree_of = |i: usize| &trees[i];
        let ted = &mut TedEngine::unit();
        assert_eq!(window_partners(3, 4, 1, tree_of, ted), vec![0, 1]);
        // A window of 3 has already let arrival 0 go.
        assert_eq!(window_partners(3, 3, 1, tree_of, ted), vec![1]);
        assert!(partners_are_sound(3, &[0, 1], 4, 1, tree_of, ted));
        assert!(
            !partners_are_sound(3, &[0], 3, 1, tree_of, ted),
            "0 is evicted"
        );
        assert!(!partners_are_sound(3, &[2], 4, 1, tree_of, ted), "too far");
    }
}
