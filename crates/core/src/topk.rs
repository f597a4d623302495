//! Top-k / threshold-free similarity join: the k closest tree pairs,
//! no τ required up front.
//!
//! The classic PartSJ join answers "all pairs within τ" — but picking τ
//! is exactly the part users get wrong on an unfamiliar corpus. This
//! module inverts the contract: ask for the **k most similar pairs**
//! and let the engine derive its own threshold, in the spirit of Xu &
//! Lu's adaptive tightening — as results accumulate, the constraint the
//! remaining candidates must beat gets stricter.
//!
//! ## How the threshold adapts
//!
//! A pass runs Algorithm 1 at a fixed partition ceiling `τ_c` with a
//! bounded max-heap of the best k `(distance, i, j)` keys seen so far.
//! Once the heap is full, its worst key's distance becomes the
//! **effective τ**: it narrows the probed size window
//! `[|T| − τ_eff, |T|]` and is fed into [`VerifyEngine::check_exact`]
//! via [`VerifyEngine::set_tau`], so both candidate generation and
//! verification prune against the live k-th best distance. Shrinking
//! the probe threshold below the ceiling the index was partitioned at
//! is exactly the catalog's `τ_q ≤ τ_frozen` contract — the `2τ_c + 1`
//! partitioning over-covers, so the candidate set stays complete.
//!
//! If a pass at `τ_c` yields fewer than k pairs, the ceiling doubles
//! and the pass reruns — capped at `2·max|T|`, which bounds every TED
//! (delete all of one tree, insert all of the other), so termination
//! with *all* existing pairs is guaranteed when the collection has
//! fewer than k.
//!
//! ## Ordering and ties
//!
//! Results are the first k entries of the exhaustive join sorted by
//! `(distance, i, j)` with `i < j`: ties on distance break toward the
//! lexicographically smallest index pair, because the heap compares
//! full keys — a new pair evicts the current worst whenever its whole
//! `(d, i, j)` key is smaller, not just its distance. The property test
//! `topk_matches_exhaustive_join` pins this against brute force.

use crate::config::PartSjConfig;
use crate::join::ascending_join;
use crate::verify::{VerifyData, VerifyEngine};
use std::collections::BinaryHeap;
use tsj_ted::{JoinStats, TreeIdx};
use tsj_tree::Tree;

/// One result of a top-k join: an index pair and its **exact** distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKPair {
    /// Smaller tree index of the pair.
    pub i: TreeIdx,
    /// Larger tree index of the pair (`i < j` always).
    pub j: TreeIdx,
    /// Exact tree edit distance between the two trees.
    pub distance: u32,
}

/// The output of [`partsj_topk`]: the k closest pairs plus the
/// instrumentation of the final (deciding) pass.
#[derive(Debug, Clone)]
pub struct TopKOutcome {
    /// The k closest pairs, ascending by `(distance, i, j)`. Shorter
    /// than k only when the collection has fewer than k pairs in total.
    pub pairs: Vec<TopKPair>,
    /// Counters of the final escalation pass (earlier, too-tight passes
    /// are discarded along with their stats).
    pub stats: JoinStats,
    /// Escalation passes run (1 when the initial ceiling sufficed).
    pub passes: u32,
    /// The partition ceiling `τ_c` of the final pass.
    pub final_tau: u32,
}

/// The k most similar pairs of `trees` under the default configuration.
/// See the [module docs](crate::topk) for semantics and ordering.
pub fn partsj_topk(trees: &[Tree], k: usize) -> TopKOutcome {
    partsj_topk_with(trees, k, &PartSjConfig::default())
}

/// The k most similar pairs of `trees` with an explicit configuration
/// (window policy, partitioning scheme, filter chain and adaptivity all
/// apply; the verify chain runs in [`VerifyEngine::check_exact`] mode
/// so every reported distance is exact).
pub fn partsj_topk_with(trees: &[Tree], k: usize, config: &PartSjConfig) -> TopKOutcome {
    let n = trees.len();
    let total_pairs = n.saturating_sub(1) * n / 2;
    let want = k.min(total_pairs);
    if want == 0 {
        return TopKOutcome {
            pairs: Vec::new(),
            stats: JoinStats::default(),
            passes: 0,
            final_tau: 0,
        };
    }

    // Shared preprocessing — none of it depends on the pass ceiling.
    let data: Vec<VerifyData> = VerifyData::batch(trees);

    // Every TED is at most |a| + |b| (delete one tree, insert the
    // other), so a ceiling of 2·max|T| finds every existing pair.
    let max_size = trees.iter().map(Tree::len).max().unwrap_or(0) as u32;
    let cap = (2 * max_size).max(1);

    let mut tau_c = 1u32;
    let mut passes = 0u32;
    loop {
        passes += 1;
        let (pairs, stats) = topk_pass(trees, &data, want, tau_c, config);
        if pairs.len() >= want || tau_c >= cap {
            return TopKOutcome {
                pairs,
                stats,
                passes,
                final_tau: tau_c,
            };
        }
        tau_c = tau_c.saturating_mul(2).min(cap);
    }
}

/// One Algorithm-1 pass at partition ceiling `tau_c`, keeping the best
/// `want` pairs in a bounded max-heap whose worst key is the live
/// probe/verify threshold.
fn topk_pass(
    trees: &[Tree],
    data: &[VerifyData],
    want: usize,
    tau_c: u32,
    config: &PartSjConfig,
) -> (Vec<TopKPair>, JoinStats) {
    let mut verify = VerifyEngine::new(tau_c, config);
    // Max-heap over full `(distance, i, j)` keys: `peek` is the pair to
    // beat, and comparing whole keys makes tie handling (same distance,
    // smaller indices win) automatic.
    let mut heap: BinaryHeap<(u32, TreeIdx, TreeIdx)> = BinaryHeap::with_capacity(want + 1);
    // Once the heap is full, only pairs beating its worst distance matter.
    let live = |heap: &BinaryHeap<(u32, TreeIdx, TreeIdx)>| match heap.peek() {
        Some(&(worst, _, _)) if heap.len() == want => worst,
        _ => tau_c,
    };
    let (mut stats, _) = ascending_join(trees, tau_c, config, |i, found, _| {
        for &j in found {
            // Re-read the worst key per candidate: the heap may have
            // tightened while this very list was being verified.
            verify.set_tau(live(&heap));
            if let Some(d) = verify.check_exact(&data[i as usize], &data[j as usize]) {
                // Keys are unique: a full heap drops the new key itself
                // unless it beats the worst.
                heap.push((d, i.min(j), i.max(j)));
                if heap.len() > want {
                    heap.pop();
                }
            }
        }
        live(&heap)
    });

    verify.fold_into(&mut stats);
    let mut keys = heap.into_vec();
    keys.sort_unstable();
    stats.results = keys.len() as u64;
    let pairs = keys
        .into_iter()
        .map(|(distance, i, j)| TopKPair { i, j, distance })
        .collect();
    (pairs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_ted::ted;
    use tsj_tree::{parse_bracket, LabelInterner};

    fn collection(specs: &[&str]) -> Vec<Tree> {
        let mut labels = LabelInterner::new();
        specs
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect()
    }

    /// Brute-force oracle: every pair, sorted by `(distance, i, j)`.
    fn exhaustive(trees: &[Tree]) -> Vec<TopKPair> {
        let mut all = Vec::new();
        for i in 0..trees.len() {
            for j in (i + 1)..trees.len() {
                all.push(TopKPair {
                    i: i as TreeIdx,
                    j: j as TreeIdx,
                    distance: ted(&trees[i], &trees[j]),
                });
            }
        }
        all.sort_by_key(|p| (p.distance, p.i, p.j));
        all
    }

    #[test]
    fn topk_matches_exhaustive_prefix() {
        let trees = collection(&[
            "{a{b}{c}{d}}",
            "{a{b}{c}{e}}",
            "{a{b}{c}}",
            "{z{y}{x}{w}{v}{u}}",
            "{a{b}{c}{d}}",
        ]);
        let oracle = exhaustive(&trees);
        for k in 0..=oracle.len() + 2 {
            let outcome = partsj_topk(&trees, k);
            let want = k.min(oracle.len());
            assert_eq!(outcome.pairs, oracle[..want], "k = {k}");
        }
    }

    #[test]
    fn ties_break_toward_smaller_index_pairs() {
        // Three identical trees: pairs (0,1), (0,2), (1,2) all at
        // distance 0 — k = 2 must keep the lexicographically smallest.
        let trees = collection(&["{a{b}{c}}", "{a{b}{c}}", "{a{b}{c}}", "{q{r{s{t}}}}"]);
        let outcome = partsj_topk(&trees, 2);
        assert_eq!(
            outcome.pairs,
            vec![
                TopKPair {
                    i: 0,
                    j: 1,
                    distance: 0
                },
                TopKPair {
                    i: 0,
                    j: 2,
                    distance: 0
                },
            ]
        );
    }

    #[test]
    fn escalation_finds_distant_pairs() {
        // No pair within τ = 1: the ceiling must escalate until the two
        // closest (still far apart) trees surface.
        let trees = collection(&["{a{b{c{d{e}}}}}", "{v{w}{x}{y}{z}}", "{m}"]);
        let oracle = exhaustive(&trees);
        let outcome = partsj_topk(&trees, 1);
        assert_eq!(outcome.pairs, oracle[..1]);
        assert!(outcome.passes > 1, "τ must have escalated");
    }

    #[test]
    fn k_beyond_population_returns_everything() {
        let trees = collection(&["{a{b}}", "{a{c}}", "{x{y{z}}}"]);
        let outcome = partsj_topk(&trees, 100);
        assert_eq!(outcome.pairs, exhaustive(&trees));
        assert_eq!(outcome.stats.results, 3);
    }

    #[test]
    fn degenerate_inputs_are_empty() {
        assert!(partsj_topk(&[], 5).pairs.is_empty());
        let one = collection(&["{a}"]);
        assert!(partsj_topk(&one, 5).pairs.is_empty());
        let trees = collection(&["{a{b}}", "{a{c}}"]);
        let outcome = partsj_topk(&trees, 0);
        assert!(outcome.pairs.is_empty());
        assert_eq!(outcome.passes, 0);
    }
}
