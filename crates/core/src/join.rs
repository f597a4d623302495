//! The PartSJ join loop (§3.2, Algorithm 1).
//!
//! Trees are processed in ascending size order. For each tree `T_i`:
//!
//! 1. **Probe.** Every node `N` of `T_i`'s LC-RS representation probes the
//!    two-layer index of every size list `I_n`, `n ∈ [|T_i| − τ, |T_i|]`.
//!    Retrieved subgraphs are matched at `N`; the first successful match
//!    for a container tree `T_j` makes `(T_i, T_j)` a candidate pair.
//! 2. **Verify.** Candidates are checked with exact TED (`≤ τ`).
//! 3. **Insert.** `T_i` is δ-partitioned (`δ = 2τ + 1`) with the
//!    max-min-size scheme and its subgraphs join the index for subsequent
//!    probes. Trees smaller than `δ` cannot be δ-partitioned; they go to a
//!    size-keyed side list and are verified directly by later probes
//!    (Lemma 2 offers no filter for them — the paper leaves this case
//!    implicit).
//!
//! No offline index is built: the index grows while the join runs, so each
//! unordered pair is considered exactly once (when its larger tree probes).

use crate::config::PartSjConfig;
use crate::index::SubgraphIndex;
use crate::probe::{window_of, Prober};
use crate::verify::{VerifyData, VerifyEngine};
use std::time::Instant;
use tsj_ted::{JoinOutcome, JoinStats, TreeIdx};
use tsj_tree::Tree;

/// PartSJ-specific instrumentation beyond the common [`JoinStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartSjDetail {
    /// Subgraphs built and inserted into the index.
    pub subgraphs_built: u64,
    /// Total `(position, twig)` group registrations in the index.
    pub index_registrations: u64,
    /// Index probes issued (node × *populated* size-layer combinations;
    /// empty size classes are skipped when the window is resolved per
    /// tree).
    pub probes: u64,
    /// Subgraph match attempts (handles surfaced by the index).
    pub match_attempts: u64,
    /// Match attempts that succeeded (≥ candidates; one pair can match
    /// several times before it is stamped).
    pub matches: u64,
    /// Candidate pairs contributed by the small-tree side list.
    pub small_tree_candidates: u64,
}

/// Runs PartSJ with the default configuration (max-min partitioning,
/// provably complete general-postorder window).
pub fn partsj_join(trees: &[Tree], tau: u32) -> JoinOutcome {
    partsj_join_with(trees, tau, &PartSjConfig::default())
}

/// Runs PartSJ with an explicit configuration.
pub fn partsj_join_with(trees: &[Tree], tau: u32, config: &PartSjConfig) -> JoinOutcome {
    partsj_join_detailed(trees, tau, config).0
}

/// Runs PartSJ and also returns the detailed instrumentation.
pub fn partsj_join_detailed(
    trees: &[Tree],
    tau: u32,
    config: &PartSjConfig,
) -> (JoinOutcome, PartSjDetail) {
    // Observability handles, hoisted out of the probe loop (handle lookup
    // locks the registry; recording is a relaxed atomic). None of this
    // affects results: the ON/DISABLED equivalence is property-tested.
    let obs = tsj_obs::global();
    let obs_on = obs.is_enabled();
    let join_span = tsj_obs::span("core.join", "core");
    let fanout_hist = obs.histogram("tsj_core_probe_fanout_layers");
    let cand_hist = obs.histogram("tsj_core_probe_candidates");

    // Per-tree verification data, batch-prepared through one shared set
    // of build temporaries (charged to candidate generation, like the
    // baselines' traversal strings and branch bags).
    let setup_start = Instant::now();
    let data: Vec<VerifyData> = VerifyData::batch(trees);
    let setup_time = setup_start.elapsed();

    let mut verify = VerifyEngine::new(tau, config);
    let mut pairs: Vec<(TreeIdx, TreeIdx)> = Vec::new();
    let (mut stats, detail) = ascending_join(trees, tau, config, |i, found, fanout| {
        if obs_on {
            fanout_hist.record(fanout as u64);
            cand_hist.record(found.len() as u64);
        }
        // Verification through the configured filter chain (cheap bounds
        // first, exact TED only for undecided pairs — see
        // [`crate::verify`] for the chain and its cost model).
        for &j in found {
            if verify.check(&data[i as usize], &data[j as usize]).is_some() {
                pairs.push((j, i));
            }
        }
        tau
    });
    stats.candidate_time += setup_time;
    verify.fold_into(&mut stats);
    if obs_on {
        obs.counter("tsj_core_joins_total").inc();
        obs.counter("tsj_core_candidates_total")
            .add(stats.candidates);
        obs.counter("tsj_core_ted_calls_total").add(stats.ted_calls);
        obs.counter("tsj_core_result_pairs_total")
            .add(pairs.len() as u64);
        obs.histogram("tsj_core_candidate_ms")
            .record(stats.candidate_time.as_millis() as u64);
        obs.histogram("tsj_core_verify_ms")
            .record(stats.verify_time.as_millis() as u64);
    }
    join_span.end();
    (JoinOutcome::new(pairs, stats), detail)
}

/// Algorithm 1's interleaved loop, shared by the self-join and top-k:
/// trees in ascending size order, each prepared, probed against the
/// trees before it in `[|T| − τ_live, |T|]` (nothing larger is indexed
/// yet), its candidates handed to `sink`, then published at `tau`.
/// `sink` gets the tree, its candidates and how many size layers it
/// probed, and returns `τ_live` for the next tree (`tau` for the first;
/// a smaller one stays complete, since the index is partitioned for
/// `tau`). The sink's time is verification, the rest candidate
/// generation.
pub(crate) fn ascending_join(
    trees: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    mut sink: impl FnMut(TreeIdx, &[TreeIdx], usize) -> u32,
) -> (JoinStats, PartSjDetail) {
    let mut stats = JoinStats::default();
    let mut detail = PartSjDetail::default();
    let mut mark = Instant::now();
    let mut order: Vec<TreeIdx> = (0..trees.len() as TreeIdx).collect();
    order.sort_by_key(|&i| (trees[i as usize].len(), i));
    let mut index = SubgraphIndex::new(tau, config.window);
    let mut prober = Prober::default();
    let mut tau_live = tau;
    for i in order {
        let size = prober.prepare(&trees[i as usize]);
        let window = (window_of(size, tau_live).0, size);
        let (found, side_admitted, fanout) =
            prober.probe(&index, window, trees.len(), config.matching);
        detail.small_tree_candidates += side_admitted;
        stats.candidates += found.len() as u64;
        let probed = Instant::now();
        stats.candidate_time += probed - mark;
        tau_live = sink(i, found, fanout);
        mark = Instant::now();
        stats.verify_time += mark - probed;
        detail.subgraphs_built += prober.publish(&mut index, i, config.partitioning) as u64;
    }
    stats.candidate_time += mark.elapsed();
    stats.pairs_examined = stats.candidates;
    let counters = prober.counters();
    detail.probes = counters.probes;
    detail.match_attempts = counters.match_attempts;
    detail.matches = counters.matches;
    detail.index_registrations = index.registrations();
    (stats, detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PartitionScheme, WindowPolicy};
    use tsj_tree::{parse_bracket, LabelInterner};

    fn collection(specs: &[&str]) -> Vec<Tree> {
        let mut labels = LabelInterner::new();
        specs
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect()
    }

    #[test]
    fn finds_exact_duplicates_at_tau_zero() {
        let trees = collection(&["{a{b}{c}}", "{a{b}{c}}", "{a{b}{d}}", "{a{b}{c}}"]);
        let outcome = partsj_join(&trees, 0);
        assert_eq!(outcome.pairs, vec![(0, 1), (0, 3), (1, 3)]);
    }

    #[test]
    fn finds_near_duplicates_small_tau() {
        let trees = collection(&[
            "{a{b}{c}{d}}",
            "{a{b}{c}{e}}", // one rename away from 0
            "{a{b}{c}}",    // one delete away from 0
            "{z{y}{x}{w}{v}{u}}",
        ]);
        let outcome = partsj_join(&trees, 1);
        assert_eq!(outcome.pairs, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn small_trees_are_joined_via_side_list() {
        // With τ = 2, δ = 5: trees below 5 nodes use the side list.
        let trees = collection(&["{a}", "{a{b}}", "{a{b}{c}}", "{x}"]);
        let (outcome, detail) = partsj_join_detailed(&trees, 2, &PartSjConfig::default());
        // d({a},{a{b}})=1, d({a},{a{b}{c}})=2, d({a{b}},{a{b}{c}})=1,
        // d({a},{x})=1, d({a{b}},{x})=2, d({a{b}{c}},{x})=3 (too far).
        assert_eq!(outcome.pairs, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]);
        assert!(detail.small_tree_candidates > 0);
        assert_eq!(detail.subgraphs_built, 0, "no tree reaches δ = 5 nodes");
    }

    #[test]
    fn mixed_small_and_large_trees() {
        let trees = collection(&[
            "{a{b{c}{d}}{e{f}{g}}}", // 7 nodes
            "{a{b{c}{d}}{e{f}{h}}}", // 7 nodes, one rename away
            "{a{b}}",                // 2 nodes
            "{a}",                   // 1 node
        ]);
        let outcome = partsj_join(&trees, 1);
        assert_eq!(outcome.pairs, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn candidate_counts_are_sane() {
        let trees = collection(&[
            "{a{b}{c}{d}}",
            "{a{b}{c}{e}}",
            "{a{b}{c}}",
            "{q{w}{e}{r}}",
            "{q{w}{e}{r}}",
        ]);
        let (outcome, detail) = partsj_join_detailed(&trees, 1, &PartSjConfig::default());
        assert!(outcome.stats.candidates >= outcome.stats.results);
        assert!(detail.match_attempts >= detail.matches);
        // Every candidate is resolved exactly once: rejected by a lower
        // bound, admitted by an upper bound, or TED-verified.
        assert_eq!(
            outcome.stats.ted_calls + outcome.stats.prefilter_skips + outcome.stats.early_accepts,
            outcome.stats.candidates
        );
        // The per-stage breakdown sums to the pre-TED resolutions.
        let staged: u64 = outcome.stats.stage_counts.iter().map(|c| c.count).sum();
        assert_eq!(
            staged,
            outcome.stats.prefilter_skips + outcome.stats.early_accepts
        );
    }

    #[test]
    fn all_window_policies_agree_here() {
        // Equal-sized trees: absolute and suffix coordinates coincide, so
        // even the literal paper window is complete on this input.
        let trees = collection(&[
            "{a{b}{c}{d}}",
            "{a{b}{c}{e}}",
            "{a{b}{x}{d}}",
            "{m{n}{o}{p}}",
        ]);
        let tight = partsj_join(&trees, 1);
        let safe = partsj_join_with(
            &trees,
            1,
            &PartSjConfig {
                window: WindowPolicy::Safe,
                ..Default::default()
            },
        );
        let paper = partsj_join_with(
            &trees,
            1,
            &PartSjConfig::with_window(WindowPolicy::PaperAbsolute),
        );
        assert_eq!(tight.pairs, safe.pairs);
        assert_eq!(tight.pairs, paper.pairs);
    }

    #[test]
    fn random_partitioning_is_correct_but_weaker() {
        let trees = collection(&[
            "{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}",
            "{a{b{c}{d}}{e{f}{g}}{h{i}{k}}}",
            "{z{y{x}{w}}{v{u}{t}}{s{r}{q}}}",
        ]);
        let maxmin = partsj_join(&trees, 1);
        let random = partsj_join_with(
            &trees,
            1,
            &PartSjConfig {
                partitioning: PartitionScheme::Random { seed: 7 },
                ..Default::default()
            },
        );
        assert_eq!(maxmin.pairs, random.pairs, "schemes must agree on results");
    }

    #[test]
    fn empty_and_singleton_collections() {
        let outcome = partsj_join(&[], 2);
        assert!(outcome.pairs.is_empty());
        let trees = collection(&["{a{b}}"]);
        let outcome = partsj_join(&trees, 2);
        assert!(outcome.pairs.is_empty());
    }

    #[test]
    fn detail_counters_populate() {
        let trees = collection(&[
            "{a{b{c}{d}}{e{f}{g}}}",
            "{a{b{c}{d}}{e{f}{g}}}",
            "{a{b{c}{d}}{e{f}{h}}}",
        ]);
        let (_, detail) = partsj_join_detailed(&trees, 1, &PartSjConfig::default());
        assert!(detail.subgraphs_built >= 6, "{detail:?}");
        assert!(detail.index_registrations >= detail.subgraphs_built);
        assert!(detail.probes > 0);
    }
}
