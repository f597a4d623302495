//! Shared result and instrumentation types for similarity joins.
//!
//! The paper's evaluation reports, for every join method, (i) the result
//! pairs, (ii) the number of candidate pairs that reached exact TED
//! verification (Figures 11/13), and (iii) runtime split into *candidate
//! generation* and *TED computation* (the stacked bars of Figures 10/12/
//! 14). All join implementations in this workspace — STR, SET, brute force
//! and PartSJ — return the same [`JoinOutcome`] so the harness and the
//! equivalence tests can treat them uniformly.

use std::collections::BTreeMap;
use std::time::Duration;

/// Index of a tree within the joined collection.
pub type TreeIdx = u32;

/// One verification-chain stage's counter: how many candidate pairs were
/// *resolved* at this stage — rejected by a lower bound, or admitted by an
/// upper bound — and therefore never reached the exact TED computation.
///
/// The stage name is one of the verify chain's closed set (`"size"`,
/// `"shape-accept"`, `"label-hist"`, `"traversal-sed"`); this crate only
/// defines the counter shape so every join entry point can report the
/// same breakdown in [`JoinStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageCount {
    /// Stage name, as reported by the verify chain.
    pub stage: &'static str,
    /// Candidate pairs resolved at this stage.
    pub count: u64,
}

/// Counters and timings collected while evaluating a join.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Pairs that passed the size filter and were examined at all.
    pub pairs_examined: u64,
    /// Candidate pairs handed to exact TED verification (the series
    /// plotted in Figures 11 and 13).
    pub candidates: u64,
    /// Result pairs (`REL` in the figures).
    pub results: u64,
    /// Wall time spent generating candidates (filters, index probes).
    pub candidate_time: Duration,
    /// Wall time spent on exact TED verification.
    pub verify_time: Duration,
    /// Exact TED computations performed (≤ `candidates`; verifier-side
    /// cheap filters can skip some).
    pub ted_calls: u64,
    /// Candidates rejected by cheap pre-verification lower bounds (size,
    /// label histogram, traversal-string) before any exact TED ran; such
    /// skips never remove a true result because every bound is a TED
    /// lower bound. Equals the sum of the lower-bound entries of
    /// [`JoinStats::stage_counts`].
    pub prefilter_skips: u64,
    /// Candidates *admitted* by a cheap upper bound (TED ≤ certificate ≤
    /// τ) without running the exact TED DP; such accepts never add a
    /// false result because every certificate is a valid edit-script
    /// cost.
    pub early_accepts: u64,
    /// Per-stage breakdown of where candidates were resolved before exact
    /// TED, one row per stage in the chain's stage-name order (one row for
    /// both halves of `shape-accept`). Empty when the entry point
    /// ran without a verification chain.
    pub stage_counts: Vec<StageCount>,
}

/// The deterministic half of a [`JoinStats`] — what the bit-identity
/// contract between join paths compares: the six work counters and the
/// per-stage counters keyed by name (rows that resolved nothing dropped,
/// so report order and omitted stages do not matter). Wall times are
/// left out. Built by [`JoinStats::work`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinWork {
    /// [`JoinStats::pairs_examined`].
    pub pairs_examined: u64,
    /// [`JoinStats::candidates`].
    pub candidates: u64,
    /// [`JoinStats::results`].
    pub results: u64,
    /// [`JoinStats::ted_calls`].
    pub ted_calls: u64,
    /// [`JoinStats::prefilter_skips`].
    pub prefilter_skips: u64,
    /// [`JoinStats::early_accepts`].
    pub early_accepts: u64,
    /// Nonzero [`JoinStats::stage_counts`], by stage name.
    pub stages: BTreeMap<&'static str, u64>,
}

impl JoinStats {
    /// The counters two bit-identical joins must agree on: compare with
    /// `assert_eq!(a.stats.work(), b.stats.work())`.
    pub fn work(&self) -> JoinWork {
        let mut stages = BTreeMap::new();
        for sc in self.stage_counts.iter().filter(|sc| sc.count > 0) {
            *stages.entry(sc.stage).or_insert(0) += sc.count;
        }
        JoinWork {
            pairs_examined: self.pairs_examined,
            candidates: self.candidates,
            results: self.results,
            ted_calls: self.ted_calls,
            prefilter_skips: self.prefilter_skips,
            early_accepts: self.early_accepts,
            stages,
        }
    }

    /// Total measured time (candidate generation + verification).
    pub fn total_time(&self) -> Duration {
        self.candidate_time + self.verify_time
    }

    /// Folds a partial result's counters into `self` — the gather half of
    /// a scatter/gather join, where each partition reports its own
    /// `JoinStats` and the router sums them. Work counters and phase
    /// timings add; `stage_counts` merge *by stage name* (partitions may
    /// report stages in different orders or omit stages that resolved
    /// nothing); `results` is left untouched because result pairs are
    /// deduplicated by the caller after the union, not summable here.
    pub fn merge_partial(&mut self, part: &JoinStats) {
        self.pairs_examined += part.pairs_examined;
        self.candidates += part.candidates;
        self.candidate_time += part.candidate_time;
        self.verify_time += part.verify_time;
        self.ted_calls += part.ted_calls;
        self.prefilter_skips += part.prefilter_skips;
        self.early_accepts += part.early_accepts;
        for sc in &part.stage_counts {
            match self.stage_counts.iter_mut().find(|c| c.stage == sc.stage) {
                Some(mine) => mine.count += sc.count,
                None => self.stage_counts.push(sc.clone()),
            }
        }
    }
}

/// The output of a similarity self-join.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// Result pairs as `(i, j)` indices into the input collection with
    /// `i < j`, sorted lexicographically.
    pub pairs: Vec<(TreeIdx, TreeIdx)>,
    /// Instrumentation.
    pub stats: JoinStats,
}

impl JoinOutcome {
    /// Builds a self-join outcome, normalizing each pair to `(min, max)`
    /// and sorting, so join implementations can be compared with
    /// `assert_eq!`.
    pub fn new(mut pairs: Vec<(TreeIdx, TreeIdx)>, mut stats: JoinStats) -> JoinOutcome {
        for pair in &mut pairs {
            if pair.0 > pair.1 {
                *pair = (pair.1, pair.0);
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        stats.results = pairs.len() as u64;
        JoinOutcome { pairs, stats }
    }

    /// Builds a bipartite (R×S) outcome: pairs are `(left index, right
    /// index)` in *different* index spaces, so components are never
    /// swapped — only sorted and deduplicated.
    pub fn new_bipartite(mut pairs: Vec<(TreeIdx, TreeIdx)>, mut stats: JoinStats) -> JoinOutcome {
        pairs.sort_unstable();
        pairs.dedup();
        stats.results = pairs.len() as u64;
        JoinOutcome { pairs, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_normalizes_pairs() {
        let outcome = JoinOutcome::new(vec![(3, 1), (0, 2), (1, 3), (2, 0)], JoinStats::default());
        assert_eq!(outcome.pairs, vec![(0, 2), (1, 3)]);
        assert_eq!(outcome.stats.results, 2);
    }

    #[test]
    fn merge_partial_sums_counters_and_folds_stages_by_name() {
        let mut total = JoinStats {
            pairs_examined: 10,
            candidates: 4,
            results: 2,
            ted_calls: 3,
            prefilter_skips: 1,
            early_accepts: 0,
            candidate_time: Duration::from_millis(5),
            verify_time: Duration::from_millis(7),
            stage_counts: vec![
                StageCount {
                    stage: "size",
                    count: 1,
                },
                StageCount {
                    stage: "traversal-sed",
                    count: 2,
                },
            ],
        };
        let part = JoinStats {
            pairs_examined: 6,
            candidates: 3,
            results: 99, // must not leak into the merged total
            ted_calls: 2,
            prefilter_skips: 2,
            early_accepts: 1,
            candidate_time: Duration::from_millis(1),
            verify_time: Duration::from_millis(2),
            stage_counts: vec![
                StageCount {
                    stage: "traversal-sed",
                    count: 5,
                },
                StageCount {
                    stage: "label-hist",
                    count: 4,
                },
            ],
        };
        total.merge_partial(&part);
        assert_eq!(total.pairs_examined, 16);
        assert_eq!(total.candidates, 7);
        assert_eq!(total.results, 2);
        assert_eq!(total.ted_calls, 5);
        assert_eq!(total.prefilter_skips, 3);
        assert_eq!(total.early_accepts, 1);
        assert_eq!(total.candidate_time, Duration::from_millis(6));
        assert_eq!(total.verify_time, Duration::from_millis(9));
        assert_eq!(
            total.stage_counts,
            vec![
                StageCount {
                    stage: "size",
                    count: 1,
                },
                StageCount {
                    stage: "traversal-sed",
                    count: 7,
                },
                StageCount {
                    stage: "label-hist",
                    count: 4,
                },
            ]
        );
    }

    #[test]
    fn work_ignores_durations_row_order_and_zero_rows_only() {
        let row = |stage, count| StageCount { stage, count };
        let stats = JoinStats {
            candidates: 9,
            ted_calls: 4,
            candidate_time: Duration::from_millis(5),
            stage_counts: vec![row("size", 2), row("label-hist", 3)],
            ..Default::default()
        };
        let same_work = JoinStats {
            candidate_time: Duration::from_millis(50),
            verify_time: Duration::from_millis(7),
            stage_counts: vec![
                row("label-hist", 3),
                row("traversal-sed", 0),
                row("size", 2),
            ],
            ..stats.clone()
        };
        assert_ne!(stats, same_work);
        assert_eq!(stats.work(), same_work.work());
        let one_stage_off = JoinStats {
            stage_counts: vec![row("size", 2), row("label-hist", 4)],
            ..stats.clone()
        };
        assert_ne!(stats.work(), one_stage_off.work());
        let one_counter_off = JoinStats {
            ted_calls: 5,
            ..stats.clone()
        };
        assert_ne!(stats.work(), one_counter_off.work());
    }

    #[test]
    fn total_time_adds_phases() {
        let stats = JoinStats {
            candidate_time: Duration::from_millis(30),
            verify_time: Duration::from_millis(70),
            ..Default::default()
        };
        assert_eq!(stats.total_time(), Duration::from_millis(100));
    }
}
