//! The cluster join result: pairs, degradation report, telemetry.
//!
//! The degradation contract: a [`crate::Cluster::join`] either serves the
//! complete result (bit-identical to the single-node catalog join), or
//! returns the pairs it could still prove **plus** a typed [`Degraded`]
//! report naming exactly which `(probe, size class)` combinations went
//! unserved — never a silently incomplete answer, never a panic. Served
//! pairs are always correct (verification ran); degradation can only
//! *omit* pairs whose left tree lives in an unserved size class.
//!
//! [`Telemetry`] carries both join-level totals and a [`RequestStats`]
//! row per planned shard request (attempts, retries, backoff), so retry
//! pressure is visible without injecting a virtual clock. All of it is
//! deterministic under a seeded fault plan, and per-node sums from
//! [`crate::Router::metrics`] reconcile exactly with these totals.

use tsj_ted::{JoinOutcome, TreeIdx};

/// Exactly what a degraded join failed to cover.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Degraded {
    /// `(probe index, size class)` combinations that went unserved —
    /// sorted, deduplicated. A pair `(j, c)` means: catalog trees of
    /// `c` nodes were never probed for probe `j`, so result pairs whose
    /// left tree has `c` nodes may be missing for that probe.
    pub unserved: Vec<(TreeIdx, u32)>,
    /// Shards with no alive replica when the join finished — the
    /// unrecoverable losses behind the unserved classes. Empty when the
    /// degradation was transient (deadline exhaustion on a live shard).
    pub lost_shards: Vec<u32>,
    /// Serve attempts spent on the requests that still went unserved.
    pub attempts: u64,
    /// Retries spent on the requests that still went unserved.
    pub retries: u64,
    /// Backoff slept for the requests that still went unserved, in
    /// clock milliseconds.
    pub backoff_ms: u64,
}

impl Degraded {
    /// Distinct probes with at least one unserved size class.
    pub fn affected_probes(&self) -> usize {
        let mut probes: Vec<TreeIdx> = self.unserved.iter().map(|&(p, _)| p).collect();
        probes.dedup();
        probes.len()
    }

    /// Distinct size classes that went unserved for any probe.
    pub fn unserved_classes(&self) -> Vec<u32> {
        let mut classes: Vec<u32> = self.unserved.iter().map(|&(_, c)| c).collect();
        classes.sort_unstable();
        classes.dedup();
        classes
    }
}

/// What one planned shard request cost the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestStats {
    /// The probing tree's index in the join's probe batch.
    pub probe: TreeIdx,
    /// The shard the request was planned against.
    pub shard: u32,
    /// Serve attempts consulted for this request (first try + retries;
    /// 0 when no replica was alive at planning time and none recovered).
    pub attempts: u32,
    /// Attempts after the first.
    pub retries: u32,
    /// Backoff slept before this request's retries, in clock ms.
    pub backoff_ms: u64,
    /// Deadline-accounted time charged to this request (absorbed delays,
    /// request timeouts and backoffs), in clock ms.
    pub spent_ms: u64,
    /// Whether the request ultimately produced a response.
    pub served: bool,
}

/// What the router did to produce a result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Shard requests planned (probes × owning shards).
    pub requests: u64,
    /// Requests that ultimately produced a response.
    pub served: u64,
    /// Serve attempts issued across all requests (first tries and
    /// retries, successful or not).
    pub attempts: u64,
    /// Faults injected across all attempts.
    pub faults: u64,
    /// Retry attempts issued after a failed first attempt.
    pub retries: u64,
    /// Failovers: attempts redirected because a node was (or went) down.
    pub failovers: u64,
    /// Total backoff slept, in clock milliseconds.
    pub backoff_ms: u64,
    /// Total injected delay absorbed, in clock milliseconds.
    pub delay_ms: u64,
    /// One row per planned shard request, in planning order.
    pub per_request: Vec<RequestStats>,
}

impl Telemetry {
    /// The request rows that went unserved.
    pub fn unserved_requests(&self) -> impl Iterator<Item = &RequestStats> {
        self.per_request.iter().filter(|r| !r.served)
    }

    /// The most-retried request, if any retried at all.
    pub fn hottest_request(&self) -> Option<&RequestStats> {
        self.per_request
            .iter()
            .filter(|r| r.retries > 0)
            .max_by_key(|r| (r.retries, r.backoff_ms))
    }
}

/// The result of a cluster join.
#[derive(Debug, Clone)]
pub struct ClusterJoin {
    /// Union of the per-shard responses — pairs `(catalog tree, probe)`
    /// normalized exactly like `Catalog::join`'s, stats folded per shard
    /// request (stage counts merged by name).
    pub outcome: JoinOutcome,
    /// `None` when every planned request was served; otherwise the exact
    /// coverage gap.
    pub degraded: Option<Degraded>,
    /// Router work counters for this join.
    pub telemetry: Telemetry,
}

impl ClusterJoin {
    /// Whether every planned shard request was served.
    pub fn is_complete(&self) -> bool {
        self.degraded.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_summaries() {
        let degraded = Degraded {
            unserved: vec![(0, 5), (0, 7), (2, 5)],
            lost_shards: vec![1],
            ..Degraded::default()
        };
        assert_eq!(degraded.affected_probes(), 2);
        assert_eq!(degraded.unserved_classes(), vec![5, 7]);
    }

    #[test]
    fn telemetry_surfaces_retry_pressure() {
        let row = |probe, retries, backoff_ms, served| RequestStats {
            probe,
            shard: 0,
            attempts: retries + 1,
            retries,
            backoff_ms,
            spent_ms: backoff_ms,
            served,
        };
        let telemetry = Telemetry {
            requests: 3,
            served: 2,
            per_request: vec![
                row(0, 0, 0, true),
                row(1, 2, 30, true),
                row(2, 3, 70, false),
            ],
            ..Telemetry::default()
        };
        assert_eq!(telemetry.unserved_requests().count(), 1);
        assert_eq!(telemetry.hottest_request().unwrap().probe, 2);
    }
}
