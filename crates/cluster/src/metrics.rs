//! Per-node metrics: the router's own [`MetricsRegistry`] plus typed
//! per-node snapshots — the direct substrate for a `/metrics` endpoint.
//!
//! Every router decision the telemetry counts is *attributed to a node*
//! here: serve attempts, responses, failed attempts, absorbed delays,
//! retries, failovers, backoff and delay milliseconds, and a
//! request-latency histogram (in clock milliseconds, so a
//! `VirtualClock` makes the distribution exactly reproducible). The
//! increments sit next to the [`crate::Telemetry`] increments in the
//! router with identical conditions, so per-node sums reconcile
//! **exactly** with the join-level telemetry and the typed
//! `Complete`/`Degraded` outcomes — a contract the `metrics_reconcile`
//! suite pins under seeded fault plans.
//!
//! The registry honors the global observability switch
//! ([`tsj_obs::global`]) *at router construction*: building a router
//! while observability is disabled hands every counter a shared sink
//! cell, and [`Router::metrics`](crate::Router::metrics) reports zeros.

use tsj_obs::{labeled, Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};

/// The metric handles for one node. Recording is a relaxed atomic op.
#[derive(Debug)]
pub(crate) struct NodeCells {
    pub(crate) attempts: Counter,
    pub(crate) served: Counter,
    pub(crate) failed: Counter,
    pub(crate) delays: Counter,
    pub(crate) retries: Counter,
    pub(crate) failovers: Counter,
    pub(crate) backoff_ms: Counter,
    pub(crate) delay_ms: Counter,
    pub(crate) latency: Histogram,
}

/// The router's registry plus per-node handle table.
#[derive(Debug)]
pub(crate) struct ClusterMetrics {
    registry: MetricsRegistry,
    nodes: Vec<NodeCells>,
}

impl ClusterMetrics {
    /// Registers the full per-node series set for `nodes` nodes. The
    /// registry starts disabled (sink cells) when the global
    /// observability registry is disabled at this moment.
    pub(crate) fn new(nodes: usize) -> ClusterMetrics {
        let registry = if tsj_obs::global().is_enabled() {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        };
        let cells = (0..nodes)
            .map(|n| NodeCells {
                attempts: registry.counter(&labeled("tsj_cluster_attempts_total", "node", n)),
                served: registry.counter(&labeled("tsj_cluster_requests_served_total", "node", n)),
                failed: registry.counter(&labeled("tsj_cluster_attempts_failed_total", "node", n)),
                delays: registry.counter(&labeled("tsj_cluster_delays_absorbed_total", "node", n)),
                retries: registry.counter(&labeled("tsj_cluster_retries_total", "node", n)),
                failovers: registry.counter(&labeled("tsj_cluster_failovers_total", "node", n)),
                backoff_ms: registry.counter(&labeled("tsj_cluster_backoff_ms_total", "node", n)),
                delay_ms: registry.counter(&labeled("tsj_cluster_delay_ms_total", "node", n)),
                latency: registry.histogram(&labeled("tsj_cluster_request_latency_ms", "node", n)),
            })
            .collect();
        ClusterMetrics {
            registry,
            nodes: cells,
        }
    }

    pub(crate) fn node(&self, n: usize) -> &NodeCells {
        &self.nodes[n]
    }

    /// A point-in-time snapshot of every registered series.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Typed per-node views; `health[n]` supplies each node's liveness.
    pub(crate) fn per_node(&self, health: &[bool]) -> Vec<NodeMetricsSnapshot> {
        if !self.registry.is_enabled() {
            // Handles are shared sinks; report zeros, not sink garbage.
            return health
                .iter()
                .enumerate()
                .map(|(node, &alive)| NodeMetricsSnapshot {
                    node,
                    alive,
                    ..NodeMetricsSnapshot::default()
                })
                .collect();
        }
        self.nodes
            .iter()
            .enumerate()
            .map(|(node, cells)| NodeMetricsSnapshot {
                node,
                alive: health.get(node).copied().unwrap_or(false),
                attempts: cells.attempts.get(),
                served: cells.served.get(),
                failed_attempts: cells.failed.get(),
                delays_absorbed: cells.delays.get(),
                retries: cells.retries.get(),
                failovers: cells.failovers.get(),
                backoff_ms: cells.backoff_ms.get(),
                delay_ms: cells.delay_ms.get(),
                request_latency_ms: cells.latency.snapshot(),
            })
            .collect()
    }
}

/// A point-in-time view of one node's lifetime counters (cumulative
/// across every join its router served).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeMetricsSnapshot {
    /// The node id.
    pub node: usize,
    /// Whether the node is currently believed alive.
    pub alive: bool,
    /// Serve attempts routed at this node (first tries and retries,
    /// successful or not). Always `served + failed_attempts`.
    pub attempts: u64,
    /// Attempts that produced a response.
    pub served: u64,
    /// Attempts that produced no response (transient errors, timeouts,
    /// over-deadline delays, the node being down).
    pub failed_attempts: u64,
    /// Injected delays this node absorbed while still serving.
    pub delays_absorbed: u64,
    /// Retry attempts routed at this node after another attempt failed.
    pub retries: u64,
    /// Times a request failed over because this node was (or went) down.
    pub failovers: u64,
    /// Backoff slept before retrying against this node, in clock ms.
    pub backoff_ms: u64,
    /// Injected delay absorbed by this node's responses, in clock ms.
    pub delay_ms: u64,
    /// Per-served-request latency (deadline-accounted clock ms: absorbed
    /// delays, timeouts and backoffs spent on the request).
    pub request_latency_ms: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_one_series_set_per_node() {
        let metrics = ClusterMetrics::new(2);
        metrics.node(0).served.inc();
        metrics.node(1).latency.record(5);
        let per_node = metrics.per_node(&[true, false]);
        assert_eq!(per_node.len(), 2);
        assert_eq!(per_node[0].served, 1);
        assert!(per_node[0].alive);
        assert_eq!(per_node[1].request_latency_ms.count(), 1);
        assert!(!per_node[1].alive);
        let snapshot = metrics.snapshot();
        assert_eq!(
            snapshot.counter("tsj_cluster_requests_served_total{node=\"0\"}"),
            Some(1)
        );
    }
}
