//! The scatter/gather [`Router`]: planning, fan-out, retry, degradation.
//!
//! Each front end owns one `Router` — the in-process [`crate::Cluster`]
//! and the `tsj-catalogd` `ClusterClient` alike — and hands it, per join,
//! the [`NodeTransport`] that carries attempts to its nodes. The router
//! holds everything else: topology and health, retry policy and backoff
//! seed, clock, per-node metrics, shard map and frozen τ. A join runs in
//! three deterministic phases:
//!
//! 1. **Plan** — each probe's size window `[|T| − τ, |T| + τ]`
//!    ([`partsj::window_of`]) is split by the snapshot's `ShardMap` into
//!    one [`ShardRequest`] per owning shard, carrying exactly the classes
//!    that shard owns (the unit of coverage accounting). Requests go to
//!    the first *alive* replica of their shard.
//! 2. **Scatter** — the transport fans first attempts out, one worker per
//!    addressed node, in planning order. The in-process transport
//!    consults the fault injector *before* any compute, so failed
//!    attempts contribute no stats and retries can never double-count;
//!    the TCP transport sends real frames over pooled connections.
//! 3. **Gather + retry** — failed requests are retried *sequentially* in
//!    request order against replicas: a dead node means immediate
//!    failover (and a health mark the rest of the join sees); anything
//!    else backs off exponentially with deterministic jitter, bounded by
//!    [`crate::MAX_ATTEMPTS`] and the per-probe deadline.
//!    Requests that exhaust replicas, attempts or deadline degrade: their
//!    classes are reported unserved, never silently dropped.
//!
//! Because every catalog tree's postings live in exactly one shard,
//! per-request candidate sets are disjoint and the gathered union is
//! bit-identical — pairs, candidate counts and filter-stage counters —
//! to single-node `Catalog::join`. Both transports run through the one
//! [`Router::join`], so the property suites that pin the contract cover
//! both.
//!
//! **Accounting**: every [`crate::Telemetry`] increment has a per-node
//! twin in [`Router::metrics`] (recorded in the sequential gather phase
//! under identical conditions, so sums reconcile exactly) and a
//! per-request row in [`crate::RequestStats`]. The gather records the
//! scatter's outcome as attempt 0 and every retry through the same code.
//! The whole join runs under a `cluster.join` trace span on the router's
//! clock.

use crate::error::ClusterError;
use crate::fault::Fault;
use crate::metrics::{ClusterMetrics, NodeMetricsSnapshot};
use crate::node::ShardRequest;
use crate::outcome::{ClusterJoin, Degraded, RequestStats, Telemetry};
use crate::retry::{backoff_ms, RetryPolicy, MAX_ATTEMPTS};
use crate::topology::Topology;
use crate::transport::{AttemptOutcome, NodeTransport};
use partsj::window_of;
use std::collections::BTreeMap;
use std::sync::Arc;
use tsj_obs::{Clock, MetricsSnapshot};
use tsj_shard::ShardMap;
use tsj_ted::{JoinOutcome, JoinStats, TreeIdx};
use tsj_tree::Tree;

/// Splits each probe's size window across the owning shards: one
/// [`ShardRequest`] per `(probe, shard)` combination, in probe order —
/// the plan phase of [`Router::join`].
pub fn plan_requests(
    probes: &[Tree],
    tau: u32,
    map: &ShardMap,
    shard_count: usize,
) -> Vec<ShardRequest> {
    let mut requests: Vec<ShardRequest> = Vec::new();
    for (j, tree) in probes.iter().enumerate() {
        let (lo, hi) = window_of(tree.len() as u32, tau);
        let mut by_shard: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for n in lo..=hi {
            by_shard
                .entry(map.shard_of(n, shard_count) as u32)
                .or_default()
                .push(n);
        }
        for (shard, classes) in by_shard {
            requests.push(ShardRequest {
                probe: j as TreeIdx,
                shard,
                classes,
            });
        }
    }
    requests
}

/// The router state of one front end, and the one scatter/gather join
/// over it.
#[derive(Debug)]
pub struct Router {
    pub(crate) topology: Topology,
    /// `health[n]` — node `n` is believed reachable. The front end clears
    /// it for nodes that cannot serve; the router clears it when a
    /// request finds the node dead mid-join.
    pub(crate) health: Vec<bool>,
    retry: RetryPolicy,
    /// Seed of the deterministic backoff jitter ([`backoff_ms`]).
    backoff_seed: u64,
    clock: Arc<dyn Clock>,
    /// Per-node lifetime counters and latency histograms; increments
    /// mirror the join telemetry so sums reconcile exactly.
    metrics: ClusterMetrics,
    map: ShardMap,
    tau: u32,
}

impl Router {
    /// A router over `topology` with every node alive, routing size
    /// classes by `map` for a snapshot frozen at `tau`. Per-node metrics
    /// honor the global observability switch as it stands now: built
    /// while it is disabled, [`Router::metrics`] reports zeros.
    pub fn new(
        topology: Topology,
        map: ShardMap,
        tau: u32,
        retry: RetryPolicy,
        backoff_seed: u64,
        clock: Arc<dyn Clock>,
    ) -> Router {
        let nodes = topology.nodes();
        Router {
            topology,
            health: vec![true; nodes],
            retry,
            backoff_seed,
            clock,
            metrics: ClusterMetrics::new(nodes),
            map,
            tau,
        }
    }

    /// Scatter/gather join of `probes` at threshold `tau ≤` the frozen τ
    /// through `transport`: all `(catalog tree, probe)` pairs within TED
    /// `tau`, plus a [`Degraded`] report if any size classes went
    /// unserved. Fault handling is part of the contract: results are
    /// never silently incomplete and faults never panic. An `Err` is a
    /// τ above the frozen one or a non-fault failure the transport
    /// reports (a routing bug, a protocol violation).
    pub fn join(
        &mut self,
        transport: &mut dyn NodeTransport,
        probes: &[Tree],
        tau: u32,
    ) -> Result<ClusterJoin, ClusterError> {
        if tau > self.tau {
            return Err(ClusterError::TauExceedsFrozen {
                query: tau,
                frozen: self.tau,
            });
        }
        let _join_span = tsj_obs::tracer().span(&self.clock, "cluster.join", "cluster");
        let requests = plan_requests(probes, tau, &self.map, self.shard_count());
        let mut telemetry = Telemetry {
            requests: requests.len() as u64,
            ..Telemetry::default()
        };

        // Scatter to the first alive replica of each shard.
        let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); self.topology.nodes()];
        let mut assigned: Vec<Option<usize>> = vec![None; requests.len()];
        for (r, req) in requests.iter().enumerate() {
            if let Some(n) = self
                .topology
                .replicas(req.shard)
                .iter()
                .copied()
                .find(|&n| self.health[n])
            {
                per_node[n].push(r);
                assigned[r] = Some(n);
            }
        }
        let outcomes = transport.scatter(&requests, &per_node, tau)?;

        // Gather; retry failures sequentially, in request order. All
        // metric attribution happens here (never in the scatter workers),
        // so per-node counters are deterministic under any thread
        // interleaving.
        let deadline = self.retry.probe_deadline_ms;
        let mut responses = Vec::new();
        let mut unserved: Vec<(TreeIdx, u32)> = Vec::new();
        let mut probe_spent: Vec<u64> = vec![0; probes.len()];
        // Effort sunk into requests that still went unserved.
        let (mut lost_attempts, mut lost_retries, mut lost_backoff) = (0u64, 0u64, 0u64);
        for ((req, first), node) in requests.iter().zip(outcomes).zip(assigned) {
            let p = req.probe as usize;
            let mut request = RequestStats {
                probe: req.probe,
                shard: req.shard,
                ..RequestStats::default()
            };
            // Attempt 0 went out in the scatter, unless no replica was
            // alive at planning time; each retry goes out at the bottom
            // of the loop. An attempt is counted when it goes out.
            let mut sent = first.zip(node);
            if let Some((_, n)) = &sent {
                telemetry.attempts += 1;
                request.attempts = 1;
                self.metrics.node(*n).attempts.inc();
            }
            let mut last_fault = Fault::NodeDown;
            let mut attempt = 0;
            request.served = loop {
                if let Some((outcome, n)) = sent.take() {
                    let cells = self.metrics.node(n);
                    match outcome {
                        AttemptOutcome::Served {
                            resp,
                            injected_delay_ms,
                            latency_ms,
                        } => {
                            if injected_delay_ms > 0 {
                                telemetry.faults += 1;
                                telemetry.delay_ms += injected_delay_ms;
                                cells.delays.inc();
                                cells.delay_ms.add(injected_delay_ms);
                            }
                            probe_spent[p] += latency_ms;
                            request.spent_ms += latency_ms;
                            cells.served.inc();
                            cells.latency.record(request.spent_ms);
                            responses.push(resp);
                            break true;
                        }
                        AttemptOutcome::DeadlineExceeded => {
                            // The late response is discarded: the attempt
                            // produced nothing usable, and the request
                            // degrades without retrying.
                            telemetry.faults += 1;
                            probe_spent[p] = deadline;
                            cells.failed.inc();
                            break false;
                        }
                        AttemptOutcome::Failed(fault) => {
                            telemetry.faults += 1;
                            cells.failed.inc();
                            last_fault = match fault {
                                Fault::NodeDown => {
                                    self.health[n] = false;
                                    telemetry.failovers += 1;
                                    cells.failovers.inc();
                                    Fault::NodeDown
                                }
                                Fault::Transient => Fault::Transient,
                                Fault::Timeout | Fault::Delay(_) => {
                                    probe_spent[p] += self.retry.request_timeout_ms;
                                    request.spent_ms += self.retry.request_timeout_ms;
                                    // A retry's timeout that spends the
                                    // deadline ends the request; the first
                                    // attempt's goes on to the backoff check.
                                    if attempt > 0 && probe_spent[p] >= deadline {
                                        break false;
                                    }
                                    Fault::Timeout
                                }
                            };
                        }
                    }
                }
                attempt += 1;
                if attempt >= MAX_ATTEMPTS {
                    break false;
                }
                // Failover target: scan the replica ring from `attempt`
                // so consecutive retries of the same request prefer
                // different copies; skip anything known dead.
                let replicas = self.topology.replicas(req.shard);
                let Some(target) = (0..replicas.len())
                    .map(|i| replicas[(attempt as usize + i) % replicas.len()])
                    .find(|&n| self.health[n])
                else {
                    break false; // every replica lost: unrecoverable
                };
                if last_fault != Fault::NodeDown {
                    // Dead nodes fail over immediately; everything else
                    // backs off first — within the probe's deadline.
                    let backoff = backoff_ms(self.backoff_seed, req.probe, req.shard, attempt);
                    if probe_spent[p] + backoff > deadline {
                        break false;
                    }
                    self.clock.sleep_ms(backoff);
                    probe_spent[p] += backoff;
                    telemetry.backoff_ms += backoff;
                    request.backoff_ms += backoff;
                    request.spent_ms += backoff;
                    self.metrics.node(target).backoff_ms.add(backoff);
                }
                telemetry.retries += 1;
                telemetry.attempts += 1;
                request.retries += 1;
                request.attempts += 1;
                let cells = self.metrics.node(target);
                cells.retries.inc();
                cells.attempts.inc();
                let deadline_left = deadline.saturating_sub(probe_spent[p]);
                let outcome = transport.serve(target, req, attempt, tau, deadline_left)?;
                sent = Some((outcome, target));
            };
            if !request.served {
                unserved.extend(req.classes.iter().map(|&c| (req.probe, c)));
                lost_attempts += u64::from(request.attempts);
                lost_retries += u64::from(request.retries);
                lost_backoff += request.backoff_ms;
            }
            telemetry.per_request.push(request);
        }

        // Union: pair sets are disjoint across shards, stats fold by name.
        telemetry.served = responses.len() as u64;
        let mut pairs: Vec<(TreeIdx, TreeIdx)> = Vec::new();
        let mut stats = JoinStats::default();
        for resp in &responses {
            pairs.extend(resp.matches.iter().map(|&i| (i, resp.probe)));
            stats.merge_partial(&resp.stats);
        }
        let outcome = JoinOutcome::new_bipartite(pairs, stats);
        let degraded = if unserved.is_empty() {
            None
        } else {
            unserved.sort_unstable();
            unserved.dedup();
            tsj_obs::tracer().instant(&*self.clock, "cluster.degraded", "cluster");
            Some(Degraded {
                unserved,
                lost_shards: self.lost_shards(),
                attempts: lost_attempts,
                retries: lost_retries,
                backoff_ms: lost_backoff,
            })
        };
        let obs = tsj_obs::global();
        if obs.is_enabled() {
            obs.counter("tsj_cluster_joins_total").inc();
            if degraded.is_some() {
                obs.counter("tsj_cluster_degraded_joins_total").inc();
            }
        }
        Ok(ClusterJoin {
            outcome,
            degraded,
            telemetry,
        })
    }

    /// The threshold the served snapshot was frozen for.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Number of shards in the served snapshot.
    pub fn shard_count(&self) -> usize {
        self.topology.shards()
    }

    /// Number of nodes (up or down).
    pub fn node_count(&self) -> usize {
        self.topology.nodes()
    }

    /// The shard placement table.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The retry/backoff/deadline policy.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Whether node `n` is currently believed alive.
    pub fn is_alive(&self, n: usize) -> bool {
        self.health.get(n).copied().unwrap_or(false)
    }

    /// Nodes currently believed alive, ascending.
    pub fn alive_nodes(&self) -> Vec<usize> {
        (0..self.health.len()).filter(|&n| self.health[n]).collect()
    }

    /// Shards with no alive replica — joins touching their size classes
    /// degrade until the shards are reassigned or their nodes return.
    pub fn lost_shards(&self) -> Vec<u32> {
        (0..self.shard_count() as u32)
            .filter(|&s| self.topology.replicas(s).iter().all(|&n| !self.health[n]))
            .collect()
    }

    /// Marks node `n` dead: subsequent joins route around it (in process,
    /// the analogue of pulling the plug mid-workload).
    pub fn kill_node(&mut self, n: usize) {
        if let Some(h) = self.health.get_mut(n) {
            *h = false;
        }
    }

    /// Marks node `n` alive again, once its front end has brought it back
    /// (a TCP client's reconnect after a restarted process). A node that
    /// still cannot serve fails its next attempt as down.
    pub fn revive_node(&mut self, n: usize) {
        if let Some(h) = self.health.get_mut(n) {
            *h = true;
        }
    }

    /// Per-node lifetime metrics: serve attempts, responses, failures,
    /// retries, failovers, backoff/delay milliseconds and the
    /// request-latency histogram, cumulative across every join this
    /// router served. Per-node sums reconcile exactly with each join's
    /// [`crate::Telemetry`]; on a `VirtualClock` the latency
    /// distributions are deterministic. Zeros when the global
    /// observability registry was disabled at construction.
    pub fn metrics(&self) -> Vec<NodeMetricsSnapshot> {
        self.metrics.per_node(&self.health)
    }

    /// The raw per-node metric series (names labeled `{node="n"}`),
    /// ready for [`tsj_obs::export::to_prometheus`] /
    /// [`tsj_obs::export::to_json`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The clock backoff sleeps and trace spans run on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Swaps the clock (e.g. [`crate::SystemClock`] for real waiting, or
    /// a shared [`crate::VirtualClock`] a test inspects).
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }
}
