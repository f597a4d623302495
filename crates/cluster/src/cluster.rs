//! The [`Cluster`]: N catalog nodes behind the scatter/gather router.
//!
//! Construction restores every node's owned shard sections from a
//! snapshot ([`Cluster::from_snapshot`] hands each node the same bytes;
//! [`Cluster::from_node_snapshots`] gives each node its own copy, which
//! is how the corruption suite models a node holding damaged data). A
//! node whose restore fails — corrupted shard section, truncated file,
//! sections that contradict one another — comes up **down** with the
//! typed error attached, and the router treats it exactly like a dead
//! node: requests fail over to replicas.
//!
//! After losses, [`Cluster::recover`] re-replicates the dead nodes'
//! shard slots onto survivors from the retained snapshot, through the
//! same validating restore — the "node loss + shard reassignment from
//! the same snapshot" path of the roadmap's serving-layer item.

use crate::error::ClusterError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::metrics::{ClusterMetrics, NodeMetricsSnapshot};
use crate::node::Node;
use crate::retry::RetryPolicy;
use crate::topology::Topology;
use std::collections::BTreeSet;
use std::sync::Arc;
use tsj_catalog::SnapshotReader;
use tsj_obs::{Clock, MetricsSnapshot, VirtualClock};
use tsj_shard::ShardMap;

/// How to build a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Copies of each shard (clamped to the node count).
    pub replication: usize,
    /// What to inject, and when.
    pub faults: FaultPlan,
    /// Retry/backoff/deadline policy of the router.
    pub retry: RetryPolicy,
}

impl ClusterConfig {
    /// A fault-free cluster of `nodes` nodes with `replication` copies
    /// per shard and the default retry policy.
    pub fn new(nodes: usize, replication: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            replication,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig::new(1, 1)
    }
}

/// A node slot: restored and servable, or down with the reason.
#[derive(Debug)]
pub(crate) enum NodeSlot {
    Up(Box<Node>),
    Down(ClusterError),
}

impl NodeSlot {
    /// Node `n` restored from its snapshot copy — or down with the typed
    /// reason when the copy is damaged or inconsistent.
    fn restore(n: usize, reader: &SnapshotReader, owned: &[u32]) -> NodeSlot {
        match Node::restore(n, reader, owned) {
            Ok(node) => NodeSlot::Up(Box::new(node)),
            Err(e) => NodeSlot::Down(e),
        }
    }
}

/// An in-process cluster of catalog nodes serving scatter/gather joins.
#[derive(Debug)]
pub struct Cluster {
    pub(crate) topology: Topology,
    pub(crate) slots: Vec<NodeSlot>,
    /// `health[n]` — node `n` is up *and* currently believed reachable.
    /// Restore failures and static fault-plan deaths clear it at
    /// construction; the router clears it when a request finds the node
    /// dead mid-join.
    pub(crate) health: Vec<bool>,
    pub(crate) tau: u32,
    pub(crate) map: ShardMap,
    pub(crate) shard_count: usize,
    pub(crate) injector: FaultInjector,
    pub(crate) retry: RetryPolicy,
    pub(crate) clock: Arc<dyn Clock>,
    /// Per-node lifetime counters and latency histograms; increments
    /// mirror the router's telemetry so sums reconcile exactly.
    pub(crate) metrics: ClusterMetrics,
    /// The snapshot recovery restores reassigned shard sections from.
    snapshot: Arc<SnapshotReader>,
}

impl Cluster {
    /// Builds a cluster where every node restores its owned shards from
    /// the same snapshot `bytes`.
    pub fn from_snapshot(bytes: Vec<u8>, cfg: &ClusterConfig) -> Result<Cluster, ClusterError> {
        let reader = SnapshotReader::from_bytes(bytes)?;
        let topology = Self::check_topology(&reader, cfg)?;
        let slots = (0..cfg.nodes)
            .map(|n| NodeSlot::restore(n, &reader, &topology.shards_of(n)))
            .collect();
        Self::assemble(reader, topology, slots, cfg)
    }

    /// Builds a cluster where node `n` restores from `snapshots[n]` —
    /// its own, possibly damaged, copy. A node whose copy fails to parse
    /// or decode comes up down with the typed error; construction only
    /// fails outright when *no* node's copy parses (there is no catalog
    /// to serve). Recovery uses the first parseable copy as its section
    /// source.
    pub fn from_node_snapshots(
        snapshots: Vec<Vec<u8>>,
        cfg: &ClusterConfig,
    ) -> Result<Cluster, ClusterError> {
        if snapshots.len() != cfg.nodes {
            return Err(ClusterError::Topology {
                context: format!("{} node snapshots for {} nodes", snapshots.len(), cfg.nodes),
            });
        }
        let mut parsed: Vec<Result<SnapshotReader, ClusterError>> = snapshots
            .into_iter()
            .map(|bytes| SnapshotReader::from_bytes(bytes).map_err(ClusterError::from))
            .collect();
        let Some(canonical) = parsed.iter().position(|r| r.is_ok()) else {
            // No copy parses at all: there is no catalog to serve.
            return Err(parsed.swap_remove(0).unwrap_err());
        };
        let (topology, shards, tau) = {
            let Ok(reader) = &parsed[canonical] else {
                unreachable!("canonical picked among Ok entries")
            };
            (
                Self::check_topology(reader, cfg)?,
                reader.shard_count(),
                reader.tau(),
            )
        };
        let mut canonical_reader = None;
        let mut slots = Vec::with_capacity(cfg.nodes);
        for (n, res) in parsed.into_iter().enumerate() {
            let slot = match res {
                Err(e) => NodeSlot::Down(e),
                Ok(reader) if reader.shard_count() != shards || reader.tau() != tau => {
                    NodeSlot::Down(ClusterError::Topology {
                        context: format!(
                            "node {n} holds a different catalog (shards {}, tau {}) than the \
                             cluster (shards {shards}, tau {tau})",
                            reader.shard_count(),
                            reader.tau()
                        ),
                    })
                }
                Ok(reader) => {
                    let slot = NodeSlot::restore(n, &reader, &topology.shards_of(n));
                    if canonical_reader.is_none() {
                        // Recovery's section source: the first parseable
                        // copy (sections stay checksum-verified at use).
                        canonical_reader = Some(reader);
                    }
                    slot
                }
            };
            slots.push(slot);
        }
        let reader = canonical_reader.expect("at least one copy parsed");
        Self::assemble(reader, topology, slots, cfg)
    }

    fn check_topology(
        reader: &SnapshotReader,
        cfg: &ClusterConfig,
    ) -> Result<Topology, ClusterError> {
        if reader.shard_count() == 0 {
            return Err(ClusterError::Topology {
                context: "snapshot holds no shards".into(),
            });
        }
        Topology::new(reader.shard_count(), cfg.nodes, cfg.replication)
    }

    fn assemble(
        reader: SnapshotReader,
        topology: Topology,
        slots: Vec<NodeSlot>,
        cfg: &ClusterConfig,
    ) -> Result<Cluster, ClusterError> {
        let map = reader.shard_map()?;
        let health = slots
            .iter()
            .enumerate()
            .map(|(n, slot)| matches!(slot, NodeSlot::Up(_)) && !cfg.faults.down_nodes.contains(&n))
            .collect();
        let metrics = ClusterMetrics::new(cfg.nodes);
        Ok(Cluster {
            tau: reader.tau(),
            shard_count: reader.shard_count(),
            map,
            topology,
            slots,
            health,
            injector: FaultInjector::new(cfg.faults.clone()),
            retry: cfg.retry.clone(),
            clock: Arc::new(VirtualClock::new()),
            metrics,
            snapshot: Arc::new(reader),
        })
    }

    /// Swaps the clock (e.g. [`crate::SystemClock`] for real waiting, or
    /// a shared [`VirtualClock`] a test inspects).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Cluster {
        self.clock = clock;
        self
    }

    /// Per-node lifetime metrics: serve attempts, responses, failures,
    /// retries, failovers, backoff/delay milliseconds and the
    /// request-latency histogram, cumulative across every join this
    /// cluster served. Per-node sums reconcile exactly with each join's
    /// [`crate::Telemetry`]; on a `VirtualClock` the latency
    /// distributions are deterministic. Zeros when the global
    /// observability registry was disabled at construction.
    pub fn metrics(&self) -> Vec<NodeMetricsSnapshot> {
        self.metrics.per_node(&self.health)
    }

    /// The raw per-node metric series (names labeled `{node="n"}`),
    /// ready for [`tsj_obs::export::to_prometheus`] /
    /// [`tsj_obs::export::to_json`] — what a `catalogd` server would
    /// expose on its `/metrics` endpoint.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The threshold the underlying snapshot was frozen for.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Number of shards in the snapshot.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Number of nodes (up or down).
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// The shard placement table.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Whether node `n` is currently believed alive.
    pub fn is_alive(&self, n: usize) -> bool {
        self.health.get(n).copied().unwrap_or(false)
    }

    /// Nodes currently believed alive, ascending.
    pub fn alive_nodes(&self) -> Vec<usize> {
        (0..self.slots.len()).filter(|&n| self.health[n]).collect()
    }

    /// The restore error that downed node `n`, if any.
    pub fn node_error(&self, n: usize) -> Option<&ClusterError> {
        match self.slots.get(n) {
            Some(NodeSlot::Down(e)) => Some(e),
            _ => None,
        }
    }

    /// Marks node `n` dead: subsequent joins route around it. (The
    /// in-process analogue of pulling the plug mid-workload.)
    pub fn kill_node(&mut self, n: usize) {
        if let Some(h) = self.health.get_mut(n) {
            *h = false;
        }
    }

    /// Shards with no alive replica — joins touching their size classes
    /// will degrade until [`Cluster::recover`] reassigns them.
    pub fn lost_shards(&self) -> Vec<u32> {
        (0..self.shard_count as u32)
            .filter(|&s| self.topology.replicas(s).iter().all(|&n| !self.health[n]))
            .collect()
    }

    /// Re-replicates every shard slot held by a dead node onto the
    /// least-loaded alive node not already holding that shard. Every
    /// node that gains a shard is restored whole from the retained
    /// snapshot — through the same validating restore as at construction
    /// — before anything changes: a damaged or inconsistent section is a
    /// typed error and moves nothing. Returns the number of shard slots
    /// moved.
    pub fn recover(&mut self) -> Result<usize, ClusterError> {
        let mut topology = self.topology.clone();
        let mut loads: Vec<usize> = (0..self.slots.len())
            .map(|n| topology.shards_of(n).len())
            .collect();
        let mut grown = BTreeSet::new();
        let mut moved = 0;
        for shard in 0..self.shard_count as u32 {
            let replicas = self.topology.replicas(shard);
            for dead in replicas.iter().copied().filter(|&n| !self.health[n]) {
                let target = (0..self.slots.len())
                    .filter(|&n| self.health[n] && !topology.replicas(shard).contains(&n))
                    .min_by_key(|&n| (loads[n], n));
                let Some(target) = target else { continue };
                topology.reassign(shard, dead, target)?;
                loads[target] += 1;
                moved += 1;
                grown.insert(target);
            }
        }
        let restored = grown
            .into_iter()
            .map(|n| Ok((n, Node::restore(n, &self.snapshot, &topology.shards_of(n))?)))
            .collect::<Result<Vec<_>, ClusterError>>()?;
        for (n, node) in restored {
            self.slots[n] = NodeSlot::Up(Box::new(node));
        }
        self.topology = topology;
        Ok(moved)
    }
}
