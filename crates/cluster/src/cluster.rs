//! The [`Cluster`]: N catalog nodes behind the scatter/gather
//! [`Router`], reached in process.
//!
//! Construction restores every node's owned shard sections from a
//! snapshot ([`Cluster::from_snapshot`] hands each node the same bytes;
//! [`Cluster::from_node_snapshots`] gives each node its own copy, which
//! is how the corruption suite models a node holding damaged data). A
//! node whose restore fails — corrupted shard section, truncated file,
//! sections that contradict one another — comes up **down** with the
//! typed error attached, and the router treats it exactly like a dead
//! node: requests fail over to replicas. Everything the router needs —
//! topology, health, retry policy, clock, per-node metrics — lives in
//! the one [`Router`] the cluster owns ([`Cluster::router`]); the
//! cluster adds the node slots, the fault injector and the snapshot.
//!
//! After losses, [`Cluster::recover`] re-replicates the dead nodes'
//! shard slots onto survivors from the retained snapshot, through the
//! same validating restore — the "node loss + shard reassignment from
//! the same snapshot" path of the roadmap's serving-layer item.

use crate::error::ClusterError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::node::Node;
use crate::outcome::ClusterJoin;
use crate::retry::RetryPolicy;
use crate::router::Router;
use crate::topology::Topology;
use crate::transport::LocalTransport;
use partsj::PartSjConfig;
use std::collections::BTreeSet;
use std::sync::Arc;
use tsj_catalog::SnapshotReader;
use tsj_obs::VirtualClock;
use tsj_tree::Tree;

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
    /// The router state; restore failures and static fault-plan deaths
    /// start a node dead.
    router: Router,
    slots: Vec<NodeSlot>,
    injector: FaultInjector,
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
        let mut router = Router::new(
            topology,
            reader.shard_map()?,
            reader.tau(),
            cfg.retry.clone(),
            cfg.faults.seed,
            Arc::new(VirtualClock::new()),
        );
        for (n, slot) in slots.iter().enumerate() {
            if !matches!(slot, NodeSlot::Up(_)) || cfg.faults.down_nodes.contains(&n) {
                router.kill_node(n);
            }
        }
        Ok(Cluster {
            router,
            slots,
            injector: FaultInjector::new(cfg.faults.clone()),
            snapshot: Arc::new(reader),
        })
    }

    /// Scatter/gather join of `probes` against the cluster at threshold
    /// `tau ≤ tau_frozen` — [`Router::join`] over the in-process nodes.
    pub fn join(
        &mut self,
        probes: &[Tree],
        tau: u32,
        config: &PartSjConfig,
    ) -> Result<ClusterJoin, ClusterError> {
        let clock = Arc::clone(self.router.clock());
        let mut transport = LocalTransport {
            slots: &self.slots,
            injector: &self.injector,
            clock: &*clock,
            request_timeout_ms: self.router.retry().request_timeout_ms,
            probes,
            config,
            ctxs: Vec::new(),
        };
        self.router.join(&mut transport, probes, tau)
    }

    /// The router: health, topology, metrics, clock and the frozen τ.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The router, to kill nodes or swap the clock.
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// The restore error that downed node `n`, if any.
    pub fn node_error(&self, n: usize) -> Option<&ClusterError> {
        match self.slots.get(n) {
            Some(NodeSlot::Down(e)) => Some(e),
            _ => None,
        }
    }

    /// Re-replicates every shard slot held by a dead node onto the
    /// least-loaded alive node not already holding that shard. Every
    /// node that gains a shard is restored whole from the retained
    /// snapshot — through the same validating restore as at construction
    /// — before anything changes: a damaged or inconsistent section is a
    /// typed error and moves nothing. Returns the number of shard slots
    /// moved.
    pub fn recover(&mut self) -> Result<usize, ClusterError> {
        let health = &self.router.health;
        let mut topology = self.router.topology.clone();
        let mut loads: Vec<usize> = (0..self.slots.len())
            .map(|n| topology.shards_of(n).len())
            .collect();
        let mut grown = BTreeSet::new();
        let mut moved = 0;
        for shard in 0..topology.shards() as u32 {
            let replicas = self.router.topology.replicas(shard);
            for dead in replicas.iter().copied().filter(|&n| !health[n]) {
                let target = (0..self.slots.len())
                    .filter(|&n| health[n] && !topology.replicas(shard).contains(&n))
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
        self.router.topology = topology;
        Ok(moved)
    }
}
