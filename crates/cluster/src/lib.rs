//! # tsj-cluster
//!
//! Fault-tolerant, in-process cluster serving for frozen tree-similarity
//! catalogs: N catalog "nodes" — each holding a subset of the snapshot's
//! shard sections, with configurable replication — behind a
//! scatter/gather [`Router`], joined through [`Cluster::join`].
//!
//! The shard boundary does the heavy lifting: a probe of `|T|` nodes at
//! threshold `τ` touches only the size classes `[|T| − τ, |T| + τ]`
//! ([`partsj::window_of`]), every catalog tree's postings live in
//! exactly **one** shard, and snapshot sections decode independently
//! ([`tsj_catalog::SnapshotReader::restore`] brings a node's owned
//! shards up as one [`tsj_shard::Frozen`] side). So the router scatters
//! one request per owning shard, nodes serve them with zero cross-node
//! coordination, and the gathered union is **bit-identical** — pairs,
//! candidate counts *and* filter-stage counters — to single-node
//! `Catalog::join` (property-tested across nodes × replication × shards
//! × τ).
//!
//! Fault tolerance is the headline, not an afterthought. Every node sits
//! behind a deterministic [`FaultInjector`] (stateless seeded hashing:
//! node down, delays, timeouts, transient errors; a damaged snapshot
//! copy downs its node at load), and the router carries a real
//! resilience policy ([`RetryPolicy`]): per-probe deadlines, bounded retries with
//! exponential backoff + deterministic jitter against replicas,
//! immediate failover from dead nodes, and — when every replica of a
//! shard is lost — a typed [`Degraded`] report naming exactly which
//! `(probe, size class)` combinations went unserved alongside the pairs
//! it could still prove. Never a silent wrong answer, never a panic.
//!
//! One router, two transports: the [`Router`] holds the router state
//! (topology, health, retry policy, clock, per-node metrics, shard map,
//! frozen τ) and the one [`Router::join`]; [`Cluster`] owns one and hands
//! it the in-process transport, `tsj-catalogd`'s `ClusterClient` owns
//! one and hands it a TCP [`NodeTransport`]. The shared accessors are
//! the router's: `cluster.router().metrics()`.
//!
//! ```
//! use tsj_cluster::{Cluster, ClusterConfig};
//! use partsj::PartSjConfig;
//! use tsj_catalog::Catalog;
//! use tsj_shard::ShardConfig;
//! use tsj_tree::{parse_bracket, LabelInterner};
//!
//! let mut labels = LabelInterner::new();
//! let trees: Vec<_> = ["{item{kbd}{price}}", "{item{dock}{ports}}"]
//!     .iter()
//!     .map(|s| parse_bracket(s, &mut labels).unwrap())
//!     .collect();
//! let catalog = Catalog::freeze(
//!     trees,
//!     labels.clone(),
//!     1,
//!     &PartSjConfig::default(),
//!     &ShardConfig::with_shards(4),
//! );
//!
//! // Split the snapshot across 2 nodes, each shard on both (R = 2).
//! let mut cluster =
//!     Cluster::from_snapshot(catalog.to_bytes(), &ClusterConfig::new(2, 2)).unwrap();
//! let probe = parse_bracket("{item{dock}{plug}}", &mut labels).unwrap();
//! let served = cluster
//!     .join(&[probe.clone()], 1, &PartSjConfig::default())
//!     .unwrap();
//! assert!(served.is_complete());
//! assert_eq!(served.outcome.pairs, vec![(1, 0)]);
//!
//! // Kill a node: the replica serves the identical result.
//! cluster.router_mut().kill_node(0);
//! let failed_over = cluster.join(&[probe], 1, &PartSjConfig::default()).unwrap();
//! assert!(failed_over.is_complete());
//! assert_eq!(failed_over.outcome.pairs, vec![(1, 0)]);
//! ```
//!
//! See `examples/cluster_failover.rs` for the full kill-one / kill-both /
//! recover arc, and the "Cluster serving & fault tolerance" section of
//! `docs/ARCHITECTURE.md` for the degradation contract and how to add a fault type.

#![warn(missing_docs)]

mod cluster;
mod error;
mod fault;
mod metrics;
mod node;
mod outcome;
mod retry;
mod router;
mod topology;
mod transport;

/// The injectable clock, promoted into [`tsj_obs`] (so trace spans and
/// the router share one notion of time) and re-exported here unchanged.
pub use tsj_obs::{Clock, SystemClock, VirtualClock};

pub use cluster::{Cluster, ClusterConfig};
pub use error::ClusterError;
pub use fault::{corrupt_range, mix, mix_unit, Fault, FaultInjector, FaultPlan};
pub use metrics::NodeMetricsSnapshot;
pub use node::{Node, NodeScratch, ProbeCtx, ShardRequest, ShardResponse};
pub use outcome::{ClusterJoin, Degraded, RequestStats, Telemetry};
pub use retry::{backoff_bounds_ms, backoff_ms, RetryPolicy, MAX_ATTEMPTS};
pub use router::{plan_requests, Router};
pub use topology::Topology;
pub use transport::{AttemptOutcome, NodeTransport};
